#!/usr/bin/env python3
"""Time `bspline.basis_values` of two source trees in one process.

usage: scripts/bench_basis.py PARENT_SRC CHANGE_SRC

Imports the `levyspline` package of each `src/` directory under its own name
(`parent_levyspline`, `change_levyspline`). For each degree in `DEGREES` and
each n in `SIZES`, it draws `CALLS` knot vectors (k + 2 sorted uniforms on
[0, 1], as Python floats, as the sampler passes them) and evaluates them on
an n-point grid over [0, 1]. A round times the calls of one tree, then the
calls of the other; the tree that goes first alternates from round to round.
Prints, per degree and n, each tree's median and quartiles of the per-call
time over `ROUNDS` rounds (µs), the ratio of the medians (change / parent),
and whether the two trees' outputs are byte-identical; exits 1 if any row's
are not. The same directory may be passed twice, which shows the noise of
the measurement itself.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

ROUNDS = 31
CALLS = 200
SEED = 0
DEGREES = (0, 1, 2, 3, 4, 5)
SIZES = (128, 512)


def load_bspline(name: str, src: str):
    """`levyspline.bspline` of the package under `src`, imported as `name`."""
    init = Path(src).resolve() / "levyspline" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no levyspline package under {src}")
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]  # a second call imports afresh
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.bspline")


def time_calls(fn, cases, degree: int, x: np.ndarray) -> float:
    """Mean µs per call of `fn` over `cases`."""
    start = time.perf_counter_ns()
    for knots in cases:
        fn(knots, degree, x)
    return (time.perf_counter_ns() - start) / len(cases) / 1e3


def compare(parent, change, degree: int, n: int, rounds: int, calls: int,
            rng: np.random.Generator) -> dict:
    """One row of the table: per-call µs of both trees over `rounds` rounds."""
    x = np.linspace(0.0, 1.0, n)
    cases = [sorted(rng.random(degree + 2).tolist()) for _ in range(calls)]
    identical = all(
        parent.basis_values(t, degree, x).tobytes()
        == change.basis_values(t, degree, x).tobytes() for t in cases)
    times = {"parent": [], "change": []}
    sides = [("parent", parent), ("change", change)]
    for r in range(rounds):
        for side, module in sides if r % 2 == 0 else sides[::-1]:
            times[side].append(time_calls(module.basis_values, cases, degree, x))
    quartiles = {side: np.percentile(v, [25, 50, 75]) for side, v in times.items()}
    return {"degree": degree, "n": n, "quartiles": quartiles,
            "ratio": quartiles["change"][1] / quartiles["parent"][1],
            "identical": identical}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    parent = load_bspline("parent_levyspline", args.parent_src)
    change = load_bspline("change_levyspline", args.change_src)
    rng = np.random.default_rng(SEED)
    print(f"per-call µs, median (q1-q3) over {ROUNDS} rounds of {CALLS} calls")
    print(f"{'degree':>6} {'n':>5}  {'parent':>24}  {'change':>24}  "
          f"{'ratio':>6}  identical")
    all_identical = True
    for degree in DEGREES:
        for n in SIZES:
            row = compare(parent, change, degree, n, ROUNDS, CALLS, rng)
            cells = [f"{q[1]:8.2f} ({q[0]:6.2f}-{q[2]:6.2f})"
                     for q in (row["quartiles"]["parent"], row["quartiles"]["change"])]
            print(f"{degree:>6} {n:>5}  {cells[0]:>24}  {cells[1]:>24}  "
                  f"{row['ratio']:6.3f}  {'yes' if row['identical'] else 'NO'}")
            all_identical &= row["identical"]
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
