#!/usr/bin/env python3
"""Run the full-scale study: every cell of the published simulation table.

usage: scripts/run_full_scale.py [FILTER]

The cells are the keys (function, n, rsnr) of
levyspline.reference.REFERENCE_MSE, each named
f"{function}_n{n}_rsnr{rsnr:g}": 100 replicates at 200k iterations (100k
burn-in, thin 10, seed 0) with the function's prior settings from
levyspline.reference.STUDY_HYPERPARAMS. They run in sorted key order; FILTER
keeps only the cells whose name contains it, e.g. `blocks_n128`. Each cell
writes its spec to scripts/results/full/<name>.txt and runs
`levyspline benchmark` on it, with its table in <name>.csv beside it and one
`--verbose` line per replicate on stderr. The first cell that fails stops
the run, and its status is the script's. All 42 cells take days of CPU time.
"""

from __future__ import annotations

import pathlib
import sys

from levyspline.cli import main
from levyspline.reference import REFERENCE_MSE, STUDY_HYPERPARAMS

OUT = pathlib.Path(__file__).parent / "results" / "full"

TEMPLATE = """\
# Full-scale benchmark: {function}, n = {n}, RSNR = {rsnr:g}.
# 100 replicates at 200k iterations; expect hours of runtime.
function = {function}
n = {n}
rsnr = {rsnr:g}
replicates = 100
degrees = {degrees}
r = {r:g}
R = {R:g}
a_gamma = {a_gamma:g}
b_gamma = {b_gamma:g}
iterations = 200000
burn_in = 100000
thin = 10
seed = 0
"""


def cells(pattern: str = "") -> list[tuple[str, str]]:
    """(name, spec text) of each cell whose name contains `pattern`, in key order."""
    out = []
    for function, n, rsnr in sorted(REFERENCE_MSE):
        name = f"{function}_n{n}_rsnr{rsnr:g}"
        if pattern in name:
            settings = STUDY_HYPERPARAMS[function]
            out.append((name, TEMPLATE.format(
                function=function, n=n, rsnr=rsnr,
                degrees=",".join(str(k) for k in settings["degrees"]),
                r=settings["r"], R=settings["R"],
                a_gamma=settings["a_gamma"], b_gamma=settings["b_gamma"])))
    return out


def run(argv: list[str]) -> int:
    if len(argv) > 1:
        print(f"usage: {sys.argv[0]} [FILTER]", file=sys.stderr)
        return 2
    pattern = argv[0] if argv else ""
    selected = cells(pattern)
    if not selected:
        print(f"error: no cell name contains {pattern!r}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    for name, text in selected:
        print(f"== {name} ==", flush=True)
        spec = OUT / f"{name}.txt"
        spec.write_text(text)
        status = main(["benchmark", str(spec), "--out", str(OUT / f"{name}.csv"),
                       "--verbose"])
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
