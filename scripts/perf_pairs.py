#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and judge each metric.

usage: scripts/perf_pairs.py PARENT_ROOT CHANGE_ROOT WORKLOAD FIRST_SEED

PARENT_ROOT and CHANGE_ROOT are levyspline checkouts. Pair i of `PAIRS`
runs the benchmark command that `BENCHMARK.json` names, untraced, for its
`run_seconds`, with seed FIRST_SEED + i, once inside each checkout: the
parent first in even pairs, the change first in odd ones. A run is

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

and its result is the JSON object on the last line of its standard output.
The script prints one line per pair (each end-to-end metric as parent ->
change), then one JSON line that holds every run and, for each end-to-end
metric of `BENCHMARK.json`, both sides' medians and quartiles, the parent's
interquartile range, the pairs each side won (a tie counts for neither) and
a verdict:

- "gain": the change won at least 9 of 10 pairs and its median beats the
  parent's by more than the parent's interquartile range and by more than
  the metric's resolution floor (`RESOLUTION`, 0 where it has none);
- "worse": the change's median is worse than the parent's by more than the
  metric's `bound`, a fraction of the parent's median;
- "unresolved": neither, and the parent's interquartile range is wider
  than the bound, so the runs cannot tell a change of that size, unless
  every run of the change reads better than every run of the parent;
- "same": otherwise.

Exits 1 if any run reads `correct: false` or has failed operations, 0
otherwise. `BENCHMARK.json` is read from the checkout this script is in;
nothing under `perfbench/` is imported or changed. The same checkout may be
passed twice, which shows the noise of the measurement itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

PAIRS = 10
GAIN_WINS = 9  # pairs of `PAIRS` the change must win to claim a gain
# The smallest median gap that counts as a gain, per metric. `peak_rss_mb`
# moves with where malloc places the same allocations: CHANGES.md records
# fit-blocks 40.605 -> 40.670 and 40.61 -> 40.74 MB and study-heavisine
# 36.73 -> 36.61 MB, one side winning 10 of 10 pairs each time, while
# tracemalloc's peak moved by 4.2 KB and the parent IQRs were 0.007-0.015 MB.
# The floor sits above the largest of those 0.06-0.13 MB shifts.
RESOLUTION = {"peak_rss_mb": 0.15}
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(bench: dict, root: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run inside `root`: its result object."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode} "
                         f"without a result\n{proc.stderr[-2000:]}") from None


def value(result: dict, name: str) -> float | None:
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, wins and the verdict of one metric over the pairs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p1, pm, p3 = np.quantile(parent, [0.25, 0.5, 0.75]).tolist()
    c1, cm, c3 = np.quantile(change, [0.25, 0.5, 0.75]).tolist()
    change_wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    iqr = p3 - p1
    gap = sign * (pm - cm)  # positive when the change's median is better
    if change_wins >= GAIN_WINS and gap > max(iqr, RESOLUTION.get(metric["name"], 0.0)):
        verdict = "gain"
    elif -gap > metric["bound"] * abs(pm):
        verdict = "worse"
    elif iqr > metric["bound"] * abs(pm) and not all(
            sign * (p - c) > 0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent_median": pm, "change_median": cm,
            "parent_quartiles": [p1, p3], "change_quartiles": [c1, c3],
            "parent_iqr": iqr, "change_wins": change_wins, "parent_wins": parent_wins,
            "pairs": len(parent), "verdict": verdict}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent_root", type=Path)
    p.add_argument("change_root", type=Path)
    p.add_argument("workload")
    p.add_argument("first_seed", type=int)
    args = p.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"BENCHMARK.json has {', '.join(workloads)}")
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    names = [m["name"] for m in bench["end_to_end"]]
    runs = []
    for i in range(PAIRS):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"pair": i, "seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_once(bench, roots[side], args.workload, seed)
        runs.append(run)
        cells = [f"{name} {value(run['parent'], name)} -> {value(run['change'], name)}"
                 for name in names]
        print(f"pair {i} seed {seed}, {order[0]} first: " + ", ".join(cells), flush=True)
    metrics = {}
    for metric in bench["end_to_end"]:
        both = [(value(r["parent"], metric["name"]), value(r["change"], metric["name"]))
                for r in runs]
        both = [pc for pc in both if None not in pc]
        if both:
            metrics[metric["name"]] = judge(metric, *map(list, zip(*both)))
    ok = all(r[side]["correct"] and r[side]["failed"] == 0
             for r in runs for side in ("parent", "change"))
    print(json.dumps({"workload": args.workload, "first_seed": args.first_seed,
                      "parent_root": str(roots["parent"]),
                      "change_root": str(roots["change"]), "correct": ok,
                      "metrics": metrics, "runs": runs}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
