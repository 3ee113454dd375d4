#!/usr/bin/env python3
"""levyspline benchmark: closed-loop CLI runs with output checks and tracing.

Usage, from the root of a levyspline checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one fresh `python3 perfbench/worker.py` process that imports
levyspline from `src/`, sets up its inputs and runs the workload's command
through `levyspline.cli.main`. Operations run one after another until
`--seconds` have passed. Times are CPU seconds at reference speed: a worker's
CPU time scaled by the nominal over the measured CPU time of a fixed reference
loop run in the same process around the measured command (see worker.py),
which cancels most of the speed changes a shared host causes from run to run.
With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` each operation runs twice, untraced and
traced, and the object holds the per-layer metrics.
See perfbench/README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
DESK = ROOT / "scripts" / "benchmarks" / "desk"
TIME_LIMIT_S = 170.0  # a run must end within 180 s
RECOMPUTE_TOL = 1e-8  # criterion 9's bound on incremental vs full recompute
# The speed that reported times refer to: CPU seconds per repeat of the
# worker's reference loop. A repeat took 20-27 us on the 2-vCPU Xeon the
# baseline was measured on, so times there read close to raw CPU seconds.
REF_SECONDS_PER_REPEAT = 2e-5

# Each workload is a replicate spec in the `levyspline benchmark` key = value
# form. The fit workloads run `simulate` + `fit --save-trace` on it; the study
# runs `benchmark` on it. A fit workload's `desk` spec supplies its MSE
# threshold. Chains are shortened from the study's 50k sweeps so that a run of
# 30 s holds 5-35 operations, enough for steady medians. `ref_repeats` sizes
# each of the two reference loops to about a tenth of the measured command:
# sampled too briefly, the machine's speed is too noisy to scale by.
WORKLOADS = {
    "fit-blocks": {
        "spec": {"function": "blocks", "n": 128, "rsnr": 3.0, "degrees": "0",
                 "r": 0.01, "R": 0.01, "a_gamma": 1.0, "b_gamma": 1.0,
                 "iterations": 10000, "burn_in": 5000, "thin": 10},
        "grid": 1024,
        "desk": "blocks.txt",
        "ref_repeats": 2500,
    },
    "fit-mheavisine": {
        "spec": {"function": "modified_heavisine", "n": 512, "rsnr": 3.0,
                 "degrees": "0,1,2,3", "r": 0.01, "R": 0.01, "a_gamma": 5.0,
                 "b_gamma": 1.0, "iterations": 4000, "burn_in": 2000, "thin": 10},
        "grid": 0,
        "ref_repeats": 12000,
    },
    "study-heavisine": {
        "desk": "heavisine.txt",
        "shorten": {"iterations": 3000, "burn_in": 1500, "thin": 5},
        "ref_repeats": 20000,
    },
}
SPEC_DEFAULTS = {"r": 0.01, "R": 0.01, "a_gamma": 1.0, "b_gamma": 1.0}
# A fixed count, so the work does not depend on the machine: at least two
# replicates per core (for replicate-level parallelism) up to 4 cores, and a
# mean over 8 keeps one slow-mixing replicate from crossing the desk threshold.
STUDY_REPLICATES = 8


def read_spec(path: Path) -> dict:
    """Flat `key = value` file with `#` comments, as the CLI reads specs."""
    out = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (p.strip() for p in line.split("=", 1))
            out[key] = value
    return out


def spec_text(spec: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in spec.items())


def same_config(a: dict, b: dict) -> bool:
    def key(s):
        return (s["function"], int(s["n"]), float(s["rsnr"]),
                tuple(int(k) for k in str(s["degrees"]).split(",")))
    return key(a) == key(b)


def load_workload(name: str) -> dict:
    """The workload's spec, grid, replicate count and MSE threshold, if any."""
    wl = WORKLOADS[name]
    desk = read_spec(DESK / wl["desk"]) if "desk" in wl else None
    if "spec" in wl:
        spec = dict(wl["spec"])
        if desk and not same_config(desk, spec):
            raise ValueError(f"{wl['desk']} no longer matches workload {name}")
        threshold = desk.get("threshold") if desk else None
        return {"kind": "fit", "spec": spec, "grid": wl["grid"], "replicates": 1,
                "threshold": float(threshold) if threshold else None,
                "ref_repeats": wl["ref_repeats"]}
    spec = {**SPEC_DEFAULTS, **desk, **wl["shorten"]}
    spec["n"] = int(spec["n"])
    threshold = spec.get("threshold")
    return {"kind": "study", "spec": spec, "grid": 0, "replicates": STUDY_REPLICATES,
            "threshold": float(threshold) if threshold else None,
            "ref_repeats": wl["ref_repeats"]}


# ---- seeds ------------------------------------------------------------------


def op_seed(seed: int, tag: str, replicates: int) -> int:
    """Seed of the operation named `tag` in a run, derived from the run's seed.

    `levyspline benchmark` seeds replicate i with base_seed XOR i, so two base
    seeds that differ only in bits below the replicate count share replicates.
    Base seeds are therefore multiples of 2**bits with 2**bits >= replicates,
    which makes {base ^ i} = {base + i} and keeps every operation's replicate
    set disjoint from every other's, across operations and across run seeds.
    """
    entropy = [seed % 2**64, *tag.encode()]
    state = np.random.SeedSequence(entropy).generate_state(1)[0]
    return int(state) << (replicates - 1).bit_length()


# ---- jobs -------------------------------------------------------------------


def fit_args(data: Path, priors: Path, spec: dict, grid: int, seed: int,
             prefix: Path) -> list[str]:
    return ["fit", str(data), "--config", str(priors), "--degrees", str(spec["degrees"]),
            "--iterations", str(spec["iterations"]), "--burn-in", str(spec["burn_in"]),
            "--thin", str(spec["thin"]), "--grid", str(grid), "--seed", str(seed),
            "--out-prefix", str(prefix), "--save-trace"]


def simulate_args(spec: dict, seed: int, out: Path) -> list[str]:
    return ["simulate", spec["function"], "--n", str(spec["n"]), "--rsnr",
            str(spec["rsnr"]), "--seed", str(seed), "--out", str(out)]


def priors_text(spec: dict) -> str:
    return spec_text({k: spec[k] for k in ("r", "R", "a_gamma", "b_gamma")})


def fit_job(wl: dict, d: Path, seed: int) -> dict:
    spec = wl["spec"]
    data, priors = d / "data.csv", d / "priors.txt"
    return {"write": {str(priors): priors_text(spec)},
            "setup": [simulate_args(spec, seed, data)],
            "ready": ["dataset", str(data)],
            "measured": fit_args(data, priors, spec, wl["grid"], seed, d / "fit")}


def study_job(wl: dict, d: Path, seed: int, replay: bool = True) -> dict:
    """`benchmark` on the spec, then a `fit` that replays replicate 0's chain.

    Replicate 0 uses `seed` for both its data and its chain, so `simulate` and
    `fit --save-trace` with that seed on the data grid rebuild the same chain
    and give it a trace to measure mixing on.
    """
    spec = {**wl["spec"], "replicates": wl["replicates"], "seed": seed}
    spec_path, data, priors = d / "spec.txt", d / "rep0.csv", d / "priors.txt"
    job = {"write": {str(spec_path): spec_text(spec)},
           "ready": ["spec", str(spec_path)],
           "measured": ["benchmark", str(spec_path), "--out", str(d / "table.csv"),
                        "--verbose"]}
    if replay:
        job["write"][str(priors)] = priors_text(spec)
        job["extra"] = [simulate_args(spec, seed, data),
                        fit_args(data, priors, spec, 0, seed, d / "rep0")]
    return job


def recompute_job(wl: dict, d: Path, seed: int) -> dict:
    """A short chain fitted twice: incrementally and with --full-recompute."""
    spec = {**wl["spec"], "iterations": 200, "burn_in": 100, "thin": 2}
    data, priors = d / "data.csv", d / "priors.txt"
    full = fit_args(data, priors, spec, wl["grid"], seed, d / "full") + ["--full-recompute"]
    return {"write": {str(priors): priors_text(spec)},
            "setup": [simulate_args(spec, seed, data)],
            "ready": ["dataset", str(data)],
            "measured": fit_args(data, priors, spec, wl["grid"], seed, d / "inc"),
            "extra": [full]}


class OpFailed(Exception):
    pass


def run_job(job: dict, d: Path, deadline: float, trace: bool = False,
            probe=None) -> dict:
    """Run one worker process and return its result."""
    d.mkdir(parents=True)
    job = {**job, "src": str(SRC), "bench_dir": str(BENCH_DIR)}
    if trace:
        job["trace"] = str(d / "spans.json")
    if probe:
        job["probe"] = probe
    job_path = d / "job.json"
    job_path.write_text(json.dumps(job))
    # one thread per process; no bytecode cache, so every operation compiles
    # levyspline alike and nothing is written under src/
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
                              capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise OpFailed("operation timed out") from None
    if proc.returncode != 0:
        raise OpFailed(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---- output checks ----------------------------------------------------------


def ess(x: np.ndarray) -> float:
    """Effective sample size by Geyer's initial monotone sequence estimator."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n]
    acf /= acf[0]
    pairs = acf[: 2 * ((n - 1) // 2)].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    pairs = np.minimum.accumulate(pairs[: stop[0] if len(stop) else len(pairs)])
    tau = max(-1.0 + 2.0 * pairs.sum(), 1.0 / n)
    return n / tau


def check_curve(prefix: Path, function: str) -> tuple[float, float]:
    """Check a fit's curve and trace; return (MSE vs the truth, min ESS)."""
    from levyspline.signals import eval_test_function

    x, mean, lo, hi = np.loadtxt(f"{prefix}_curve.csv", delimiter=",", skiprows=1,
                                 ndmin=2).T
    if not np.isfinite([x, mean, lo, hi]).all():
        raise OpFailed(f"{prefix}_curve.csv: non-finite values")
    # q025 <= q975 always holds; q025 <= mean <= q975 need not: next to a
    # jump, fewer than 2.5% of the curves can pull the mean outside the band
    if not (lo <= hi).all():
        raise OpFailed(f"{prefix}_curve.csv: band not ordered, q025 > q975")
    mse = float(np.mean((mean - eval_test_function(function, x)) ** 2))
    trace = np.genfromtxt(f"{prefix}_trace.csv", delimiter=",", names=True)
    columns = [c for c in trace.dtype.names if c == "sigma2" or c.startswith("J_")]
    # a column that never moved has no variance to estimate an ESS from
    sizes = [ess(trace[c]) for c in columns if np.ptp(trace[c]) > 0]
    if not sizes:
        raise OpFailed(f"{prefix}_trace.csv: no column varies")
    return mse, min(sizes)


def check_threshold(mse: float, threshold: float | None):
    if threshold is not None and not mse <= threshold:
        raise OpFailed(f"mse {mse:.4g} above the desk threshold {threshold}")


def check_op(wl: dict, d: Path, result: dict) -> dict:
    """Verify an operation's outputs and return its per-operation values.

    `chain_mse` lists the MSE of each chain the command ran: the fit's one, or
    every replicate's as `benchmark --verbose` printed it. `ess` (minimum ESS)
    and `ess_per_s` are included when the operation saved a trace: always for
    a fit, and for the study when it replayed replicate 0.
    """
    spec = wl["spec"]
    min_ess = None
    if wl["kind"] == "fit":
        mse, min_ess = check_curve(d / "fit", spec["function"])
        check_threshold(mse, wl["threshold"])
        chain_mse = [mse]
        sweeps, ess_cpu = spec["iterations"], result["cpu_s"]
    else:
        with open(d / "table.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        mse = float(row["mean_mse"])
        if int(row["replicates"]) != wl["replicates"] or not np.isfinite(mse):
            raise OpFailed(f"{d}/table.csv: unexpected row {row}")
        check_threshold(mse, wl["threshold"])
        if wl["threshold"] is not None and row["status"] != "pass":
            raise OpFailed(f"{d}/table.csv: status {row['status']!r}")
        sweeps = spec["iterations"] * wl["replicates"]
        lines = result["stderr"].splitlines()  # "replicate 0: mse=0.0123", ...
        if [line.split(":")[0] for line in lines] != \
                [f"replicate {i}" for i in range(wl["replicates"])]:
            raise OpFailed(f"benchmark --verbose printed {lines!r}")
        chain_mse = [float(line.split("mse=")[1]) for line in lines]
        if abs(np.mean(chain_mse) - mse) > 5.1e-5:
            raise OpFailed(f"replicate MSEs {chain_mse} do not average to mean_mse {mse}")
        if result["extra_cpu_s"]:
            rep0_mse, min_ess = check_curve(d / "rep0", spec["function"])
            if abs(chain_mse[0] - rep0_mse) > 5.1e-5:
                raise OpFailed(f"replayed replicate 0 has mse {rep0_mse:.6f}, "
                               f"benchmark printed {chain_mse[0]}")
            ess_cpu = result["extra_cpu_s"][-1]  # the replayed fit
    scale = 2 * wl["ref_repeats"] * REF_SECONDS_PER_REPEAT / result["ref_cpu_s"]
    cpu = result["cpu_s"] * scale
    values = {"setup_s": result["setup_cpu_s"] * scale, "cpu_s": cpu,
              "sweeps_per_s": sweeps / cpu, "mse": mse, "chain_mse": chain_mse,
              "peak_rss_mb": result["rss_mb"], "raw_cpu_s": result["cpu_s"],
              "ref_cpu_s": result["ref_cpu_s"]}
    if min_ess is not None:
        values.update(ess=min_ess, ess_per_s=min_ess / (ess_cpu * scale))
    return values


def check_recompute(d: Path):
    for name in ("curve", "trace"):
        inc = np.genfromtxt(d / f"inc_{name}.csv", delimiter=",", names=True)
        full = np.genfromtxt(d / f"full_{name}.csv", delimiter=",", names=True)
        for c in inc.dtype.names:
            exact = c == "sample" or c.startswith("J_")
            diff = float(np.max(np.abs(inc[c] - full[c])))
            if diff > (0.0 if exact else RECOMPUTE_TOL):
                raise OpFailed(f"--full-recompute differs on {name} column {c} by {diff:.3g}")


def same_outputs(a: Path, b: Path):
    """Every output file of the untraced operation `a` matches `b` byte for byte."""
    for path in sorted(a.iterdir()):
        if path.name == "job.json":
            continue
        if path.read_bytes() != (b / path.name).read_bytes():
            raise OpFailed(f"traced run changed {path.name}")


# ---- the run ----------------------------------------------------------------


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_env": {k: os.environ.get(k) for k in blas}}


def median(values) -> float:
    return float(np.median(values))


class Run:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool, work: Path):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.work = work
        self.wl = load_workload(name)
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.attempted = self.failed = 0

    def seed_for(self, tag) -> int:
        return op_seed(self.seed, f"{self.name}/{tag}", self.wl["replicates"])

    def job(self, d: Path, seed: int) -> dict:
        if self.wl["kind"] == "fit":
            job = fit_job(self.wl, d, seed)
        else:
            # the replay feeds the traced run's ESS and `cli` metrics
            job = study_job(self.wl, d, seed, replay=self.trace)
        return {**job, "ref_repeats": self.wl["ref_repeats"]}

    def attempt(self, fn, *args):
        """Run one operation; count it, and count and report a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except (OpFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.failed += 1
            print(f"operation failed: {exc}", file=sys.stderr)
            return None

    def recompute(self):
        d = self.work / "recompute"
        run_job(recompute_job(self.wl, d, self.seed_for("recompute")), d, self.deadline)
        check_recompute(d)

    def measure(self, index: int) -> dict:
        d = self.work / f"op{index}"
        result = run_job(self.job(d, self.seed_for(index)), d, self.deadline)
        values = check_op(self.wl, d, result)
        print(f"op {index}: " + " ".join(f"{k}={v:.5g}" for k, v in values.items()
                                         if k != "chain_mse"), file=sys.stderr)
        return values

    def loop(self, step) -> list:
        """Collect step(i) for i = 0, 1, ... until --seconds have passed."""
        measuring_until = time.monotonic() + self.seconds
        out = []
        while not out or time.monotonic() < measuring_until:
            if time.monotonic() >= self.deadline:
                break
            out.append(self.attempt(step, len(out)))
        return [r for r in out if r is not None]

    def untraced(self) -> dict:
        self.attempt(self.recompute)
        ops = self.loop(self.measure)
        if not ops:
            return {}
        units = {"setup_s": "s", "cpu_s": "s", "sweeps_per_s": "1/s", "peak_rss_mb": "MB"}
        return {k: (median([op[k] for op in ops]), u) for k, u in units.items()}

    def pair(self, index: int) -> tuple:
        """One operation untraced and traced with the same seed, in alternating
        order; returns both operations' values, the spans and the probe."""
        from tracer import Spans, basis_count_mismatches

        seed = self.seed_for(index)
        probe = [self.wl["spec"]["n"], seed, 8] if index == 0 else None
        values, results = {}, {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            d = self.work / f"op{index}{'-traced' if traced else ''}"
            results[traced] = run_job(self.job(d, seed), d, self.deadline, trace=traced,
                                      probe=None if traced else probe)
            values[traced] = check_op(self.wl, d, results[traced])
        same_outputs(self.work / f"op{index}", self.work / f"op{index}-traced")
        spans = Spans(json.loads((self.work / f"op{index}-traced" / "spans.json").read_text()))
        bad = basis_count_mismatches(spans)
        if bad:
            raise OpFailed("; ".join(bad))
        return values[False], values[True], spans, results[False].get("probe")

    def bench_layer(self):
        """A fit workload's command never reaches `bench`: run one replicate of
        the workload's spec through `levyspline benchmark`, traced."""
        from tracer import Spans

        d = self.work / "bench-layer"
        wl = {**self.wl, "replicates": 1}
        run_job(study_job(wl, d, self.seed_for("bench-layer"), replay=False), d,
                self.deadline, trace=True)
        return Spans(json.loads((d / "spans.json").read_text()))

    def traced(self) -> dict:
        from tracer import layer_metrics

        self.attempt(self.recompute)
        pairs = self.loop(self.pair)
        if not pairs:
            return {}
        plain, traced, spans, probes = zip(*pairs)
        spans = list(spans)
        if self.wl["kind"] == "fit":
            extra = self.attempt(self.bench_layer)
            spans += [extra] if extra else []
        metrics = layer_metrics(spans)
        for k, v in (probes[0] or {}).items():  # only the first pair probes
            metrics[f"bspline.basis_values.{k}"] = (v, "us")
        # the median chain: a study operation's mean over its replicates moves
        # with its one worst replicate, and a run has few operations
        metrics["sampler.mse"] = (median([m for op in plain for m in op["chain_mse"]]), "y2")
        metrics["sampler.ess_min"] = (median([op["ess"] for op in plain]), "count")
        metrics["sampler.ess_per_s"] = (median([op["ess_per_s"] for op in plain]), "1/s")
        metrics["cli.command.raw_cpu_s"] = (median([op["raw_cpu_s"] for op in plain]), "s")
        metrics["machine.ref_ms"] = (1e3 * median([op["ref_cpu_s"] for op in plain]), "ms")
        metrics["trace.overhead_s"] = (median([op["cpu_s"] for op in traced])
                                       - median([op["cpu_s"] for op in plain]), "s")
        return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "levyspline" / "cli.py").is_file() or not DESK.is_dir():
        sys.exit(f"error: run from the root of a levyspline checkout "
                 f"({SRC / 'levyspline'} or {DESK} is missing)")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    print("environment: " + json.dumps(environment()))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        metrics = run.traced() if args.trace else run.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
