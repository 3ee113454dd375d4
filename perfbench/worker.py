"""One benchmark operation in a fresh process: set-up, the measured command, extras.

Usage: python3 perfbench/worker.py JOB.json

JOB holds:
  src       directory to import levyspline from
  write     {path: text} files to write during set-up
  setup     CLI argument lists run during set-up (for example `simulate`)
  ready     ["dataset", path] or ["spec", path]: set-up ends once this input
            has been parsed by levyspline.cli.parse_dataset or
            levyspline.cli.parse_benchmark_spec
  measured  the CLI argument list whose CPU time is the operation's time
  extra     CLI argument lists run after it, each timed
  ref_repeats  repeats of reference_loop to run just before and just after
            the measured command (default 0)
  trace     path to write spans to; when set, levyspline is traced
  probe     [n, seed, repeats]: when set, time basis_values per degree 0-3

Every command goes through levyspline.cli.main and must return 0. The last
line of standard output is one JSON object with the set-up's CPU time (from
process start), the CPU time of the measured command, the CPU time
of the reference loop run just before and just after it, the CPU times of the
extras, peak resident memory, the standard error of the measured
command and the probe timings.

CPU time is this process's own (user + system). On a virtual machine whose
kernel accounts steal time it leaves out the time the host ran something else,
which makes it far steadier than wall time on a shared host.
"""

import contextlib
import io
import json
import resource
import sys
import time


def run(main, argv):
    rc = main(argv)
    if rc != 0:
        raise SystemExit(f"levyspline {' '.join(argv)} exited with {rc}")


def reference_loop(repeats: int) -> float:
    """CPU seconds of a fixed piece of numpy work; a measure of machine speed.

    The work is shaped like the sampler's: many small array operations on a
    256-point grid (a degree-1 Cox-de Boor step on random knots) with Python
    in between. It never touches levyspline and its inputs are fixed, so only
    the machine can change its time. On a shared host a process's CPU time
    still varies by run with what the neighbours do to caches and cores; a
    command's CPU time divided by this loop's, timed in the same process
    around it, cancels most of that.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    x = np.linspace(0.0, 1.0, 256)
    c0 = time.process_time()
    for _ in range(repeats):
        t = np.sort(rng.uniform(0.0, 1.0, 3))
        left = np.where((x >= t[0]) & (x < t[1]), (x - t[0]) / (t[1] - t[0]), 0.0)
        right = np.where((x >= t[1]) & (x < t[2]), (t[2] - x) / (t[2] - t[1]), 0.0)
        float((left + right) @ x)
    return time.process_time() - c0


def probe_basis(n: int, seed: int, repeats: int) -> dict:
    """Median microseconds per basis_values call by degree on an n-point grid.

    Knot vectors are prior draws on [0, 1] (sorted uniforms), as in a birth.
    """
    import numpy as np
    from levyspline.bspline import basis_values
    from levyspline.signals import sample_grid

    x = sample_grid(n)
    rng = np.random.default_rng(seed)
    out = {}
    for k in range(4):
        knots = [tuple(np.sort(rng.uniform(0.0, 1.0, k + 2))) for _ in range(64)]
        times = []
        for _ in range(repeats):
            for t in knots:
                t0 = time.perf_counter_ns()
                basis_values(t, k, x)
                times.append(time.perf_counter_ns() - t0)
        out[f"d{k}_us"] = float(np.median(times)) / 1e3
    return out


def main_job(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, job["bench_dir"])
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from levyspline import cli

    for path, text in job.get("write", {}).items():
        with open(path, "w") as fh:
            fh.write(text)
    for argv in job.get("setup", []):
        run(cli.main, argv)
    kind, path = job["ready"]
    if kind == "dataset":
        cli.parse_dataset(path)
    else:
        with open(path) as fh:
            cli.parse_benchmark_spec(fh.read())
    setup_cpu = time.process_time()

    repeats = job.get("ref_repeats", 0)
    ref = reference_loop(repeats)
    err = io.StringIO()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stderr(err):
            run(cli.main, job["measured"])
    finally:
        cpu = time.process_time() - c0
        sys.stderr.write(err.getvalue())
    ref += reference_loop(repeats)
    extra_cpu = []
    for argv in job.get("extra", []):
        c0 = time.process_time()
        run(cli.main, argv)
        extra_cpu.append(time.process_time() - c0)

    result = {
        "setup_cpu_s": setup_cpu,
        "cpu_s": cpu,
        "ref_cpu_s": ref,
        "extra_cpu_s": extra_cpu,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stderr": err.getvalue(),
    }
    if tracer is not None:
        tracer.dump(job["trace"])
    if job.get("probe"):
        result["probe"] = probe_basis(*job["probe"])
    return result


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    with contextlib.redirect_stdout(sys.stderr):
        result = main_job(job)
    print(json.dumps(result))
