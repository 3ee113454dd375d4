#!/usr/bin/env python3
"""Check that two source trees sample the same posterior.

usage: scripts/compare_posteriors.py PARENT_SRC CHANGE_SRC

A change that moves the random stream (a new draw order, a faster draw)
changes every chain for a given seed, so `compare_outputs.sh` can only say
that the outputs differ. This script asks instead whether the chains still
sample the same posterior. For each workload below it fits one fixed
dataset with the same S chain seeds, once with PARENT_SRC and once with
CHANGE_SRC on the import path (each a `src/` directory, run in its own
process). Every chain gives one value per statistic:

  - mse: the posterior-mean curve's MSE against the noiseless truth on the
    data grid;
  - J_k: the posterior mean of the atom count J_k, for every degree k;
  - M_k: the posterior mean of the Poisson rate M_k, for every degree k
    (J_k alone barely moves when the M_k draw is wrong);
  - dM_k: the chain's mean of M_k - (a_gamma + J_k) / (b_gamma + 1), the
    draw minus its full-conditional mean given the J_k it was drawn on, for
    every degree k. It is exactly 0 in expectation under a correct M_k draw
    and barely varies within a chain, so it catches a wrong M_k draw that
    E[M_k], which follows the slowly mixing J_k, cannot;
  - sigma2: the posterior mean of sigma^2;
  - f(x): the posterior-mean curve at x = 0.25, 0.5 and 0.75.

With both samplers correct, a statistic's S parent values and S change
values are two samples from one distribution. Each pair of samples goes
through a Welch t-test (equal means) and a two-sample Kolmogorov-Smirnov
test (equal distributions). The family-wise level ALPHA is split evenly
over all tests (Bonferroni). The script prints one line per statistic and
exits 1 if any test rejects, 0 otherwise. Each worker prints the
`levyspline` it imported; the script exits 2 if a worker imported one from
outside its `src/`, if both arguments name the same directory or if a worker
fails. It takes about 5 minutes on a 2-vCPU VM and is not part of the test
suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.stats as st

# Written down before any run: the family-wise false-alarm rate and the seeds.
ALPHA = 0.01
SEEDS = list(range(1000, 1100))  # S = 100 chains per side and workload
DATA_SEED = 17
POINTS = (0.25, 0.5, 0.75)
WORKLOADS = {
    "blocks": {"function": "blocks", "n": 128, "rsnr": 3.0, "degrees": (0,),
               "a_gamma": 1.0, "iterations": 40000, "burn_in": 10000, "thin": 10},
    "modified_heavisine": {"function": "modified_heavisine", "n": 128, "rsnr": 3.0,
                           "degrees": (0, 1, 2, 3), "a_gamma": 5.0,
                           "iterations": 4000, "burn_in": 1000, "thin": 5},
}


def chain_statistics(src: str) -> dict[str, dict[str, list[float]]]:
    """Each workload's statistics, one value per seed, from the levyspline in `src`."""
    sys.path.insert(0, src)
    import levyspline
    from levyspline import (ChainConfig, Hyperparams, eval_test_function,
                            generate_dataset, mse, run_chain)

    loaded = Path(levyspline.__file__).resolve()
    print(f"{src}: imported {loaded}", file=sys.stderr)
    if not loaded.is_relative_to(src):
        print(f"error: {loaded} is not under {src}", file=sys.stderr)
        sys.exit(2)

    out: dict[str, dict[str, list[float]]] = {}
    for name, wl in WORKLOADS.items():
        data = generate_dataset(wl["function"], wl["n"], wl["rsnr"], DATA_SEED)
        truth = eval_test_function(wl["function"], data.x)
        grid = np.concatenate([data.x, POINTS])
        hyper = Hyperparams(wl["degrees"], a_gamma=wl["a_gamma"])
        stats: dict[str, list[float]] = {}
        for seed in SEEDS:
            cfg = ChainConfig(iterations=wl["iterations"], burn_in=wl["burn_in"],
                              thin=wl["thin"], seed=seed)
            chain = run_chain(data, hyper, cfg, grid=grid)
            mean = chain.curves.mean(axis=0)
            values = {"mse": mse(truth, mean[: data.n]),
                      "sigma2": float(chain.sigma2.mean())}
            values.update((f"J_{k}", float(chain.J[k].mean())) for k in wl["degrees"])
            values.update((f"M_{k}", float(chain.M[k].mean())) for k in wl["degrees"])
            values.update((f"dM_{k}", float(np.mean(
                chain.M[k] - (hyper.a_gamma + chain.J[k]) / (hyper.b_gamma + 1.0))))
                for k in wl["degrees"])
            values.update((f"f({x})", float(v)) for x, v in zip(POINTS, mean[data.n:]))
            for key, v in values.items():
                stats.setdefault(key, []).append(v)
        out[name] = stats
    return out


def two_sample_pvalues(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(Welch t-test, Kolmogorov-Smirnov) p-values for equal distributions."""
    if np.array_equal(a, b):  # identical chains: nothing to test, and t is 0/0
        return 1.0, 1.0
    return (float(st.ttest_ind(a, b, equal_var=False).pvalue),
            float(st.ks_2samp(a, b).pvalue))


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--worker":
        print(json.dumps(chain_statistics(argv[1])))
        return 0
    if len(argv) != 2:
        print(f"usage: {sys.argv[0]} PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    srcs = [str(Path(p).resolve()) for p in argv]
    if srcs[0] == srcs[1]:
        print(f"error: PARENT_SRC and CHANGE_SRC are both {srcs[0]}", file=sys.stderr)
        return 2
    procs = [subprocess.Popen([sys.executable, __file__, "--worker", src],
                              stdout=subprocess.PIPE, text=True) for src in srcs]
    results = []
    for proc in procs:
        stdout, _ = proc.communicate()
        if proc.returncode:
            print(f"error: a worker exited with status {proc.returncode}", file=sys.stderr)
            for other in procs:
                other.kill()
                other.wait()
            return 2
        results.append(json.loads(stdout))
    parent, change = results

    tests = 2 * sum(len(stats) for stats in parent.values())
    level = ALPHA / tests
    print(f"{len(SEEDS)} chains per side and workload; {tests} tests at "
          f"{ALPHA} / {tests} = {level:.2e} each")
    rejected = 0
    for name, stats in parent.items():
        for key, values in stats.items():
            a, b = np.array(values), np.array(change[name][key])
            p_t, p_ks = two_sample_pvalues(a, b)
            bad = [label for label, p in (("t", p_t), ("ks", p_ks)) if p < level]
            rejected += len(bad)
            verdict = "REJECT " + ",".join(bad) if bad else "ok"
            print(f"{name:18s} {key:8s} parent {a.mean():.6g} ± {a.std(ddof=1):.3g}  "
                  f"change {b.mean():.6g} ± {b.std(ddof=1):.3g}  "
                  f"p_t {p_t:.3g}  p_ks {p_ks:.3g}  {verdict}")
    print(f"{rejected} of {tests} tests rejected")
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
