"""Replicate-level benchmark harness.

Each replicate draws its own dataset and chain seed as the base seed
(`ExperimentSpec.chain.seed`) XOR replicate index, fits the sampler, and
scores the posterior mean curve against the noiseless truth on the dataset's
grid.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Hyperparams
from .reference import reference_mse
# unused here, but perfbench's tracer wraps `bench.posterior_curve` by name
from .sampler import ChainConfig, posterior_curve, run_chain
from .signals import eval_test_function, generate_dataset


@dataclass(frozen=True)
class ExperimentSpec:
    function: str
    n: int
    rsnr: float
    replicates: int
    hyper: Hyperparams
    chain: ChainConfig  # its seed is the base seed
    threshold: float | None = None  # pass/fail bound on mean MSE, if any

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicate count must be >= 1")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")


def mse(truth, estimate) -> float:
    """Mean squared pointwise difference."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape or truth.ndim != 1 or len(truth) == 0:
        raise ValueError("truth and estimate must be equal-length non-empty 1-d sequences")
    d = truth - estimate
    return float(d.dot(d)) / len(d)


def run_replicate(spec: ExperimentSpec, index: int) -> float:
    seed = spec.chain.seed ^ index
    data = generate_dataset(spec.function, spec.n, spec.rsnr, seed)
    truth = eval_test_function(spec.function, data.x)
    out = run_chain(data, spec.hyper, replace(spec.chain, seed=seed))
    return mse(truth, out.curves.mean(axis=0))  # posterior_curve's mean, without its band


def run_experiment(spec: ExperimentSpec, progress=None) -> list[float]:
    """Each replicate's MSE, in index order (deterministic by construction).

    `progress(i, mse)` is called after replicate i, if given.
    """
    mses = []
    for i in range(spec.replicates):
        mses.append(run_replicate(spec, i))
        if progress is not None:
            progress(i, mses[-1])
    return mses


def emit_table(spec: ExperimentSpec, mses: list[float], format: str = "csv") -> str:
    """The spec's results row, as CSV or as a one-row JSON list of the same values.

    A single replicate reports sd 0 by convention, which its status flags.
    """
    mean = float(np.mean(mses))
    ref = reference_mse(spec.function, spec.n, spec.rsnr)
    if spec.threshold is None:
        status = "n/a"
    else:
        status = "pass" if mean <= spec.threshold else "fail"
    if spec.replicates == 1:
        status += " (single replicate, sd=0 by convention)"
    row = {
        "function": spec.function,
        "n": spec.n,
        "rsnr": spec.rsnr,
        "degrees": ",".join(str(k) for k in spec.hyper.degrees),
        "replicates": spec.replicates,
        "mean_mse": mean,
        "sd_mse": float(np.std(mses, ddof=1)) if len(mses) > 1 else 0.0,
        "reference_mean": ref[0] if ref else "",
        "reference_se": ref[1] if ref else "",
        "threshold": spec.threshold if spec.threshold is not None else "",
        "status": status,
    }
    if format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(row), lineterminator="\n")
        writer.writeheader()
        writer.writerow(row)
        return buf.getvalue()
    if format == "json":
        # a non-finite number (rsnr = inf) is not JSON: write the CSV's text
        row = {key: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
               for key, v in row.items()}
        return json.dumps([row], indent=2, allow_nan=False) + "\n"
    raise ValueError(f"unknown format {format!r}")
