"""Replicate-level benchmark harness.

Each replicate draws its own dataset and chain seed as base_seed XOR
replicate index, fits the sampler, and scores the posterior mean curve
against the noiseless truth on the sample grid.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import Hyperparams
from .reference import reference_mse
from .sampler import ChainConfig, posterior_curve, run_chain
from .signals import eval_test_function, generate_dataset, sample_grid


@dataclass(frozen=True)
class ExperimentSpec:
    function: str
    n: int
    rsnr: float
    replicates: int
    hyper: Hyperparams
    iterations: int
    burn_in: int
    thin: int
    base_seed: int = 0
    threshold: float | None = None  # pass/fail bound on mean MSE, if any

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicate count must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.base_seed}")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")

    def chain_config(self, seed: int) -> ChainConfig:
        return ChainConfig(iterations=self.iterations, burn_in=self.burn_in,
                           thin=self.thin, seed=seed)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    mses: list[float]
    seconds_per_replicate: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.mses))

    @property
    def sd(self) -> float:
        # single replicate reports 0 by convention (flagged in the table)
        return float(np.std(self.mses, ddof=1)) if len(self.mses) > 1 else 0.0


def mse(truth, estimate) -> float:
    """Mean squared pointwise difference."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape or truth.ndim != 1 or len(truth) == 0:
        raise ValueError("truth and estimate must be equal-length non-empty 1-d sequences")
    d = truth - estimate
    return float(d @ d) / len(d)


def run_replicate(spec: ExperimentSpec, index: int) -> float:
    seed = spec.base_seed ^ index
    data = generate_dataset(spec.function, spec.n, spec.rsnr, seed)
    truth = eval_test_function(spec.function, sample_grid(spec.n))
    out = run_chain(data, spec.hyper, spec.chain_config(seed))
    mean_curve, _, _ = posterior_curve(out)
    return mse(truth, mean_curve)


def run_experiment(spec: ExperimentSpec, progress=None) -> ExperimentResult:
    """Run all replicates sequentially (deterministic by construction)."""
    result = ExperimentResult(spec=spec, mses=[])
    for i in range(spec.replicates):
        t0 = time.perf_counter()
        result.mses.append(run_replicate(spec, i))
        result.seconds_per_replicate.append(time.perf_counter() - t0)
        if progress is not None:
            progress(i, result.mses[-1])
    return result


_TABLE_FIELDS = ["function", "n", "rsnr", "degrees", "replicates", "mean_mse",
                 "sd_mse", "reference_mean", "reference_se", "threshold", "status"]


def _result_row(res: ExperimentResult) -> dict:
    spec = res.spec
    ref = reference_mse(spec.function, spec.n, spec.rsnr)
    if spec.threshold is None:
        status = "n/a"
    else:
        status = "pass" if res.mean <= spec.threshold else "fail"
    if spec.replicates == 1:
        status += " (single replicate, sd=0 by convention)"
    return {
        "function": spec.function,
        "n": spec.n,
        "rsnr": spec.rsnr,
        "degrees": ",".join(str(k) for k in spec.hyper.degrees),
        "replicates": spec.replicates,
        "mean_mse": res.mean,
        "sd_mse": res.sd,
        "reference_mean": ref[0] if ref else "",
        "reference_se": ref[1] if ref else "",
        "threshold": spec.threshold if spec.threshold is not None else "",
        "status": status,
    }


def emit_table(results: list[ExperimentResult], format: str = "csv") -> str:
    """One row per experiment, as CSV or JSON with identical numeric content."""
    if not results:
        raise ValueError("no results to emit")
    rows = [_result_row(r) for r in results]
    if format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_TABLE_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    if format == "json":
        return json.dumps(rows, indent=2, sort_keys=False) + "\n"
    raise ValueError(f"unknown format {format!r}")
