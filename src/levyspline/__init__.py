"""Adaptive B-spline regression with a compound-Poisson atom prior."""

from .bspline import basis_values
from .model import (
    Dataset,
    DegenerateDataError,
    DegreeComponent,
    Hyperparams,
    ModelState,
    init_state,
    sample_atom,
)
from .sampler import (
    Chain,
    ChainConfig,
    ChainOutput,
    choose_move,
    posterior_curve,
    run_chain,
)
from .signals import eval_test_function, generate_dataset, rsnr_sigma, sample_grid
from .bench import ExperimentSpec, emit_table, mse, run_experiment

__all__ = [
    "basis_values",
    "Dataset", "DegenerateDataError", "DegreeComponent", "Hyperparams",
    "ModelState", "init_state", "sample_atom",
    "Chain", "ChainConfig", "ChainOutput", "choose_move", "posterior_curve", "run_chain",
    "eval_test_function", "generate_dataset", "rsnr_sigma", "sample_grid",
    "ExperimentSpec", "emit_table", "mse", "run_experiment",
]

__version__ = "0.1.0"
