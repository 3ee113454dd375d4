"""Adaptive B-spline regression with a compound-Poisson atom prior."""

from .bspline import KnotVector, basis_integral, basis_values, eval_basis, eval_mean
from .model import (
    Atom,
    Dataset,
    DegenerateDataError,
    DegreeComponent,
    Hyperparams,
    ModelState,
    atom_log_prior,
    init_state,
    log_likelihood,
    sample_atom,
)
from .sampler import (
    Chain,
    ChainConfig,
    ChainOutput,
    birth_log_ratio,
    choose_move,
    death_log_ratio,
    posterior_curve,
    run_chain,
)
from .signals import eval_test_function, generate_dataset, rsnr_sigma, sample_grid
from .bench import ExperimentSpec, ExperimentResult, emit_table, mse, run_experiment

__all__ = [
    "KnotVector", "basis_integral", "basis_values", "eval_basis", "eval_mean",
    "Atom", "Dataset", "DegenerateDataError", "DegreeComponent", "Hyperparams",
    "ModelState", "atom_log_prior", "init_state", "log_likelihood", "sample_atom",
    "Chain", "ChainConfig", "ChainOutput", "birth_log_ratio", "choose_move",
    "death_log_ratio", "posterior_curve", "run_chain",
    "eval_test_function", "generate_dataset", "rsnr_sigma", "sample_grid",
    "ExperimentSpec", "ExperimentResult", "emit_table", "mse", "run_experiment",
]

__version__ = "0.1.0"
