"""Full-evaluation oracles for the tests.

Each recomputes from scratch what the sampler computes incrementally or in
closed form: one basis function at a point, its integral, the mean function
of a whole state, the Gaussian log-likelihood, an atom's log prior, and the
birth/death log ratios from two full likelihood evaluations.
"""

import dataclasses
import math

import numpy as np

from levyspline.bspline import KnotVector, basis_values
from levyspline.model import Atom, Dataset, Hyperparams, ModelState
from levyspline.sampler import birth_ratio, death_ratio

LOG_2PI = math.log(2.0 * math.pi)


def eval_basis(kv: KnotVector, x: float) -> float:
    """Evaluate one B-spline basis function at a scalar point."""
    return float(basis_values(kv.knots, kv.degree, x)[0])


def basis_integral(kv: KnotVector) -> float:
    """Exact integral of the basis over its support: (xi_last - xi_first)/(k+1)."""
    lo, hi = kv.support
    return (hi - lo) / (kv.degree + 1)


def eval_mean(state: ModelState, x):
    """Intercept plus the sum of coefficient * basis over all atoms.

    Returns a float for scalar `x`, an array otherwise.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(xs.shape, state.beta0, dtype=float)
    for comp in state.components.values():
        for atom in comp.atoms:
            out += atom.beta * basis_values(atom.knots.knots, atom.knots.degree, xs)
    return float(out[0]) if scalar else out


def log_likelihood(state: ModelState, data: Dataset) -> float:
    """Gaussian log-likelihood of the data under the state's mean function."""
    resid = data.y - eval_mean(state, data.x)
    return -0.5 * data.n * (LOG_2PI + math.log(state.sigma2)) \
        - 0.5 * float(resid @ resid) / state.sigma2


def atom_log_prior(atom: Atom, phi: float, domain: tuple[float, float]) -> float:
    """Log prior density of one atom; -inf when a knot falls outside the domain."""
    lo, hi = domain
    knots = atom.knots.knots
    if knots[0] < lo or knots[-1] > hi:
        return -math.inf
    k = atom.degree
    log_beta = -0.5 * LOG_2PI - math.log(phi) - 0.5 * (atom.beta / phi) ** 2
    # ordered-uniform density on the non-descending region
    log_knots = math.lgamma(k + 3) - (k + 2) * math.log(hi - lo)
    return log_beta + log_knots


def birth_log_ratio(state: ModelState, k: int, atom: Atom, data: Dataset,
                    hyper: Hyperparams) -> float:
    """`Chain.birth`'s log ratio for appending `atom`, from full likelihoods."""
    comp = state.components[k]
    proposed = _with_atoms(state, k, comp.atoms + [atom])
    llr = log_likelihood(proposed, data) - log_likelihood(state, data)
    return birth_ratio(llr, comp.M, comp.count, hyper)


def death_log_ratio(state: ModelState, k: int, r: int, data: Dataset,
                    hyper: Hyperparams) -> float:
    """`Chain.death`'s log ratio for removing atom r, from full likelihoods."""
    comp = state.components[k]
    if comp.count == 0:
        raise RuntimeError("death ratio undefined for an empty component")
    proposed = _with_atoms(state, k, comp.atoms[:r] + comp.atoms[r + 1:])
    llr = log_likelihood(proposed, data) - log_likelihood(state, data)
    return death_ratio(llr, comp.M, comp.count, hyper)


def _with_atoms(state: ModelState, k: int, atoms: list[Atom]) -> ModelState:
    comp = dataclasses.replace(state.components[k], atoms=list(atoms))
    return dataclasses.replace(state, components={**state.components, k: comp})
