"""Full-evaluation oracles for the tests, and the tests' one state builder.

Each oracle recomputes from scratch what the sampler computes incrementally
or in closed form: one basis function at a point, its integral, the mean
function of a whole state, the Gaussian log-likelihood, an atom's log prior,
and the birth/death log ratios from two full likelihood evaluations. The
basis's central finite differences serve the smoothness checks.
`piece_table` is the generic builder of the degree 1-3 piece table, one
piece at a time on the knots or their mirror image: the bit oracle of
`bspline`'s straight-line builders.

Knots are a raw non-descending sequence and an atom a `(knots, beta)`
record, as in `ModelState`; the degree is `len(knots) - 2`.
"""

import dataclasses
import math

import numpy as np

from levyspline.bspline import basis_values
from levyspline.model import Dataset, DegreeComponent, Hyperparams, ModelState
from levyspline.sampler import birth_ratio, death_ratio

LOG_2PI = math.log(2.0 * math.pi)


def make_state(atoms_by_k, beta0=0.0, sigma2=1.0, M=1.0, phi=1.0) -> ModelState:
    """A state with one component per degree key of `atoms_by_k`, each of rate M."""
    comps = {k: DegreeComponent(atoms=list(v), M=M) for k, v in atoms_by_k.items()}
    return ModelState(beta0=beta0, components=comps, sigma2=sigma2, phi=phi)


def eval_basis(knots, x: float) -> float:
    """Evaluate one B-spline basis function at a scalar point."""
    return float(basis_values(knots, len(knots) - 2, np.array([x], dtype=float))[0])


def finite_difference(knots, x: float, order: int, h: float) -> float:
    """Central finite difference of the given order of one basis function at x."""
    acc = 0.0
    for m in range(order + 1):
        acc += (-1) ** m * math.comb(order, m) * eval_basis(knots, x + (order / 2 - m) * h)
    return acc / h**order


def basis_integral(knots) -> float:
    """Exact integral of the basis over its support: (xi_last - xi_first)/(k+1)."""
    return (knots[-1] - knots[0]) / (len(knots) - 1)


def eval_mean(state: ModelState, x):
    """Intercept plus the sum of coefficient * basis over all atoms.

    Returns a float for scalar `x`, an array otherwise.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(xs.shape, state.beta0, dtype=float)
    for comp in state.components.values():
        for knots, beta in comp.atoms:
            out += beta * basis_values(knots, len(knots) - 2, xs)
    return float(out[0]) if scalar else out


def log_likelihood(state: ModelState, data: Dataset) -> float:
    """Gaussian log-likelihood of the data under the state's mean function."""
    resid = data.y - eval_mean(state, data.x)
    return -0.5 * data.n * (LOG_2PI + math.log(state.sigma2)) \
        - 0.5 * float(resid @ resid) / state.sigma2


def atom_log_prior(atom, phi: float, domain: tuple[float, float]) -> float:
    """Log prior density of one atom; -inf when a knot falls outside the domain."""
    lo, hi = domain
    knots, beta = atom
    if knots[0] < lo or knots[-1] > hi:
        return -math.inf
    k = len(knots) - 2
    log_beta = -0.5 * LOG_2PI - math.log(phi) - 0.5 * (beta / phi) ** 2
    # ordered-uniform density on the non-descending region
    log_knots = math.lgamma(k + 3) - (k + 2) * math.log(hi - lo)
    return log_beta + log_knots


def birth_log_ratio(state: ModelState, k: int, atom, data: Dataset,
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


def _with_atoms(state: ModelState, k: int, atoms: list) -> ModelState:
    comp = dataclasses.replace(state.components[k], atoms=list(atoms))
    return dataclasses.replace(state, components={**state.components, k: comp})


def piece_table(t: list[float], k: int) -> list[float]:
    """The piece table's columns (T, H, c_0..c_k), concatenated, for k = 1-3.

    Pieces 0..k//2 are left pieces of t; the rest are left pieces of the
    mirrored knots -t_{k+1}..-t_0, anchored at their right knot.
    """
    outside = (0.0, 1.0) + (0.0,) * (k + 1)
    mirror = [-v for v in reversed(t)]
    flat = list(outside)
    for j in range(k + 1):
        lo, hi = t[j], t[j + 1]
        if lo == hi:
            flat += outside
        elif 2 * j <= k:
            flat += (lo, hi - lo)
            flat += _left_piece(t, j, k)
        else:
            flat += (hi, lo - hi)
            flat += _left_piece(mirror, k - j, k)
    flat += outside
    return flat


def _left_piece(t: list[float], j: int, k: int) -> tuple[float, ...]:
    """c_0..c_k of piece j (0, or 1 at k = 2, 3) in s = (x - t_j) / h.

    Piece 0 is (x - t_0)^k / prod_{d=1..k} (t_d - t_0). On piece 1, with
    h = t_2 - t_1, the quadratic on t_0..t_3 is a + 2b s - (b + e) s^2
    (a = (t_1 - t_0)/(t_2 - t_0), b = h/(t_2 - t_0), e = h/(t_3 - t_1)), and
    the cubic is (p + q s) times that plus (t_4 - x)/(t_4 - t_1) e s^2, with
    p + q s = (x - t_0)/(t_3 - t_0). Its c_3 is B(t_2) - c_0 - c_1 - c_2.
    """
    h = t[j + 1] - t[j]
    if j == 0:
        c = 1.0
        for d in range(2, k + 1):
            c *= h / (t[d] - t[0])
        return (0.0,) * k + (c,)
    a = (t[1] - t[0]) / (t[2] - t[0])
    b = h / (t[2] - t[0])
    e = h / (t[3] - t[1])
    if k == 2:
        return a, b + b, -(b + e)
    p = (t[1] - t[0]) / (t[3] - t[0])
    q = h / (t[3] - t[0])
    c0 = p * a
    c1 = p * (b + b) + q * a
    c2 = q * (b + b) - p * (b + e) + e
    # B(t_2): the level-2 bases there are 1 - e and e
    mid = (t[2] - t[0]) / (t[3] - t[0]) * (1.0 - e) + (t[4] - t[2]) / (t[4] - t[1]) * e
    return c0, c1, c2, mid - c0 - c1 - c2
