"""B-spline basis evaluation on private per-atom knot vectors.

Every atom in the model owns its own knot vector of length degree + 2, so
there is no shared knot grid: evaluation runs the Cox-de Boor triangle
directly on the atom's knots. Any 0/0 term from coincident knots is defined
as 0 (standard convention; continuous knot priors make ties measure-zero,
but floating-point ties can still occur).

Support is half-open [xi_1, xi_{k+2}), propagated from the degree-0
indicator through the recursion. A knot vector whose right end coincides
with the domain maximum therefore evaluates to 0 exactly at that point.

`basis_values` computes the weights of every level in one divide, over
knot index rows built once per degree, and then runs each level of the
triangle as one 2-D numpy expression over all of the level's basis
functions (rows) and points (columns); the per-call cost is the number of
numpy calls, not the arithmetic, at the sizes the sampler uses. Each
weight is the same quotient as a per-level divide gives, so the bits do not
depend on how the divides are grouped. The fast pass multiplies every
weight by its child basis unmasked. Where a child is 0 the product is 0
unless the weight is inf or nan (0/0 from coincident knots, overflow from
subnormal spans or from |x| near the float limit), and such a product
spreads to the result through every later level. So a result with a
finite sum is exactly the masked one, bit for bit; otherwise the triangle
is recomputed from the same weights with each term masked to 0 where its
child basis is 0. The recompute is a private helper, not a second
`basis_values` call, so one evaluated column is one `basis_values` call:
the benchmark's tracer checks each chain's call count against the count its
moves imply.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KnotVector:
    """Non-descending knot sequence of length degree + 2 for one basis function."""

    degree: int
    knots: tuple[float, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be non-negative, got {self.degree}")
        knots = tuple(map(float, self.knots))
        if len(knots) != self.degree + 2:
            raise ValueError(
                f"degree {self.degree} needs {self.degree + 2} knots, got {len(knots)}"
            )
        if not all(map(math.isfinite, knots)):
            raise ValueError("knots must be finite")
        if any(a > b for a, b in zip(knots, knots[1:])):
            raise ValueError(f"knots must be non-descending, got {knots}")
        object.__setattr__(self, "knots", knots)

    @property
    def support(self) -> tuple[float, float]:
        return self.knots[0], self.knots[-1]


def basis_values(knots, degree: int, x) -> np.ndarray:
    """Vectorized Cox-de Boor triangle on one knot vector.

    `knots` is a non-descending sequence of length degree + 2; `x` is an
    array of evaluation points. Returns B_degree(x; knots) in the shape of
    `x` (shape (1,) for a scalar).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if degree == 0:
        lo, hi = float(knots[0]), float(knots[1])
        return ((lo <= x) & (x < hi)).astype(float)
    t = np.asarray(knots, dtype=float)
    X = x.reshape(-1) - t[:, None]
    S = X >= 0.0
    b0 = (S[:-1] > S[1:]).astype(float)
    num, hi = _weight_rows(degree)
    with np.errstate(all="ignore"):
        W = X[num]
        W /= (t[hi] - t[num])[:, None]
        b = _triangle(b0, W, degree, masked=False)
        if not math.isfinite(b.sum()):
            b = _triangle(b0, W, degree, masked=True)
    return b[0].reshape(x.shape)


def _triangle(b, W, degree: int, masked: bool) -> np.ndarray:
    """Levels 1..degree of the Cox-de Boor triangle, one 2-D expression each.

    `b` is the degree-0 layer (row i: the indicator of [t[i], t[i+1])) and
    `W` every level's weights, rows as `_weight_rows` orders them. Row i of
    level d is W[left i] * B_{i,d-1} + W[right i] * B_{i+1,d-1}. With
    `masked`, a term whose child basis is 0 is 0 even when its weight is inf
    or nan.
    """
    o = 0
    for m in range(degree, 0, -1):
        left = W[o:o + m] * b[:m]
        right = W[o + m:o + 2 * m] * b[1:]
        if masked:
            left = np.where(b[:m] != 0.0, left, 0.0)
            right = np.where(b[1:] != 0.0, right, 0.0)
        b = left + right
        o += 2 * m
    return b


@functools.cache
def _weight_rows(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Knot indices of every level's weights, levels 1..degree in order.

    With X[j] = x - t[j], row j's weight is X[num[j]] / (t[hi[j]] -
    t[num[j]]). Level d has m = degree + 1 - d left rows, the weights
    X[i] / (t[i+d] - t[i]), then m right rows, X[i+d+1] / (t[i+1] -
    t[i+d+1]), for i < m. The right weight is (t[i+d+1] - x) / (t[i+d+1] -
    t[i+1]) with both operands negated, which is exact, so it has the same
    bits.
    """
    num, hi = [], []
    for d in range(1, degree + 1):
        i = np.arange(degree + 1 - d)
        num += [i, i + d + 1]
        hi += [i + d, i + 1]
    num, hi = np.concatenate(num), np.concatenate(hi)
    num.flags.writeable = hi.flags.writeable = False
    return num, hi


def eval_basis(kv: KnotVector, x: float) -> float:
    """Evaluate one B-spline basis function at a scalar point."""
    return float(basis_values(kv.knots, kv.degree, x)[0])


def basis_integral(kv: KnotVector) -> float:
    """Exact integral of the basis over its support: (xi_last - xi_first)/(k+1)."""
    lo, hi = kv.support
    return (hi - lo) / (kv.degree + 1)


def eval_mean(state, x) -> np.ndarray:
    """Mean function: intercept plus the sum of coefficient * basis over all atoms.

    `state` is a ModelState (duck-typed: needs .beta0 and .components with
    atoms carrying .knots and .beta). Accepts scalar or array x; returns a
    float for scalar input, an array otherwise.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(xs.shape, state.beta0, dtype=float)
    for comp in state.components.values():
        for atom in comp.atoms:
            out += atom.beta * basis_values(atom.knots.knots, atom.knots.degree, xs)
    return float(out[0]) if scalar else out
