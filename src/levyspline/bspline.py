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
arithmetic. It is one pass with every non-finite weight set to 0, and that
is exact, bit for bit, against a triangle that masks each term to 0 where
its child basis is 0:
  - A weight is finite wherever its child basis is nonzero: there x lies in
    the child's support, so |x - t| is at most the child's span, which is
    nonzero and finite (knots lie in the data's finite domain). A weight
    that is inf or nan (0/0 from coincident knots, overflow from subnormal
    spans or from |x| near the float limit) therefore multiplies a child of
    +0, and setting it to 0 gives the masked term's +0.
  - A finite weight times a +0 child is +0 or -0. A row's sum is -0 only
    if both of its weights are negative or -0, which needs x < t[i] and
    x >= t[i+d+1] at once, so no -0 reaches the result.
"""

from __future__ import annotations

import functools

import numpy as np


def basis_values(knots, degree: int, x: np.ndarray) -> np.ndarray:
    """Vectorized Cox-de Boor triangle on one knot vector.

    `knots` is a non-descending sequence of length degree + 2; `x` is a 1-d
    float array of evaluation points. Returns B_degree(x; knots) in the
    shape of `x`.
    """
    if degree == 0:
        lo, hi = float(knots[0]), float(knots[1])
        return ((lo <= x) & (x < hi)).astype(float)
    t = np.asarray(knots, dtype=float)
    X = x - t[:, None]
    S = X >= 0.0
    b = (S[:-1] > S[1:]).astype(float)
    num, hi = _weight_rows(degree)
    W = X[num]
    with np.errstate(all="ignore"):
        W /= (t[hi] - t[num])[:, None]
    W[~np.isfinite(W)] = 0.0
    # level d's row i is W[left i] * B_{i,d-1} + W[right i] * B_{i+1,d-1}
    o = 0
    for m in range(degree, 0, -1):
        b = W[o:o + m] * b[:m] + W[o + m:o + 2 * m] * b[1:]
        o += 2 * m
    return b[0]


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
