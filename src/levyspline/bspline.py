"""B-spline basis evaluation on private per-atom knot vectors.

Every atom owns a knot vector t_0..t_{k+1} of length degree + 2, so there is
no shared knot grid. Support is half-open [t_0, t_{k+1}), as the degree-0
indicator makes it, so a knot vector ending at the domain maximum is 0
there. Coincident knots are allowed (continuous knot priors make ties
measure-zero, but floating-point ties can still occur).

At the sampler's sizes the cost is the number of numpy calls, not the
arithmetic, so degrees 1-3 use the piecewise-polynomial form (de Boor, *A
Practical Guide to Splines*, 1978):
  - A table has k + 3 columns (outside-left, pieces 0..k, outside-right) and
    k + 3 rows T, H, c_0..c_k; on piece j, [t_j, t_{j+1}), the value is
    sum_m c_m s^m with s = (x - T) / H. Evaluation is one `searchsorted`
    (side="right" never selects a zero-width piece), one gather, one
    shift-and-scale and a Horner loop.
  - Pieces 0..k//2 are anchored at their left knot (H = t_{j+1} - t_j), the
    rest at their right knot (H = t_j - t_{j+1} < 0), built as left pieces
    of the mirrored knots -t_{k+1}..-t_0. The end pieces are monomials
    c_k s^k, exact near the support's ends; at degree 1 that is the Cox-de
    Boor triangle's own weight quotient, bit for bit.
  - Every coefficient is built from ratios h / span <= 1, h the piece's
    width, never from 1 / span or a product of spans, which can underflow.
    Every span taken contains the non-empty piece, so it is >= h > 0: no
    division by zero, overflow or warning can occur and no `errstate` is
    needed. An interior cubic piece's c_3 is B(t_2) - c_0 - c_1 - c_2.
  - Outside columns are T = 0, H = 1, c = +0, and Horner ends by adding c_0,
    so no -0 reaches the result. A clamp at 0 removes the last-bit negatives
    rounding leaves at multiple knots (knots (0, 0, 0, 0.5, 0.5625) at
    x = 0, degree 3).
  - x must be finite: outside the support s = x, so inf or nan gives nan
    where the triangle gives 0. Callers pass a checked `Dataset`'s x or a
    grid over its finite domain.

Degree 0 is its indicator, and degree >= 4 runs the Cox-de Boor triangle,
each level one 2-D numpy expression, once, with every non-finite weight set
to 0. That is exact, bit for bit, against a triangle that masks each term
to 0 where its child basis is 0:
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
    """B_degree(x; knots), in the shape of `x`.

    `knots` is a non-descending sequence of length degree + 2; `x` is a 1-d
    array of finite evaluation points.
    """
    if degree == 0:
        lo, hi = float(knots[0]), float(knots[1])
        return ((lo <= x) & (x < hi)).astype(float)
    t = np.asarray(knots, dtype=float)
    if degree > 3:
        return _cox_de_boor(t, degree, x)
    rows = degree + 3
    table = np.array(_piece_table(t.tolist(), degree), dtype=float)
    g = np.take(table.reshape(rows, rows).T, np.searchsorted(t, x, side="right"), axis=1)
    s = x - g[0]
    s /= g[1]
    v = g[-1] * s
    for m in range(rows - 2, 2, -1):
        v += g[m]
        v *= s
    v += g[2]
    return np.maximum(v, 0.0, out=v)


def _piece_table(t: list[float], k: int) -> list[float]:
    """The piece table's columns (T, H, c_0..c_k), concatenated, for k = 1-3."""
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


def _cox_de_boor(t: np.ndarray, degree: int, x: np.ndarray) -> np.ndarray:
    """The vectorized Cox-de Boor triangle on knots `t`, degree >= 1."""
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
