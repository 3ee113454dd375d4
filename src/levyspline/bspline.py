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
    rest at their right knot (H = t_j - t_{j+1} < 0), as left pieces of the
    mirrored knots -t_{k+1}..-t_0. The end pieces are monomials c_k s^k,
    exact near the support's ends; at degree 1 that is the Cox-de Boor
    triangle's own weight quotient, bit for bit.
  - `_table` builds the table in Python floats, straight-line per degree,
    from the knots' differences, each taken once. A mirrored piece's
    difference of negated knots, (-t_a) - (-t_b) = t_b + (-t_a), is the
    float t_b - t_a, so the table has the bits of building each piece on the
    mirrored knots (the tests' generic `piece_table`).
  - Every coefficient is built from ratios h / span <= 1, h the piece's
    width, never from 1 / span or a product of spans, which can underflow.
    Every span taken contains the non-empty piece, so it is >= h > 0: no
    division by zero, overflow or warning can occur and no `errstate` is
    needed. An interior cubic piece's c_3 is B(t_2) - c_0 - c_1 - c_2.
  - Outside columns are T = 0, H = 1, c = +0, and Horner ends by adding c_0,
    so no -0 reaches the result. A clamp at 0 removes the last-bit negatives
    rounding leaves at multiple knots (knots (0, 0, 0, 0.5, 0.5625) at
    x = 0, degree 3).

Degree 0 is its indicator. Degree k >= 4 combines its k - 2 degree-3
children, on t_i..t_{i+4}, level by level (d = 4..k) by the recursion
B_d(t_i..t_{i+d+1}) = w_l B_{d-1}(t_i..t_{i+d}) + w_r B_{d-1}(t_{i+1}..t_{i+d+1}),
w_l = (x - t_i) / (t_{i+d} - t_i), w_r = (t_{i+d+1} - x) / (t_{i+d+1} - t_{i+1}),
skipping a term whose span is 0 (its child is 0 everywhere). Each weight
clips its numerator to [0, span] before the divide. Where the child is
nonzero, x lies in its support, so the numerator is already in [0, span]
(rounding is monotone) and the clip changes no bit; elsewhere the child is
+0, and so is a weight in [0, 1] times it. So no overflow, 0/0 or warning
can occur, and each sum starts from +0, so no -0 reaches the result.
Degrees 4-5 are within 6.1e-16 of a Cox-de Boor triangle masked term by
term on the tests' stress cases (bound 4e-15). A call costs k - 2 table
evaluations plus about ten numpy calls per blend, several times a degree-3
call; no workload runs degree >= 4.

x must be finite at every degree: outside the support the table has s = x,
so +-inf or nan gives nan where a triangle gives 0. Callers pass a checked
`Dataset`'s x or a grid over its finite domain.
"""

from __future__ import annotations

import numpy as np


def basis_values(knots, degree: int, x: np.ndarray) -> np.ndarray:
    """B_degree(x; knots), in the shape of `x`.

    `knots` is a non-descending sequence of length degree + 2; `x` is a 1-d
    array of finite evaluation points.
    """
    if degree == 0:
        lo, hi = float(knots[0]), float(knots[1])
        return ((lo <= x) & (x < hi)).astype(float)
    return _values(np.asarray(knots, dtype=float), degree, x)


def _values(t: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    """B_k(x; t) for k >= 1: the piece table, and its recursion above k = 3."""
    if k > 3:
        b = [_values(t[i:i + 5], 3, x) for i in range(k - 2)]
        for d in range(4, k + 1):
            b = [_blend(t, i, d, x, b[i], b[i + 1]) for i in range(k + 1 - d)]
        return b[0]
    rows = k + 3
    table = np.array(_table(t.tolist(), k))  # every entry is a Python float
    g = table.reshape(rows, rows).T.take(t.searchsorted(x, "right"), axis=1)
    s = x - g[0]
    s /= g[1]
    v = g[-1] * s
    for m in range(rows - 2, 2, -1):
        v += g[m]
        v *= s
    v += g[2]
    return np.maximum(v, 0.0, out=v)


def _blend(t: np.ndarray, i: int, d: int, x: np.ndarray,
           left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """B_d on t_i..t_{i+d+1} from its children on t_i..t_{i+d} and t_{i+1}..t_{i+d+1}."""
    v = np.zeros_like(x)
    span = t[i + d] - t[i]
    if span > 0.0:
        v += np.clip(x - t[i], 0.0, span) / span * left
    span = t[i + d + 1] - t[i + 1]
    if span > 0.0:
        v += np.clip(t[i + d + 1] - x, 0.0, span) / span * right
    return v


# outside columns: T = 0, H = 1, c = +0
_OUT1, _OUT2, _OUT3 = ((0.0, 1.0) + (0.0,) * (k + 1) for k in (1, 2, 3))


def _table(t: list[float], k: int) -> list[float]:
    """The piece table's columns (T, H, c_0..c_k), concatenated, for k = 1-3.

    d_ij = t_i - t_j. End piece 0 is c_k s^k with c_k the product of
    d10 / d_d0 over d = 2..k. Pieces past k // 2 are left pieces of the
    mirrored knots, whose d_ij is d_{k+1-j,k+1-i} here.
    """
    if k == 1:
        t0, t1, t2 = t
        return [*_OUT1, *(_OUT1 if t0 == t1 else (t0, t1 - t0, 0.0, 1.0)),
                *(_OUT1 if t1 == t2 else (t2, t1 - t2, 0.0, 1.0)), *_OUT1]
    if k == 2:
        t0, t1, t2, t3 = t
        d10, d20, d21, d31, d32 = t1 - t0, t2 - t0, t2 - t1, t3 - t1, t3 - t2
        flat = [*_OUT2]
        flat += _OUT2 if t0 == t1 else (t0, d10, 0.0, 0.0, d10 / d20)
        if t1 == t2:
            flat += _OUT2
        else:
            b, e = d21 / d20, d21 / d31
            flat += (t1, d21, d10 / d20, b + b, -(b + e))
        flat += _OUT2 if t2 == t3 else (t3, t2 - t3, 0.0, 0.0, d32 / d31)
        flat += _OUT2
        return flat
    t0, t1, t2, t3, t4 = t
    d10, d20, d30, d21, d31 = t1 - t0, t2 - t0, t3 - t0, t2 - t1, t3 - t1
    d41, d32, d42, d43 = t4 - t1, t3 - t2, t4 - t2, t4 - t3
    flat = [*_OUT3]
    flat += _OUT3 if t0 == t1 else (t0, d10, 0.0, 0.0, 0.0, d10 / d20 * (d10 / d30))
    flat += _OUT3 if t1 == t2 else (t1, d21, *_cubic(d10, d20, d30, d21, d31, d41, d42))
    flat += _OUT3 if t2 == t3 else (t3, t2 - t3, *_cubic(d43, d42, d41, d32, d31, d30, d20))
    flat += _OUT3 if t3 == t4 else (t4, t3 - t4, 0.0, 0.0, 0.0, d43 / d42 * (d43 / d41))
    flat += _OUT3
    return flat


def _cubic(d10, d20, d30, h, d31, d41, d42) -> tuple[float, float, float, float]:
    """c_0..c_3 of a cubic's piece 1 in s = (x - t_1) / h, from its knots' differences.

    d_ij = t_i - t_j and h = d21. The quadratic on t_0..t_3 is
    a + 2b s - (b + e) s^2 (a = d10/d20, b = h/d20, e = h/d31), and the cubic
    is (p + q s) times that plus (t_4 - x)/d41 e s^2, with
    p + q s = (x - t_0)/d30. Its c_3 is B(t_2) - c_0 - c_1 - c_2.
    """
    a, b, e = d10 / d20, h / d20, h / d31
    p, q = d10 / d30, h / d30
    c0 = p * a
    c1 = p * (b + b) + q * a
    c2 = q * (b + b) - p * (b + e) + e
    # B(t_2): the level-2 bases there are 1 - e and e
    mid = d20 / d30 * (1.0 - e) + d42 / d41 * e
    return c0, c1, c2, mid - c0 - c1 - c2
