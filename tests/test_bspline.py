import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from levyspline.bspline import _table, basis_values
from levyspline.model import Dataset, Hyperparams
from levyspline.sampler import Chain
from oracles import (basis_integral, eval_basis, eval_mean, finite_difference,
                     make_state, piece_table)


def quadrature_integral(knots, order=8):
    """Independent oracle: Gauss-Legendre per knot span (polynomial there)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = np.asarray(knots)
    total = 0.0
    for a, b in zip(t[:-1], t[1:]):
        if b <= a:
            continue
        xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(weights @ basis_values(knots, len(knots) - 2, xs))
    return total


def _reference_basis(knots, degree, x):
    """Independent oracle: Cox-de Boor one (level, index) pair at a time.

    0/0 terms and terms whose child basis is 0 are masked to exactly 0.
    """
    t = np.asarray(knots, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b = [((t[i] <= x) & (x < t[i + 1])).astype(float) for i in range(degree + 1)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for d in range(1, degree + 1):
            for i in range(degree + 1 - d):
                left_den = t[i + d] - t[i]
                right_den = t[i + d + 1] - t[i + 1]
                acc = np.zeros_like(x)
                if left_den > 0.0:
                    acc += np.where(b[i] != 0.0, (x - t[i]) / left_den * b[i], 0.0)
                if right_den > 0.0:
                    acc += np.where(
                        b[i + 1] != 0.0, (t[i + d + 1] - x) / right_den * b[i + 1], 0.0
                    )
                b[i] = acc
    return b[0]


def _oracle_cases(seed=2024, repeats=24):
    """Knot vectors and point sets that stress the kernel's edge cases."""
    rng = np.random.default_rng(seed)
    for degree in range(6):
        for n in (1, 7, 128, 512):
            for kind in ("random", "on_grid", "coincident", "span_1e-289",
                         "span_1e-300", "span_1e-310", "huge_x", "shift_1e3"):
                for _ in range(repeats):
                    x = np.sort(rng.uniform(-0.2, 1.2, n))
                    t = np.sort(rng.uniform(0.0, 1.0, degree + 2))
                    if kind == "on_grid":
                        t = np.sort(rng.choice(x, degree + 2))
                    elif kind == "coincident":
                        i = int(rng.integers(0, degree + 1))
                        t[i + 1] = t[i]
                    elif kind.startswith("span_"):
                        # t[i] = 0 so that t[i + 1] = span is representable
                        span = float(kind[5:])
                        i = int(rng.integers(0, degree + 1))
                        t = t - t[i]
                        t[i + 1] = span
                        t = np.sort(t)
                        x[: min(n, 3)] = (0.5 * span, span, -span)[: min(n, 3)]
                    elif kind == "huge_x":
                        x[rng.integers(0, n, 2)] = (1e300, -1.7e308)
                    elif kind == "shift_1e3":
                        # far from 0, where a polynomial in x itself would
                        # cancel; pieces anchored at their knots do not
                        x, t = x + 1e3, t + 1e3
                    # points exactly on knots, and unsorted order half the time
                    x[rng.integers(0, n, min(n, degree + 2))] = t[: min(n, degree + 2)]
                    if rng.random() < 0.5:
                        x = rng.permutation(x)
                    yield degree, t, x


def knot_vectors(max_degree=5):
    """(degree, knots): k + 2 sorted knots in [0, 1] for a degree k."""
    return st.integers(0, max_degree).flatmap(
        lambda k: st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=k + 2, max_size=k + 2
        ).map(lambda ks: (k, tuple(sorted(ks))))
    )


class TestKnotVector:
    """A knot vector is a raw sequence, checked where it enters a `ModelState`."""

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="degree 1 needs 3 knots, got 2"):
            make_state({1: [((0.0, 1.0), 1.0)]})

    def test_descending_rejected(self):
        with pytest.raises(ValueError, match="knots must be non-descending"):
            make_state({0: [((1.0, 0.0), 1.0)]})

    def test_negative_degree_rejected(self):
        # a state may key a component -1, but no chain runs it: the
        # hyperparameters reject the degree and the chain any other degree set
        with pytest.raises(ValueError, match="non-negative"):
            Hyperparams((-1,))
        state = make_state({-1: [((0.5,), 1.0)]})
        data = Dataset(x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="degrees"):
            Chain(data, Hyperparams((0,)), np.random.default_rng(0), state=state)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_non_finite_rejected(self, bad, pos):
        knots = [0.0, 0.5, 1.0]
        knots[pos] = bad
        with pytest.raises(ValueError, match="knots must be finite"):
            make_state({1: [(knots, 1.0)]})

    def test_ties_allowed(self):
        state = make_state({1: [((0.0, 0.0, 1.0), 1.0)]})
        assert state.components[1].atoms == [((0.0, 0.0, 1.0), 1.0)]


class TestEvalBasis:
    def test_degree0_indicator(self):
        knots = (0.0, 1.0)
        assert eval_basis(knots, 0.5) == 1.0

    def test_degree0_half_open(self):
        knots = (0.0, 1.0)
        assert eval_basis(knots, 1.0) == 0.0
        assert eval_basis(knots, 0.0) == 1.0

    def test_degree1_peak(self):
        # hand expansion: second recursion term (1-x)/0.5 * 1{0.5<=x<1} is 1 at 0.5
        knots = (0.0, 0.5, 1.0)
        assert eval_basis(knots, 0.5) == approx(1.0)

    def test_degree2_uniform(self):
        # symbolic expansion of the uniform quadratic at the midpoint
        knots = (0.0, 1.0, 2.0, 3.0)
        assert eval_basis(knots, 1.5) == approx(0.75)

    def test_coincident_knots_give_zero_not_nan(self):
        knots = (0.0, 0.5, 0.5, 1.0)
        vals = basis_values(knots, 2, np.linspace(0, 1, 101))
        assert np.isfinite(vals).all()
        assert (vals >= 0).all()

    def test_fully_coincident_degenerate(self):
        knots = (0.5, 0.5, 0.5)
        assert eval_basis(knots, 0.5) == 0.0

    def test_matches_reference_byte_for_byte(self):
        # degree 0 is the indicator and degree 1 the triangle's own weight
        # quotient on each piece, so both keep the oracle's bits
        count = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for degree, t, x in _oracle_cases():
                if degree > 1:
                    continue
                got = basis_values(t, degree, x)
                want = _reference_basis(t, degree, x)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (degree, t.tolist())
                assert not np.signbit(got).any(), (degree, t.tolist())
                count += 1
        assert count == 2 * 4 * 8 * 24

    def test_matches_reference_within_bound(self):
        # degrees 2-3 sum a polynomial per piece, so they round differently
        # from the triangle, and degrees 4-5 blend degree-3 pieces; a value
        # is at most 1 and 4e-15 is 18 ulps of 1
        count = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for degree, t, x in _oracle_cases():
                if degree < 2:
                    continue
                got = basis_values(t, degree, x)
                want = _reference_basis(t, degree, x)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 4e-15, (degree, t.tolist())
                assert not np.signbit(got).any(), (degree, t.tolist())
                count += 1
        assert count == 4 * 4 * 8 * 24

    def test_multiple_knot_clamped_to_zero(self):
        # the cubic's Horner sum reads -5.6e-17 here before the clamp at 0
        got = basis_values((0.0, 0.0, 0.0, 0.5, 0.5625), 3, np.array([0.0]))
        assert got.tobytes() == np.array([0.0]).tobytes()

    def test_repeated_knots_stay_in_unit_interval(self):
        # every knot vector over a few values, ties included, on a grid
        # that holds each value
        values = (0.0, 0.25, 0.5, 0.5625, 1.0)
        x = np.union1d(np.linspace(-0.1, 1.1, 241), values)
        for degree in (2, 3):
            for t in itertools.combinations_with_replacement(values, degree + 2):
                got = basis_values(t, degree, x)
                assert not np.signbit(got).any(), t
                assert (got >= 0.0).all() and (got <= 1.0 + 1e-12).all(), t


class TestPieceTable:
    """The straight-line degree 1-3 table builders against the generic one, bit for bit."""

    @staticmethod
    def _assert_same(t: list[float], degree: int):
        got = np.array(_table(t, degree))
        want = np.array(piece_table(t, degree))
        assert got.tobytes() == want.tobytes(), (degree, t)

    def test_oracle_cases(self):
        count = 0
        for degree, t, _ in _oracle_cases():
            if 1 <= degree <= 3:
                self._assert_same(t.tolist(), degree)
                count += 1
        assert count == 3 * 4 * 8 * 24

    def test_coincident_and_near_coincident_knots(self):
        # every knot vector over values with exact ties (both zeros among
        # them), one-ulp gaps and subnormal gaps
        values = (-0.5, -0.0, 0.0, 5e-324, 1e-310, 1e-300, 0.25,
                  math.nextafter(0.25, 1.0), 0.5, math.nextafter(0.5, 1.0), 1.0, 1e3)
        count = 0
        for degree in (1, 2, 3):
            for t in itertools.combinations_with_replacement(values, degree + 2):
                self._assert_same(list(t), degree)
                count += 1
        assert count == math.comb(14, 3) + math.comb(15, 4) + math.comb(16, 5)


class TestBasisIntegral:
    def test_unit_indicator(self):
        assert basis_integral((0.0, 1.0)) == approx(1.0)

    def test_triangle(self):
        assert basis_integral((0.0, 0.5, 1.0)) == approx(0.5)

    def test_quadratic_against_quadrature(self):
        knots = (0.0, 1.0, 2.0, 3.0)
        assert basis_integral(knots) == approx(1.0)
        assert quadrature_integral(knots) == approx(basis_integral(knots), abs=1e-8)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(knot_vectors(), st.floats(-0.5, 1.5, allow_nan=False))
    def test_bounded(self, kv, x):
        _, knots = kv
        v = eval_basis(knots, x)
        assert 0.0 <= v <= 1.0 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(knot_vectors(), st.floats(-0.5, 1.5, allow_nan=False))
    def test_zero_outside_support(self, kv, x):
        _, knots = kv
        if x < knots[0] or x >= knots[-1]:
            assert eval_basis(knots, x) == 0.0

    def test_strictly_positive_inside_distinct_support(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(0, 6))
            knots = np.sort(rng.uniform(0, 1, k + 2))
            if np.min(np.diff(knots)) < 1e-3:
                continue
            xs = rng.uniform(knots[0], knots[-1], 50)
            vals = basis_values(knots, k, xs)
            assert (vals > 0).all()

    def test_partition_of_unity(self):
        # uniform grid: degree-k windows of k+2 consecutive knots sum to 1
        for k in range(0, 6):
            t = np.linspace(0.0, 1.0, 12 + k)
            m = len(t) - 1
            xs = np.linspace(t[k], t[m - k], 500, endpoint=False)
            total = np.zeros_like(xs)
            for i in range(m - k):
                total += basis_values(t[i:i + k + 2], k, xs)
            assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_recursion_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            t = np.sort(rng.uniform(0, 1, k + 2))
            xs = rng.uniform(-0.1, 1.1, 40)
            full = basis_values(t, k, xs)
            left_den = t[k] - t[0]
            right_den = t[k + 1] - t[1]
            combo = np.zeros_like(xs)
            if left_den > 0:
                combo += (xs - t[0]) / left_den * basis_values(t[:k + 1], k - 1, xs)
            if right_den > 0:
                combo += (t[k + 1] - xs) / right_den * basis_values(t[1:], k - 1, xs)
            np.testing.assert_allclose(full, combo, rtol=0, atol=1e-12)

    def test_order_k_difference_jumps_at_knots(self):
        # negative control: the k-th derivative is only piecewise constant,
        # so the same check at order j = k must detect the jump
        knots = (0.0, 0.3, 0.6, 1.0)
        h, eps, j = 1e-3, 1e-2, 2
        xi = 0.3
        left = finite_difference(knots, xi - eps, j, h)
        right = finite_difference(knots, xi + eps, j, h)
        dj1 = max(abs(finite_difference(knots, xi - eps, j + 1, h)),
                  abs(finite_difference(knots, xi + eps, j + 1, h)))
        bound = 2 * (2 * eps * dj1) + 2.0**j * 1e-11 / h**j + 1e-9
        assert abs(left - right) > 10 * bound

    def test_degree0_jump_is_discontinuous(self):
        knots = (0.3, 0.7)
        assert eval_basis(knots, 0.3 - 1e-9) == 0.0
        assert eval_basis(knots, 0.3) == 1.0


class TestEvalMean:
    def test_empty_sum(self):
        state = make_state({}, beta0=2.5)
        assert eval_mean(state, 0.123) == approx(2.5)

    def test_single_indicator(self):
        state = make_state({0: [((0.0, 1.0), 3.0)]})
        assert eval_mean(state, 0.5) == approx(3.0)

    def test_two_atoms(self):
        atoms = {
            0: [((0.0, 1.0), 2.0)],
            1: [((0.0, 0.5, 1.0), -1.0)],
        }
        state = make_state(atoms, beta0=1.0)
        assert eval_mean(state, 0.5) == approx(2.0)

    def test_vectorized_matches_scalar(self):
        state = make_state({2: [((0.0, 0.2, 0.6, 1.0), 1.7)]},
                           beta0=0.3)
        xs = np.linspace(0, 1, 17)
        vec = eval_mean(state, xs)
        assert vec == approx([eval_mean(state, float(x)) for x in xs])
