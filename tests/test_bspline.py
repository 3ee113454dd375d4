import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from levyspline.bspline import KnotVector, basis_values
from levyspline.model import Atom, DegreeComponent, ModelState
from oracles import basis_integral, eval_basis, eval_mean


def quadrature_integral(kv, order=8):
    """Independent oracle: Gauss-Legendre per knot span (polynomial there)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = np.asarray(kv.knots)
    total = 0.0
    for a, b in zip(t[:-1], t[1:]):
        if b <= a:
            continue
        xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(weights @ basis_values(kv.knots, kv.degree, xs))
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
    for degree in range(4):
        for n in (1, 7, 128, 512):
            for kind in ("random", "on_grid", "coincident", "span_1e-289",
                         "span_1e-300", "span_1e-310", "huge_x"):
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
                    # points exactly on knots, and unsorted order half the time
                    x[rng.integers(0, n, min(n, degree + 2))] = t[: min(n, degree + 2)]
                    if rng.random() < 0.5:
                        x = rng.permutation(x)
                    if n == 128 and kind == "random":
                        x = x.reshape(16, 8)
                    yield degree, t, x


def knot_vectors(max_degree=5):
    return st.integers(0, max_degree).flatmap(
        lambda k: st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=k + 2, max_size=k + 2
        ).map(lambda ks: KnotVector(k, tuple(sorted(ks))))
    )


class TestKnotVector:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            KnotVector(1, (0.0, 1.0))

    def test_descending_rejected(self):
        with pytest.raises(ValueError):
            KnotVector(0, (1.0, 0.0))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            KnotVector(-1, ())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_non_finite_rejected(self, bad, pos):
        knots = [0.0, 0.5, 1.0]
        knots[pos] = bad
        with pytest.raises(ValueError, match="knots must be finite"):
            KnotVector(1, tuple(knots))

    def test_ties_allowed(self):
        kv = KnotVector(1, (0.0, 0.0, 1.0))
        assert kv.support == (0.0, 1.0)


class TestEvalBasis:
    def test_degree0_indicator(self):
        kv = KnotVector(0, (0.0, 1.0))
        assert eval_basis(kv, 0.5) == 1.0

    def test_degree0_half_open(self):
        kv = KnotVector(0, (0.0, 1.0))
        assert eval_basis(kv, 1.0) == 0.0
        assert eval_basis(kv, 0.0) == 1.0

    def test_degree1_peak(self):
        # hand expansion: second recursion term (1-x)/0.5 * 1{0.5<=x<1} is 1 at 0.5
        kv = KnotVector(1, (0.0, 0.5, 1.0))
        assert eval_basis(kv, 0.5) == approx(1.0)

    def test_degree2_uniform(self):
        # symbolic expansion of the uniform quadratic at the midpoint
        kv = KnotVector(2, (0.0, 1.0, 2.0, 3.0))
        assert eval_basis(kv, 1.5) == approx(0.75)

    def test_coincident_knots_give_zero_not_nan(self):
        kv = KnotVector(2, (0.0, 0.5, 0.5, 1.0))
        vals = basis_values(kv.knots, 2, np.linspace(0, 1, 101))
        assert np.isfinite(vals).all()
        assert (vals >= 0).all()

    def test_fully_coincident_degenerate(self):
        kv = KnotVector(1, (0.5, 0.5, 0.5))
        assert eval_basis(kv, 0.5) == 0.0

    def test_matches_reference_byte_for_byte(self):
        count = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for degree, t, x in _oracle_cases():
                got = basis_values(t, degree, x)
                want = _reference_basis(t, degree, x)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (degree, t.tolist())
                count += 1
        assert count == 4 * 4 * 7 * 24


class TestBasisIntegral:
    def test_unit_indicator(self):
        assert basis_integral(KnotVector(0, (0.0, 1.0))) == approx(1.0)

    def test_triangle(self):
        assert basis_integral(KnotVector(1, (0.0, 0.5, 1.0))) == approx(0.5)

    def test_quadratic_against_quadrature(self):
        kv = KnotVector(2, (0.0, 1.0, 2.0, 3.0))
        assert basis_integral(kv) == approx(1.0)
        assert quadrature_integral(kv) == approx(basis_integral(kv), abs=1e-8)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(knot_vectors(), st.floats(-0.5, 1.5, allow_nan=False))
    def test_bounded(self, kv, x):
        v = eval_basis(kv, x)
        assert 0.0 <= v <= 1.0 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(knot_vectors(), st.floats(-0.5, 1.5, allow_nan=False))
    def test_zero_outside_support(self, kv, x):
        lo, hi = kv.support
        if x < lo or x >= hi:
            assert eval_basis(kv, x) == 0.0

    def test_strictly_positive_inside_distinct_support(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(0, 6))
            knots = np.sort(rng.uniform(0, 1, k + 2))
            if np.min(np.diff(knots)) < 1e-3:
                continue
            kv = KnotVector(k, tuple(knots))
            xs = rng.uniform(knots[0], knots[-1], 50)
            vals = basis_values(kv.knots, k, xs)
            assert (vals > 0).all()

    def test_integral_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            k = int(rng.integers(0, 6))
            knots = np.sort(rng.uniform(0, 1, k + 2))
            kv = KnotVector(k, tuple(knots))
            exact = basis_integral(kv)
            if exact < 1e-6:
                continue
            assert quadrature_integral(kv) == approx(exact, rel=1e-6)

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

    def test_derivative_continuity_across_interior_knots(self):
        # order-j finite differences (j <= k-1) agree just left/right of each
        # interior knot, up to the drift 2*eps*|D^(j+1)| a continuous derivative
        # allows plus the difference quotient's floating-point noise
        rng = np.random.default_rng(37)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            knots = np.sort(rng.uniform(0, 1, k + 2))
            while np.min(np.diff(knots)) < 0.1:
                knots = np.sort(rng.uniform(0, 1, k + 2))
            kv = KnotVector(k, tuple(knots))
            for xi in knots[1:-1]:
                for j in range(1, k):
                    h = 1e-5 if j <= 2 else 1e-3
                    eps = 10 * h
                    left = _fd(kv, xi - eps, j, h)
                    right = _fd(kv, xi + eps, j, h)
                    dj1 = max(abs(_fd(kv, xi - eps, j + 1, h)),
                              abs(_fd(kv, xi + eps, j + 1, h)))
                    bound = 2 * (2 * eps * dj1) + 2.0**j * 1e-11 / h**j + 1e-9
                    assert abs(left - right) <= bound

    def test_order_k_difference_jumps_at_knots(self):
        # negative control: the k-th derivative is only piecewise constant,
        # so the same check at order j = k must detect the jump
        kv = KnotVector(2, (0.0, 0.3, 0.6, 1.0))
        h, eps, j = 1e-3, 1e-2, 2
        xi = 0.3
        left = _fd(kv, xi - eps, j, h)
        right = _fd(kv, xi + eps, j, h)
        dj1 = max(abs(_fd(kv, xi - eps, j + 1, h)), abs(_fd(kv, xi + eps, j + 1, h)))
        bound = 2 * (2 * eps * dj1) + 2.0**j * 1e-11 / h**j + 1e-9
        assert abs(left - right) > 10 * bound

    def test_degree0_jump_is_discontinuous(self):
        kv = KnotVector(0, (0.3, 0.7))
        assert eval_basis(kv, 0.3 - 1e-9) == 0.0
        assert eval_basis(kv, 0.3) == 1.0


def _fd(kv, x, order, h):
    """Central finite difference of the given order."""
    from math import comb

    acc = 0.0
    for m in range(order + 1):
        acc += (-1) ** m * comb(order, m) * eval_basis(kv, x + (order / 2 - m) * h)
    return acc / h**order


class TestEvalMean:
    def _state(self, beta0, atoms):
        by_k = {}
        for a in atoms:
            by_k.setdefault(a.degree, []).append(a)
        comps = {
            k: DegreeComponent(degree=k, atoms=v, M=1.0)
            for k, v in by_k.items()
        }
        return ModelState(beta0=beta0, components=comps, sigma2=1.0, phi=1.0)

    def test_empty_sum(self):
        state = self._state(2.5, [])
        assert eval_mean(state, 0.123) == approx(2.5)

    def test_single_indicator(self):
        state = self._state(0.0, [Atom(KnotVector(0, (0.0, 1.0)), 3.0)])
        assert eval_mean(state, 0.5) == approx(3.0)

    def test_two_atoms(self):
        atoms = [
            Atom(KnotVector(0, (0.0, 1.0)), 2.0),
            Atom(KnotVector(1, (0.0, 0.5, 1.0)), -1.0),
        ]
        state = self._state(1.0, atoms)
        assert eval_mean(state, 0.5) == approx(2.0)

    def test_vectorized_matches_scalar(self):
        atoms = [Atom(KnotVector(2, (0.0, 0.2, 0.6, 1.0)), 1.7)]
        state = self._state(0.3, atoms)
        xs = np.linspace(0, 1, 17)
        vec = eval_mean(state, xs)
        assert vec == approx([eval_mean(state, float(x)) for x in xs])
