import math

import numpy as np
import pytest
from pytest import approx

from levyspline.bspline import KnotVector
from levyspline.model import (
    Atom,
    Dataset,
    DegenerateDataError,
    DegreeComponent,
    Hyperparams,
    ModelState,
    coefficient_scale,
    draw_atom,
    init_state,
    sample_atom,
    uniform,
)
from levyspline.signals import generate_dataset
from oracles import atom_log_prior, eval_basis, log_likelihood

LOG_2PI = math.log(2 * math.pi)


def make_state(beta0, atoms, sigma2=1.0, degrees=None, phi=1.0, M=1.0):
    by_k = {}
    for a in atoms:
        by_k.setdefault(a.degree, []).append(a)
    for k in degrees or ():
        by_k.setdefault(k, [])
    comps = {k: DegreeComponent(degree=k, atoms=v, M=M) for k, v in by_k.items()}
    return ModelState(beta0=beta0, components=comps, sigma2=sigma2, phi=phi)


class TestTypes:
    def test_atom_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DegreeComponent(degree=1, atoms=[Atom(KnotVector(0, (0, 1)), 1.0)],
                            M=1.0)

    def test_nonpositive_sigma2_rejected(self):
        with pytest.raises(ValueError):
            ModelState(beta0=0.0, components={}, sigma2=0.0, phi=1.0)

    def test_nonpositive_phi_rejected(self):
        with pytest.raises(ValueError, match="phi must be positive"):
            ModelState(beta0=0.0, components={}, sigma2=1.0, phi=0.0)

    def test_hyperparams_move_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Hyperparams((0,), move_probs=(0.5, 0.4, 0.2))

    def test_hyperparams_scalar_gamma_broadcast(self):
        h = Hyperparams((0, 2), a_gamma=5.0)
        assert h.a_gamma == {0: 5.0, 2: 5.0}

    def test_hyperparams_defaults_per_degree(self):
        h = Hyperparams([2, 0], move_probs=[0.2, 0.3, 0.5])
        assert h.degrees == (0, 2)
        assert (h.r, h.R) == (0.01, 0.01)
        assert h.a_gamma == h.b_gamma == {0: 1.0, 2: 1.0}
        assert h.move_probs == (0.2, 0.3, 0.5)

    def test_dataset_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([0.0, 1.0]), y=np.array([1.0, np.nan]))

    def test_dataset_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([0.0]), y=np.array([1.0, 2.0]))


class TestLogLikelihood:
    def test_zero_residual(self):
        data = Dataset(x=np.array([0.5]), y=np.array([2.5]),
                       domain=(0.0, 1.0))
        state = make_state(2.5, [], degrees=(0,))
        assert log_likelihood(state, data) == approx(-0.5 * LOG_2PI)

    def test_unit_residuals(self):
        data = Dataset(x=np.array([0.2, 0.8]), y=np.array([1.0, -1.0]),
                       domain=(0.0, 1.0))
        state = make_state(0.0, [], degrees=(0,))
        assert log_likelihood(state, data) == approx(-LOG_2PI - 1.0)

    def test_against_bruteforce_sum_on_blocks(self):
        data = generate_dataset("blocks", 128, 3.0, seed=4)
        rng = np.random.default_rng(9)
        atoms = []
        for k in (0, 1, 2):
            for _ in range(3):
                atoms.append(sample_atom(k, 1.5, data.domain, rng))
        state = make_state(0.7, atoms, sigma2=0.35)
        # independent plain-Python summation oracle
        ll = 0.0
        for xi, yi in zip(data.x, data.y):
            eta = 0.7
            for a in atoms:
                eta += a.beta * eval_basis(a.knots, float(xi))
            ll += -0.5 * math.log(2 * math.pi * 0.35) - (yi - eta) ** 2 / (2 * 0.35)
        assert log_likelihood(state, data) == approx(ll, rel=1e-10)

    def test_decreases_as_residual_grows(self):
        data = Dataset(x=np.array([0.5]), y=np.array([0.0]), domain=(0.0, 1.0))
        lls = [log_likelihood(make_state(b, [], degrees=(0,)), data)
               for b in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(lls, lls[1:]))


class TestSampleAtom:
    def test_structure(self):
        rng = np.random.default_rng(0)
        a = sample_atom(0, 1.0, (0.0, 1.0), rng)
        assert len(a.knots.knots) == 2
        assert a.knots.knots[0] <= a.knots.knots[1]
        assert a.degree == 0

    def test_beta_moments(self):
        rng = np.random.default_rng(1)
        n = 100_000
        betas = np.array([sample_atom(0, 1.0, (0.0, 1.0), rng).beta
                          for _ in range(n)])
        assert abs(betas.mean()) < 3.0 / math.sqrt(n)
        assert betas.var() == approx(1.0, rel=0.05)

    def test_first_knot_is_min_of_two_uniforms(self):
        # order statistics: min of two U(0,1) is Beta(1,2), mean 1/3
        rng = np.random.default_rng(2)
        n = 100_000
        firsts = np.array([sample_atom(0, 1.0, (0.0, 1.0), rng).knots.knots[0]
                           for _ in range(n)])
        se = math.sqrt(1.0 / 18.0 / n)
        assert firsts.mean() == approx(1.0 / 3.0, abs=3 * se)

    def test_invalid_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_atom(0, 0.0, (0.0, 1.0), rng)
        with pytest.raises(ValueError):
            sample_atom(0, 1.0, (1.0, 1.0), rng)


def _numpy_draw(k, phi, domain, rng):
    """An atom's prior values drawn through `rng.uniform`, with draw_atom's checks."""
    if phi <= 0:
        raise ValueError("phi must be positive")
    lo, hi = domain
    if not hi > lo:
        raise ValueError("domain must be non-degenerate")
    beta = float(rng.normal(0.0, phi))
    return beta, sorted(rng.uniform(lo, hi, size=k + 2).tolist())


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestUniformDraws:
    """`uniform` and `draw_atom` give `rng.uniform`'s doubles from `rng.random`.

    numpy computes uniform(lo, hi) as lo + (hi - lo) * random(); if a numpy
    release computes it differently, these fail rather than the chains
    moving silently.
    """

    DOMAINS = [(0.0, 1.0), (-0.25, 1.75)]

    def _pairs(self, seed, count):
        # fixed domains, then random neighbour pairs (sorted uniforms)
        pairs = [d for d in self.DOMAINS for _ in range(count)]
        u = np.sort(np.random.default_rng(seed).uniform(-2.0, 3.0, (count, 2)), axis=1)
        return pairs + [tuple(p) for p in u.tolist()]

    def test_scalar_matches_rng_uniform(self):
        pairs = self._pairs(30, 40_000)
        ours, theirs = np.random.default_rng(31), np.random.default_rng(31)
        got = [uniform(lo, hi, ours) for lo, hi in pairs]
        want = [float(theirs.uniform(lo, hi)) for lo, hi in pairs]
        assert len(got) >= 10**5
        assert _bits(got) == _bits(want)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_draw_atom_matches_rng_uniform(self, k):
        pairs = self._pairs(40 + k, 10**5 // (3 * (k + 2)) + 1)
        ours, theirs = np.random.default_rng(50 + k), np.random.default_rng(50 + k)
        betas, knots, want_betas, want_knots = [], [], [], []
        for domain in pairs:
            beta, kn = draw_atom(k, 0.7, domain, ours)
            betas.append(beta)
            knots += kn
            beta, kn = _numpy_draw(k, 0.7, domain, theirs)
            want_betas.append(beta)
            want_knots += kn
        assert len(knots) >= 10**5
        assert _bits(betas) == _bits(want_betas)
        assert _bits(knots) == _bits(want_knots)

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-math.inf, 1.0),
                                       (0.0, math.nan), (1.0, 0.0)])
    def test_range_errors_match_numpy(self, lo, hi):
        with pytest.raises((OverflowError, ValueError)) as numpy_error:
            np.random.default_rng(0).uniform(lo, hi)
        with pytest.raises(numpy_error.type):
            uniform(lo, hi, np.random.default_rng(0))
        for k in range(4):
            with pytest.raises((OverflowError, ValueError)) as want:
                _numpy_draw(k, 1.0, (lo, hi), np.random.default_rng(0))
            with pytest.raises(want.type):
                draw_atom(k, 1.0, (lo, hi), np.random.default_rng(0))

    def test_sample_atom_wraps_draw_atom(self):
        for k in range(4):
            beta, knots = draw_atom(k, 1.5, (-0.25, 1.75), np.random.default_rng(60))
            atom = sample_atom(k, 1.5, (-0.25, 1.75), np.random.default_rng(60))
            assert atom == Atom(knots=KnotVector(degree=k, knots=knots), beta=beta)


class TestAtomLogPrior:
    def test_standard_normal_at_zero(self):
        a = Atom(KnotVector(0, (0.2, 0.8)), 0.0)
        expected = -0.5 * LOG_2PI + math.log(2.0)
        assert atom_log_prior(a, 1.0, (0.0, 1.0)) == approx(expected)

    def test_outside_domain_is_minus_inf(self):
        a = Atom(KnotVector(0, (0.2, 1.5)), 0.0)
        assert atom_log_prior(a, 1.0, (0.0, 1.0)) == -math.inf

    def test_degree1_closed_form(self):
        a = Atom(KnotVector(1, (0.1, 0.5, 1.9)), 1.5)
        expected = (-math.log(2 * math.sqrt(2 * math.pi)) - 1.5**2 / 8.0
                    + math.log(math.factorial(3) / 2.0**3))
        assert atom_log_prior(a, 2.0, (0.0, 2.0)) == approx(expected)

    def test_normalization_by_quadrature(self):
        # k = 0 on [0,1]: integrate exp(log prior) over beta and the ordered
        # knot pair via the (u, v) -> (u*v, v) map (Jacobian v)
        betas = np.linspace(-6.0, 6.0, 121)
        us = np.linspace(0.0, 1.0, 61)
        vs = np.linspace(0.0, 1.0, 61)
        vals = np.empty((len(betas), len(us), len(vs)))
        for i, b in enumerate(betas):
            for j, u in enumerate(us):
                for l, v in enumerate(vs):
                    a = Atom(KnotVector(0, (u * v, v)), b)
                    vals[i, j, l] = math.exp(atom_log_prior(a, 1.0, (0.0, 1.0))) * v
        total = np.trapezoid(np.trapezoid(np.trapezoid(vals, vs), us), betas)
        assert total == approx(1.0, abs=1e-3)


class TestInitState:
    def _data(self):
        return Dataset(x=np.array([0.0, 1.0]), y=np.array([1.0, 3.0]))

    def test_plugin_formulas(self):
        hyper = Hyperparams((0, 1))
        state = init_state(self._data(), hyper, np.random.default_rng(3))
        assert state.beta0 == approx(2.0)
        assert state.phi == approx(1.0)

    def test_component_degrees_match(self):
        hyper = Hyperparams((0, 2, 3))
        state = init_state(self._data(), hyper, np.random.default_rng(4))
        assert sorted(state.components) == [0, 2, 3]
        for k, comp in state.components.items():
            assert all(a.degree == k for a in comp.atoms)
            assert comp.count == len(comp.atoms)

    def test_deterministic_given_seed(self):
        hyper = Hyperparams((0, 1))
        s1 = init_state(self._data(), hyper, np.random.default_rng(7))
        s2 = init_state(self._data(), hyper, np.random.default_rng(7))
        assert s1 == s2

    def test_constant_y_rejected(self):
        data = Dataset(x=np.array([0.0, 1.0]), y=np.array([2.0, 2.0]))
        with pytest.raises(DegenerateDataError):
            init_state(data, Hyperparams((0,)), np.random.default_rng(0))
        with pytest.raises(DegenerateDataError):
            coefficient_scale(data)

    def test_random_components_match_prior_moments(self):
        # r=6, R=1: sigma2 ~ IG(3, 3), mean 1.5; M ~ Ga(2, 1), mean 2;
        # J | M ~ Poi(M) so E[J] = 2, Var[J] = E[M] + Var[M] = 4
        hyper = Hyperparams((0,), r=6.0, R=1.0, a_gamma=2.0, b_gamma=1.0)
        data = self._data()
        rng = np.random.default_rng(11)
        n = 10_000
        Ms, Js, s2s = [], [], []
        for _ in range(n):
            s = init_state(data, hyper, rng)
            Ms.append(s.components[0].M)
            Js.append(s.components[0].count)
            s2s.append(s.sigma2)
        assert np.mean(Ms) == approx(2.0, abs=3 * math.sqrt(2.0 / n))
        assert np.mean(Js) == approx(2.0, abs=3 * math.sqrt(4.0 / n))
        # IG(3,3): mean 1.5, variance 9/4
        assert np.mean(s2s) == approx(1.5, abs=3 * math.sqrt(2.25 / n))
