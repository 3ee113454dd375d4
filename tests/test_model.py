import math
import re

import numpy as np
import pytest
from pytest import approx

from levyspline.model import (
    Dataset,
    DegenerateDataError,
    DegreeComponent,
    Hyperparams,
    ModelState,
    init_state,
    sample_atom,
)
from levyspline.signals import generate_dataset
from oracles import atom_log_prior, eval_basis, log_likelihood, make_state

LOG_2PI = math.log(2 * math.pi)


class TestTypes:
    def test_atom_degree_mismatch_rejected(self):
        # a component's degree is its key: a hat filed under degree 0 would
        # be evaluated as an indicator and share its list with degree-0 births
        hat = ((0.0, 0.5, 1.0), 1.0)
        with pytest.raises(ValueError, match="degree 0 needs 2 knots, got 3"):
            ModelState(beta0=0.0, components={0: DegreeComponent(atoms=[hat], M=1.0)},
                       sigma2=1.0, phi=1.0)

    def test_nonpositive_sigma2_rejected(self):
        with pytest.raises(ValueError):
            ModelState(beta0=0.0, components={}, sigma2=0.0, phi=1.0)

    def test_nonpositive_phi_rejected(self):
        with pytest.raises(ValueError, match="phi must be finite and positive"):
            ModelState(beta0=0.0, components={}, sigma2=1.0, phi=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["sigma2", "phi", "M"])
    def test_nonfinite_scalars_rejected(self, name, value):
        # NaN and inf pass a `<= 0` check, and a `Chain` would run on them
        scalars = {"sigma2": 1.0, "phi": 1.0, "M": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            ModelState(beta0=0.0, sigma2=scalars["sigma2"], phi=scalars["phi"],
                       components={0: DegreeComponent(atoms=[], M=scalars["M"])})

    def test_hyperparams_move_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Hyperparams((0,), move_probs=(0.5, 0.4, 0.2))

    def test_hyperparams_scalar_gamma_broadcast(self):
        h = Hyperparams((0, 2), a_gamma=5.0)
        assert (h.a_gamma, h.b_gamma) == (5.0, 1.0)

    @pytest.mark.parametrize("bad", [2.9, 1.5, math.nan, math.inf])
    def test_hyperparams_non_integer_degree_rejected(self, bad):
        # int() would truncate 2.9 to degree 2 and run a chain nobody asked for
        with pytest.raises(ValueError, match=f"degrees must be integers, got {bad}"):
            Hyperparams((0, bad))

    def test_hyperparams_integral_float_degree_accepted(self):
        assert Hyperparams((2.0, 0)).degrees == (0, 2)

    def test_hyperparams_defaults_per_degree(self):
        h = Hyperparams([2, 0], move_probs=[0.2, 0.3, 0.5])
        assert h.degrees == (0, 2)
        assert (h.r, h.R) == (0.01, 0.01)
        assert h.a_gamma == h.b_gamma == 1.0
        assert h.move_probs == (0.2, 0.3, 0.5)

    def test_dataset_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([0.0, 1.0]), y=np.array([1.0, np.nan]))

    def test_dataset_rejects_overflowing_domain_width(self):
        with pytest.raises(ValueError, match="domain width must be finite"):
            Dataset(x=np.array([-1e308, 1e308]), y=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="domain width must be finite"):
            Dataset(x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]), domain=(0.0, np.inf))

    def test_dataset_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([0.0]), y=np.array([1.0, 2.0]))


class TestLogLikelihood:
    def test_zero_residual(self):
        data = Dataset(x=np.array([0.5]), y=np.array([2.5]),
                       domain=(0.0, 1.0))
        state = make_state({0: []}, beta0=2.5)
        assert log_likelihood(state, data) == approx(-0.5 * LOG_2PI)

    def test_unit_residuals(self):
        data = Dataset(x=np.array([0.2, 0.8]), y=np.array([1.0, -1.0]),
                       domain=(0.0, 1.0))
        state = make_state({0: []})
        assert log_likelihood(state, data) == approx(-LOG_2PI - 1.0)

    def test_against_bruteforce_sum_on_blocks(self):
        data = generate_dataset("blocks", 128, 3.0, seed=4)
        rng = np.random.default_rng(9)
        atoms_by_k = {k: [sample_atom(k, 1.5, data.domain, rng) for _ in range(3)]
                      for k in (0, 1, 2)}
        atoms = [a for v in atoms_by_k.values() for a in v]
        state = make_state(atoms_by_k, beta0=0.7, sigma2=0.35)
        # independent plain-Python summation oracle
        ll = 0.0
        for xi, yi in zip(data.x, data.y):
            eta = 0.7
            for knots, beta in atoms:
                eta += beta * eval_basis(knots, float(xi))
            ll += -0.5 * math.log(2 * math.pi * 0.35) - (yi - eta) ** 2 / (2 * 0.35)
        assert log_likelihood(state, data) == approx(ll, rel=1e-10)

    def test_decreases_as_residual_grows(self):
        data = Dataset(x=np.array([0.5]), y=np.array([0.0]), domain=(0.0, 1.0))
        lls = [log_likelihood(make_state({0: []}, beta0=b), data)
               for b in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(lls, lls[1:]))


class TestSampleAtom:
    def test_structure(self):
        rng = np.random.default_rng(0)
        knots, beta = sample_atom(0, 1.0, (0.0, 1.0), rng)
        assert len(knots) == 2
        assert knots[0] <= knots[1]
        assert isinstance(beta, float)

    def test_beta_moments(self):
        rng = np.random.default_rng(1)
        n = 100_000
        betas = np.array([sample_atom(0, 1.0, (0.0, 1.0), rng)[1]
                          for _ in range(n)])
        assert abs(betas.mean()) < 3.0 / math.sqrt(n)
        assert betas.var() == approx(1.0, rel=0.05)

    def test_first_knot_is_min_of_two_uniforms(self):
        # order statistics: min of two U(0,1) is Beta(1,2), mean 1/3
        rng = np.random.default_rng(2)
        n = 100_000
        firsts = np.array([sample_atom(0, 1.0, (0.0, 1.0), rng)[0][0]
                           for _ in range(n)])
        se = math.sqrt(1.0 / 18.0 / n)
        assert firsts.mean() == approx(1.0 / 3.0, abs=3 * se)

    def test_invalid_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_atom(0, 0.0, (0.0, 1.0), rng)
        with pytest.raises(ValueError):
            sample_atom(0, 1.0, (1.0, 1.0), rng)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, 0.0, -1.0])
    def test_phi_must_be_finite_and_positive(self, phi):
        # a NaN or infinite scale would draw a non-finite beta
        with pytest.raises(ValueError, match=re.escape(
                f"phi must be finite and positive, got {phi}")):
            sample_atom(1, phi, (0.0, 1.0), np.random.default_rng(0))


def _numpy_draw(k, phi, domain, rng):
    """An atom `(knots, beta)` drawn through `rng.uniform`, beta first."""
    beta = float(rng.normal(0.0, phi))
    return sorted(rng.uniform(*domain, size=k + 2).tolist()), beta


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestUniformDraws:
    """Knot uniforms are `rng.uniform`'s doubles, drawn from `rng.random`.

    numpy computes uniform(lo, hi) as lo + (hi - lo) * random(), which is
    how `sample_atom` and a chain's relocation draw each knot; if a numpy
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
        got = [lo + (hi - lo) * ours.random() for lo, hi in pairs]
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
            kn, beta = sample_atom(k, 0.7, domain, ours)
            betas.append(beta)
            knots += kn
            kn, beta = _numpy_draw(k, 0.7, domain, theirs)
            want_betas.append(beta)
            want_knots += kn
        assert len(knots) >= 10**5
        assert _bits(betas) == _bits(want_betas)
        assert _bits(knots) == _bits(want_knots)

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-math.inf, 1.0),
                                       (0.0, math.nan), (1.0, 0.0)])
    def test_range_errors_match_numpy(self, lo, hi):
        # numpy raises OverflowError or ValueError on these; sample_atom has
        # one check, a width in (0, inf), and raises ValueError on all four
        for k in range(4):
            with pytest.raises(ValueError, match="domain width must be finite and positive"):
                sample_atom(k, 1.0, (lo, hi), np.random.default_rng(0))

    def test_sample_atom_record_passes_model_state(self):
        for k in range(4):
            rng = np.random.default_rng(60)
            atoms = [sample_atom(k, 1.5, (-0.25, 1.75), rng) for _ in range(50)]
            # a born atom's knots go into the chain as drawn; relocation copies a list
            assert all(isinstance(knots, list) for knots, _ in atoms)
            make_state({k: atoms})


class TestAtomLogPrior:
    def test_standard_normal_at_zero(self):
        a = ((0.2, 0.8), 0.0)
        expected = -0.5 * LOG_2PI + math.log(2.0)
        assert atom_log_prior(a, 1.0, (0.0, 1.0)) == approx(expected)

    def test_outside_domain_is_minus_inf(self):
        a = ((0.2, 1.5), 0.0)
        assert atom_log_prior(a, 1.0, (0.0, 1.0)) == -math.inf

    def test_degree1_closed_form(self):
        a = ((0.1, 0.5, 1.9), 1.5)
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
                    a = ((u * v, v), b)
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
            assert all(len(knots) == k + 2 for knots, _ in comp.atoms)
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

    def test_overflowing_response_range_rejected(self):
        # y's range overflows a double, as x's domain width can
        data = Dataset(x=np.array([0.0, 0.5, 1.0]), y=np.array([-1e308, 0.0, 1e308]))
        message = r"response range width must be finite, got \(-1e\+308, 1e\+308\)"
        with pytest.raises(ValueError, match=message):
            init_state(data, Hyperparams((0,)), np.random.default_rng(0))

    @pytest.mark.parametrize("y, mean", [((1e308, 1e308, 0.0), "inf"),
                                         ((-1e308, -1e308, 0.0), "-inf")])
    def test_overflowing_response_mean_rejected(self, y, mean):
        # the range is finite, but y's sum overflows a double
        data = Dataset(x=np.array([0.0, 0.5, 1.0]), y=np.array(y))
        with pytest.raises(ValueError, match=f"response mean must be finite, got {mean}"):
            init_state(data, Hyperparams((0,)), np.random.default_rng(0))

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
