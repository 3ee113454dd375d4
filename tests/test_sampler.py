import copy
import math

import numpy as np
import pytest
import scipy.stats as st
from pytest import approx

from levyspline.bspline import KnotVector
from levyspline.model import (
    Atom,
    Dataset,
    DegreeComponent,
    Hyperparams,
    ModelState,
    sample_atom,
)
from levyspline.sampler import (
    Chain,
    ChainConfig,
    ChainOutput,
    choose_move,
    posterior_curve,
    run_chain,
)
from levyspline.signals import generate_dataset
from oracles import birth_log_ratio, death_log_ratio, log_likelihood
from test_bspline import _reference_basis


def flat_data(n=5, value=0.0):
    return Dataset(x=np.linspace(0, 1, n), y=np.full(n, value), domain=(0.0, 1.0))


def make_state(atoms_by_k, sigma2=1.0, beta0=0.0, M=1.0, phi=1.0):
    comps = {k: DegreeComponent(degree=k, atoms=list(v), M=M)
             for k, v in atoms_by_k.items()}
    return ModelState(beta0=beta0, components=comps, sigma2=sigma2, phi=phi)


HYPER0 = Hyperparams((0,))


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(iterations=10, burn_in=10)
        with pytest.raises(ValueError):
            ChainConfig(iterations=5, burn_in=4, thin=10)

    def test_retained_count(self):
        assert ChainConfig(iterations=10).retained == 10
        assert ChainConfig(iterations=100, burn_in=30, thin=7).retained == 10


class TestChooseMove:
    def test_empty_component_forces_birth(self):
        rng = np.random.default_rng(0)
        assert all(choose_move(HYPER0, 0, rng) == "birth" for _ in range(100))

    def test_degenerate_probabilities(self):
        hyper = Hyperparams((0,), move_probs=(1.0, 0.0, 0.0))
        rng = np.random.default_rng(0)
        assert all(choose_move(hyper, 5, rng) == "birth" for _ in range(100))

    def test_empirical_frequencies(self):
        hyper = Hyperparams((0,), move_probs=(0.4, 0.4, 0.2))
        rng = np.random.default_rng(1)
        n = 100_000
        counts = {"birth": 0, "death": 0, "relocate": 0}
        for _ in range(n):
            counts[choose_move(hyper, 5, rng)] += 1
        for kind, p in (("birth", 0.4), ("death", 0.4), ("relocate", 0.2)):
            se = math.sqrt(p * (1 - p) / n)
            assert counts[kind] / n == approx(p, abs=3 * se)


class TestBirthDeathRatios:
    def test_forced_birth_flat_dataset(self):
        # beta=0 proposal leaves the fit unchanged: lik-ratio 1; with J=0 the
        # proposal probability is 1, so the ratio is M * p_d = 0.4
        state = make_state({0: []})
        atom = Atom(KnotVector(0, (0.2, 0.8)), 0.0)
        lr = birth_log_ratio(state, 0, atom, flat_data(), HYPER0)
        assert lr == approx(math.log(0.4))

    def test_unbounded_likelihood_gain_accepted(self):
        # an atom that wipes out a huge residual gives log-ratio >> 0
        data = Dataset(x=np.array([0.5]), y=np.array([100.0]), domain=(0.0, 1.0))
        state = make_state({0: []})
        atom = Atom(KnotVector(0, (0.0, 1.0)), 100.0)
        assert birth_log_ratio(state, 0, atom, data, HYPER0) > 0
        chain = Chain(data, HYPER0, np.random.default_rng(0), state=state)
        _, lr = chain.birth(0)
        assert math.isfinite(lr)

    def test_reciprocity_random_states(self):
        rng = np.random.default_rng(42)
        data = generate_dataset("blocks", 32, 3.0, seed=1)
        hyper = Hyperparams((0, 1, 2))
        for trial in range(200):
            k = int(rng.integers(0, 3))
            J = int(rng.integers(0, 4))  # includes the forced-birth boundary
            atoms = {kk: [] for kk in (0, 1, 2)}
            atoms[k] = [sample_atom(k, 1.0, data.domain, rng) for _ in range(J)]
            state = make_state(atoms, sigma2=float(rng.uniform(0.1, 2.0)),
                               M=float(rng.uniform(0.2, 5.0)))
            atom = sample_atom(k, 1.0, data.domain, rng)
            up = birth_log_ratio(state, k, atom, data, hyper)
            post = make_state(
                {kk: list(state.components[kk].atoms) for kk in (0, 1, 2)},
                sigma2=state.sigma2, M=state.components[k].M)
            post.components[k].atoms.append(atom)
            down = death_log_ratio(post, k, J, data, hyper)
            assert up + down == approx(0.0, abs=1e-10)

    def test_chain_ratios_match_full_likelihood_oracle(self):
        # Chain.birth/death run the incremental likelihood; a clone of the
        # generator draws the same atom (birth) or index (death) for the oracle
        rng = np.random.default_rng(43)
        data = generate_dataset("heavisine", 48, 3.0, seed=1)
        hyper = Hyperparams((0, 1, 2, 3))
        worst, boundary = 0.0, 0
        for _ in range(500):
            k = int(rng.integers(0, 4))
            J = int(rng.integers(0, 5))  # J = 0 and J = 1 are the forced-birth boundaries
            boundary += J <= 1
            atoms = {kk: [] for kk in range(4)}
            atoms[k] = [sample_atom(k, 1.0, data.domain, rng) for _ in range(J)]
            state = make_state(atoms, sigma2=float(rng.uniform(0.05, 3.0)),
                               M=float(rng.uniform(0.1, 6.0)))
            clone = copy.deepcopy(rng)
            _, chain_lr = Chain(data, hyper, rng, state=state).birth(k)
            atom = sample_atom(k, state.phi, data.domain, clone)
            worst = max(worst, abs(chain_lr - birth_log_ratio(state, k, atom, data, hyper)))
            if J > 0:
                clone = copy.deepcopy(rng)
                _, chain_lr = Chain(data, hyper, rng, state=state).death(k)
                r = int(clone.integers(J))
                worst = max(worst, abs(chain_lr - death_log_ratio(state, k, r, data, hyper)))
        assert boundary > 100
        assert worst <= 1e-10

    def test_death_on_empty_component_is_an_error(self):
        state = make_state({0: []})
        with pytest.raises(RuntimeError):
            death_log_ratio(state, 0, 0, flat_data(), HYPER0)
        with pytest.raises(RuntimeError):
            Chain(flat_data(), HYPER0, np.random.default_rng(0), state=state).death(0)

    def test_death_unsupported_atom_has_unit_lik_ratio(self):
        # atom supported strictly between data points: residuals unchanged
        data = Dataset(x=np.array([0.0, 1.0]), y=np.array([1.0, -1.0]),
                       domain=(0.0, 1.0))
        atom = Atom(KnotVector(0, (0.4, 0.6)), 7.0)
        state = make_state({0: [atom]}, M=2.0)
        # J=1: reverse birth is forced, probability 1
        expected = math.log(1) - math.log(2.0) + math.log(1.0) - math.log(0.4)
        assert death_log_ratio(state, 0, 0, data, HYPER0) == approx(expected)

    def test_death_selects_atoms_uniformly(self):
        # flat data, zero betas, M = J and p_b = p_d: every death accepted
        data = flat_data()
        atoms = [Atom(KnotVector(0, (0.1 * i, 0.5 + 0.1 * i)), 0.0)
                 for i in range(3)]
        counts = np.zeros(3)
        n = 20_000
        rng = np.random.default_rng(3)
        for _ in range(n):
            chain = Chain(data, HYPER0, rng, state=make_state({0: list(atoms)}, M=3.0))
            accepted, _ = chain.death(0)
            assert accepted
            kept = [a.knots.knots for a in chain.atoms[0]]
            removed = [i for i, a in enumerate(atoms)
                       if kept.count(a.knots.knots) == 0][0]
            counts[removed] += 1
        se = math.sqrt((1 / 3) * (2 / 3) / n)
        for c in counts:
            assert c / n == approx(1 / 3, abs=3 * se)

    def test_birth_increments_death_decrements(self):
        data = generate_dataset("blocks", 32, 3.0, seed=2)
        rng = np.random.default_rng(4)
        state = make_state({0: [sample_atom(0, 1.0, data.domain, rng)
                                for _ in range(3)]})
        chain = Chain(data, HYPER0, rng, state=state)
        accepted, _ = chain.birth(0)
        assert len(chain.atoms[0]) == 3 + int(accepted)
        chain = Chain(data, HYPER0, rng, state=state)
        accepted, _ = chain.death(0)
        assert len(chain.atoms[0]) == 3 - int(accepted)


class TestRelocation:
    def test_preserves_count_and_ordering(self):
        data = generate_dataset("heavisine", 32, 5.0, seed=3)
        rng = np.random.default_rng(5)
        hyper = Hyperparams((2,))
        state = make_state({2: [sample_atom(2, 1.0, data.domain, rng)
                                for _ in range(2)]}, sigma2=0.5)
        chain = Chain(data, hyper, rng, state=state)
        for _ in range(300):
            flags = chain.relocate(2)
            assert len(flags) == 4
            assert len(chain.atoms[2]) == 2
            for a in chain.atoms[2]:
                ks = a.knots.knots
                assert all(u <= v for u, v in zip(ks, ks[1:]))
                assert data.domain[0] <= ks[0] and ks[-1] <= data.domain[1]

    def test_zero_beta_atom_always_accepts(self):
        # beta = 0: every per-knot likelihood ratio is exactly 1
        data = flat_data(9)
        rng = np.random.default_rng(6)
        hyper = Hyperparams((1,))
        knots = KnotVector(1, (0.2, 0.5, 0.8))
        for _ in range(50):
            chain = Chain(data, hyper, rng, state=make_state({1: [Atom(knots, 0.0)]}))
            assert all(chain.relocate(1))
            # the Gibbs refresh draws a new beta: restart from beta = 0
            knots = chain.atoms[1][0].knots

    def test_prior_only_always_accepts(self):
        data = flat_data(9)
        rng = np.random.default_rng(7)
        hyper = Hyperparams((0,))
        state = make_state({0: [Atom(KnotVector(0, (0.3, 0.6)), 1.0)]})
        chain = Chain(data, hyper, rng, state=state, prior_only=True)
        for _ in range(50):
            assert all(chain.relocate(0))

    def test_knots_find_the_jump_locations(self):
        # single-jump data; compare the chain's knot pair with a brute-force
        # likelihood grid over ordered pairs (independent oracle)
        x = np.linspace(0, 1, 101)
        y = np.where((x >= 0.3) & (x < 0.7), 3.0, 0.0)
        data = Dataset(x=x, y=y, domain=(0.0, 1.0))
        grid = np.linspace(0, 1, 51)
        best, best_ll = None, -np.inf
        for i, a in enumerate(grid):
            for b in grid[i + 1:]:
                state = make_state({0: [Atom(KnotVector(0, (a, b)), 3.0)]},
                                   sigma2=0.01, phi=3.0)
                ll = log_likelihood(state, data)
                if ll > best_ll:
                    best, best_ll = (a, b), ll
        assert best == approx((0.3, 0.7), abs=0.021)
        rng = np.random.default_rng(8)
        hyper = Hyperparams((0,))
        chain = Chain(data, hyper, rng,
                      state=make_state({0: [Atom(KnotVector(0, (0.1, 0.9)), 3.0)]},
                                       sigma2=0.01, phi=3.0))
        for _ in range(3000):
            chain.relocate(0)
        knots = chain.atoms[0][0].knots.knots
        assert knots[0] == approx(best[0], abs=0.05)
        assert knots[1] == approx(best[1], abs=0.05)


class TestGibbsBeta:
    def test_no_support_falls_back_to_prior(self):
        data = Dataset(x=np.array([0.0, 1.0]), y=np.array([5.0, -5.0]),
                       domain=(0.0, 1.0))
        atom = Atom(KnotVector(0, (0.4, 0.6)), 2.0)
        state = make_state({0: [atom]}, phi=1.5)
        rng = np.random.default_rng(9)
        chain = Chain(data, HYPER0, rng, state=state)
        draws = []
        for _ in range(10_000):
            chain.gibbs_beta(0, 0)
            draws.append(chain.atoms[0][0].beta)
        draws = np.array(draws)
        assert draws.mean() == approx(0.0, abs=3 * 1.5 / 100)
        assert draws.var() == approx(1.5**2, rel=0.1)

    def test_flat_prior_limit_matches_partial_residual(self):
        data = Dataset(x=np.array([0.5]), y=np.array([2.0]), domain=(0.0, 1.0))
        atom = Atom(KnotVector(0, (0.0, 1.0)), 0.0)
        state = make_state({0: [atom]}, sigma2=1.0, phi=1e6)
        rng = np.random.default_rng(10)
        chain = Chain(data, HYPER0, rng, state=state)
        draws = []
        for _ in range(10_000):
            chain.gibbs_beta(0, 0)
            draws.append(chain.atoms[0][0].beta)
        draws = np.array(draws)
        assert draws.mean() == approx(2.0, abs=3 / 100)
        assert draws.var() == approx(1.0, rel=0.1)

    def test_moments_and_ks_against_analytic_conditional(self):
        data = generate_dataset("blocks", 64, 3.0, seed=5)
        rng = np.random.default_rng(11)
        atom = sample_atom(0, 1.2, data.domain, rng)
        other = sample_atom(0, 1.2, data.domain, rng)
        state = make_state({0: [atom, other]}, sigma2=0.5, beta0=1.0, phi=1.2)
        chain = Chain(data, HYPER0, rng, state=state)
        # analytic conditional computed independently
        from levyspline.bspline import basis_values
        col = basis_values(atom.knots.knots, 0, data.x)
        col_o = basis_values(other.knots.knots, 0, data.x)
        partial = data.y - 1.0 - other.beta * col_o
        var = 1.0 / (col @ col / 0.5 + 1.0 / 1.2**2)
        mu = var * float(partial @ col) / 0.5
        draws = []
        for _ in range(10_000):
            chain.gibbs_beta(0, 0)
            draws.append(chain.atoms[0][0].beta)
        draws = np.array(draws)
        n = len(draws)
        assert draws.mean() == approx(mu, abs=3 * math.sqrt(var / n))
        assert draws.var() == approx(var, rel=0.1)
        assert st.kstest(draws, "norm", args=(mu, math.sqrt(var))).pvalue > 0.01


def gibbs_M_draws(atoms, hyper, rng, n):
    chain = Chain(flat_data(), hyper, rng, state=make_state({0: atoms}))
    draws = np.empty(n)
    for i in range(n):
        chain.gibbs_M(0)
        draws[i] = chain.M[0]
    return draws


def gibbs_sigma2_draws(state, data, hyper, rng, n):
    chain = Chain(data, hyper, rng, state=state)
    draws = np.empty(n)
    for i in range(n):
        chain.gibbs_sigma2()
        draws[i] = chain.sigma2
    return draws


class TestGibbsM:
    def test_no_atoms_conjugate(self):
        hyper = Hyperparams((0,), a_gamma=1.0, b_gamma=1.0)
        rng = np.random.default_rng(12)
        n = 100_000
        draws = gibbs_M_draws([], hyper, rng, n)
        # Ga(1, rate 2): mean 1/2, var 1/4
        assert draws.mean() == approx(0.5, abs=3 * 0.5 / math.sqrt(n))
        assert st.kstest(draws, "gamma", args=(1.0, 0, 0.5)).pvalue > 0.01

    def test_seven_atoms_conjugate(self):
        rng = np.random.default_rng(13)
        atoms = [sample_atom(0, 1.0, (0.0, 1.0), rng) for _ in range(7)]
        hyper = Hyperparams((0,), a_gamma=1.0, b_gamma=1.0)
        n = 100_000
        draws = gibbs_M_draws(atoms, hyper, rng, n)
        # Ga(8, rate 2): mean 4, variance 2
        assert draws.mean() == approx(4.0, abs=3 * math.sqrt(2.0 / n))

    def test_posterior_mean_shift_per_atom(self):
        # Gamma mean (a + J)/(b + 1) grows by exactly 1/(b+1) per atom
        a, b = 2.0, 3.0
        means = [(a + J) / (b + 1) for J in range(5)]
        diffs = np.diff(means)
        assert diffs == approx(np.full(4, 1 / (b + 1)))


class TestGibbsSigma2:
    def test_zero_residual_conjugate(self):
        # n=128, zero residuals, r=2, R=1: IG(65, 1)
        n = 128
        data = Dataset(x=np.linspace(0, 1, n), y=np.full(n, 3.0),
                       domain=(0.0, 1.0))
        hyper = Hyperparams((0,), r=2.0, R=1.0)
        state = make_state({0: []}, beta0=3.0, sigma2=1.0)
        rng = np.random.default_rng(14)
        draws = gibbs_sigma2_draws(state, data, hyper, rng, 10_000)
        mean = 1.0 / (65 - 1)  # IG(shape 65, scale 1)
        sd = math.sqrt(1.0 / ((65 - 1) ** 2 * (65 - 2)))
        assert draws.mean() == approx(mean, abs=3 * sd / 100)
        assert st.kstest(draws, "invgamma", args=(65.0, 0, 1.0)).pvalue > 0.01

    def test_moment_against_invgamma_oracle(self):
        data = generate_dataset("heavisine", 64, 5.0, seed=6)
        state = make_state({0: []}, beta0=float(data.y.mean()), sigma2=1.0)
        hyper = Hyperparams((0,), r=2.0, R=1.0)
        resid = data.y - data.y.mean()
        r0 = 2.0 + 64
        shape = r0 / 2
        scale = (float(resid @ resid) + 2.0 * 1.0) / 2
        rng = np.random.default_rng(15)
        n = 100_000
        draws = gibbs_sigma2_draws(state, data, hyper, rng, n)
        mean = scale / (shape - 1)
        sd = math.sqrt(scale**2 / ((shape - 1) ** 2 * (shape - 2)))
        assert draws.mean() == approx(mean, abs=3 * sd / math.sqrt(n))


class TestRunChain:
    def test_retained_count(self):
        data = generate_dataset("blocks", 16, 3.0, seed=7)
        out = run_chain(data, HYPER0, ChainConfig(iterations=10, seed=1))
        assert out.retained == 10
        assert out.curves.shape == (10, 16)

    def test_deterministic_given_seed(self):
        data = generate_dataset("blocks", 16, 3.0, seed=8)
        cfg = ChainConfig(iterations=50, burn_in=10, thin=2, seed=99)
        out1 = run_chain(data, HYPER0, cfg)
        out2 = run_chain(data, HYPER0, cfg)
        assert np.array_equal(out1.sigma2, out2.sigma2)
        assert np.array_equal(out1.curves, out2.curves)
        assert out1.attempts == out2.attempts and out1.accepts == out2.accepts
        for k in out1.J:
            assert np.array_equal(out1.J[k], out2.J[k])
            assert np.array_equal(out1.M[k], out2.M[k])

    def test_state_validity_preserved(self):
        data = generate_dataset("modified_heavisine", 32, 3.0, seed=9)
        hyper = Hyperparams((0, 1))
        cfg = ChainConfig(iterations=200, seed=5)
        out = run_chain(data, hyper, cfg)
        retained = 0
        for i, chain in enumerate(replay_chain(data, hyper, cfg)):
            assert chain.sigma2 == out.sigma2[i] > 0
            for k, atoms in chain.atoms.items():
                assert len(atoms) == out.J[k][i]
                for a in atoms:
                    ks = a.knots.knots
                    assert all(u <= v for u, v in zip(ks, ks[1:]))
            retained += 1
        assert retained == out.retained == 200

    def test_incremental_matches_full_recompute(self):
        data = generate_dataset("blocks", 64, 3.0, seed=10)
        hyper = Hyperparams((0, 1))
        cfg = ChainConfig(iterations=2000, burn_in=500, thin=5, seed=21)
        fast = run_chain(data, hyper, cfg)
        slow = run_chain(data, hyper, cfg, full_recompute=True)
        assert np.max(np.abs(fast.sigma2 - slow.sigma2)) <= 1e-8
        assert np.max(np.abs(fast.curves - slow.curves)) <= 1e-8
        for k in fast.J:
            assert np.array_equal(fast.J[k], slow.J[k])
            assert np.max(np.abs(fast.M[k] - slow.M[k])) <= 1e-8

    def test_chain_identical_under_reference_kernel(self, monkeypatch):
        # the level-vectorized kernel must leave every chain bit for bit as
        # the (level, index) Cox-de Boor oracle would run it, on the data
        # grid (cached columns) and off it (`mean_on`)
        data = generate_dataset("modified_heavisine", 64, 5.0, seed=14)
        hyper = Hyperparams((0, 1, 2, 3))
        cfg = ChainConfig(iterations=300, burn_in=100, thin=2, seed=15)
        grid = np.linspace(data.domain[0], data.domain[1], 97)
        fast = [run_chain(data, hyper, cfg), run_chain(data, hyper, cfg, grid=grid)]
        monkeypatch.setattr("levyspline.sampler.basis_values", _reference_basis)
        ref = [run_chain(data, hyper, cfg), run_chain(data, hyper, cfg, grid=grid)]
        for f, r in zip(fast, ref):
            assert f.curves.tobytes() == r.curves.tobytes()
            assert f.sigma2.tobytes() == r.sigma2.tobytes()
            for k in hyper.degrees:
                assert np.array_equal(f.J[k], r.J[k])
                assert f.M[k].tobytes() == r.M[k].tobytes()
            assert f.attempts == r.attempts and f.accepts == r.accepts
            assert sum(r.accepts.values()) > 0
        assert ref[1].curves.shape == (100, 97)

    @pytest.mark.parametrize("mode", [{}, {"full_recompute": True}, {"prior_only": True}],
                             ids=["incremental", "full_recompute", "prior_only"])
    def test_data_grid_curves_match_eval_mean(self, mode):
        # data-grid curves are summed from the cached columns (the prior-only
        # chain caches none and goes through `mean_on`); either way each
        # curve has the bits of evaluating the retained state afresh, which
        # the replayed chain's `mean_on` does
        data = generate_dataset("modified_heavisine", 64, 5.0, seed=16)
        hyper = Hyperparams((0, 1, 2, 3))
        cfg = ChainConfig(iterations=300, burn_in=100, thin=2, seed=17)
        out = run_chain(data, hyper, cfg, **mode)
        fresh = [chain.mean_on(data.x) for chain in replay_chain(data, hyper, cfg, **mode)]
        assert len(fresh) == len(out.curves) == 100
        assert sum(out.J[k][-1] for k in hyper.degrees) > 0
        for curve, want in zip(out.curves, fresh):
            assert curve.tobytes() == want.tobytes()

    def test_prior_only_recovers_prior_means(self):
        data = generate_dataset("blocks", 16, 3.0, seed=11)
        hyper = Hyperparams((0,), a_gamma=2.0, b_gamma=1.0)
        cfg = ChainConfig(iterations=30_000, burn_in=5_000, seed=3)
        out = run_chain(data, hyper, cfg, prior_only=True, store_curves=False)
        for trace, target in ((out.M[0], 2.0), (out.J[0].astype(float), 2.0)):
            mean, se = batch_mean_se(trace)
            assert mean == approx(target, abs=3 * se)

    def test_counters_consistent(self):
        data = generate_dataset("blocks", 16, 3.0, seed=12)
        out = run_chain(data, HYPER0, ChainConfig(iterations=500, seed=4))
        assert sum(out.attempts.values()) == 500
        for key, acc in out.accepts.items():
            assert acc <= out.attempts[key]
        assert set(out.acceptance_rates()) <= {"birth_0", "death_0", "relocate_0"}

    @pytest.mark.parametrize("moves", [None, 2])
    def test_moves_per_degree_sets_moves_per_sweep(self, moves):
        # each sweep makes `moves_per_degree` moves per degree, 1 by default
        data = generate_dataset("modified_heavisine", 32, 3.0, seed=13)
        hyper = Hyperparams((0, 2))
        cfg = ChainConfig(iterations=300, burn_in=100, seed=6)
        kwargs = {} if moves is None else {"moves_per_degree": moves}
        out = run_chain(data, hyper, cfg, **kwargs)
        for k in hyper.degrees:
            attempts = sum(n for (_, deg), n in out.attempts.items() if deg == k)
            assert attempts == (moves or 1) * cfg.iterations


class TestResidualCache:
    @pytest.mark.parametrize("beta_sweep", [False, True])
    def test_cached_residual_matches_fresh(self, beta_sweep):
        # before and after every move and Gibbs step, and before each
        # proposal's likelihood ratio, the residual and RSS the chain would
        # read are those of its current `fitted`, bit for bit: each write to
        # `fitted` (accepted birth, death or relocation, gibbs_beta, a cache
        # rebuild) drops the cached pair
        data = generate_dataset("modified_heavisine", 64, 5.0, seed=18)
        hyper = Hyperparams((0, 1, 2, 3))
        chain = Chain(data, hyper, np.random.default_rng(19))
        calls = dict.fromkeys(("birth", "death", "relocate", "gibbs_beta",
                               "gibbs_M", "gibbs_sigma2", "_llr"), 0)

        def check():
            resid, rss = chain._resid()
            fresh = chain.y - chain.fitted
            assert resid.tobytes() == fresh.tobytes()
            assert np.float64(rss).tobytes() == np.float64(fresh @ fresh).tobytes()

        def checked(name, step):
            def run(*args):
                check()
                result = step(*args)
                calls[name] += 1
                check()
                return result
            return run

        for name in calls:
            setattr(chain, name, checked(name, getattr(chain, name)))
        attempts, accepts = {}, {}
        rebuilt = 0
        for sweep in range(300):
            chain.sweep((attempts, accepts), beta_sweep=beta_sweep)
            if sweep % 50 == 49:
                before = chain.fitted.tobytes()
                chain._rebuild_cache()
                rebuilt += chain.fitted.tobytes() != before
                check()
        assert all(calls.values())
        for kind in ("birth", "death", "relocate"):
            assert sum(v for (m, _), v in accepts.items() if m == kind) > 0
        # a rebuild moved the fitted values in the last bits, so a stale
        # pair after a rebuild would have been caught
        assert rebuilt > 0


def replay_chain(data, hyper, cfg, **mode):
    """`run_chain`'s chain for `cfg`, yielded live after each retained sweep.

    It is seeded and swept as `run_chain` does; recording a sample draws no
    random numbers, so the two chains stay in step.
    """
    chain = Chain(data, hyper, np.random.default_rng(cfg.seed), **mode)
    for it in range(cfg.iterations):
        chain.sweep()
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == cfg.thin - 1:
            yield chain


def batch_mean_se(trace, batches=50):
    """Batch-means standard error for an autocorrelated trace."""
    trace = np.asarray(trace, dtype=float)
    size = len(trace) // batches
    means = trace[: batches * size].reshape(batches, size).mean(axis=1)
    return float(trace.mean()), float(means.std(ddof=1) / math.sqrt(batches))


class TestPosteriorCurve:
    def _out(self, curves):
        curves = np.asarray(curves, dtype=float)
        m = len(curves)
        return ChainOutput(
            config=ChainConfig(iterations=m, seed=0), curves=curves,
            sigma2=np.ones(m), J={0: np.zeros(m, dtype=int)},
            M={0: np.ones(m)}, attempts={}, accepts={})

    def test_single_sample(self):
        out = self._out([[1.0, 2.0, 3.0]])
        mean, lo, hi = posterior_curve(out)
        assert mean == approx([1.0, 2.0, 3.0])
        assert lo == approx(mean) and hi == approx(mean)

    def test_identical_samples_zero_width_band(self):
        out = self._out([[1.0, 2.0]] * 5)
        mean, lo, hi = posterior_curve(out)
        assert np.array_equal(lo, hi)

    def test_symmetric_pair_averages_to_zero(self):
        c = np.array([1.0, -2.0, 3.0])
        out = self._out([c, -c])
        mean, _, _ = posterior_curve(out)
        assert mean == approx(np.zeros(3))

    @pytest.mark.parametrize("levels", [None, (0.1, 0.9), (0.005, 0.5)],
                             ids=["default", "decile", "skewed"])
    def test_band_matches_separate_quantiles(self, levels):
        # both band levels come from one quantile pass over the curves,
        # with the bits of one `np.quantile` call per level
        data = generate_dataset("modified_heavisine", 64, 5.0, seed=20)
        out = run_chain(data, Hyperparams((0, 2)),
                        ChainConfig(iterations=400, burn_in=100, seed=21))
        if levels is None:
            mean, lo, hi = posterior_curve(out)
            levels = (0.025, 0.975)
        else:
            mean, lo, hi = posterior_curve(out, levels=levels)
        assert lo.shape == hi.shape == (64,)
        assert lo.tobytes() == np.quantile(out.curves, levels[0], axis=0).tobytes()
        assert hi.tobytes() == np.quantile(out.curves, levels[1], axis=0).tobytes()
        assert mean.tobytes() == out.curves.mean(axis=0).tobytes()
        # +0.0/-0.0 ties: a quantile's sign of zero depends on where the
        # partition leaves each zero, so sorting the columns first flips
        # some, and so does one call per level against one call for both;
        # the band keeps the bits of one `np.quantile` call for both levels
        ties = np.random.default_rng(23).choice(
            [-0.0, 0.0, -1.0, 1.0], size=(50, 64), p=[0.4, 0.4, 0.1, 0.1])
        _, lo, hi = posterior_curve(self._out(ties), levels=levels)
        want = np.quantile(ties, levels, axis=0)
        assert lo.tobytes() == want[0].tobytes()
        assert hi.tobytes() == want[1].tobytes()

    def test_no_stored_curves_rejected(self):
        out = run_chain(generate_dataset("blocks", 8, 3.0, seed=13), HYPER0,
                        ChainConfig(iterations=20, seed=0), store_curves=False)
        assert out.curves is None and out.retained == 20
        with pytest.raises(ValueError, match="chain output stored no curves"):
            posterior_curve(out)

    def test_empty_retained_rejected(self):
        out = run_chain(generate_dataset("blocks", 8, 3.0, seed=13),
                        HYPER0, ChainConfig(iterations=2, seed=0))
        out.sigma2 = np.array([])
        out.curves = np.empty((0, 8))
        with pytest.raises(ValueError):
            posterior_curve(out)

    def test_counter_invariant_enforced(self):
        with pytest.raises(ValueError):
            ChainOutput(config=ChainConfig(iterations=1, seed=0), curves=None, sigma2=np.ones(1),
                        J={0: np.zeros(1, dtype=int)}, M={0: np.ones(1)},
                        attempts={("birth", 0): 1}, accepts={("birth", 0): 2})
