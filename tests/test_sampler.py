import copy
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st
from pytest import approx

from levyspline.bspline import basis_values
from levyspline.model import Dataset, Hyperparams, sample_atom
from levyspline.sampler import (
    BLOCK,
    GAMMA_BLOCK,
    Chain,
    ChainConfig,
    ChainOutput,
    Draws,
    choose_move,
    posterior_curve,
    run_chain,
)
from levyspline.signals import generate_dataset
from oracles import birth_log_ratio, death_log_ratio, eval_mean, log_likelihood, make_state
from test_bspline import _reference_basis


def chain_state(chain, k=None, r=None, knots=None):
    """The chain's current state, with atom r of degree k moved to `knots` if given."""
    atoms = {kk: [(tuple(ks), beta) for ks, beta, *_ in recs]
             for kk, recs in chain.atoms.items()}
    if knots is not None:
        atoms[k][r] = (tuple(knots), atoms[k][r][1])
    return make_state(atoms, beta0=chain.beta0, sigma2=chain.sigma2, phi=chain.phi)


def flat_data(n=5, value=0.0):
    return Dataset(x=np.linspace(0, 1, n), y=np.full(n, value), domain=(0.0, 1.0))


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


class BlockStub:
    """Stands in for a `Generator`: each block is `values`, padded with 0.5."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size):
        return np.array((self.values + [0.5] * size)[:size])


class CountingGenerator:
    """The `Generator` methods a chain calls, recording each call's arguments."""

    def __init__(self, rng):
        self.rng = rng
        self.args = {name: [] for name in
                     ("random", "standard_normal", "standard_gamma", "gamma", "poisson")}

    @property
    def calls(self):
        return {name: len(args) for name, args in self.args.items()}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args):
            self.args[name].append(args)
            return method(*args)
        return counted


class TestDraws:
    def test_uniforms_in_block_order_across_refills(self):
        draws = Draws(np.random.default_rng(70))
        got = [draws.random() for _ in range(2 * BLOCK + 5)]
        want = np.random.default_rng(70).random(3 * BLOCK)[: len(got)]
        assert all(type(u) is float for u in got)
        assert np.array(got).tobytes() == want.tobytes()

    def test_normal_is_loc_plus_scale_times_standard_normal(self):
        # numpy's own formula: scalar `Generator.normal` calls give the same bits
        pairs = [(0.0, 1.0), (-3.5, 0.25), (1e3, 7.0)] * BLOCK
        draws = Draws(np.random.default_rng(71))
        got = [draws.normal(loc, scale) for loc, scale in pairs]
        z = np.random.default_rng(71).standard_normal(3 * BLOCK).tolist()
        want = [loc + scale * zi for (loc, scale), zi in zip(pairs, z)]
        scalar = np.random.default_rng(71)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert got == [float(scalar.normal(loc, scale)) for loc, scale in pairs]

    def test_uniforms_and_normals_draw_separate_blocks(self):
        draws = Draws(np.random.default_rng(72))
        u, z = draws.random(), draws.normal(0.0, 1.0)
        rng = np.random.default_rng(72)
        assert u == rng.random(BLOCK)[0] and z == rng.standard_normal(BLOCK)[0]
        # two shapes, interleaved so that each refills twice; a gamma is
        # `scale * g`, numpy's own formula
        shapes, scales = (2.0, 0.005), (1.0, 0.3, 7.0)
        calls = [(shapes[i % 2], scales[i % 3]) for i in range(4 * GAMMA_BLOCK + 6)]
        got = [draws.gamma(shape, scale) for shape, scale in calls]
        blocks = [rng.standard_gamma(shape, GAMMA_BLOCK) for _ in range(3) for shape in shapes]
        g = {shape: np.concatenate(blocks[i::2]) for i, shape in enumerate(shapes)}
        want = [scale * g[shape][i // 2] for i, (shape, scale) in enumerate(calls)]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert draws.poisson(3.0) == rng.poisson(3.0)

    def test_index_is_the_integer_behind_a_uniform(self):
        J = 7
        draws = Draws(np.random.default_rng(73))
        got = [draws.index(J) for _ in range(3 * BLOCK)]
        u = np.random.default_rng(73).random(3 * BLOCK)
        m = u * 2.0**53
        assert (m == np.floor(m)).all()  # a uniform is an integer times 2**-53
        assert got == [int(v) % J for v in m]

    @pytest.mark.parametrize("J", [1, 3 * 2**50 + 1])
    def test_index_in_range(self, J):
        draws = Draws(np.random.default_rng(74))
        got = {draws.index(J) for _ in range(2000)}
        assert min(got) >= 0 and max(got) < J
        if J == 1:
            assert got == {0}

    def test_index_uniform_chi_square(self):
        # bound fixed before the run: reject at p < 1e-4
        J, n = 13, 130_000
        draws = Draws(np.random.default_rng(75))
        counts = np.bincount([draws.index(J) for _ in range(n)], minlength=J)
        assert len(counts) == J
        stat = float(((counts - n / J) ** 2 / (n / J)).sum())
        assert stat < st.chi2.isf(1e-4, J - 1)

    def test_index_rejects_the_incomplete_top_range(self):
        # J = 3: 2**53 % 3 == 2, so the integers 2**53 - 2 and 2**53 - 1 are rejected
        top = [(2**53 - 1) / 2**53, (2**53 - 2) / 2**53, 5 / 2**53, 0.25]
        draws = Draws(BlockStub(top))
        assert draws.index(3) == 5 % 3
        assert draws.random() == 0.25  # the two rejected uniforms were consumed

    def test_run_chain_reproducible_across_refills(self, monkeypatch):
        data = generate_dataset("modified_heavisine", 64, 3.0, seed=76)
        hyper = Hyperparams((0, 1, 2, 3))
        cfg = ChainConfig(iterations=2500, burn_in=500, thin=5, seed=77)
        gens, default_rng = [], np.random.default_rng

        def counting_rng(seed):
            gens.append(CountingGenerator(default_rng(seed)))
            return gens[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        a, b = run_chain(data, hyper, cfg), run_chain(data, hyper, cfg)
        assert len(gens) == 2 and gens[0].args == gens[1].args
        # the first block and at least three refills of each kind
        assert gens[0].calls["random"] >= 4 and gens[0].calls["standard_normal"] >= 4
        # at least one gamma shape drew a second block; no scalar gamma call
        shapes = [shape for shape, _ in gens[0].args["standard_gamma"]]
        assert len(shapes) > len(set(shapes)) and gens[0].calls["gamma"] == 0
        assert a.curves.tobytes() == b.curves.tobytes()
        assert a.sigma2.tobytes() == b.sigma2.tobytes()
        for k in hyper.degrees:
            assert a.J[k].tobytes() == b.J[k].tobytes()
            assert a.M[k].tobytes() == b.M[k].tobytes()
        assert (a.attempts, a.accepts) == (b.attempts, b.accepts)

    def test_run_chain_draws_from_a_child_of_its_seed(self, monkeypatch):
        # `generate_dataset` makes noise from default_rng(seed); the chain on
        # the same seed must not start from those bits
        seed = 78
        data = generate_dataset("blocks", 16, 3.0, seed=seed)
        starts, default_rng = [], np.random.default_rng

        def recording_rng(seed):
            rng = default_rng(seed)
            starts.append(rng.bit_generator.state)
            return rng

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        run_chain(data, HYPER0, ChainConfig(iterations=1, seed=seed))
        child = np.random.SeedSequence(seed).spawn(1)[0]
        assert len(starts) == 1
        assert starts[0] != default_rng(seed).bit_generator.state
        assert starts[0] == default_rng(child).bit_generator.state


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
        atom = ((0.2, 0.8), 0.0)
        lr = birth_log_ratio(state, 0, atom, flat_data(), HYPER0)
        assert lr == approx(math.log(0.4))

    def test_unbounded_likelihood_gain_accepted(self):
        # an atom that wipes out a huge residual gives log-ratio >> 0
        data = Dataset(x=np.array([0.5]), y=np.array([100.0]), domain=(0.0, 1.0))
        state = make_state({0: []})
        atom = ((0.0, 1.0), 100.0)
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
        # chain's draws gives the same atom (birth) or index (death) for the oracle
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
            chain = Chain(data, hyper, rng, state=state)
            clone = copy.deepcopy(chain.draws)
            _, chain_lr = chain.birth(k)
            atom = sample_atom(k, state.phi, data.domain, clone)
            worst = max(worst, abs(chain_lr - birth_log_ratio(state, k, atom, data, hyper)))
            if J > 0:
                chain = Chain(data, hyper, rng, state=state)
                clone = copy.deepcopy(chain.draws)
                _, chain_lr = chain.death(k)
                r = clone.index(J)
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
        atom = ((0.4, 0.6), 7.0)
        state = make_state({0: [atom]}, M=2.0)
        # J=1: reverse birth is forced, probability 1
        expected = math.log(1) - math.log(2.0) + math.log(1.0) - math.log(0.4)
        assert death_log_ratio(state, 0, 0, data, HYPER0) == approx(expected)

    def test_death_selects_atoms_uniformly(self):
        # flat data, zero betas, M = J and p_b = p_d: every death accepted
        data = flat_data()
        atoms = [((0.1 * i, 0.5 + 0.1 * i), 0.0)
                 for i in range(3)]
        counts = np.zeros(3)
        n = 20_000
        rng = np.random.default_rng(3)
        for _ in range(n):
            chain = Chain(data, HYPER0, rng, state=make_state({0: list(atoms)}, M=3.0))
            accepted, _ = chain.death(0)
            assert accepted
            kept = [tuple(knots) for knots, *_ in chain.atoms[0]]
            removed = [i for i, (knots, _) in enumerate(atoms)
                       if kept.count(knots) == 0][0]
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
            for ks, *_ in chain.atoms[2]:
                assert all(u <= v for u, v in zip(ks, ks[1:]))
                assert data.domain[0] <= ks[0] and ks[-1] <= data.domain[1]

    def test_ratios_match_full_likelihood_oracle(self, monkeypatch):
        # every knot proposal's log ratio, as `_accept` receives it, is the
        # full log-likelihood after the move minus the one before; the
        # candidate is the knot vector of the latest `basis_values` call and
        # a clone of the chain's draws gives the relocated atom's index
        candidates = []

        def recording(knots, k, x):
            candidates.append(list(knots))
            return basis_values(knots, k, x)

        monkeypatch.setattr("levyspline.sampler.basis_values", recording)
        rng = np.random.default_rng(44)
        data = generate_dataset("heavisine", 48, 3.0, seed=1)
        hyper = Hyperparams((0, 1, 2, 3))
        worst, outcomes = 0.0, {(k, ok): 0 for k in range(4) for ok in (False, True)}
        for _ in range(100):
            atoms = {k: [sample_atom(k, 1.0, data.domain, rng)
                         for _ in range(int(rng.integers(0, 3)))] for k in range(4)}
            k = int(rng.integers(0, 4))
            atoms[k].append(sample_atom(k, 1.0, data.domain, rng))
            state = make_state(atoms, sigma2=float(rng.uniform(0.05, 3.0)),
                               beta0=float(rng.normal()))
            chain = Chain(data, hyper, rng, state=state)
            accept = chain._accept

            def checked(log_ratio):
                nonlocal worst
                oracle = (log_likelihood(chain_state(chain, k, r, candidates[-1]), data)
                          - log_likelihood(chain_state(chain), data))
                worst = max(worst, abs(log_ratio - oracle))
                ok = accept(log_ratio)
                outcomes[(k, ok)] += 1
                return ok

            chain._accept = checked
            for _ in range(3):  # later proposals start after a gibbs_beta
                r = copy.deepcopy(chain.draws).index(len(chain.atoms[k]))
                chain.relocate(k)
        assert min(outcomes.values()) > 0, outcomes
        assert worst <= 1e-10

    def test_zero_beta_atom_always_accepts(self):
        # beta = 0: every per-knot likelihood ratio is exactly 1
        data = flat_data(9)
        rng = np.random.default_rng(6)
        hyper = Hyperparams((1,))
        knots = (0.2, 0.5, 0.8)
        for _ in range(50):
            chain = Chain(data, hyper, rng, state=make_state({1: [(knots, 0.0)]}))
            assert all(chain.relocate(1))
            # the Gibbs refresh draws a new beta: restart from beta = 0
            knots = chain.atoms[1][0][0]

    def test_prior_only_always_accepts(self):
        data = flat_data(9)
        rng = np.random.default_rng(7)
        hyper = Hyperparams((0,))
        state = make_state({0: [((0.3, 0.6), 1.0)]})
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
                state = make_state({0: [((a, b), 3.0)]},
                                   sigma2=0.01, phi=3.0)
                ll = log_likelihood(state, data)
                if ll > best_ll:
                    best, best_ll = (a, b), ll
        assert best == approx((0.3, 0.7), abs=0.021)
        rng = np.random.default_rng(8)
        hyper = Hyperparams((0,))
        chain = Chain(data, hyper, rng,
                      state=make_state({0: [((0.1, 0.9), 3.0)]},
                                       sigma2=0.01, phi=3.0))
        for _ in range(3000):
            chain.relocate(0)
        knots, *_ = chain.atoms[0][0]
        assert knots[0] == approx(best[0], abs=0.05)
        assert knots[1] == approx(best[1], abs=0.05)


class TestGibbsBeta:
    def test_no_support_falls_back_to_prior(self):
        data = Dataset(x=np.array([0.0, 1.0]), y=np.array([5.0, -5.0]),
                       domain=(0.0, 1.0))
        atom = ((0.4, 0.6), 2.0)
        state = make_state({0: [atom]}, phi=1.5)
        rng = np.random.default_rng(9)
        chain = Chain(data, HYPER0, rng, state=state)
        draws = []
        for _ in range(10_000):
            chain.gibbs_beta(0, 0)
            draws.append(chain.atoms[0][0][1])
        draws = np.array(draws)
        assert draws.mean() == approx(0.0, abs=3 * 1.5 / 100)
        assert draws.var() == approx(1.5**2, rel=0.1)

    def test_flat_prior_limit_matches_partial_residual(self):
        data = Dataset(x=np.array([0.5]), y=np.array([2.0]), domain=(0.0, 1.0))
        atom = ((0.0, 1.0), 0.0)
        state = make_state({0: [atom]}, sigma2=1.0, phi=1e6)
        rng = np.random.default_rng(10)
        chain = Chain(data, HYPER0, rng, state=state)
        draws = []
        for _ in range(10_000):
            chain.gibbs_beta(0, 0)
            draws.append(chain.atoms[0][0][1])
        draws = np.array(draws)
        assert draws.mean() == approx(2.0, abs=3 / 100)
        assert draws.var() == approx(1.0, rel=0.1)

    def test_draw_arguments_match_partial_residual_formula(self):
        # the normal(loc, scale) the chain draws with is the full conditional
        # from the partial residual (resid + beta c) of the state it holds,
        # evaluated afresh: var = 1/(c·c/sigma2 + 1/phi^2), loc = var ((resid +
        # beta c)·c)/sigma2, at every degree and after moves have run
        rng = np.random.default_rng(45)
        data = generate_dataset("heavisine", 48, 3.0, seed=2)
        hyper = Hyperparams((0, 1, 2, 3))
        chain = Chain(data, hyper, rng)
        normal = chain.draws.normal
        args = []

        def recording(loc, scale):
            args.append((loc, scale))
            return normal(loc, scale)

        chain.draws.normal = recording
        checked = dict.fromkeys(range(4), 0)
        for _ in range(400):
            chain.sweep()
            for k, atoms in chain.atoms.items():
                if not atoms:
                    continue
                idx = int(rng.integers(len(atoms)))
                knots, beta, *_ = atoms[idx]
                c = basis_values(knots, k, data.x)
                resid = data.y - eval_mean(chain_state(chain), data.x)
                var = 1.0 / (c @ c / chain.sigma2 + 1.0 / chain.phi**2)
                loc = var * float((resid + beta * c) @ c) / chain.sigma2
                chain.gibbs_beta(k, idx)
                assert args[-1][0] == approx(loc, rel=1e-12)
                assert args[-1][1] == approx(math.sqrt(var), rel=1e-12)
                checked[k] += 1
        assert min(checked.values()) > 0, checked

    def test_moments_and_ks_against_analytic_conditional(self):
        data = generate_dataset("blocks", 64, 3.0, seed=5)
        rng = np.random.default_rng(11)
        atom = sample_atom(0, 1.2, data.domain, rng)
        other = sample_atom(0, 1.2, data.domain, rng)
        state = make_state({0: [atom, other]}, sigma2=0.5, beta0=1.0, phi=1.2)
        chain = Chain(data, HYPER0, rng, state=state)
        # analytic conditional computed independently
        col = basis_values(atom[0], 0, data.x)
        col_o = basis_values(other[0], 0, data.x)
        partial = data.y - 1.0 - other[1] * col_o
        var = 1.0 / (col @ col / 0.5 + 1.0 / 1.2**2)
        mu = var * float(partial @ col) / 0.5
        draws = []
        for _ in range(10_000):
            chain.gibbs_beta(0, 0)
            draws.append(chain.atoms[0][0][1])
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
        # every live record holds sorted in-domain knots and, byte for byte,
        # the column a fresh `basis_values` call gives for them
        data = generate_dataset("modified_heavisine", 32, 3.0, seed=9)
        hyper = Hyperparams((0, 1))
        cfg = ChainConfig(iterations=200, seed=5)
        out = run_chain(data, hyper, cfg)
        lo, hi = data.domain
        retained = 0
        for i, chain in enumerate(replay_chain(data, hyper, cfg)):
            assert chain.sigma2 == out.sigma2[i] > 0
            for k, atoms in chain.atoms.items():
                assert len(atoms) == out.J[k][i]
                for ks, beta, col, _ in atoms:
                    assert len(ks) == k + 2
                    assert all(u <= v for u, v in zip(ks, ks[1:]))
                    assert lo <= ks[0] and ks[-1] <= hi
                    assert col.tobytes() == basis_values(ks, k, chain.x).tobytes()
                    assert math.isfinite(beta)
            retained += 1
        assert retained == out.retained == 200

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, bad):
        # a degree-1 atom over a NaN point gives a NaN curve, and a numpy
        # warning on the way; the grid is rejected before the chain starts
        data = generate_dataset("blocks", 16, 3.0, seed=7)
        grid = np.linspace(0.0, 1.0, 5)
        grid[2] = bad
        with pytest.raises(ValueError, match="grid contains non-finite values"):
            run_chain(data, Hyperparams((0, 1)), ChainConfig(iterations=5, seed=1),
                      grid=grid)

    @pytest.mark.parametrize("grid", [np.zeros((2, 3)), np.float64(0.5)],
                             ids=["2-d", "0-d"])
    def test_grid_must_be_one_dimensional(self, grid):
        data = generate_dataset("blocks", 16, 3.0, seed=7)
        with pytest.raises(ValueError, match=r"grid must be 1-d, got shape \("):
            run_chain(data, HYPER0, ChainConfig(iterations=5, seed=1), grid=grid)

    @pytest.mark.parametrize("degrees", [(0,), (0, 1, 2), (0, 2), (1, 2)],
                             ids=["missing", "extra", "other", "shifted"])
    def test_state_degrees_must_match_hyper(self, degrees):
        # a caller's state is read once, when the chain starts: its
        # components must be exactly the hyperparameters' degrees
        data = flat_data()
        rng = np.random.default_rng(24)
        hyper = Hyperparams((0, 1))
        atoms = {k: [sample_atom(k, 1.0, data.domain, rng)] for k in degrees}
        with pytest.raises(ValueError, match="degrees"):
            Chain(data, hyper, rng, state=make_state(atoms))
        atoms = {k: [sample_atom(k, 1.0, data.domain, rng)] for k in hyper.degrees}
        Chain(data, hyper, rng, state=make_state(atoms))

    def test_invalid_state_rejected_at_boundary(self):
        # a knot outside the data's domain, or a non-finite coefficient or
        # intercept, is rejected before the chain runs; knots on both ends are in
        data = flat_data()  # domain (0, 1)
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError, match="outside the domain"):
            Chain(data, HYPER0, rng, state=make_state({0: [((-5.0, 0.5), 1.0)]}))
        with pytest.raises(ValueError, match="beta must be finite"):
            make_state({0: [((0.2, 0.5), math.nan)]})
        with pytest.raises(ValueError, match="beta0 must be finite"):
            make_state({0: [((0.2, 0.5), 1.0)]}, beta0=math.nan)
        chain = Chain(data, HYPER0, rng, state=make_state({0: [((0.0, 1.0), 1.0)]}))
        assert chain.atoms[0][0][0] == [0.0, 1.0]
        assert np.isfinite(chain.resid).all()

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
        # at degrees 0 and 1 the kernel must leave every chain bit for bit as
        # the (level, index) Cox-de Boor oracle would run it, on the data
        # grid (cached columns) and off it (`mean_on`); degrees 2-3 round
        # differently and are checked in law by scripts/compare_posteriors.py
        data = generate_dataset("modified_heavisine", 64, 5.0, seed=14)
        hyper = Hyperparams((0, 1))
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
        assert sum(out.J[k].sum() for k in hyper.degrees) > 0
        for curve, want in zip(out.curves, fresh):
            assert curve.tobytes() == want.tobytes()

    def test_prior_only_keeps_the_prior(self):
        # `init_state` is an exact prior draw and a correct prior-only kernel
        # leaves the prior invariant, so after T sweeps each of R independent
        # chains still holds an exact draw: J_0 ~ NB(a, b/(b+1)) and
        # M_0 ~ Gamma(a, scale 1/b). Three tests, Bonferroni at ALPHA: a
        # chi-square of J_0 (tail pooled so every expected count is >= 5), a
        # z test of its mean with the known variance a/b + a/b^2, and a KS
        # test of M_0. A death ratio off by +log 2 fails on 9 of 10 disjoint
        # seed sets, off by -log 2 on all of them.
        a, b, R, T, ALPHA = 2.0, 1.0, 3200, 50, 1e-3
        data = generate_dataset("blocks", 16, 3.0, seed=11)
        hyper = Hyperparams((0,), a_gamma=a, b_gamma=b)
        J, M = np.empty(R, dtype=int), np.empty(R)
        for seed in range(R):
            out = run_chain(data, hyper, ChainConfig(T, T - 1, 1, seed=seed),
                            grid=np.empty(0), prior_only=True)
            J[seed], M[seed] = out.J[0][-1], out.M[0][-1]
        nb = st.nbinom(a, b / (b + 1))
        K = 1  # counts of 0, ..., K - 1 and of J >= K
        while R * min(nb.pmf(K), nb.sf(K)) >= 5:
            K += 1
        observed = np.bincount(np.minimum(J, K), minlength=K + 1)
        expected = R * np.append(nb.pmf(np.arange(K)), nb.sf(K - 1))
        z = (J.mean() - nb.mean()) / math.sqrt(nb.var() / R)
        p_values = [st.chisquare(observed, expected).pvalue,
                    2 * st.norm.sf(abs(z)),
                    st.kstest(M, "gamma", args=(a, 0, 1 / b)).pvalue]
        assert min(p_values) > ALPHA / 3, p_values

    def test_counters_consistent(self):
        data = generate_dataset("blocks", 16, 3.0, seed=12)
        out = run_chain(data, HYPER0, ChainConfig(iterations=500, seed=4))
        assert sum(out.attempts.values()) == 500
        for key, acc in out.accepts.items():
            assert acc <= out.attempts[key]
        assert set(out.acceptance_rates()) <= {"birth_0", "death_0", "relocate_0"}

    def test_one_move_per_degree_per_sweep(self):
        data = generate_dataset("modified_heavisine", 32, 3.0, seed=13)
        hyper = Hyperparams((0, 2))
        cfg = ChainConfig(iterations=300, burn_in=100, seed=6)
        out = run_chain(data, hyper, cfg)
        for k in hyper.degrees:
            attempts = sum(n for (_, deg), n in out.attempts.items() if deg == k)
            assert attempts == cfg.iterations

    def test_record_schedule(self):
        # 53 - 10 sweeps after burn-in hold 10 rows of 4 and 3 trailing
        # sweeps: each row is the state after its own thin-th sweep, as the
        # replayed chain's modular test picks it, and the trailing sweeps
        # still count in the move tallies
        data = generate_dataset("modified_heavisine", 32, 3.0, seed=22)
        hyper = Hyperparams((0, 2))
        cfg = ChainConfig(iterations=53, burn_in=10, thin=4, seed=23)
        out = run_chain(data, hyper, cfg)
        rows = 0
        for i, chain in enumerate(replay_chain(data, hyper, cfg)):
            assert out.sigma2[i] == chain.sigma2
            for k in hyper.degrees:
                assert out.J[k][i] == len(chain.atoms[k])
                assert out.M[k][i] == chain.M[k]
            rows += 1
        assert rows == out.retained == len(out.curves) == 10
        assert sum(out.attempts.values()) == 53 * 2


class TestResidualCache:
    @pytest.mark.parametrize("mode", [{}, {"full_recompute": True}],
                             ids=["incremental", "full_recompute"])
    def test_cached_residual_matches_fresh(self, mode):
        # before and after every move and Gibbs step, and before each
        # proposal's likelihood ratio, `rss` has the bits of `resid @ resid`
        # and each record's `cc` those of `col @ col`: every write goes
        # through `_write`, and every column is made with its `cc`. A
        # full-recompute chain's residual is also its current records
        # evaluated afresh, which holds only if every move writes its record
        # before its fit; an incremental one drifts from that only in the
        # last bits
        data = generate_dataset("modified_heavisine", 64, 5.0, seed=18)
        hyper = Hyperparams((0, 1, 2, 3))
        chain = Chain(data, hyper, np.random.default_rng(19), **mode)
        calls = dict.fromkeys(("birth", "death", "relocate", "gibbs_beta",
                               "gibbs_M", "gibbs_sigma2", "_llr"), 0)
        drifted = 0

        def check():
            nonlocal drifted
            resid = chain.resid
            assert np.float64(chain.rss).tobytes() == np.float64(resid @ resid).tobytes()
            for atoms in chain.atoms.values():
                for _, _, col, cc in atoms:
                    assert np.float64(cc).tobytes() == np.float64(col @ col).tobytes()
            if mode.get("full_recompute"):
                assert resid.tobytes() == (chain.y - chain.mean_on(chain.x)).tobytes()
            else:
                fresh = chain.y - chain.cached_mean()
                assert np.max(np.abs(resid - fresh)) <= 1e-10
                drifted += resid.tobytes() != fresh.tobytes()

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
        for _ in range(300):
            chain.sweep()
        assert all(calls.values())
        assert calls["gibbs_beta"] == calls["relocate"]  # one draw after each relocation
        for kind in ("birth", "death", "relocate"):
            assert sum(v for (m, _), v in chain.accepts.items() if m == kind) > 0
        # the incremental residual moved off the fresh one in the last bits,
        # so the bitwise full-recompute check is not one it passes for free
        assert (drifted > 0) == (not mode)


def replay_chain(data, hyper, cfg, **mode):
    """`run_chain`'s chain for `cfg`, yielded live after each retained sweep.

    It is seeded and swept as `run_chain` does; recording a sample draws no
    random numbers, so the two chains stay in step.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    chain = Chain(data, hyper, rng, **mode)
    for it in range(cfg.iterations):
        chain.sweep()
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == cfg.thin - 1:
            yield chain


def mean_mcse(trace):
    """Mean and Monte Carlo standard error of an autocorrelated trace.

    The effective sample size comes from Geyer's initial monotone sequence
    of paired autocorrelations, as in Vehtari et al. (2021).
    """
    trace = np.asarray(trace, dtype=float)
    n = len(trace)
    spectrum = np.fft.rfft(trace - trace.mean(), 2 * n)
    acov = np.fft.irfft(spectrum * np.conj(spectrum))[:n] / n
    pairs = (acov[: n - n % 2] / acov[0]).reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs <= 0)
    pairs = np.minimum.accumulate(pairs[: negative[0] if len(negative) else len(pairs)])
    tau = 2 * pairs.sum() - 1
    return float(trace.mean()), math.sqrt(acov[0] * tau / n)


def test_mean_mcse_on_ar1():
    # AR(1) with coefficient phi: the mean's variance is (1 + phi) / (1 - phi) / n
    # times the stationary variance 1 / (1 - phi**2)
    phi, n = 0.9, 200_000
    rng = np.random.default_rng(80)
    trace = np.empty(n)
    trace[0] = rng.standard_normal() / math.sqrt(1 - phi**2)
    noise = rng.standard_normal(n)
    for i in range(1, n):
        trace[i] = phi * trace[i - 1] + noise[i]
    want = math.sqrt((1 + phi) / (1 - phi) / (1 - phi**2) / n)
    assert mean_mcse(trace)[1] == approx(want, rel=0.1)
    iid = rng.standard_normal(n)
    assert mean_mcse(iid)[1] == approx(1 / math.sqrt(n), rel=0.05)


class TestPosteriorCurve:
    def _out(self, curves):
        curves = np.asarray(curves, dtype=float)
        m = len(curves)
        return ChainOutput(curves=curves, sigma2=np.ones(m), J={0: np.zeros(m, dtype=int)},
                           M={0: np.ones(m)}, attempts={}, accepts={})

    def test_single_sample(self):
        out = self._out([[1.0, 2.0, 3.0]])
        mean, lo, hi = posterior_curve(out)
        assert mean == approx([1.0, 2.0, 3.0])
        assert lo == approx(mean) and hi == approx(mean)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: the data endpoints are never fit, "
                       "so the curve there is beta0 in every sample")
    def test_band_has_width_at_the_data_endpoints(self):
        # knots are drawn on the closed data range and a basis's support is
        # half-open, so no atom covers x = 1 and only a knot landing exactly
        # on 0 covers x = 0; the fix widens the knot domain past the data
        data = generate_dataset("blocks", 128, 3.0, 7)
        assert (data.x[0], data.x[-1]) == (0.0, 1.0)
        out = run_chain(data, HYPER0, ChainConfig(3000, 1000, 5, seed=7))
        _, lo, hi = posterior_curve(out)
        assert hi[0] - lo[0] > 0 and hi[-1] - lo[-1] > 0

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

    @pytest.mark.parametrize("levels", [(0.025, 0.975), (0.005, 0.5)],
                             ids=["default", "skewed"])
    @pytest.mark.parametrize("retained", [1, 2, 500])
    @pytest.mark.parametrize("width", [1, 63, 64, 65, 150, 1024])
    def test_blocked_band_matches_one_quantile_call(self, width, retained, levels):
        # the band is taken 64 grid points at a time: grids below, on and
        # across a block edge keep the bits of one `np.quantile` call over the
        # whole store, the sign of +0.0/-0.0 ties included, and the store is
        # left as it was
        rng = np.random.default_rng(1000 * width + retained)
        smooth = rng.standard_normal((retained, width))
        ties = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(retained, width),
                          p=[0.4, 0.4, 0.1, 0.1])
        for curves in (smooth, ties):
            before = curves.copy()
            out = self._out(curves)
            mean, lo, hi = posterior_curve(out, levels=levels)
            want = np.quantile(before, levels, axis=0)
            assert lo.tobytes() == want[0].tobytes()
            assert hi.tobytes() == want[1].tobytes()
            assert mean.tobytes() == before.mean(axis=0).tobytes()
            assert out.curves.tobytes() == before.tobytes()

    def test_band_scratch_is_bounded(self):
        # a (2500, 1024) store is 20.5 MB; the band pass may add one block of
        # 2500 x 64 doubles (1.3 MB), not a second copy of the store
        out = self._out(np.random.default_rng(24).standard_normal((2500, 1024)))
        tracemalloc.start()
        try:
            posterior_curve(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("retained", [1, 2, 7, 500])
    def test_nan_column_reads_nan(self, retained):
        # a grid point whose curves hold a NaN gets a NaN band, as from
        # `np.quantile`; the other grid points keep their bits
        rng = np.random.default_rng(25)
        curves = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(retained, 130))
        curves[rng.integers(retained), [3, 64, 129]] = np.nan
        for levels in ((0.025, 0.975), (0.0, 1.0), (0.005, 0.5)):
            _, lo, hi = posterior_curve(self._out(curves), levels=levels)
            want = np.quantile(curves, levels, axis=0)
            assert np.isnan(lo[[3, 64, 129]]).all() and np.isnan(hi[[3, 64, 129]]).all()
            assert lo.tobytes() == want[0].tobytes()
            assert hi.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("levels", [(-0.1, 0.5), (0.5, 1.5), (math.nan, 0.5),
                                        (0.5, math.nan)])
    @pytest.mark.parametrize("width", [0, 3])
    def test_levels_outside_unit_interval_rejected(self, levels, width):
        # `np.quantile`'s own check and message, on an empty grid too
        curves = np.random.default_rng(26).standard_normal((4, width))
        message = r"Quantiles must be in the range \[0, 1\]"
        with pytest.raises(ValueError, match=message):
            np.quantile(curves, levels, axis=0)
        with pytest.raises(ValueError, match=message):
            posterior_curve(self._out(curves), levels=levels)

    def test_empty_retained_rejected(self):
        out = run_chain(generate_dataset("blocks", 8, 3.0, seed=13),
                        HYPER0, ChainConfig(iterations=2, seed=0))
        out.sigma2 = np.array([])
        out.curves = np.empty((0, 8))
        with pytest.raises(ValueError):
            posterior_curve(out)

    def test_counter_invariant_enforced(self):
        with pytest.raises(ValueError):
            ChainOutput(curves=np.empty((1, 0)),
                        sigma2=np.ones(1), J={0: np.zeros(1, dtype=int)}, M={0: np.ones(1)},
                        attempts={("birth", 0): 1}, accepts={("birth", 0): 2})
