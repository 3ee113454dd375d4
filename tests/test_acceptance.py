"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The four benchmark criteria
run 10 full 50k-iteration replicates each and dominate the runtime (a few
minutes total).
"""

import math
import pathlib
import sys

import numpy as np
import pytest
import scipy.stats as st

from levyspline.bspline import basis_values
from levyspline.bench import ExperimentSpec, run_experiment
from levyspline.cli import main, parse_benchmark_spec
from levyspline.model import Hyperparams, sample_atom
from levyspline.reference import REFERENCE_MSE, STUDY_HYPERPARAMS
from levyspline.sampler import (
    Chain,
    ChainConfig,
    run_chain,
)
from levyspline.signals import generate_dataset
from oracles import (
    basis_integral,
    birth_log_ratio,
    death_log_ratio,
    finite_difference,
    make_state,
)

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {status}: {detail}"
    # bypass pytest's capture so one line per criterion always reaches the
    # terminal, even without -s
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def run_benchmark_criterion(criterion, function, rsnr, degrees, threshold,
                            r=0.01, a_gamma=1.0):
    # the gate runs the shipped desk file, which must state exactly the spec
    # written here, so editing the file cannot loosen the gate
    spec = ExperimentSpec(
        function=function, n=128, rsnr=rsnr, replicates=10,
        hyper=Hyperparams(degrees, r=r, R=0.01, a_gamma=a_gamma,
                               b_gamma=1.0),
        chain=ChainConfig(iterations=50_000, burn_in=25_000, thin=10, seed=0),
        threshold=threshold)
    desk = SCRIPTS / "benchmarks" / "desk" / f"{function}.txt"
    shipped = parse_benchmark_spec(desk.read_text())
    assert shipped == spec, desk
    mses = run_experiment(shipped)
    mean = float(np.mean(mses))
    report(criterion, mean <= threshold,
           f"{function} n=128 rsnr={rsnr:g} degrees={degrees}: "
           f"mean MSE {mean:.4f} (sd {float(np.std(mses, ddof=1)):.4f}) over 10 "
           f"replicates, bound {threshold}")


@pytest.mark.desk
class TestBenchmarkCriteria:
    def test_criterion_1_blocks_mean_mse(self):
        run_benchmark_criterion(1, "blocks", 3.0, (0,), 2.0)

    def test_criterion_2_heavisine_mean_mse(self):
        run_benchmark_criterion(2, "heavisine", 10.0, (0, 2), 0.25)

    def test_criterion_3_bumps_mean_mse(self):
        run_benchmark_criterion(3, "bumps", 5.0, (1,), 1.6, r=100.0)

    def test_criterion_4_modified_blocks_mean_mse(self):
        run_benchmark_criterion(4, "modified_blocks", 3.0, (0, 2, 3), 3.0)


class TestFullScaleSpecsDocumented:
    def test_criterion_5_full_scale_specs_shipped_not_run(self, full_scale_runner):
        # the 100-replicate, 200k-iteration study is documented as a runnable
        # script but deliberately not executed here; its specs are parsed
        texts = full_scale_runner.cells()
        cells = set()
        for name, text in texts:
            spec = parse_benchmark_spec(text)
            settings = STUDY_HYPERPARAMS[spec.function]
            assert name == f"{spec.function}_n{spec.n}_rsnr{spec.rsnr:g}"
            assert spec.replicates == 100
            assert spec.chain.iterations == 200_000
            assert spec.chain.burn_in == 100_000
            assert spec.chain.thin == 10
            assert spec.hyper.degrees == tuple(sorted(settings["degrees"]))
            assert spec.hyper.r == settings["r"]
            assert spec.hyper.R == settings["R"]
            assert spec.hyper.a_gamma == settings["a_gamma"]
            assert spec.hyper.b_gamma == settings["b_gamma"]
            cells.add((spec.function, spec.n, spec.rsnr))
        published = {(function, n, rsnr) for function in STUDY_HYPERPARAMS
                     for n in (128, 512) for rsnr in (3.0, 5.0, 10.0)}
        assert cells == set(REFERENCE_MSE) == published
        report(5, len(texts) == len(cells) == 42,
               f"{len(texts)}/42 full-scale specs built by "
               "scripts/run_full_scale.py carry the published settings (100 "
               "replicates, 200k iterations, 100k burn-in, thin 10); not "
               "executed at desk scale")


class TestBasisPropertySuite:
    def test_criterion_6_randomized_basis_properties(self):
        rng = np.random.default_rng(2024)
        nodes, weights = np.polynomial.legendre.leggauss(8)
        cases = 10_000
        integrals_checked = 0
        for case in range(cases):
            k = int(rng.integers(0, 6))
            knots = np.sort(rng.uniform(0.0, 1.0, k + 2))
            xs = rng.uniform(-0.2, 1.2, 24)
            vals = basis_values(knots, k, xs)
            # non-negativity and boundedness
            assert (vals >= 0.0).all() and (vals <= 1.0 + 1e-12).all()
            # compact support [first knot, last knot)
            outside = (xs < knots[0]) | (xs >= knots[-1])
            assert (vals[outside] == 0.0).all()
            # integral identity against per-span Gauss-Legendre (1e-6)
            if case % 20 == 0 and basis_integral(knots) > 1e-8:
                total = 0.0
                for a, b in zip(knots[:-1], knots[1:]):
                    if b <= a:
                        continue
                    pts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
                    total += 0.5 * (b - a) * float(
                        weights @ basis_values(knots, k, pts))
                assert total == pytest.approx(basis_integral(knots), rel=1e-6)
                integrals_checked += 1
        # partition of unity on random strictly increasing grids (1e-10)
        unity_grids = 200
        for _ in range(unity_grids):
            k = int(rng.integers(0, 6))
            t = np.sort(rng.uniform(0.0, 1.0, 12 + k))
            if np.min(np.diff(t)) <= 0:
                continue
            m = len(t) - 1
            xs = rng.uniform(t[k], t[m - k], 200)
            total = np.zeros_like(xs)
            for i in range(m - k):
                total += basis_values(t[i:i + k + 2], k, xs)
            assert np.max(np.abs(total - 1.0)) < 1e-10
        # derivative continuity through order k-1 at interior knots
        continuity_cases = 40
        for _ in range(continuity_cases):
            k = int(rng.integers(2, 6))
            knots = np.sort(rng.uniform(0.0, 1.0, k + 2))
            while np.min(np.diff(knots)) < 0.1:
                knots = np.sort(rng.uniform(0.0, 1.0, k + 2))
            for xi in knots[1:-1]:
                for j in range(1, k):
                    h = 1e-5 if j <= 2 else 1e-3
                    eps = 10 * h
                    left = finite_difference(knots, xi - eps, j, h)
                    right = finite_difference(knots, xi + eps, j, h)
                    dj1 = max(abs(finite_difference(knots, xi - eps, j + 1, h)),
                              abs(finite_difference(knots, xi + eps, j + 1, h)))
                    bound = 2 * (2 * eps * dj1) + 2.0**j * 1e-11 / h**j + 1e-9
                    assert abs(left - right) <= bound
        report(6, True,
               f"{cases} randomized basis cases (non-negativity, bounds, "
               f"support), {integrals_checked} integral identities at 1e-6, "
               f"{unity_grids} partition-of-unity grids at 1e-10, "
               f"{continuity_cases} derivative-continuity cases")


class TestSamplerCorrectness:
    def test_criterion_7a_birth_death_reciprocity(self):
        rng = np.random.default_rng(7)
        data = generate_dataset("heavisine", 48, 3.0, seed=1)
        hyper = Hyperparams((0, 1, 2, 3))
        worst = 0.0
        trials = 500
        for _ in range(trials):
            k = int(rng.integers(0, 4))
            J = int(rng.integers(0, 5))  # J = 0 exercises the forced birth
            atoms = {kk: [] for kk in range(4)}
            atoms[k] = [sample_atom(k, 1.0, data.domain, rng) for _ in range(J)]
            state = make_state(atoms, sigma2=float(rng.uniform(0.05, 3.0)),
                                M=float(rng.uniform(0.1, 6.0)))
            atom = sample_atom(k, 1.0, data.domain, rng)
            up = birth_log_ratio(state, k, atom, data, hyper)
            post = make_state(
                {kk: list(state.components[kk].atoms) for kk in range(4)},
                sigma2=state.sigma2, M=state.components[k].M)
            post.components[k].atoms.append(atom)
            down = death_log_ratio(post, k, J, data, hyper)
            worst = max(worst, abs(up + down))
        report(7, worst <= 1e-10,
               f"(a) birth/death log-ratio reciprocity over {trials} random "
               f"states including the empty-component boundary: worst "
               f"|up + down| = {worst:.2e} (bound 1e-10)")

    def test_criterion_7b_gibbs_conditionals(self):
        n_draws = 10_000
        details = []
        data = generate_dataset("blocks", 64, 3.0, seed=2)
        rng = np.random.default_rng(8)
        hyper = Hyperparams((0,), r=2.0, R=1.0, a_gamma=2.0, b_gamma=3.0)

        # coefficient conditional: N(mu, v) computed independently
        atom = sample_atom(0, 1.2, data.domain, rng)
        state = make_state({0: [atom]}, sigma2=0.5, phi=1.2)
        chain = Chain(data, Hyperparams((0,)), rng, state=state)
        col = basis_values(atom[0], 0, data.x)
        v = 1.0 / (float(col @ col) / 0.5 + 1.0 / 1.2**2)
        mu = v * float(data.y @ col) / 0.5
        draws = []
        for _ in range(n_draws):
            chain.gibbs_beta(0, 0)
            draws.append(chain.atoms[0][0][1])
        draws = np.asarray(draws)
        ok_mean = abs(draws.mean() - mu) <= 3 * math.sqrt(v / n_draws)
        p_beta = st.kstest(draws, "norm", args=(mu, math.sqrt(v))).pvalue
        details.append(f"beta: mean within 3se {ok_mean}, KS p={p_beta:.3f}")

        # Poisson-rate conditional: Ga(a + J, rate b + 1)
        atoms = [sample_atom(0, 1.0, data.domain, rng) for _ in range(4)]
        chain = Chain(data, hyper, rng, state=make_state({0: atoms}))
        draws = []
        for _ in range(n_draws):
            chain.gibbs_M(0)
            draws.append(chain.M[0])
        draws = np.asarray(draws)
        shape, rate = 2.0 + 4, 3.0 + 1.0
        ok_M = abs(draws.mean() - shape / rate) <= \
            3 * math.sqrt(shape / rate**2 / n_draws)
        p_M = st.kstest(draws, "gamma", args=(shape, 0, 1 / rate)).pvalue
        details.append(f"M: mean within 3se {ok_M}, KS p={p_M:.3f}")

        # variance conditional: IG((r+n)/2, (rss + rR)/2)
        chain = Chain(data, hyper, rng, state=make_state({0: []}))
        rss = float(data.y @ data.y)
        a_ig, b_ig = (2.0 + 64) / 2, (rss + 2.0 * 1.0) / 2
        draws = []
        for _ in range(n_draws):
            chain.gibbs_sigma2()
            draws.append(chain.sigma2)
        draws = np.asarray(draws)
        mean_ig = b_ig / (a_ig - 1)
        sd_ig = math.sqrt(b_ig**2 / ((a_ig - 1) ** 2 * (a_ig - 2)))
        ok_s2 = abs(draws.mean() - mean_ig) <= 3 * sd_ig / math.sqrt(n_draws)
        p_s2 = st.kstest(draws, "invgamma", args=(a_ig, 0, b_ig)).pvalue
        details.append(f"sigma2: mean within 3se {ok_s2}, KS p={p_s2:.3f}")

        ok = (ok_mean and ok_M and ok_s2
              and min(p_beta, p_M, p_s2) > 0.01)
        report(7, ok, "(b) Gibbs conditionals vs analytic laws on "
               f"{n_draws} draws each: " + "; ".join(details))

    def test_criterion_7c_prior_recovery(self):
        a, b = 2.0, 1.0
        sweeps = 150_000
        data = generate_dataset("blocks", 16, 3.0, seed=3)
        hyper = Hyperparams((0,), a_gamma=a, b_gamma=b)
        cfg = ChainConfig(iterations=sweeps, burn_in=10_000, seed=42)
        out = run_chain(data, hyper, cfg, grid=np.empty(0), prior_only=True)
        target = a / b
        lines, ok = [], True
        for name, trace in (("M", out.M[0]), ("J", out.J[0].astype(float))):
            mean, se = _batch_mean_se(trace)
            good = abs(mean - target) <= 3 * se
            ok = ok and good
            lines.append(f"E[{name}]={mean:.4f} (target {target:g}, "
                         f"3se={3 * se:.4f})")
        report(7, ok, f"(c) prior-only recovery over {sweeps} sweeps: "
               + ", ".join(lines))


def _batch_mean_se(trace, batches=100):
    trace = np.asarray(trace, dtype=float)
    size = len(trace) // batches
    means = trace[: batches * size].reshape(batches, size).mean(axis=1)
    return float(trace.mean()), float(means.std(ddof=1) / math.sqrt(batches))


class TestDeterminism:
    def test_criterion_8_byte_identical_cli_runs(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            data = str(d / "data.csv")
            assert main(["simulate", "heavisine", "--n", "64", "--rsnr", "5",
                         "--seed", "11", "--out", data]) == 0
            assert main(["fit", data, "--out-prefix", str(d / "fit"),
                         "--iterations", "2000", "--burn-in", "500",
                         "--thin", "5", "--degrees", "0,2", "--seed", "11",
                         "--save-trace", "--dump-config"]) == 0
            spec = d / "spec.txt"
            spec.write_text(
                "function = blocks\nn = 32\nrsnr = 3\nreplicates = 2\n"
                "degrees = 0\niterations = 500\nburn_in = 100\nthin = 4\n"
                "seed = 13\n")
            assert main(["benchmark", str(spec), "--out",
                         str(d / "table.csv")]) == 0
            outputs.append(sorted(p for p in d.iterdir() if p.is_file()))
        names_a = [p.name for p in outputs[0]]
        names_b = [p.name for p in outputs[1]]
        same = names_a == names_b and all(
            pa.read_bytes() == pb.read_bytes()
            for pa, pb in zip(outputs[0], outputs[1]))
        report(8, same,
               f"simulate + fit + benchmark re-runs produce byte-identical "
               f"outputs ({len(names_a)} files compared)")


class TestDeltaLikelihood:
    def test_criterion_9_incremental_vs_full_recompute(self):
        data = generate_dataset("blocks", 128, 3.0, seed=4)
        hyper = Hyperparams((0, 2))
        cfg = ChainConfig(iterations=3000, burn_in=1000, thin=5, seed=17)
        fast = run_chain(data, hyper, cfg)
        slow = run_chain(data, hyper, cfg, full_recompute=True)
        diffs = {
            "sigma2": float(np.max(np.abs(fast.sigma2 - slow.sigma2))),
            "curves": float(np.max(np.abs(fast.curves - slow.curves))),
        }
        for k in hyper.degrees:
            assert np.array_equal(fast.J[k], slow.J[k])
            diffs[f"M_{k}"] = float(np.max(np.abs(fast.M[k] - slow.M[k])))
        worst = max(diffs.values())
        report(9, worst <= 1e-8,
               "incremental and full-recompute chains agree on retained "
               f"summaries: worst |diff| = {worst:.2e} (bound 1e-8), "
               "atom counts identical")
