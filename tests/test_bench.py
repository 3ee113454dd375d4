import csv
import io
import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from levyspline.bench import (
    ExperimentSpec,
    emit_table,
    mse,
    run_experiment,
    run_replicate,
)
from levyspline.cli import parse_benchmark_spec
from levyspline.model import Hyperparams
from levyspline.reference import REFERENCE_MSE, STUDY_HYPERPARAMS, reference_mse
from levyspline.sampler import ChainConfig, posterior_curve, run_chain
from levyspline.signals import eval_test_function, generate_dataset, sample_grid

DESK = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "benchmarks" / "desk"


def small_spec(**over):
    kwargs = dict(function="blocks", n=32, rsnr=3.0, replicates=2,
                  hyper=Hyperparams((0,)),
                  chain=ChainConfig(iterations=300, burn_in=100, thin=4, seed=17),
                  threshold=None)
    kwargs.update(over)
    return ExperimentSpec(**kwargs)


class TestMse:
    def test_identical_is_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert mse(v, v) == 0.0

    def test_constant_offset(self):
        a = np.zeros(4)
        assert mse(a, a + 2.0) == approx(4.0)

    def test_hand_example(self):
        assert mse([0.0, 0.0], [1.0, 3.0]) == approx(5.0)

    def test_against_bruteforce(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=100), rng.normal(size=100)
        brute = sum((u - v) ** 2 for u, v in zip(a, b)) / 100
        assert mse(a, b) == approx(brute, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            mse([], [])


class TestExperimentSpec:
    def test_replicates_validated(self):
        with pytest.raises(ValueError):
            small_spec(replicates=0)


class TestRunExperiment:
    def test_small_run(self):
        spec = small_spec()
        mses = run_experiment(spec)
        assert len(mses) == 2
        assert all(m >= 0 and np.isfinite(m) for m in mses)

    def test_replicates_match_run_replicate(self):
        # the harness must score each index exactly as a standalone call would
        spec = small_spec()
        mses = run_experiment(spec)
        assert mses[0] == run_replicate(spec, 0)
        assert mses[1] == run_replicate(spec, 1)

    def test_replicate_scores_the_posterior_mean(self):
        # replicate i fits data and chain on seed ^ i and scores the posterior
        # mean curve against the truth on the sample grid, to the last bit
        spec = small_spec(hyper=Hyperparams((0, 2)))
        truth = eval_test_function(spec.function, sample_grid(spec.n))
        for i in (0, 1):
            seed = spec.chain.seed ^ i
            data = generate_dataset(spec.function, spec.n, spec.rsnr, seed)
            out = run_chain(data, spec.hyper, replace(spec.chain, seed=seed))
            expected = mse(truth, posterior_curve(out)[0])
            assert run_replicate(spec, i).hex() == expected.hex()

    def test_deterministic(self):
        spec = small_spec()
        assert run_experiment(spec) == run_experiment(spec)

    def test_base_seed_changes_results(self):
        chain = ChainConfig(iterations=300, burn_in=100, thin=4, seed=23)
        assert run_experiment(small_spec()) != run_experiment(small_spec(chain=chain))

    def test_progress_callback(self):
        seen = []
        run_experiment(small_spec(), progress=lambda i, m: seen.append((i, m)))
        assert [i for i, _ in seen] == [0, 1]


class TestEmitTable:
    def _table(self, format, threshold=None, mses=(0.5, 0.7)):
        spec = small_spec(function="blocks", n=128, rsnr=3.0,
                          threshold=threshold, replicates=len(mses))
        return emit_table(spec, list(mses), format)

    def _row(self, **kwargs):
        return next(csv.DictReader(io.StringIO(self._table("csv", **kwargs))))

    def test_csv_layout(self):
        rows = list(csv.DictReader(io.StringIO(self._table("csv", threshold=2.0))))
        assert len(rows) == 1
        row = rows[0]
        assert row["function"] == "blocks"
        assert float(row["mean_mse"]) == approx(0.6)
        assert float(row["reference_mean"]) == approx(1.305)
        assert row["status"] == "pass"

    def test_mean_and_sd(self):
        row = self._row(mses=(1.0, 3.0))
        assert float(row["mean_mse"]) == approx(2.0)
        assert float(row["sd_mse"]) == approx(np.std([1.0, 3.0], ddof=1))

    def test_fail_status(self):
        assert self._row(threshold=0.1)["status"] == "fail"

    def test_no_threshold_status(self):
        row = self._row()
        assert row["status"] == "n/a"
        assert row["threshold"] == ""

    def test_single_replicate_flagged(self):
        row = self._row(mses=(0.5,))
        assert "single replicate" in row["status"]

    def test_single_replicate_sd_zero(self):
        assert float(self._row(mses=(1.0,))["sd_mse"]) == 0.0

    def test_json_matches_csv_values(self):
        for threshold in (2.0, None):
            csv_rows = list(csv.DictReader(io.StringIO(self._table("csv", threshold))))
            json_rows = json.loads(self._table("json", threshold))
            assert len(json_rows) == len(csv_rows) == 1
            c, j = csv_rows[0], json_rows[0]
            assert set(c) == set(j)
            assert float(c["mean_mse"]) == approx(j["mean_mse"])
            assert float(c["sd_mse"]) == approx(j["sd_mse"])
            assert c["status"] == j["status"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            self._table("xml")


class TestReferenceConstants:
    def test_all_42_entries_present(self):
        assert len(REFERENCE_MSE) == 42
        functions = {f for f, _, _ in REFERENCE_MSE}
        assert functions == set(STUDY_HYPERPARAMS)
        for f in functions:
            for n in (128, 512):
                for rsnr in (3.0, 5.0, 10.0):
                    assert (f, n, rsnr) in REFERENCE_MSE

    def test_lookup(self):
        assert reference_mse("heavisine", 128, 10.0) == (0.103, 0.0406)
        assert reference_mse("nope", 128, 3.0) is None

    def test_positive_values(self):
        for mean, se in REFERENCE_MSE.values():
            assert mean > 0 and se > 0

    def test_study_hyperparams_construct(self):
        for settings in STUDY_HYPERPARAMS.values():
            h = Hyperparams(**settings)
            assert h.degrees == tuple(sorted(settings["degrees"]))

    def test_desk_specs_carry_the_study_priors(self):
        # the desk files and `STUDY_HYPERPARAMS` both state the published priors
        desk = sorted(DESK.glob("*.txt"))
        assert [p.stem for p in desk] == ["blocks", "bumps", "heavisine", "modified_blocks"]
        for path in desk:
            spec = parse_benchmark_spec(path.read_text())
            want = STUDY_HYPERPARAMS[path.stem]
            assert spec.function == path.stem
            got = {key: getattr(spec.hyper, key) for key in want}
            assert got == {**want, "degrees": tuple(sorted(want["degrees"]))}, path.name
