import csv
import io
import json

import numpy as np
import pytest
from pytest import approx

from levyspline.bench import (
    ExperimentResult,
    ExperimentSpec,
    emit_table,
    mse,
    run_experiment,
    run_replicate,
)
from levyspline.model import Hyperparams
from levyspline.reference import REFERENCE_MSE, STUDY_HYPERPARAMS, reference_mse


def small_spec(**over):
    kwargs = dict(function="blocks", n=32, rsnr=3.0, replicates=2,
                  hyper=Hyperparams((0,)), iterations=300, burn_in=100,
                  thin=4, base_seed=17, threshold=None)
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


class TestExperimentResult:
    def test_mean_and_sd(self):
        res = ExperimentResult(spec=small_spec(), mses=[1.0, 3.0])
        assert res.mean == approx(2.0)
        assert res.sd == approx(np.std([1.0, 3.0], ddof=1))

    def test_single_replicate_sd_zero(self):
        res = ExperimentResult(spec=small_spec(replicates=1), mses=[1.0])
        assert res.sd == 0.0

    def test_replicates_validated(self):
        with pytest.raises(ValueError):
            small_spec(replicates=0)


class TestRunExperiment:
    def test_small_run(self):
        spec = small_spec()
        res = run_experiment(spec)
        assert len(res.mses) == 2
        assert all(m >= 0 and np.isfinite(m) for m in res.mses)
        assert len(res.seconds_per_replicate) == 2

    def test_replicates_match_run_replicate(self):
        # the harness must score each index exactly as a standalone call would
        spec = small_spec()
        res = run_experiment(spec)
        assert res.mses[0] == run_replicate(spec, 0)
        assert res.mses[1] == run_replicate(spec, 1)

    def test_deterministic(self):
        spec = small_spec()
        assert run_experiment(spec).mses == run_experiment(spec).mses

    def test_base_seed_changes_results(self):
        assert (run_experiment(small_spec(base_seed=17)).mses
                != run_experiment(small_spec(base_seed=23)).mses)

    def test_progress_callback(self):
        seen = []
        run_experiment(small_spec(), progress=lambda i, m: seen.append((i, m)))
        assert [i for i, _ in seen] == [0, 1]


class TestEmitTable:
    def _result(self, threshold=None, mses=(0.5, 0.7)):
        spec = small_spec(function="blocks", n=128, rsnr=3.0,
                          threshold=threshold, replicates=len(mses))
        return ExperimentResult(spec=spec, mses=list(mses))

    def test_csv_layout(self):
        text = emit_table([self._result(threshold=2.0)], "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 1
        row = rows[0]
        assert row["function"] == "blocks"
        assert float(row["mean_mse"]) == approx(0.6)
        assert float(row["reference_mean"]) == approx(1.305)
        assert row["status"] == "pass"

    def test_fail_status(self):
        text = emit_table([self._result(threshold=0.1)], "csv")
        row = next(csv.DictReader(io.StringIO(text)))
        assert row["status"] == "fail"

    def test_no_threshold_status(self):
        text = emit_table([self._result()], "csv")
        row = next(csv.DictReader(io.StringIO(text)))
        assert row["status"] == "n/a"
        assert row["threshold"] == ""

    def test_single_replicate_flagged(self):
        text = emit_table([self._result(mses=(0.5,))], "csv")
        row = next(csv.DictReader(io.StringIO(text)))
        assert "single replicate" in row["status"]

    def test_json_matches_csv_values(self):
        results = [self._result(threshold=2.0), self._result()]
        csv_rows = list(csv.DictReader(io.StringIO(emit_table(results, "csv"))))
        json_rows = json.loads(emit_table(results, "json"))
        assert len(json_rows) == len(csv_rows) == 2
        for c, j in zip(csv_rows, json_rows):
            assert set(c) == set(j)
            assert float(c["mean_mse"]) == approx(j["mean_mse"])
            assert float(c["sd_mse"]) == approx(j["sd_mse"])
            assert c["status"] == j["status"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_table([self._result()], "xml")
        with pytest.raises(ValueError):
            emit_table([], "csv")


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
