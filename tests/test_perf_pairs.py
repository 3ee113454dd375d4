"""scripts/perf_pairs.py with its runner stubbed by canned results."""

import json

import pytest


def canned(side, i, failed=0):
    """A run result: per metric, a parent value for pair i and the change's."""
    parent = {"setup_s": 0.5,                # a tie in every pair
              "cpu_s": 1.0 + 0.001 * i,      # interquartile range 0.0045
              "sweeps_per_s": 100.0 + 20 * i,  # IQR 90, median 190: past the bound
              "peak_rss_mb": 50.0}
    change = {"setup_s": 0.5, "cpu_s": parent["cpu_s"] - 0.01,
              "sweeps_per_s": parent["sweeps_per_s"] + 1.0, "peak_rss_mb": 60.0}
    values = parent if side == "parent" else change
    return {"correct": failed == 0, "attempted": 5, "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


class Runner:
    """Stands in for `run_once`: answers from `canned` and records each call.

    The change's run of seed `fail_seed` reports one failed operation.
    """

    def __init__(self):
        self.calls = []
        self.fail_seed = None

    def __call__(self, bench, root, workload, seed):
        side = root.name
        self.calls.append((side, workload, seed, bench["run_seconds"]))
        return canned(side, seed - 40, failed=int(side == "change" and seed == self.fail_seed))


@pytest.fixture
def stubbed(perf_pairs, monkeypatch):
    runner = Runner()
    monkeypatch.setattr(perf_pairs, "run_once", runner)
    return runner


def run(perf_pairs, tmp_path, capsys):
    status = perf_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                              "fit-blocks", "40"])
    lines = capsys.readouterr().out.splitlines()
    return status, lines[:-1], json.loads(lines[-1])


def test_pairs_alternate_and_each_metric_is_judged(perf_pairs, stubbed, tmp_path, capsys):
    status, pair_lines, summary = run(perf_pairs, tmp_path, capsys)
    assert status == 0 and summary["correct"]
    seconds = json.loads(perf_pairs.BENCHMARK.read_text())["run_seconds"]
    assert stubbed.calls[:4] == [("parent", "fit-blocks", 40, seconds),
                           ("change", "fit-blocks", 40, seconds),
                           ("change", "fit-blocks", 41, seconds),
                           ("parent", "fit-blocks", 41, seconds)]
    assert len(stubbed.calls) == 2 * perf_pairs.PAIRS == 20
    assert len(pair_lines) == len(summary["runs"]) == 10
    assert pair_lines[1].startswith("pair 1 seed 41, change first: setup_s 0.5 -> 0.5")
    m = summary["metrics"]
    assert {k: v["verdict"] for k, v in m.items()} == {
        "setup_s": "same", "cpu_s": "gain", "sweeps_per_s": "unresolved",
        "peak_rss_mb": "worse"}
    assert (m["setup_s"]["change_wins"], m["setup_s"]["parent_wins"]) == (0, 0)
    assert (m["cpu_s"]["change_wins"], m["cpu_s"]["parent_wins"]) == (10, 0)
    assert m["cpu_s"]["parent_median"] == pytest.approx(1.0045)
    assert m["cpu_s"]["change_median"] == pytest.approx(0.9945)
    assert m["cpu_s"]["parent_iqr"] == pytest.approx(0.0045)
    # higher is better: the change wins every pair, by less than the spread
    assert m["sweeps_per_s"]["change_wins"] == 10


def test_failed_operation_exits_1(perf_pairs, stubbed, tmp_path, capsys):
    stubbed.fail_seed = 45
    status, _, summary = run(perf_pairs, tmp_path, capsys)
    assert status == 1 and not summary["correct"]
    assert summary["runs"][5]["change"]["failed"] == 1


def test_unknown_workload_rejected(perf_pairs, tmp_path):
    with pytest.raises(SystemExit, match="unknown workload 'fit-nothing'"):
        perf_pairs.main([str(tmp_path), str(tmp_path), "fit-nothing", "1"])
