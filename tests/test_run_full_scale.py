"""scripts/run_full_scale.py with its `main` stubbed, so no chain runs."""

import pathlib

import pytest

from levyspline.reference import REFERENCE_MSE

BLOCKS_N128_RSNR3 = """\
# Full-scale benchmark: blocks, n = 128, RSNR = 3.
# 100 replicates at 200k iterations; expect hours of runtime.
function = blocks
n = 128
rsnr = 3
replicates = 100
degrees = 0
r = 0.01
R = 0.01
a_gamma = 1
b_gamma = 1
iterations = 200000
burn_in = 100000
thin = 10
seed = 0
"""


class StubMain:
    """Records each argv and the spec text on disk when it is called."""

    def __init__(self):
        self.statuses = []  # returned in turn, then 0
        self.calls = []
        self.texts = []

    def __call__(self, argv):
        self.calls.append(argv)
        self.texts.append(pathlib.Path(argv[1]).read_text())
        return self.statuses.pop(0) if self.statuses else 0


@pytest.fixture
def runner(full_scale_runner, tmp_path):
    full_scale_runner.OUT = tmp_path / "full"
    full_scale_runner.main = StubMain()
    return full_scale_runner


def expected_argv(out, name):
    return ["benchmark", str(out / f"{name}.txt"), "--out",
            str(out / f"{name}.csv"), "--verbose"]


def test_filter_runs_each_matching_cell_once(runner):
    # a cell matches when its name contains the filter, as the shell glob
    # `*blocks_n128*` did, so modified_blocks matches too
    names = [f"{function}_n128_rsnr{rsnr}" for function in ("blocks", "modified_blocks")
             for rsnr in (3, 5, 10)]
    assert runner.run(["blocks_n128"]) == 0
    assert runner.main.calls == [expected_argv(runner.OUT, name) for name in names]
    built = dict(runner.cells("blocks_n128"))
    assert sorted(p.name for p in runner.OUT.iterdir()) == sorted(
        f"{name}.txt" for name in names)
    for name, text in zip(names, runner.main.texts):
        assert text == built[name] == (runner.OUT / f"{name}.txt").read_text()
    assert built["blocks_n128_rsnr3"] == BLOCKS_N128_RSNR3


def test_no_filter_runs_every_table_cell_in_key_order(runner):
    assert runner.run([]) == 0
    names = [f"{function}_n{n}_rsnr{rsnr:g}"
             for function, n, rsnr in sorted(REFERENCE_MSE)]
    assert len(names) == 42
    assert runner.main.calls == [expected_argv(runner.OUT, name) for name in names]


def test_filter_matching_no_cell_fails(runner, capsys):
    assert runner.run(["blocks_n256"]) == 2
    assert "error: no cell name contains 'blocks_n256'" in capsys.readouterr().err
    assert runner.main.calls == []
    assert not runner.OUT.exists()


def test_more_than_one_filter_is_a_usage_error(runner, capsys):
    assert runner.run(["blocks", "bumps"]) == 2
    assert "usage:" in capsys.readouterr().err
    assert runner.main.calls == []


def test_nonzero_status_stops_the_run_and_is_returned(runner):
    runner.main.statuses = [0, 3]
    assert runner.run(["blocks_n128"]) == 3
    assert runner.main.calls == [expected_argv(runner.OUT, name)
                                 for name in ("blocks_n128_rsnr3", "blocks_n128_rsnr5")]
    assert sorted(p.name for p in runner.OUT.iterdir()) == [
        "blocks_n128_rsnr3.txt", "blocks_n128_rsnr5.txt"]
