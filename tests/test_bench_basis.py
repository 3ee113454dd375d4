"""scripts/bench_basis.py on a few tiny calls: the smoke test of the timer."""

import pathlib
import shutil

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def doubled_indicator(tmp_path):
    """A copy of the source tree whose degree-0 indicator is doubled."""
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    path = changed / "levyspline" / "bspline.py"
    text = path.read_text()
    indicator = "return ((lo <= x) & (x < hi)).astype(float)"
    assert indicator in text
    path.write_text(text.replace(indicator, indicator + " * 2.0"))
    return changed


def test_same_tree_twice_is_identical(bench_basis):
    parent = bench_basis.load_bspline("parent_levyspline", str(SRC))
    change = bench_basis.load_bspline("change_levyspline", str(SRC))
    rng = np.random.default_rng(0)
    for degree in (0, 3, 4):
        for n in (7, 16):
            row = bench_basis.compare(parent, change, degree, n, 2, 3, rng)
            assert (row["degree"], row["n"], row["identical"]) == (degree, n, True)
            for q in row["quartiles"].values():
                assert 0 < q[0] <= q[1] <= q[2]
            assert row["ratio"] > 0


def test_differing_outputs_exit_1(bench_basis, doubled_indicator, monkeypatch, capsys):
    monkeypatch.setattr(bench_basis, "ROUNDS", 1)
    monkeypatch.setattr(bench_basis, "CALLS", 2)
    monkeypatch.setattr(bench_basis, "DEGREES", (0, 1))
    monkeypatch.setattr(bench_basis, "SIZES", (7,))
    status = bench_basis.main([str(SRC), str(doubled_indicator)])
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    assert lines[0] == "per-call µs, median (q1-q3) over 1 rounds of 2 calls"
    rows = [line.split() for line in lines[2:]]
    assert [(r[0], r[1], r[-1]) for r in rows] == [("0", "7", "NO"), ("1", "7", "yes")]


def test_tree_without_package_rejected(bench_basis, tmp_path):
    with pytest.raises(SystemExit, match="no levyspline package"):
        bench_basis.main([str(tmp_path), str(SRC)])
