"""The benchmark's span tracer still binds to the package and counts it right.

`perfbench/tracer.py` wraps functions and `Chain` methods by name and checks
each chain's `basis_values` count against the count the sampler implies. This
runs a short traced `fit` in a fresh process, so a refactor that renames a
bound name or changes how many basis columns a move evaluates fails here.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import Spans, basis_count_mismatches  # noqa: E402

TRACED_FIT = """
import sys
from tracer import Tracer

tracer = Tracer()
tracer.install()
from levyspline.cli import main

out = sys.argv[1]
assert main(["simulate", "modified_heavisine", "--n", "64", "--rsnr", "5",
             "--seed", "3", "--out", out + "/data.csv"]) == 0
assert main(["fit", out + "/data.csv", "--out-prefix", out + "/fit",
             "--iterations", "200", "--burn-in", "50", "--thin", "5",
             "--degrees", "0,1,2,3", "--grid", "97", "--seed", "5"]) == 0
tracer.dump(out + "/spans.json")
"""


def test_traced_fit_matches_basis_count_identity(tmp_path):
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src"),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", TRACED_FIT, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = Spans(json.loads((tmp_path / "spans.json").read_text()))
    assert len(spans.where("sampler.run_chain")) == 1
    assert len(spans.where("sampler.sweep")) == 200
    for name in ("sampler.birth", "sampler.death", "sampler.relocate",
                 "sampler.mean_on", "bspline.basis_values"):
        assert spans.where(name), name
    assert basis_count_mismatches(spans) == []
