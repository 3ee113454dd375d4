"""The benchmark's span tracer still binds to the package and counts it right.

`perfbench/tracer.py` wraps functions and `Chain` methods by name and checks
each chain's `basis_values` count against the count the sampler implies. This
runs a short traced `fit` in a fresh process, off the data grid and on it,
and a short traced two-replicate `benchmark`, so a refactor that renames a
bound name, draws an atom other than through `sample_atom`, or changes how
many basis columns a move, a recorded curve or a replicate evaluates fails
here. The fit runs degree 4 too, whose basis is built from degree-3
children: a build that went through the wrapped `basis_values` would add
calls the count does not expect.
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
             "--degrees", "0,1,2,3,4", "--grid", sys.argv[2], "--seed", "5"]) == 0
tracer.dump(out + "/spans.json")
"""

TRACED_BENCHMARK = """
import sys
from tracer import Tracer

tracer = Tracer()
tracer.install()
from levyspline.cli import main

out = sys.argv[1]
with open(out + "/spec.txt", "w") as fh:
    fh.write("function = heavisine\\nn = 64\\nrsnr = 10\\nreplicates = 2\\n"
             "degrees = 0,2\\niterations = 200\\nburn_in = 100\\nthin = 5\\nseed = 3\\n")
assert main(["benchmark", out + "/spec.txt", "--out", out + "/table.csv"]) == 0
tracer.dump(out + "/spans.json")
"""


def _traced_spans(script: str, out: pathlib.Path, *args: str) -> Spans:
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src"),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script, str(out), *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return Spans(json.loads((out / "spans.json").read_text()))


def test_traced_fit_matches_basis_count_identity(tmp_path):
    # --grid 97 records curves through `Chain.mean_on`; --grid 0 records them
    # on the data grid from the cached columns, with no `mean_on` call
    for grid, mean_on_calls in (("97", 30), ("0", 0)):
        out = tmp_path / f"grid{grid}"
        out.mkdir()
        spans = _traced_spans(TRACED_FIT, out, grid)
        assert len(spans.where("sampler.run_chain")) == 1
        assert len(spans.where("sampler.sweep")) == 200
        for name in ("sampler.birth", "sampler.death", "sampler.relocate",
                     "bspline.basis_values"):
            assert spans.where(name), (grid, name)
        assert len(spans.where("sampler.mean_on")) == mean_on_calls, grid
        # every prior draw of an atom, initial or proposed by a birth, goes
        # through the `sample_atom` name the tracer wraps
        initial = sum(spans.notes[i] for i in spans.where("model.init_state"))
        assert len(spans.where("model.sample_atom")) == \
            len(spans.where("sampler.birth")) + initial, grid
        assert basis_count_mismatches(spans) == [], grid


def test_traced_benchmark_matches_basis_count_identity(tmp_path):
    # each replicate is one chain of its own, scored on the data grid
    spans = _traced_spans(TRACED_BENCHMARK, tmp_path)
    assert len(spans.where("bench.run_replicate")) == 2
    assert len(spans.where("sampler.run_chain")) == 2
    assert len(spans.where("sampler.sweep")) == 400
    assert basis_count_mismatches(spans) == []
