"""The benchmark's traced runner still finds every name it wraps.

perfbench/child.py puts timing wrappers on public names of fracdim.solver
and on OperatorCache, TransferOperator and ProbeEngine methods.  A rename or
a call path that skips one of them breaks the per-layer trace without
failing any solver test, so this runs the traced child on tiny inputs and
checks that every span shows up.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
SPANS = {"constants", "assembly.build", "assembly.rebuild", "assembly.matvec",
         "assembly.W_apply", "spectral.power", "spectral.cone",
         "spectral.bracket", "solver.probe", "solver.solve"}


@pytest.mark.skipif(not CHILD.exists(), reason="no benchmark runner")
@pytest.mark.parametrize("argv, solves", [
    (["certify", "--alphabet", "primes<50", "--h", "1/50"], 1),
    (["estimate", "--alphabet", "(1,0),(1,1),(1,-1),(2,0)", "--h", "1/40",
      "--unsafe-h"], 1),
    (["estimate", "--alphabet", "1,2", "--h", "1/64"], 1),
    # a certified 2D solve probes its cap and search meshes in one solve
    (["certify", "--alphabet", "(2,0),(3,0)", "--h", "1/250", "--alpha",
      "0.2", "--beta", "0.2"], 1),
    # a study enters solver.solve_dimension once per mesh, where setup_s
    # times each mesh's build up to its first probe
    (["converge", "--alphabet", "1..10", "--mesh", "nodes", "--h-list",
      "1/25..1/100"], 3),
], ids=["1d-certify", "2d-estimate", "1d-estimate-ladder", "2d-certify",
        "converge"])
def test_traced_run_records_every_span(argv, solves, tmp_path):
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(result), "1", str(spans), "--", *argv],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["exit_code"] == 0
    names = [span[0] for span in json.loads(spans.read_text())["spans"]]
    assert SPANS - set(names) == set()
    # one span per solve: none is nested in another
    assert names.count("solver.solve") == solves
