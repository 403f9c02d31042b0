"""The benchmark's traced path, run end to end: `perfbench/traced_verify.py`
installs the layer wrappers of `perfbench/tracing.py` and runs the CLI.  A
wrapper that reads an attribute the code no longer has (the tensor size of
a system, say) turns every traced task into a failed item, which the check
of the patched names alone does not see."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGS = ["verify", "--suite", "all", "--m", "2", "--bound", "1", "--q", "2", "--json"]
# the groups a traced run of ARGS records, and the tracer's other groups,
# which record nothing there: their patched names have no caller on the
# verify path, which reaches block_powers, casimir_matrices,
# lagrange_projectors and the envalg row series instead
RECORDED = {
    "cli.render", "cli.task", "cli.verify", "clifford.build_system",
    "clifford.derived_representation", "clifford.verify_adjoint_pairing",
    "clifford.verify_cross_relations", "clifford.verify_relations", "envalg.pbw_mul",
    "envalg.verify_binomial_relations", "gtrep.build_rep", "gtrep.check_invariants",
    "gtrep.invariant_gram", "linalg.compare", "linalg.elementwise", "linalg.gram_adjoint",
    "linalg.kron", "linalg.matmul", "linalg.rref"}
BLIND = {"clifford.p_star_p", "envalg.e_power", "envalg.k_central", "gtrep.casimir_matrix",
         "gtrep.e_power_matrix", "linalg.lagrange_projector"}


def _run(argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *argv], capture_output=True, cwd=cwd, env=env,
                          timeout=300)


def test_traced_run_matches_the_untraced_one(tmp_path):
    trace = tmp_path / "trace.json"
    traced = _run([str(ROOT / "perfbench" / "traced_verify.py"), str(trace), *ARGS], tmp_path)
    assert traced.returncode == 0, traced.stderr[-2000:]
    plain = _run(["-m", "kahlergrad", *ARGS], tmp_path)
    assert plain.returncode == 0, plain.stderr[-2000:]
    assert traced.stdout == plain.stdout
    # the largest tensor space at m = 2, bound 1: the adjoint suite's minus
    # system on the raised module (2, -1), of dimension 4
    assert json.loads(trace.read_text())["maxima"]["max_tensor_size"] == 8


def test_traced_pool_records_what_its_workers_run(tmp_path):
    # the pool path must build the pool through `cli.ProcessPoolExecutor`,
    # where the tracer puts its own: else the workers' records are lost
    runs = {}
    for jobs in ("1", "2"):
        trace = tmp_path / f"trace{jobs}.json"
        out = _run([str(ROOT / "perfbench" / "traced_verify.py"), str(trace), *ARGS,
                    "--jobs", jobs], tmp_path)
        assert out.returncode == 0, out.stderr[-2000:]
        stats = json.loads(trace.read_text())["stats"]
        runs[jobs] = out.stdout, {group: calls for group, (calls, _) in stats.items()}
    assert runs["2"] == runs["1"]
    calls = runs["1"][1]
    assert calls["cli.task"] == 21
    assert set(calls) == RECORDED
    # one Gram form per module built, spinor models included
    assert calls["gtrep.invariant_gram"] == 21
    tracing = (ROOT / "perfbench" / "tracing.py").read_text()
    assert set(re.findall(r'"([a-z]+\.[a-z_]+)"', tracing)) == RECORDED | BLIND


def test_traced_run_sees_every_module_build(tmp_path):
    # 18 modules for the gtrep, clifford and adjoint suites and 3 for the
    # spinor model at m = 2: each build is made through `gtrep.build_rep`,
    # which the tracer wraps, so each is counted once
    trace = tmp_path / "trace.json"
    out = _run([str(ROOT / "perfbench" / "traced_verify.py"), str(trace), *ARGS], tmp_path)
    assert out.returncode == 0, out.stderr[-2000:]
    stats = json.loads(trace.read_text())["stats"]
    assert stats["gtrep.build_rep"][0] == stats["gtrep.invariant_gram"][0] == 21
