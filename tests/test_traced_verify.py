"""The benchmark's traced path, run end to end: `perfbench/traced_verify.py`
installs the layer wrappers of `perfbench/tracing.py` and runs the CLI.  A
wrapper that reads an attribute the code no longer has (the tensor size of
a system, say) turns every traced task into a failed item, which the check
of the patched names alone does not see."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGS = ["verify", "--suite", "all", "--m", "2", "--bound", "1", "--q", "2", "--json"]


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
    assert runs["1"][1]["cli.task"] == 21
