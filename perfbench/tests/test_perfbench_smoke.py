"""Every workload end to end on a rank-2 family, untraced and traced, and
the refusal to run without a program."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import run

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

SMALL = {
    "clifford-m3b2": dict(m=2, bound=1, q=2),
    "casimir-m4b1": dict(m=2, bound=1, q=2),
    "symbolic-m4q5": dict(m=2, q=2),
    "adjoint-m3b1-jobs2": dict(m=2, bound=1),
}


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_on_rank_two(name, trace):
    wl = dataclasses.replace(run.WORKLOADS[name], **SMALL[name])
    _, result = run.measure(run.Checkout(ROOT), f"smoke-{name}", wl, seed=7, seconds=0,
                            trace=trace)
    assert result["correct"] and result["failed"] == 0
    # one control plus one batch (or one untraced/traced pair)
    tasks = len(run.checks.expected_tasks(wl))
    assert result["attempted"] == 1 + tasks * (2 if trace else 1)
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    counts = result["metrics"]
    if trace:
        assert counts["cli.tasks"]["value"] == tasks
        assert counts["cli.checks"]["value"] == run.checks.expected_checks(wl)
    else:
        assert counts["checks"]["value"] == run.checks.expected_checks(wl)
        assert all(v["value"] > 0 for v in counts.values())


def test_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           "casimir-m4b1", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
