"""The benchmark's negative controls and Casimir sample on rank-2 families.

`perfbench/controls.py` calls `lagrange_projector`, `Matrix.data`,
`check_invariants`, `k_central`, `e_power` and `casimir_matrix`; a change to
one of them that breaks a control would otherwise first show as a failed
benchmark run.  The module is loaded from its file, as the benchmark runs it
as a script beside `oracles.py`."""

import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# each workload of `perfbench/run.py` with its control, at the rank-2 sizes
# of `perfbench/tests/test_perfbench_smoke.py`
WORKLOADS = {
    "clifford-m3b2": SimpleNamespace(control="projector", m=2, bound=1, q=2),
    "casimir-m4b1": SimpleNamespace(control="invariants", m=2, bound=1, q=2),
    "symbolic-m4q5": SimpleNamespace(control="identity", m=2, bound=1, q=2),
    "adjoint-m3b1-jobs2": SimpleNamespace(control="projector", m=2, bound=1, q=2),
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def controls(monkeypatch):
    monkeypatch.setitem(sys.modules, "oracles", _load("oracles"))  # controls imports it by name
    return _load("controls")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_controls_reject_the_perturbed_input_and_accept_the_true_one(controls, name, seed):
    wl, rng = WORKLOADS[name], random.Random(seed)
    assert controls.CONTROLS[wl.control](wl, rng) == []
    # the Casimir sample runs on the gtrep workload only, after its control
    if wl.control == "invariants":
        assert controls.casimir_sample(wl, rng) == []
