"""The reference loops: what a window reports, and that the loops end."""

import time

import pytest

import reference


def test_window_arithmetic():
    w = reference.Window(units=(1000, 3000), cpu_s=(0.5, 1.5))
    assert w.unit_s == pytest.approx(0.0005)
    assert w.shared_s == 0.5
    assert w.to_reference(2.0) == pytest.approx(2.0 * reference.REFERENCE_UNIT_S / 0.0005)


def test_loops_run_beside_a_process_and_stop():
    cpus = reference.measured_cpus(1)
    with reference.Reference(cpus) as ref:
        before = ref.snapshot()
        time.sleep(0.3)
        window = ref.window(before)
        procs = list(ref.procs)
    assert window.units[0] > 0 and window.cpu_s[0] > 0
    # alone on its CPU the loop takes nearly all of the 0.3 s
    assert window.shared_s > 0.1
    assert all(not p.is_alive() for p in procs)
