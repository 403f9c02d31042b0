"""Reference loops that share each measured CPU with the program.

The host this benchmark was built on runs its vCPUs beside other tenants,
and their load changes the speed of the same code by up to 1.9 times from
second to second (see README.md).  CPU time slows down as much as wall time,
so no choice of statistic removes it.

A reference loop is a process pinned to one CPU that repeats a fixed unit of
pure-Python `Fraction` arithmetic, the kind of work the program does, and
publishes how many units it has finished and how much CPU time it has used.
The program under test is pinned to the same CPUs, so at equal priority the
scheduler interleaves the two every few milliseconds and both see the same
host speed.  The loop's CPU cost per unit over a measured window is that
speed; dividing a measured time by it, and multiplying by
`REFERENCE_UNIT_S`, gives the time on a host where one unit costs exactly
that.  A loop on another CPU does not follow the speed of this one, which is
why the loops are pinned beside the program.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter, process_time

# CPU seconds of one unit on the reference host: Python 3.11, an Intel Xeon
# vCPU at 2.1 GHz while no other tenant slowed it.
REFERENCE_UNIT_S = 250e-6
WARMUP_S = 0.2

_ENTRIES = [Fraction(i, 7) for i in range(1, 9)]


def unit() -> Fraction:
    """One unit of reference work: 64 products and 128 sums of Fractions."""
    total = Fraction(0)
    for x in _ENTRIES:
        for y in _ENTRIES:
            total += x * y - y
    return total


def _loop(cpu: int, units, cpu_s, ready) -> None:
    os.sched_setaffinity(0, {cpu})
    start = perf_counter()
    while perf_counter() - start < WARMUP_S:
        unit()
    ready.set()
    while True:
        unit()
        cpu_s.value = process_time()
        units.value += 1


@dataclass(frozen=True)
class Window:
    """What the reference loops did while one measured process ran."""
    units: tuple          # units finished, per loop
    cpu_s: tuple          # CPU seconds used, per loop

    @property
    def unit_s(self) -> float:
        """CPU seconds per unit, pooled over the loops."""
        return sum(self.cpu_s) / sum(self.units)

    @property
    def shared_s(self) -> float:
        """CPU time the loops took from the program's CPUs.  The loop that
        got the least is the one beside the CPU the program kept busiest.
        While no program process is runnable the loop takes the whole CPU,
        so wall time minus this counts only time the program ran."""
        return min(self.cpu_s)

    def to_reference(self, seconds: float) -> float:
        """A CPU time measured in this window, on the reference host."""
        return seconds * REFERENCE_UNIT_S / self.unit_s


class Reference:
    """One reference loop per CPU in `cpus`, from `__enter__` to `__exit__`.

        with Reference(cpus) as ref:
            before = ref.snapshot()
            ...                          # the program, pinned to `cpus`
            window = ref.window(before)
    """

    def __init__(self, cpus):
        self.cpus = list(cpus)
        self.procs = []
        self.counters = []

    def __enter__(self) -> "Reference":
        ctx = multiprocessing.get_context("fork")
        try:
            for cpu in self.cpus:
                units, cpu_s = ctx.RawValue(ctypes.c_long, 0), ctx.RawValue(ctypes.c_double, 0.0)
                ready = ctx.Event()
                proc = ctx.Process(target=_loop, args=(cpu, units, cpu_s, ready), daemon=True)
                proc.start()
                self.procs.append(proc)
                self.counters.append((units, cpu_s))
                if not ready.wait(30):
                    raise RuntimeError(f"reference loop on CPU {cpu} did not start")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.join()
        self.procs = []

    def snapshot(self) -> list:
        # the two values can be one unit apart, against thousands in a window
        return [(units.value, cpu_s.value) for units, cpu_s in self.counters]

    def window(self, before: list) -> Window:
        after = self.snapshot()
        return Window(units=tuple(a[0] - b[0] for a, b in zip(after, before)),
                      cpu_s=tuple(a[1] - b[1] for a, b in zip(after, before)))


def measured_cpus(count: int) -> list:
    """The first `count` CPUs this process may run on (fewer if it has
    fewer)."""
    return sorted(os.sched_getaffinity(0))[:max(1, count)]
