"""In-memory spans around the public functions of the kahlergrad layers.

`install()` patches each function where its callers look it up and returns
the `Tracer` that collects:

- per group: calls and self time (span duration minus the part of it that
  child spans cover, with the tracer's own bookkeeping taken out);
- whole spans (id, parent, name, start, end, pid) for the coarse functions
  of `gtrep`, `clifford`, `envalg` and `cli`; the hot `linalg` methods and
  normal-ordering products are aggregated only, since a span each would
  hold millions of records;
- counts and maxima: Fraction objects constructed, entries computed and
  nonzero in elementwise results, terms of normal forms, sizes built.

Pool workers are forked after `install()`, so they inherit the wrappers.
Each worker empties its tracer into the report of every task it returns
(one more attribute, which the report's JSON never reads), and the patched
pool of the main process merges it back.  Nothing is written until `dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from operator import attrgetter
from time import perf_counter

TRACE_ATTR = "perfbench_trace"
_numerators = attrgetter("_numerator")


class Tracer:
    def __init__(self):
        self.main_pid = os.getpid()
        self.reset()

    def reset(self):
        """Start afresh, as a forked worker must; span ids carry the pid."""
        self.stack = []          # frames: [child seconds, span id]
        self.overhead = 0.0      # bookkeeping seconds, removed from durations
        self.ids = itertools.count(os.getpid() * 10**7 + 1)
        self.clear()

    def clear(self):
        self.stats = {}          # group -> [calls, self seconds]
        self.spans = []          # [id, parent, name, start, end, pid]
        self.counts = {}
        self.maxima = {}
        self.fractions = itertools.count()

    # -- recording ----------------------------------------------------------

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def high(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def wrap(self, fn, group, keep=False, after=None):
        """Wrap fn as a span of `group`; keep whole spans when `keep`;
        call after(result, args) outside the measured time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            frame = [0.0, next(tracer.ids) if keep else parent]
            stack.append(frame)
            before = tracer.overhead
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start - (tracer.overhead - before)
                stat = tracer.stats.setdefault(group, [0, 0.0])
                stat[0] += 1
                stat[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    tracer.spans.append([frame[1], parent, group, start,
                                         start + duration, os.getpid()])
            if after is not None:
                after(result, args)
            tracer.overhead += perf_counter() - end
            return result

        return traced

    # -- moving between processes -------------------------------------------

    def drain(self) -> dict:
        """Everything recorded so far, as plain data; starts afresh."""
        data = {
            "stats": self.stats,
            "spans": self.spans,
            "counts": {**self.counts, "fraction_new":
                       self.counts.get("fraction_new", 0) + next(self.fractions)},
            "maxima": self.maxima,
        }
        self.clear()
        return data

    def merge(self, data: dict, parent=None):
        for group, (calls, seconds) in data["stats"].items():
            stat = self.stats.setdefault(group, [0, 0.0])
            stat[0] += calls
            stat[1] += seconds
        for span in data["spans"]:
            if span[1] is None:
                span[1] = parent
            self.spans.append(span)
        for name, value in data["counts"].items():
            self.add(name, value)
        for name, value in data["maxima"].items():
            self.high(name, value)

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.drain(), fh)


def install() -> Tracer:
    """Patch kahlergrad's layer functions and return the collecting tracer."""
    from concurrent.futures import ProcessPoolExecutor
    from fractions import Fraction

    from kahlergrad import cli, clifford, envalg, gtrep, linalg, report

    tracer = Tracer()
    os.register_at_fork(after_in_child=tracer.reset)
    M = linalg.Matrix

    def patch(owners, name, group, **kw):
        wrapped = tracer.wrap(getattr(owners[0], name), group, **kw)
        for owner in owners:
            setattr(owner, name, wrapped)

    # Fraction construction count; itertools.count is safe across threads
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        next(tracer.fractions)
        return new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted_new)

    # matrix sizes built, through the two constructors every result uses
    init, zeros = M.__init__, M.__dict__["zeros"].__func__

    def sized_init(self, data):
        init(self, data)
        tracer.high("max_side", max(self.rows, self.cols))

    def sized_zeros(cls, rows, cols):
        tracer.high("max_side", max(rows, cols))
        return zeros(cls, rows, cols)

    M.__init__ = sized_init
    M.zeros = classmethod(sized_zeros)

    def entries(result, args):
        tracer.add("elementwise_entries", result.rows * result.cols)
        tracer.add("elementwise_nonzero", sum(
            len(row) - list(map(_numerators, row)).count(0) for row in result.data))

    for name in ("__add__", "__sub__", "scale"):
        patch([M], name, "linalg.elementwise", after=entries)
    for name in ("__eq__", "is_zero", "is_diagonal", "is_scalar"):
        patch([M], name, "linalg.compare")
    patch([M], "matmul", "linalg.matmul")
    patch([M], "kron", "linalg.kron")
    patch([M], "rref", "linalg.rref")
    patch([linalg, clifford], "lagrange_projector", "linalg.lagrange_projector")
    patch([linalg, gtrep, clifford], "gram_adjoint", "linalg.gram_adjoint")

    patch([gtrep], "build_rep", "gtrep.build_rep", keep=True,
          after=lambda rep, args: tracer.high("max_dim", rep.dim))
    patch([gtrep.Representation], "check_invariants", "gtrep.check_invariants", keep=True)
    patch([gtrep], "invariant_gram", "gtrep.invariant_gram", keep=True)
    patch([gtrep], "casimir_matrix", "gtrep.casimir_matrix", keep=True)
    patch([gtrep, clifford], "e_power_matrix", "gtrep.e_power_matrix", keep=True)

    patch([clifford], "build_system", "clifford.build_system", keep=True,
          after=lambda sys_, args: tracer.high("max_tensor_size", sys_.chat.rows))
    patch([clifford], "verify_relations", "clifford.verify_relations", keep=True)
    patch([clifford], "verify_cross_relations", "clifford.verify_cross_relations", keep=True)
    patch([clifford.CliffordSystem], "p_star_p", "clifford.p_star_p")
    patch([clifford], "derived_representation", "clifford.derived_representation", keep=True)
    patch([clifford], "verify_adjoint_pairing", "clifford.verify_adjoint_pairing", keep=True)

    def terms(element, args):
        tracer.add("terms", len(element.terms))

    patch([envalg], "verify_binomial_relations", "envalg.verify_binomial_relations", keep=True)
    patch([envalg], "e_power", "envalg.e_power", after=terms)
    patch([envalg], "tilde_e_power", "envalg.e_power", after=terms)
    patch([envalg], "k_central", "envalg.k_central", keep=True)
    patch([envalg.PBWElement], "__mul__", "envalg.pbw_mul", after=terms)

    run_task = tracer.wrap(cli._run_task, "cli.task", keep=True)

    @functools.wraps(cli._run_task)
    def task_entry(task):
        out = run_task(task)
        if os.getpid() != tracer.main_pid:
            setattr(out[1], TRACE_ATTR, tracer.drain())
        return out

    cli._run_task = task_entry
    patch([cli], "cmd_verify", "cli.verify", keep=True)
    patch([cli], "dump_json", "cli.render")
    patch([report.VerificationReport], "to_json_dict", "cli.render")

    class TracedPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            parent = tracer.stack[-1][1] if tracer.stack else None
            for task, rep in super().map(fn, *iterables, **kwargs):
                tracer.merge(rep.__dict__.pop(TRACE_ATTR), parent)
                yield task, rep

    cli.ProcessPoolExecutor = TracedPool
    return tracer
