"""Benchmark of exact `kahlergrad verify` runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
`src/`.  Every verify batch runs as a fresh `python -m kahlergrad` process.
Its report is checked against the closed forms in `oracles.py`, and one
negative control per run must be rejected.  With `--trace 0` the run
repeats the batch while another one fits in S seconds (at least once) and
prints the end-to-end metrics.  Each timed process is pinned beside the
reference loops of `reference.py`, and its times are given on the reference
host.  With `--trace 1` it alternates untraced and traced batches the same
way, without reference loops, and prints the per-layer metrics.  The last line
of stdout is one JSON object; the exit code is 1 if any check disagrees or
any operation failed, 2 if the checkout holds no program.  Run records and
traces go to `.perfbench/` in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

import checks
import controls
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_CODE = "import kahlergrad.cli as cli; cli.build_parser()"
SETUP_SPAWNS = 9          # timed fresh interpreters per run, after one warm-up
KILL_AFTER_S = 170.0      # a verify batch still running by then has hung


@dataclass(frozen=True)
class Workload:
    suite: str
    m: int
    bound: int
    q: int
    jobs: int
    control: str          # key of controls.CONTROLS

    def argv(self) -> list:
        return ["verify", "--suite", self.suite, "--m", str(self.m),
                "--bound", str(self.bound), "--q", str(self.q),
                "--jobs", str(self.jobs), "--json"]


WORKLOADS = {
    "clifford-m3b2": Workload("clifford", 3, 2, 3, 1, "projector"),
    "casimir-m4b1": Workload("gtrep", 4, 1, 4, 1, "invariants"),
    "symbolic-m4q5": Workload("envalg", 4, 1, 5, 1, "identity"),
    "adjoint-m3b1-jobs2": Workload("adjoint", 3, 1, 2, 2, "projector"),
}


class Checkout:
    """The source tree under test and the run directory beside it."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.src = os.path.join(self.root, "src")
        if not os.path.isfile(os.path.join(self.src, "kahlergrad", "cli.py")):
            raise FileNotFoundError(f"no kahlergrad sources under {self.src}")
        self.runs = os.path.join(self.root, ".perfbench")
        os.makedirs(self.runs, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "KAHLERGRAD_BUDGET"}
        self.env.update(PYTHONPATH=self.src, PYTHONHASHSEED="0")
        if self.src not in sys.path:
            sys.path.insert(0, self.src)

    def path(self, name: str) -> str:
        return os.path.join(self.runs, name)

    def spawn(self, cmd: list, out, err, cpus: list = None, ref=None) -> tuple:
        """Run `cmd` to its end, pinned to `cpus` if given: (wall seconds,
        exit code, rusage of it and its children, reference window or None)."""
        pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
        before = ref.snapshot() if ref else None
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err,
                                preexec_fn=pin)
        timer = threading.Timer(KILL_AFTER_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        window = ref.window(before) if ref else None
        return wall, os.waitstatus_to_exitcode(status), usage, window

    def setup_seconds(self, cpus: list, ref) -> float:
        """Wall time, on the reference host, of a fresh interpreter that
        imports kahlergrad and builds the CLI parser."""
        wall, code, _, window = self.spawn([sys.executable, "-c", SETUP_CODE],
                                           subprocess.DEVNULL, None, cpus, ref)
        if code:
            raise RuntimeError(f"setup spawn exited with {code}")
        return window.to_reference(wall - window.shared_s)

    def verify(self, wl: Workload, name: str, trace_file: str = None, cpus: list = None,
               ref=None) -> dict:
        """One verify batch: wall, CPU and peak RSS of the process and its
        pool workers, exit code, parsed report.  With a reference, "wall_ref"
        and "cpu_ref" are those times on the reference host."""
        if trace_file is None:
            cmd = [sys.executable, "-m", "kahlergrad", *wl.argv()]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_verify.py"), trace_file,
                   *wl.argv()]
        out_path, err_path = self.path(f"{name}.out.json"), self.path(f"{name}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            wall, code, usage, window = self.spawn(cmd, out, err, cpus, ref)
        try:
            with open(out_path) as fh:
                report = json.load(fh)
        except ValueError:
            report = None
        batch = {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "returncode": code,
            "report": report,
        }
        if window:
            batch.update(wall_ref=window.to_reference(wall - window.shared_s),
                         cpu_ref=window.to_reference(batch["cpu"]),
                         unit_s=window.unit_s)
        return batch


def layer_metrics(trace: dict, batch: dict, jobs: int) -> dict:
    """Per-layer metrics of one traced batch: name -> (value, unit)."""
    stats, counts, maxima = trace["stats"], trace["counts"], trace["maxima"]

    def self_s(group):
        return stats.get(group, [0, 0.0])[1]

    def calls(group):
        return stats.get(group, [0, 0.0])[0]

    entries = counts.get("elementwise_entries", 0)
    task_max = max((end - start for _, _, name, start, end, _ in trace["spans"]
                    if name == "cli.task"), default=0.0)
    out = {}
    for group in ("linalg.matmul", "linalg.elementwise", "linalg.rref",
                  "linalg.lagrange_projector", "gtrep.build_rep", "gtrep.e_power_matrix",
                  "clifford.build_system", "envalg.e_power", "envalg.pbw_mul"):
        out[f"{group}.s"] = (self_s(group), "s")
        out[f"{group}.calls"] = (calls(group), "count")
    for group in ("linalg.kron", "linalg.compare", "linalg.gram_adjoint",
                  "gtrep.check_invariants", "gtrep.invariant_gram", "gtrep.casimir_matrix",
                  "clifford.verify_relations", "clifford.verify_cross_relations",
                  "clifford.derived_representation", "clifford.verify_adjoint_pairing",
                  "envalg.verify_binomial_relations", "envalg.k_central"):
        out[f"{group}.s"] = (self_s(group), "s")
    out.update({
        "linalg.elementwise.useful_share": (
            counts.get("elementwise_nonzero", 0) / entries if entries else 0.0, "share"),
        "linalg.fraction_new": (counts.get("fraction_new", 0), "count"),
        "linalg.max_side": (maxima.get("max_side", 0), "count"),
        "gtrep.max_dim": (maxima.get("max_dim", 0), "count"),
        "clifford.p_star_p.calls": (calls("clifford.p_star_p"), "count"),
        "clifford.max_tensor_size": (maxima.get("max_tensor_size", 0), "count"),
        "envalg.terms": (counts.get("terms", 0), "count"),
        "cli.tasks": (calls("cli.task"), "count"),
        "cli.task.max_s": (task_max, "s"),
        "cli.render.s": (self_s("cli.render"), "s"),
        "cli.pool.busy_share": (batch["cpu"] / (jobs * batch["wall"]), "share"),
    })
    return out


class Run:
    """One benchmark run: operations attempted and failed, disagreements
    with the oracles, and the measured batches."""

    def __init__(self, checkout: Checkout, wl: Workload, name: str, seed: int):
        self.checkout, self.wl, self.name, self.seed = checkout, wl, name, seed
        self.attempted = self.failed = 0
        self.problems = []
        self.checks = set()
        self.cpus = self.ref = None   # CPUs and reference loops of timed batches; none when traced

    def control(self, rng):
        self.attempted += 1
        found = controls.CONTROLS[self.wl.control](self.wl, rng)
        if found:
            self.failed += 1
            print(f"{self.name}: {found[0]}", file=sys.stderr)

    def batch(self, index: int, traced: bool) -> dict:
        trace_file = (self.checkout.path(f"{self.name}-seed{self.seed}-{index}.trace.json")
                      if traced else None)
        b = self.checkout.verify(self.wl, self.name, trace_file, self.cpus, self.ref)
        failed, problems, passed = checks.check_report(self.wl, b["report"], b["returncode"])
        self.attempted += len(checks.expected_tasks(self.wl))
        self.failed += failed
        self.problems.extend(problems)
        self.checks.add(passed)
        if traced:
            try:
                with open(trace_file) as fh:
                    b["trace"] = json.load(fh)
            except (OSError, ValueError):
                self.problems.append(f"traced batch wrote no trace to {trace_file}")
                b["trace"] = {"stats": {}, "spans": [], "counts": {}, "maxima": {}}
        return b

    def repeat(self, seconds: float, traced_too: bool) -> list:
        """Batches (or untraced/traced pairs) while another fits in `seconds`."""
        start, rounds = perf_counter(), []
        while True:
            rounds.append([self.batch(len(rounds), False)]
                          + ([self.batch(len(rounds), True)] if traced_too else []))
            per_round = (perf_counter() - start) / len(rounds)
            if perf_counter() - start + per_round > seconds:
                return rounds

    def result(self, metrics: dict) -> dict:
        if len(self.checks) != 1:
            self.problems.append(f"passed-check counts differ between batches: {self.checks}")
        for problem in self.problems:
            print(f"{self.name}: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def measure(checkout: Checkout, name: str, wl: Workload, seed: int, seconds: float,
            trace: bool) -> tuple:
    """(per-batch record, result line) of one run."""
    rng = random.Random(seed)
    run = Run(checkout, wl, name, seed)
    run.control(rng)
    if wl.suite == "gtrep":
        run.problems.extend(controls.casimir_sample(wl, rng))
    median = statistics.median
    if not trace:
        cpus = reference.measured_cpus(wl.jobs)
        with reference.Reference(cpus[:1]) as ref:
            checkout.setup_seconds(cpus[:1], ref)     # warm-up: bytecode caches
            setups = [checkout.setup_seconds(cpus[:1], ref) for _ in range(SETUP_SPAWNS)]
        with reference.Reference(cpus) as run.ref:
            run.cpus = cpus
            batches = [r[0] for r in run.repeat(seconds, traced_too=False)]
        record = {key: [b[key] for b in batches]
                  for key in ("wall", "cpu", "wall_ref", "cpu_ref", "unit_s")}
        record["setup"] = setups
        return record, run.result({
            "wall_s": (median(b["wall_ref"] for b in batches), "s"),
            "cpu_s": (median(b["cpu_ref"] for b in batches), "s"),
            "peak_rss_mb": (median(b["rss_mb"] for b in batches), "MiB"),
            "setup_s": (median(setups), "s"),
            "checks": (min(run.checks), "count"),
        })
    rounds = run.repeat(seconds, traced_too=True)
    per_batch = [layer_metrics(t["trace"], t, wl.jobs) for _, t in rounds]
    metrics = {}
    for key, (value, unit) in per_batch[0].items():
        values = [pb[key][0] for pb in per_batch]
        if unit == "count" and len(set(values)) != 1:
            run.problems.append(f"{key} differs between traced batches: {values}")
        metrics[key] = (value if unit == "count" else median(values), unit)
    metrics["cli.checks"] = (min(run.checks), "count")
    overhead = median(t["wall"] for _, t in rounds) / median(u["wall"] for u, _ in rounds)
    metrics["trace.overhead"] = (100 * (overhead - 1), "%")
    return {}, run.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        checkout = Checkout(os.getcwd())
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of a kahlergrad checkout", file=sys.stderr)
        return 2
    record, result = measure(checkout, args.workload, WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    line = json.dumps(result)
    with open(checkout.path(f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "batches": record}, fh)
    print(line)
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
