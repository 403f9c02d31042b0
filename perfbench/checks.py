"""Checks of one `verify --json` report against the closed forms in `oracles`.

`check_report` returns the number of tasks whose items include a failed
check (operations that failed) and a list of disagreements with the oracles
(a wrong output).  One task is one weight of the family, or the single
envalg task.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import oracles

PASS, FAIL, NA = "pass", "fail", "not-applicable"


def expected_tasks(wl) -> dict:
    """Task key -> {tag: (passed, not applicable)} for one verify batch."""
    if wl.suite == "envalg":
        return {str(wl.m): oracles.envalg_counts(wl.m, wl.q)}
    family = oracles.dominant_family(wl.m, wl.bound)
    count = {
        "clifford": lambda rho: oracles.clifford_counts(rho, wl.q),
        "gtrep": lambda rho: oracles.gtrep_counts(rho, wl.q),
        "adjoint": oracles.adjoint_counts,
    }[wl.suite]
    return {oracles.weight_label(rho): count(rho) for rho in family}


def expected_checks(wl) -> int:
    return sum(p for counts in expected_tasks(wl).values() for p, _ in counts.values())


def _task_key(wl, item) -> str:
    return item["params"]["m"] if wl.suite == "envalg" else item["params"]["rho"]


def _value_problems(wl, rho, item) -> list:
    """Checks of the numbers a report item carries in its params."""
    tag, params = item["tag"], item["params"]
    if tag == "projector-rank":
        i = int(params["i"])
        target = oracles.shifted(rho, params["sign"], i)
        want = oracles.weyl_dim(target) if target else 0
        if int(params["expected"]) != want:
            return [f"{tag} {params}: expected rank should be {want}"]
    elif tag == "gamma-trace":
        want = oracles.gammas(rho, params["sign"])[int(params["i"]) - 1]
        if Fraction(params["gamma"]) != want:
            return [f"{tag} {params}: gamma should be {want}"]
    elif tag == "raise-lower-ratio-squared":
        gamma = oracles.gammas(rho, "+")[int(params["i"]) - 1]
        if Fraction(params["ratio_squared"]) != 1 / gamma:
            return [f"{tag} {params}: ratio should be {1 / gamma}"]
    return []


def _rank_sum_problems(rho, items) -> list:
    """The expected projector ranks of each sign add up to m dim(rho)."""
    out = []
    for sign in "+-":
        total = sum(int(it["params"]["expected"]) for it in items
                    if it["tag"] == "projector-rank" and it["params"]["sign"] == sign)
        want = len(rho) * oracles.weyl_dim(rho)
        if total != want:
            out.append(f"projector ranks of {rho} sign {sign} sum to {total}, not {want}")
    return out


def check_report(wl, report: dict, returncode: int) -> tuple:
    """(failed tasks, problems, checks passed) for one verify batch."""
    tasks = expected_tasks(wl)
    if returncode not in (0, 1) or not isinstance(report, dict) or "items" not in report:
        return len(tasks), [], 0
    problems = []
    by_task = defaultdict(list)
    for item in report["items"]:
        by_task[_task_key(wl, item)].append(item)
    if set(by_task) != set(tasks):
        problems.append(f"tasks {sorted(set(by_task) ^ set(tasks))} missing or unexpected")
    failed = 0
    for key, want in tasks.items():
        items = by_task.get(key, [])
        if any(it["status"] == FAIL for it in items):
            failed += 1
            continue
        got = defaultdict(lambda: [0, 0])
        for it in items:
            got[it["tag"]][0 if it["status"] == PASS else 1] += 1
        got = {tag: tuple(c) for tag, c in got.items()}
        if got != want:
            problems.append(f"{wl.suite}{key}: item counts {got} != closed form {want}")
        if wl.suite != "envalg":
            rho = tuple(int(x) for x in key.strip("()").split(","))
            for it in items:
                problems.extend(_value_problems(wl, rho, it))
            if wl.suite == "clifford":
                problems.extend(_rank_sum_problems(rho, items))
    statuses = [it["status"] for it in report["items"]]
    summary = {s: statuses.count(s) for s in (PASS, FAIL, NA)}
    if report.get("summary") != summary:
        problems.append(f"summary {report.get('summary')} != item tally {summary}")
    if report.get("passed") != (failed == 0) or returncode != (1 if failed else 0):
        problems.append(f"verdict passed={report.get('passed')} exit={returncode} "
                        f"with {failed} failed tasks")
    return failed, problems, summary[PASS]
