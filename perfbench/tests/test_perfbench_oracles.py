"""The closed forms on small known cases, and the report checks on
doctored reports."""

import ast
import os
from fractions import Fraction

import pytest

import checks
import oracles
from run import WORKLOADS

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("rho,dim", [
    ((2, 0, -2), 27), ((1, 0, 0), 3), ((1, 0, -1), 8), ((2, 0, 0), 6),
    ((1, 1, 0), 3), ((1, 0, 0, 0), 4), ((1, 1, 0, 0), 6), ((1, 0, 0, -1), 15),
    ((5,), 1), ((3, 3), 1),
])
def test_weyl_dimension(rho, dim):
    assert oracles.weyl_dim(rho) == dim


def test_family_sizes():
    assert len(oracles.dominant_family(3, 2)) == 35
    assert len(oracles.dominant_family(4, 1)) == 15
    assert oracles.dominant_family(2, 1) == [(1, 1), (1, 0), (1, -1), (0, 0), (0, -1),
                                             (-1, -1)]


def test_gamma_table_of_the_natural_module():
    # w_+ = (-1, 1, 2) and w_- = (3, 1, 0) for rho = (1, 0, 0)
    assert oracles.conformal_weights((1, 0, 0), "+") == [-1, 1, 2]
    assert oracles.conformal_weights((1, 0, 0), "-") == [3, 1, 0]
    assert oracles.gammas((1, 0, 0), "+") == [2, 1, 0]
    assert oracles.gammas((1, 0, 0), "-") == [Fraction(1, 3), 0, Fraction(8, 3)]


@pytest.mark.parametrize("m,bound", [(2, 2), (3, 2), (4, 1)])
def test_gammas_and_dimensions_over_a_family(m, bound):
    for rho in oracles.dominant_family(m, bound):
        for sign in "+-":
            g = oracles.gammas(rho, sign)
            assert sum(g) == m
            targets = [oracles.shifted(rho, sign, i) for i in range(1, m + 1)]
            assert [x == 0 for x in g] == [t is None for t in targets]
            assert sum(oracles.weyl_dim(t) for t in targets if t) == m * oracles.weyl_dim(rho)


def test_casimir_closed_forms():
    assert oracles.casimir_closed_form((2, 1), 2) == 6
    assert oracles.casimir_closed_form((2, 0, -2), 0) == 3
    assert oracles.casimir_closed_form((2, 1, -1), 1) == 2
    assert oracles.casimir_closed_form((2, 1), 3) is None
    assert oracles.dual((2, 1, -1)) == (1, -1, -2)


def test_item_counts_of_the_workloads():
    expected = {"clifford-m3b2": 7685, "casimir-m4b1": 180, "symbolic-m4q5": 306,
                "adjoint-m3b1-jobs2": 234}
    for name, total in expected.items():
        assert checks.expected_checks(WORKLOADS[name]) == total
    assert sum(na for counts in checks.expected_tasks(WORKLOADS["clifford-m3b2"]).values()
               for _, na in counts.values()) == 60
    m, q = 4, 5
    assert checks.expected_checks(WORKLOADS["symbolic-m4q5"]) == (q + 1) * (3 * m * m + 3)


def test_no_program_code_in_the_oracles():
    for name in ("oracles.py", "checks.py"):
        with open(os.path.join(HERE, name)) as fh:
            tree = ast.parse(fh.read())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert not any(mod and mod.startswith("kahlergrad") for mod in imported)


def _report(wl, tamper=None):
    """A passing report built from the closed forms alone."""
    items = []
    for key, counts in checks.expected_tasks(wl).items():
        rho = tuple(int(x) for x in key.strip("()").split(","))
        for tag, (passed, na) in counts.items():
            for n in range(passed + na):
                params = {"rho": key}
                if tag == "raise-lower-ratio-squared":
                    i = [i for i in range(1, len(rho) + 1) if oracles.shifted(rho, "+", i)][n]
                    params.update(i=str(i), ratio_squared=str(1 / oracles.gammas(rho, "+")[i - 1]))
                items.append({"tag": tag, "params": params,
                              "status": "pass" if n < passed else "not-applicable"})
    report = {"summary": {"pass": sum(it["status"] == "pass" for it in items), "fail": 0,
                          "not-applicable": sum(it["status"] != "pass" for it in items)},
              "passed": True, "items": items}
    if tamper:
        tamper(report)
    return report


def test_report_checks_accept_and_reject():
    wl = WORKLOADS["adjoint-m3b1-jobs2"]
    assert checks.check_report(wl, _report(wl), 0) == (0, [], 234)

    def wrong_ratio(rep):
        item = next(it for it in rep["items"] if it["tag"] == "raise-lower-ratio-squared")
        item["params"]["ratio_squared"] = "1/7"

    failed, problems, _ = checks.check_report(wl, _report(wl, wrong_ratio), 0)
    assert failed == 0 and any("ratio should be" in p for p in problems)

    def one_fewer(rep):
        del rep["items"][0]
        rep["summary"]["pass"] -= 1

    assert checks.check_report(wl, _report(wl, one_fewer), 0)[1]

    def one_failed(rep):
        rep["items"][0]["status"] = "fail"
        rep["summary"] = {"pass": 233, "fail": 1, "not-applicable": 12}
        rep["passed"] = False

    assert checks.check_report(wl, _report(wl, one_failed), 1) == (1, [], 233)
    assert checks.check_report(wl, None, 2)[0] == 10
