"""Acceptance suite.

Every criterion is an exact-arithmetic check (tolerance zero throughout) plus
a runtime cap; each test prints one [ACCEPTANCE] pass/fail line.  Run with
``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import io
import json
import pathlib
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

from kahlergrad.clifford import (
    build_system,
    verify_cross_relations,
    verify_relations,
    verify_spinor_model,
)
from kahlergrad.envalg import casimir_element, verify_binomial_relations
from kahlergrad.gtrep import build_rep
from kahlergrad.bochner import kirchberg_bound
from kahlergrad.cli import dump_json
from kahlergrad.weights import (
    casimir_eigenvalue,
    casimir_quadratic_closed_form,
    conformal_table,
    dominant_weights,
)
from test_gtrep import evaluate

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CLI = [sys.executable, "-m", "kahlergrad"]


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} runtime {elapsed:.1f}s exceeds cap {limit_seconds}s"
    )
    print(
        f"[ACCEPTANCE] criterion {number} ({description}): PASS in {elapsed:.2f}s"
    )


def test_criterion_1_exterior_table():
    with criterion(1, "exterior-family table closed forms, m=2..6", 1.0):
        for m in range(2, 7):
            for p in range(m + 1):
                rho = tuple([1] * p + [0] * (m - p))
                tp = conformal_table(rho, "+")
                tm = conformal_table(rho, "-")
                if p >= 1:
                    assert tp.w[0] == -1
                    assert tp.gamma[0] == F(p * (m + 1), p + 1)
                    assert tm.w[p - 1] == m - p + 1
                    assert tm.gamma[p - 1] == F(p, m - p + 1)
                if p <= m - 1:
                    assert tp.w[p] == p
                    assert tp.gamma[p] == F(m - p, p + 1)
                    assert tm.w[m - 1] == 0
                    assert tm.gamma[m - 1] == F((m + 1) * (m - p), m - p + 1)


def test_criterion_2_casimir_matrix_vs_formula():
    with criterion(2, "Casimir matrices vs weight formulas, m<=3", 120.0):
        for m in (1, 2, 3):
            elements = {
                (q, variant): casimir_element(q, m, variant)
                for q in range(5)
                for variant in ("plain", "tilde")
            }
            for rho in dominant_weights(m, 2):
                rep = build_rep(rho)
                for (q, variant), element in elements.items():
                    mat = evaluate(rep, element)
                    assert mat.is_scalar(), (rho, q, variant)
                    assert mat.diagonal_entries()[0] == casimir_eigenvalue(
                        rho, q, variant
                    ), (rho, q, variant)
                assert evaluate(rep, elements[(2, "plain")]).diagonal_entries()[
                    0
                ] == casimir_quadratic_closed_form(rho)


def test_criterion_3_symbolic_relations():
    with criterion(3, "symbolic binomial relations, m<=3, q<=3", 300.0):
        for m in (1, 2, 3):
            out = verify_binomial_relations(m, 3)
            assert out.passed, [it.describe() for it in out.failures()][:5]
            tags = {it.tag for it in out.items}
            assert {
                "binomial-tilde-to-plain",
                "binomial-plain-to-tilde",
                "casimir-binomial-plain",
                "casimir-binomial-tilde",
                "solved-tilde-elements",
                "solved-tilde-casimir",
            } <= tags


def test_criterion_4_clifford_suite():
    required_tags = {
        "projector-rank",
        "completeness",
        "moment-identity",
        "intertwining",
        "vandermonde-solved",
        "gamma-trace",
        "target-completeness",
        "projection-formula",
        "cross-sign-plus",
        "cross-sign-minus",
    }
    with criterion(4, "Clifford system identities, m<=3", 600.0):
        for m in (1, 2, 3):
            for rho in dominant_weights(m, 2):
                rep = build_rep(rho)
                plus = build_system(rep, "+")
                minus = build_system(rep, "-")
                out = verify_relations(plus, q_max=m)
                out.extend(verify_cross_relations(plus, minus, q_max=2))
                out.extend(verify_relations(minus, q_max=m))
                assert out.passed, (
                    str(rho),
                    [it.describe() for it in out.failures()][:5],
                )
                assert required_tags <= {it.tag for it in out.items}, str(rho)


def test_criterion_5_spinor_model():
    with criterion(5, "exterior/spinor bilinear relations, m=2,3,4", 120.0):
        for m in (2, 3, 4):
            out = verify_spinor_model(m)
            assert out.passed, [it.describe() for it in out.failures()][:5]
            tags = {it.tag for it in out.items}
            assert {"clifford-anticommutation", "unit-action", "spinor-table"} <= tags


def test_criterion_6_kirchberg():
    with criterion(6, "Dirac eigenvalue bound closed forms, m<=50", 1.0):
        for m in range(2, 51):
            b = kirchberg_bound(m)
            expected = F(m, m - 1) if m % 2 == 0 else F(m + 1, m)
            assert b.bound_coefficient == expected
            attained = max(
                F(2 * b.witness_p + 2, 2 * b.witness_p + 1),
                F(2 * m - 2 * b.witness_p, 2 * m - 2 * b.witness_p - 1),
            )
            assert attained == expected
            for p in range(m):
                other = max(
                    F(2 * p + 2, 2 * p + 1), F(2 * m - 2 * p, 2 * m - 2 * p - 1)
                )
                assert other >= expected


def test_criterion_7_identity_golden_files():
    with criterion(7, "identity emission matches pinned golden files", 60.0):
        cases = [
            (["identity", "1,0", "--q", "0", "--json"], "identity_1_0_q0.json"),
            (["identity", "1,0", "--q", "1", "--json"], "identity_1_0_q1.json"),
            (
                ["identity", "1,0", "--weitzenboeck", "--json"],
                "identity_1_0_weitzenboeck.json",
            ),
        ]
        for args, golden_name in cases:
            out = subprocess.run(
                CLI + args, capture_output=True, text=True, timeout=60
            )
            assert out.returncode == 0, out.stderr
            golden = (GOLDEN / golden_name).read_text()
            assert out.stdout == golden, f"{golden_name} drifted"


def test_criterion_8_cli_contract():
    with criterion(8, "CLI exit codes and byte-stable JSON round trip", 300.0):
        batch = subprocess.run(
            CLI + ["verify", "--m", "2", "--bound", "2", "--q", "2",
                   "--suite", "all", "--json"],
            capture_output=True, text=True, timeout=280,
        )
        assert batch.returncode == 0, batch.stdout[-2000:]
        payload = json.loads(batch.stdout)
        assert payload["passed"] is True
        rendered = io.StringIO()
        dump_json(payload, rendered)
        assert rendered.getvalue() == batch.stdout

        usage = subprocess.run(
            CLI + ["weights", "not-a-weight"], capture_output=True, text=True
        )
        assert usage.returncode == 2
        rank1 = subprocess.run(
            CLI + ["identity", "2,2", "--weitzenboeck"],
            capture_output=True, text=True,
        )
        assert rank1.returncode == 2 and "rank" in rank1.stderr


def test_verify_output_is_pinned():
    """The stdout of six ``verify --json`` runs (among them the commands of
    the four benchmark workloads: the clifford suite at m = 3, bound 2,
    q = 3, the gtrep suite at m = 4, q = 4, the envalg suite at m = 4,
    q = 5 and the adjoint suite at m = 3), five ``identity --json``
    runs (degrees 0, 2, 3 and 4 and the Weitzenboeck record, on weights of
    rank 3 and 4) and nine more runs, every command in text mode (with
    ``identity`` as text and as LaTeX, and ``verify`` over all suites) plus
    one ``spinor-table --json``, is pinned by its SHA-256 in
    golden/verify_sha256.json, so any byte of drift fails and names its
    command.  The digests hold under any PYTHONHASHSEED and on Python 3.10
    to 3.13."""
    pinned = json.loads((GOLDEN / "verify_sha256.json").read_text())
    drifted = []
    for command, digest in pinned.items():
        out = subprocess.run(CLI + command.split(), capture_output=True, timeout=60)
        assert out.returncode == 0, (command, out.stderr[-2000:])
        if hashlib.sha256(out.stdout).hexdigest() != digest:
            drifted.append(command)
    assert not drifted, f"verify output drifted from its pinned digest: {drifted}"
