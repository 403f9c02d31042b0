import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

import kahlergrad
from kahlergrad.bochner import (
    EigenvalueBound,
    binomial_template,
    bochner_identity,
    constant_curvature_scalar,
    cpm_holomorphic_eigenvalue,
    dolbeault_identities,
    kirchberg_bound,
    weitzenboeck,
)
from kahlergrad.clifford import build_system
from kahlergrad.envalg import k_of_casimirs
from kahlergrad.gtrep import build_rep
from kahlergrad.linalg import Matrix, linear_combination
from kahlergrad.weights import FAMILY, conformal_table, dominant_weights, transpose_weight


def curvature_dict(ident):
    return {t.token: t.coeff for t in ident.curvature}


def by_label(idents):
    return {x.label: x for x in idents}


def template(rho, q_max, sign):
    """The binomial template of the ``sign`` maps on rho."""
    other = "+" if sign == "-" else "-"
    return binomial_template(conformal_table(rho, sign), conformal_table(rho, other), q_max)


def test_degree_0_family():
    idents = by_label(bochner_identity((1, 0), 0))
    assert set(idents) == {
        "degree-0-minus-part",
        "degree-0-plus-part",
        "degree-0-laplacian",
        "degree-0-curvature",
    }
    lap = idents["degree-0-laplacian"]
    assert lap.minus_coeffs == (F(1), F(1)) and lap.plus_coeffs == (F(1), F(1))
    assert curvature_dict(lap) == {"nabla*nabla": F(1)}
    diff = idents["degree-0-curvature"]
    assert diff.plus_coeffs == (F(-1), F(-1))
    assert curvature_dict(diff) == {"R^0": F(1)}
    assert curvature_dict(idents["degree-0-minus-part"]) == {"nabla10*nabla10": F(1)}
    assert curvature_dict(idents["degree-0-plus-part"]) == {"nabla01*nabla01": F(1)}


def test_degree_1():
    (ident,) = bochner_identity((1, 0), 1)
    assert ident.minus_coeffs == (F(2), F(0))
    assert ident.plus_coeffs == (F(-1), F(1))
    assert curvature_dict(ident) == {"R^1": F(1)}
    # both lowered weights (0,0) and (1,-1) stay weakly decreasing here
    assert ident.minus_valid == (True, True)


def test_degree_2_template():
    # hand-computed for rho=(1,0): w_- = (2,0), w_+ = (-1,1), tilde Casimirs
    # tc_0 = 2, tc_1 = -1 give K_1(-tc) = 2, K_2(-tc) = 3
    (ident,) = bochner_identity((1, 0), 2)
    assert ident.minus_coeffs == (F(0), F(4))
    assert ident.plus_coeffs == (F(-2), F(-6))
    assert curvature_dict(ident) == {"R^0": F(4), "R^1": F(-4), "R^2": F(1)}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_binomial_template_matches_the_records(m):
    # degree 0 is the curvature record, degree 1 the degree-1 record minus m
    # times it, and each higher degree its own record; the sign + template is
    # the sign - one of the contragredient weight, indices reversed
    q_max = 4
    for rho in dominant_weights(m, 2):
        curvature = by_label(bochner_identity(rho, 0))["degree-0-curvature"]
        (first,) = bochner_identity(rho, 1)
        records = [
            (curvature.minus_coeffs, curvature.plus_coeffs),
            tuple(tuple(a - m * b for a, b in zip(one, zero)) for one, zero in (
                (first.minus_coeffs, curvature.minus_coeffs),
                (first.plus_coeffs, curvature.plus_coeffs))),
        ]
        for q in range(2, q_max + 1):
            (record,) = bochner_identity(rho, q)
            records.append((record.minus_coeffs, record.plus_coeffs))
        assert template(rho, q_max, "-") == records, rho
        dual = template(transpose_weight(rho), q_max, "-")
        assert template(rho, q_max, "+") == [
            (near[::-1], far[::-1]) for near, far in dual], rho


@pytest.mark.parametrize("rho", [(1, 0), (2, 0, -1), (1, 1, 0), (2, 1, 0, -1), (1, 0, 0, -1)])
def test_binomial_template_matches_per_degree_k(rho):
    # the template takes K_0 .. K_q_max from one series; each K_n on its own,
    # by k_of_casimirs, gives the same coefficients
    m = len(rho)
    for sign, other in (("+", "-"), ("-", "+")):
        near_w, far_w = (conformal_table(rho, s).w for s in (sign, other))
        for q_max in range(4):
            ks = [k_of_casimirs(n, rho, FAMILY[other]) for n in range(q_max + 1)]
            expected = [
                (tuple(F(w - m) ** q for w in near_w),
                 tuple(F(-1) ** (q + 1) * sum(ks[q - p] * F(w) ** p for p in range(q + 1))
                       for w in far_w))
                for q in range(q_max + 1)
            ]
            assert template(rho, q_max, sign) == expected, (sign, q_max)


def test_binomial_template_rejects_bad_sign():
    # the near and far tables must be the two signs of one weight
    plus, minus = conformal_table((1, 0), "+"), conformal_table((1, 0), "-")
    for near, far in ((plus, plus), (minus, minus), (plus, conformal_table((2, 0), "-"))):
        with pytest.raises(ValueError, match="both signs on one weight"):
            binomial_template(near, far, 1)


# order-two symbol of each curvature token: nabla*nabla is the sum of the two
# one-sided Laplacians, R^p and kappa have order 0
SYMBOL = {"nabla*nabla": 2, "nabla10*nabla10": 1, "nabla01*nabla01": 1}


def _symbol_defects(ident, plus, minus) -> list:
    """The (k, l) at which sum_i c_{-i} p_{-i}(k)^* p_{-i}(l)
    + sum_i c_{+i} p_{+i}(l)^* p_{+i}(k) differs from s delta_kl id, with s
    the symbol of the curvature side."""
    m, n = plus.m, plus.rep.dim
    s = sum(SYMBOL.get(t.token, 0) * t.coeff for t in ident.curvature)
    defects = []
    for k in range(1, m + 1):
        for l in range(1, m + 1):
            terms = [(c, minus.p_star_p(i, k, l)) for i, c in enumerate(ident.minus_coeffs, 1)]
            terms += [(c, plus.p_star_p(i, l, k)) for i, c in enumerate(ident.plus_coeffs, 1)]
            if k == l:
                terms.append((-s, Matrix.identity(n)))
            if not linear_combination(terms, n, n).is_zero():
                defects.append((k, l))
    return defects


def _raised(ident, side, i):
    coeffs = list(getattr(ident, f"{side}_coeffs"))
    coeffs[i] += 1
    return replace(ident, **{f"{side}_coeffs": tuple(coeffs)})


@pytest.mark.parametrize("rho", [(1, 0), (2, 0), (1, 0, 0), (2, 1, 0), (2, 0, -1), (1, 1, 0)])
def test_emitted_records_hold_on_the_symbols(rho):
    # every record of degree <= 3 and the Weitzenboeck record, checked on the
    # built maps; raising any coefficient of a nonzero operator breaks it
    rep = build_rep(rho)
    plus, minus = build_system(rep, "+"), build_system(rep, "-")
    idents = [x for q in range(4) for x in bochner_identity(rho, q)] + [weitzenboeck(rho)]
    for ident in idents:
        assert _symbol_defects(ident, plus, minus) == [], ident.label
        for side in ("minus", "plus"):
            for i, valid in enumerate(getattr(ident, f"{side}_valid")):
                if valid:
                    assert _symbol_defects(_raised(ident, side, i), plus, minus), (
                        ident.label, side, i + 1)


def test_weitzenboeck_example():
    ident = weitzenboeck((1, 0))
    assert ident.minus_coeffs == (F(4), F(0))
    assert ident.plus_coeffs == (F(0), F(4))
    assert curvature_dict(ident) == {
        "nabla*nabla": F(1),
        "R^1": F(2),
        "R^0": F(-1),
    }


def test_weitzenboeck_exterior_pattern():
    m, p = 4, 2
    ident = weitzenboeck(tuple([1] * p + [0] * (m - p)))
    assert ident.minus_coeffs[p - 1] == 2 * (m - p + 1)
    assert ident.plus_coeffs[p] == 2 * (p + 1)


def test_weitzenboeck_rank_one_rejected():
    with pytest.raises(ValueError, match="rank"):
        weitzenboeck((2, 2))


@pytest.mark.parametrize("m", [2, 3])
def test_weitzenboeck_coefficients_nonnegative(m):
    for rho in dominant_weights(m, 3):
        if rho.entries[0] == rho.entries[-1]:
            continue
        ident = weitzenboeck(rho)
        assert all(c >= 0 for c in ident.minus_coeffs)
        assert all(c >= 0 for c in ident.plus_coeffs)


def test_constant_curvature_scalar():
    # c_0 c_1 + c_1 at rho=(1,0): q=0 gives c_0*c_1 + c_1 = 2+1 = 3
    assert constant_curvature_scalar((1, 0), 0, 2) == 3
    assert constant_curvature_scalar((1, 0), 0, 4) == 6  # linear in r
    for q in range(3):
        assert constant_curvature_scalar((0, 0, 0), q, 5) == 0


def test_cpm_eigenvalue():
    assert cpm_holomorphic_eigenvalue((1, 0), 1, 1) == F(3, 4)
    assert cpm_holomorphic_eigenvalue((1, 0), 1, 0) == 0
    # (1,-1) is still weakly decreasing, so i=2 is a real gradient here
    assert cpm_holomorphic_eigenvalue((1, 0), 2, 1) == F(3, 4)
    with pytest.raises(ValueError):
        cpm_holomorphic_eigenvalue((1, 0, 0), 2, 1)  # (1,-1,0) not decreasing


def test_eigenvalue_bound_rejects_coefficient_at_most_one():
    with pytest.raises(AssertionError):
        EigenvalueBound(2, F(1), 0)


def test_eigenvalue_bound_check_survives_optimized_mode():
    # python -O strips assert statements; the check must still raise
    code = (
        "from kahlergrad.bochner import EigenvalueBound\n"
        "assert False\n"
        "try:\n"
        "    EigenvalueBound(2, 0, 0)\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(kahlergrad.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised\n"


def test_kirchberg_examples():
    assert kirchberg_bound(2).bound_coefficient == F(2)
    b3 = kirchberg_bound(3)
    assert b3.bound_coefficient == F(4, 3) and b3.witness_p == 1
    assert kirchberg_bound(12).bound_coefficient == F(12, 11)
    with pytest.raises(ValueError):
        kirchberg_bound(1)


@pytest.mark.parametrize("m", range(2, 51))
def test_kirchberg_closed_forms(m):
    b = kirchberg_bound(m)
    expected = F(m, m - 1) if m % 2 == 0 else F(m + 1, m)
    assert b.bound_coefficient == expected
    # witness consistency with the min-max definition
    val = max(
        F(2 * b.witness_p + 2, 2 * b.witness_p + 1),
        F(2 * m - 2 * b.witness_p, 2 * m - 2 * b.witness_p - 1),
    )
    assert val == expected


def test_dolbeault_boundary_p0():
    m = 3
    idents = by_label(dolbeault_identities(m, 0))
    d = idents["dirac-estimate"]
    assert d.minus_coeffs[m - 1] == -1 and d.plus_coeffs[0] == 1
    assert curvature_dict(d) == {"kappa": F(1, 4)}
    assert d.dbar["dbar_star_dbar"] == F(1, 2)
    lich = idents["lichnerowicz"]
    assert lich.plus_coeffs[0] == 2 and all(c == 0 for c in lich.minus_coeffs)
    assert curvature_dict(lich) == {"nabla*nabla": F(1), "kappa": F(1, 4)}


def test_dolbeault_boundary_pm():
    m = 3
    idents = by_label(dolbeault_identities(m, m))
    d = idents["dirac-estimate"]
    assert d.minus_coeffs[m - 1] == 1 and d.plus_coeffs[0] == -1
    assert curvature_dict(d) == {"kappa": F(1, 4)}
    lich = idents["lichnerowicz"]
    assert lich.minus_coeffs[m - 1] == 2
    assert curvature_dict(lich) == {"nabla*nabla": F(1), "kappa": F(1, 4)}


@pytest.mark.parametrize("m", range(2, 7))
def test_dolbeault_weitzenboeck_at_boundary_degrees(m):
    zero = (F(0),) * m
    bottom = by_label(dolbeault_identities(m, 0))["dolbeault-weitzenboeck"]
    assert bottom.minus_coeffs == zero
    assert bottom.plus_coeffs == (F(2),) + (F(0),) * (m - 1)
    assert curvature_dict(bottom) == {"nabla*nabla": F(1)}
    top = by_label(dolbeault_identities(m, m))["dolbeault-weitzenboeck"]
    assert top.minus_coeffs == (F(0),) * (m - 1) + (F(2),)
    assert top.plus_coeffs == zero
    assert curvature_dict(top) == {"nabla*nabla": F(1), "kappa": F(1, 2)}


@pytest.mark.parametrize("m,p", [(3, 1), (3, 2), (4, 2), (5, 3)])
def test_dolbeault_generic(m, p):
    idents = by_label(dolbeault_identities(m, p))
    d = idents["dirac-estimate"]
    assert d.dbar["dbar_dbar_star"] == F(2 * m - 2 * p + 1, 2 * m - 2 * p + 2)
    assert d.dbar["dbar_star_dbar"] == F(2 * p + 1, 2 * p + 2)
    assert d.minus_coeffs[p - 1] == 2 * m - 2 * p + 1
    assert d.minus_coeffs[m - 1] == -1
    assert d.plus_coeffs[p] == 2 * p + 1
    assert d.plus_coeffs[0] == -1
    wz = idents["dolbeault-weitzenboeck"]
    assert wz.minus_coeffs[p - 1] == 2 * (m - p + 1)
    assert wz.plus_coeffs[p] == 2 * (p + 1)
    assert curvature_dict(wz) == {"nabla*nabla": F(1), "R^0": F(1)}
    deg1 = idents["dolbeault-degree-1"]
    assert deg1.minus_coeffs[p - 1] == m - p + 1
    assert deg1.plus_coeffs[0] == -1 and deg1.plus_coeffs[p] == p
    assert curvature_dict(deg1) == {"R^0": F(1)}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_lichnerowicz_pattern_all_degrees(m):
    for p in range(m + 1):
        idents = by_label(dolbeault_identities(m, p))
        assert curvature_dict(idents["lichnerowicz"]) == {
            "nabla*nabla": F(1),
            "kappa": F(1, 4),
        }


def test_dolbeault_input_validation():
    with pytest.raises(ValueError):
        dolbeault_identities(3, 4)
    with pytest.raises(ValueError):
        bochner_identity((1, 0), -1)
