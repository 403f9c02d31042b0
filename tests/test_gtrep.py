from dataclasses import replace
from fractions import Fraction as F

import pytest

from kahlergrad.envalg import PBWElement, casimir_element, e_power
from kahlergrad.gtrep import (
    DimensionBudgetError,
    GTPattern,
    build_rep,
    casimir_matrix,
    e_power_matrices,
    e_power_matrix,
    gt_patterns,
    invariant_gram,
)
from kahlergrad.linalg import Matrix, linear_combination
from kahlergrad.weights import (
    casimir_eigenvalue,
    casimir_quadratic_closed_form,
    dominant_weights,
    transpose_weight,
    weyl_dimension,
)


def evaluate(rep, x: PBWElement) -> Matrix:
    """The module action on a normal-ordered element: the sum of its terms'
    coefficients times the products of generator matrices."""
    if x.m != rep.m:
        raise ValueError(f"rank mismatch: element has m={x.m}, module m={rep.m}")
    n = rep.dim
    terms = []
    cache = {(): Matrix.identity(n)}
    for word, coeff in x.terms.items():
        # monomials share sorted prefixes heavily; cache prefix products
        k = len(word)
        while k > 0 and word[:k] not in cache:
            k -= 1
        mat = cache[word[:k]]
        for j in range(k, len(word)):
            mat = mat * rep.gen[word[j]]
            cache[word[: j + 1]] = mat
        terms.append((coeff, mat))
    return linear_combination(terms, n, n)


def test_patterns_and_validation():
    pats = gt_patterns((1, 0))
    assert len(pats) == 2
    assert pats[0].weight() == (1, 0)  # highest-weight pattern first
    assert pats[1].weight() == (0, 1)
    with pytest.raises(ValueError):
        GTPattern(((2,), (1, 0)))  # 2 not between 1 and 0


def test_natural_representation():
    rep = build_rep((1, 0))
    assert rep.dim == 2
    assert rep.gen[(1, 1)] == Matrix.diagonal([1, 0])
    assert rep.gen[(2, 2)] == Matrix.diagonal([0, 1])
    assert rep.gen[(1, 2)] == Matrix([[0, 1], [0, 0]])
    assert rep.gen[(2, 1)] == Matrix([[0, 0], [1, 0]])
    assert rep.gram == Matrix.identity(2)


def test_determinant_power():
    rep = build_rep((3, 3, 3))
    assert rep.dim == 1
    for k in range(1, 4):
        for l in range(1, 4):
            expected = Matrix([[3]]) if k == l else Matrix([[0]])
            assert rep.gen[(k, l)] == expected


def test_casimir_on_small_modules():
    rep = build_rep((1, 1, 0))
    # oracle: closed form 1*(1+3-2+1) + 1*(1+3-4+1) = 3 + 1 = 4
    assert casimir_quadratic_closed_form((1, 1, 0)) == 4
    c2 = casimir_matrix(rep, 2)
    assert c2 == Matrix.identity(3).scale(4)


def test_invariant_gram_solver():
    rep = build_rep((2, 0))
    gram = invariant_gram(rep.m, rep.gen)
    assert gram == rep.gram
    assert gram.diagonal_entries()[0] == 1  # highest-weight normalization
    assert all(x > 0 for x in gram.diagonal_entries())


@pytest.mark.parametrize("rho", [(2, 1, 0), (1, 0, 0, -1)])
def test_check_invariants_catches_a_doubled_gram_entry(rho):
    # the unitarity loop of check_invariants is the one full adjoint check
    model = build_rep(rho)
    diag = model.gram.diagonal_entries()
    for x in range(model.dim):
        doubled = diag[:x] + [2 * diag[x]] + diag[x + 1:]
        bad = replace(model, gram=Matrix.diagonal(doubled))
        with pytest.raises(AssertionError, match="unitarity"):
            bad.check_invariants()


@pytest.mark.parametrize("zeroed", ["raising", "lowering"])
def test_invariant_gram_rejects_a_one_sided_edge(zeroed):
    # the walk's first edge: E_21 lowers the highest-weight vector 0 to x,
    # and x is reached by no other edge
    model = build_rep((2, 1, 0))
    x = next(x for x in range(model.dim) if model.gen[(2, 1)][x, 0])
    key, a, b = ((1, 2), 0, x) if zeroed == "raising" else ((2, 1), x, 0)
    changed = Matrix([row[:] for row in model.gen[key].data])
    changed.data[a][b] = F(0)
    with pytest.raises(ValueError, match="one-sided" if zeroed == "raising" else "connected"):
        invariant_gram(model.m, {**model.gen, key: changed})


def test_evaluate_examples():
    rep = build_rep((1, 0))
    assert evaluate(rep, casimir_element(2, 2)) == Matrix.identity(2).scale(2)
    assert evaluate(rep, PBWElement.one(2)) == Matrix.identity(2)
    rep3 = build_rep((1, 0, 0))
    got = evaluate(rep3, casimir_element(1, 3, "tilde"))
    assert got == Matrix.identity(3).scale(-1)
    with pytest.raises(ValueError):
        evaluate(rep, PBWElement.one(3))


def test_evaluate_matches_block_powers():
    for rho in [(1, 0), (2, 1), (1, 0, -1)]:
        rep = build_rep(rho)
        m = rep.m
        for q in range(4):
            blocks = e_power_matrix(rep, q)
            tblocks = e_power_matrix(rep, q, "tilde")
            for k in range(1, m + 1):
                for l in range(1, m + 1):
                    assert blocks[(k, l)] == evaluate(rep, e_power(k, l, q, m))
                    from kahlergrad.envalg import tilde_e_power

                    assert tblocks[(k, l)] == evaluate(rep, tilde_e_power(k, l, q, m))


def test_block_power_series_matches_single_degrees():
    rep = build_rep((1, 0, -1))
    for variant in ("plain", "tilde"):
        series = e_power_matrices(rep, 3, variant)
        assert series == [e_power_matrix(rep, q, variant) for q in range(4)]
    with pytest.raises(ValueError):
        e_power_matrices(rep, -1)
    with pytest.raises(ValueError):
        e_power_matrix(rep, 2, "other")


def test_matrix_level_composition():
    rep = build_rep((2, 0))
    m = 2
    for p in range(3):
        q = 3 - p
        left = e_power_matrix(rep, p)
        right = e_power_matrix(rep, q)
        full = e_power_matrix(rep, p + q)
        for k in range(1, m + 1):
            for l in range(1, m + 1):
                acc = Matrix.zeros(rep.dim, rep.dim)
                for i in range(1, m + 1):
                    acc = acc + left[(k, i)] * right[(i, l)]
                assert acc == full[(k, l)]


@pytest.mark.parametrize("rho", [(1, 0), (2, -1), (1, 1, 0), (2, 1, 0), (1, 0, -1)])
def test_build_invariants(rho):
    rep = build_rep(rho)
    rep.check_invariants()  # raises on violation
    assert rep.dim == weyl_dimension(rho)


@pytest.mark.parametrize("m", [1, 2])
def test_casimir_scalars_match_formula_small(m):
    for rho in dominant_weights(m, 2):
        rep = build_rep(rho)
        for q in range(5):
            for variant in ("plain", "tilde"):
                mat = casimir_matrix(rep, q, variant)
                assert mat.is_scalar()
                assert mat.diagonal_entries()[0] == casimir_eigenvalue(rho, q, variant)


def test_contragredient_matrix_scalars():
    for rho in [(1, 0), (2, 1), (1, 1, 0)]:
        rep = build_rep(rho)
        rep_t = build_rep(transpose_weight(rho))
        for q in range(4):
            a = casimir_matrix(rep, q, "plain").diagonal_entries()[0]
            b = casimir_matrix(rep_t, q, "tilde").diagonal_entries()[0]
            assert a == b


def test_dimension_budget():
    with pytest.raises(DimensionBudgetError, match="budget"):
        build_rep((9, 0, -9), dim_budget=10)


def test_check_invariants_catches_every_single_entry_change():
    # every generator entry of an 8-dimensional model changed by one, in turn
    model = build_rep((1, 0, -1))
    for key, g in model.gen.items():
        for a in range(model.dim):
            for b in range(model.dim):
                changed = Matrix([row[:] for row in g.data])
                changed.data[a][b] += 1
                bad = replace(model, gen={**model.gen, key: changed})
                with pytest.raises(AssertionError):
                    bad.check_invariants()
