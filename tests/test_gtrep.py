import hashlib
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from kahlergrad import gtrep
from kahlergrad.envalg import PBWElement, casimir_element, e_power
from kahlergrad.gtrep import (
    DimensionBudgetError,
    block_powers,
    build_rep,
    casimir_matrices,
    casimir_matrix,
    e_power_matrix,
    gt_patterns,
    invariant_gram,
)
from kahlergrad.linalg import Matrix, gram_adjoint, linear_combination
from kahlergrad.weights import (
    casimir_eigenvalue,
    casimir_quadratic_closed_form,
    dominant_weights,
    transpose_weight,
    weyl_dimension,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


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


def test_patterns_are_row_tuples():
    pats = gt_patterns((1, 0))
    assert pats == [((1,), (1, 0)), ((0,), (1, 0))]  # highest-weight pattern first
    # the weight of a pattern: the differences of its row sums, bottom-up
    assert [(p[0][0], sum(p[1]) - p[0][0]) for p in pats] == [(1, 0), (0, 1)]


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
    gram = invariant_gram(gt_patterns((2, 0)))
    assert gram == rep.gram
    # by hand: l_21 = 1 and l_22 = -2, so the pattern with lambda_11 = a has
    # norm (2 - a)! 2! / (0! a!), which is 1, 2 and 4 for a = 2, 1, 0
    assert gram.diagonal_entries() == [1, 2, 4]


def test_gram_forms_match_their_pins():
    # SHA-256 of repr(gram.diagonal_entries()) for every module of m = 2..4
    # at bound 2 and m = 5 at bound 1, and (3, 1, -1, -3) of dimension 729,
    # taken from a solver that shares no code with the norm formula
    pinned = json.loads((GOLDEN / "gram_sha256.json").read_text())
    assert len(pinned) == 142
    drifted = []
    for text, digest in pinned.items():
        gram = build_rep(tuple(map(int, text.split(",")))).gram
        if hashlib.sha256(repr(gram.diagonal_entries()).encode()).hexdigest() != digest:
            drifted.append(text)
    assert drifted == []


def _norms_without_second_pair(pats):
    """The norm formula of `invariant_gram` without its second factorial pair."""
    norms = []
    for p in pats:
        rows = [[x - i for i, x in enumerate(row, 1)] for row in p]
        num = den = 1
        for low, high in zip(rows, rows[1:]):
            for i, j in itertools.combinations_with_replacement(range(len(low)), 2):
                num *= math.factorial(high[i] - low[j])
                den *= math.factorial(low[i] - low[j])
        norms.append(F(num, den))
    return Matrix.diagonal(norms)


@pytest.mark.parametrize("wrong", [lambda pats: Matrix.identity(len(pats)),
                                   _norms_without_second_pair], ids=["all-one", "first-pair"])
def test_build_rep_rejects_a_wrong_norm_formula(monkeypatch, wrong):
    # build_rep reads the module global, so a wrong formula meets the one
    # adjoint check; where every norm is 1 it cannot be told apart
    monkeypatch.setattr(gtrep, "invariant_gram", wrong)
    assert build_rep((1, 0)).gram == Matrix.identity(2)
    assert build_rep((1, 1, 0)).gram == Matrix.identity(3)
    for rho in [(2, 0), (1, 0, -1)]:
        with pytest.raises(AssertionError, match=r"unitarity fails at \(1, 2\)"):
            build_rep(rho)


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
    # E_21 lowers the highest-weight vector 0 to x; with one side of that
    # edge zeroed and the intact Gram form, the one adjoint check fails
    model = build_rep((2, 1, 0))
    x = next(x for x in range(model.dim) if model.gen[(2, 1)][x, 0])
    key, a, b = ((1, 2), 0, x) if zeroed == "raising" else ((2, 1), x, 0)
    changed = Matrix([row[:] for row in model.gen[key].data])
    changed.data[a][b] = F(0)
    with pytest.raises(AssertionError, match="unitarity"):
        replace(model, gen={**model.gen, key: changed}).check_invariants()


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
    n, keys = rep.dim, range(1, 4)
    for variant in ("plain", "tilde"):
        for q, power in enumerate(block_powers(rep, 3, variant)):
            assert e_power_matrix(rep, q, variant) == {
                (k, l): power.submatrix(range((k - 1) * n, k * n), range((l - 1) * n, l * n))
                for k in keys for l in keys}, (variant, q)
    with pytest.raises(ValueError):
        e_power_matrix(rep, -1)
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


def _changed(g: Matrix, a: int, b: int, by) -> Matrix:
    """A copy of g with entry (a, b) changed by ``by``."""
    changed = Matrix([row[:] for row in g.data])
    changed.data[a][b] += by
    return changed


def _mirror_class_rejects(model) -> bool:
    """The oracle: the build check that the Serre presentation replaced.
    Diagonal and trace checks, unitarity per pair k < l, then the relation
    [e_ij, e_kl] = d_jk e_il - d_li e_kj at the least pair of each class
    {{(i,j), (k,l)}, {(l,k), (j,i)}}: 66 relations at m = 4.  True when any
    of them is broken."""
    m, n, gen = model.m, model.dim, model.gen
    keys = range(1, m + 1)
    if not all(gen[(k, k)].is_diagonal() for k in keys):
        return True
    total = linear_combination([(1, gen[(k, k)]) for k in keys], n, n)
    if total != Matrix.identity(n).scale(sum(model.rho.entries)):
        return True
    if any(gram_adjoint(gen[(k, l)], model.gram, model.gram) != gen[(l, k)]
           for k, l in itertools.combinations(keys, 2)):
        return True
    for (i, j), (k, l) in itertools.combinations(itertools.product(keys, repeat=2), 2):
        if sorted([(l, k), (j, i)]) < [(i, j), (k, l)]:
            continue
        terms = [(1, gen[(i, j)] * gen[(k, l)]), (-1, gen[(k, l)] * gen[(i, j)])]
        if j == k:
            terms.append((-1, gen[(i, l)]))
        if l == i:
            terms.append((1, gen[(k, j)]))
        if not linear_combination(terms, n, n).is_zero():
            return True
    return False


def _agrees_with_the_oracle(model, match: str = "") -> bool:
    """check_invariants raises (with ``match`` in its message) exactly when
    the mirror-class oracle finds a broken relation; returns whether it did."""
    try:
        model.check_invariants()
    except AssertionError as exc:
        assert _mirror_class_rejects(model), exc
        assert match in str(exc)
        return True
    assert not _mirror_class_rejects(model)
    return False


def test_check_invariants_catches_every_single_entry_change():
    # every generator entry of an 8- and a 15-dimensional model changed by
    # one, in turn
    for rho in [(1, 0, -1), (1, 0, 0, -1)]:
        model = build_rep(rho)
        for key, g in model.gen.items():
            for a in range(model.dim):
                for b in range(model.dim):
                    bad = replace(model, gen={**model.gen, key: _changed(g, a, b, 1)})
                    assert _agrees_with_the_oracle(bad)


@pytest.mark.parametrize("rho, sample", [((1, 0, -1), None), ((2, 1, 0), None),
                                         ((1, 0, 0, -1), 1000)])
def test_check_invariants_catches_adjoint_consistent_changes(rho, sample):
    # e_kl[a,b] changed by 1 and e_lk[b,a] by G_a / G_b keep e_kl* = e_lk, so
    # only the checks after the unitarity check can see the change
    model = build_rep(rho)
    g = model.gram.diagonal_entries()
    units = [(k, l) for k in range(1, model.m + 1) for l in range(1, model.m + 1) if k != l]
    cases = list(itertools.product(units, range(model.dim), range(model.dim)))
    if sample:
        cases = random.Random(0).sample(cases, sample)
    for (k, l), a, b in cases:
        gen = {**model.gen, (k, l): _changed(model.gen[(k, l)], a, b, 1),
               (l, k): _changed(model.gen[(l, k)], b, a, g[a] / g[b])}
        assert _agrees_with_the_oracle(replace(model, gen=gen), "commutation")


@pytest.mark.parametrize("rho", [(1, 0, -1), (2, 1, -1), (1, 0, 0, -1), (1, 1, 0, 0),
                                 (2, 2, 2, 2)])
def test_check_invariants_catches_a_changed_non_simple_unit(rho):
    # a non-simple unit e_kl replaced, and e_lk with it by its Gram adjoint:
    # unitarity holds, and the closure rejects every replacement that changes
    # e_kl; on the one-dimensional module e_kl is 0, so 2 e_kl, -e_kl and 0
    # change nothing
    model = build_rep(rho)
    m, n = model.m, model.dim
    for k, l in itertools.combinations(range(1, m + 1), 2):
        if l - k < 2:
            continue
        e = model.gen[(k, l)]
        changes = [e.scale(2), -e, Matrix.zeros(n, n)]
        changes += [_changed(e, r, c, 1) for r, c, _ in e.nonzero_entries()]
        changes += [_changed(e, r, c, 1) for r in range(n) for c in range(n)
                    if not e[r, c] and (r + c) % 3 == 0]
        for x in changes:
            gen = {**model.gen, (k, l): x, (l, k): gram_adjoint(x, model.gram, model.gram)}
            assert _agrees_with_the_oracle(replace(model, gen=gen), "commutation") == (x != e)


@pytest.mark.parametrize("rho", [(2, 0), (1, 0, -1), (2, 1, 0), (1, 0, 0, -1)])
def test_check_invariants_catches_a_changed_simple_unit(rho):
    # e_k[a,b] changed by 1 at a stored entry, f_k[b,a] by G_a / G_b, and
    # the non-simple units rebuilt from them as build_rep builds them: the
    # weights, unitarity and closure hold, as after a transcription error in
    # both ladder formulas, and only [e_k, f_l] and Serre can see the change
    model = build_rep(rho)
    m, g = model.m, model.gram.diagonal_entries()
    for k in range(1, m):
        for a, b, _ in model.gen[(k, k + 1)].nonzero_entries():
            gen = {**model.gen, (k, k + 1): _changed(model.gen[(k, k + 1)], a, b, 1),
                   (k + 1, k): _changed(model.gen[(k + 1, k)], b, a, g[a] / g[b])}
            for d in range(2, m):
                for i in range(1, m + 1 - d):
                    j = i + d
                    x, y = gen[(i, j - 1)], gen[(j - 1, j)]
                    gen[(i, j)] = x * y - y * x
                    gen[(j, i)] = gram_adjoint(gen[(i, j)], model.gram, model.gram)
            assert _agrees_with_the_oracle(replace(model, gen=gen), "commutation")


@pytest.mark.parametrize("rho", [(1, 0), (2, 0), (3, 1)])
def test_check_invariants_reads_the_weights(rho):
    # e = 2 e_12 and f = 2 e_21 with h = [e, f] and e_11, e_22 = (|rho| +- h) / 2
    # keep the diagonal, trace, unitarity and [e, f] = e_11 - e_22 checks;
    # only the weights see that [e_11, e] = 4 e, not e
    model = build_rep(rho)
    n, size = model.dim, sum(rho)
    e, f = model.gen[(1, 2)].scale(2), model.gen[(2, 1)].scale(2)
    h = e * f - f * e
    one = Matrix.identity(n).scale(size)
    gen = {(1, 1): (one + h).scale(F(1, 2)), (2, 2): (one - h).scale(F(1, 2)),
           (1, 2): e, (2, 1): f}
    assert _agrees_with_the_oracle(replace(model, gen=gen), "commutation fails at the weight")


@pytest.mark.parametrize("rho", [(1, 0, -1), (1, 0, 0, -1)])
def test_check_invariants_accepts_a_rescaled_basis(rho):
    # basis vector a scaled by t: every e_kl becomes T^-1 e_kl T and G
    # becomes T G T, another model of the same module, which both checks accept
    model = build_rep(rho)
    for a in range(model.dim):
        t = [F(1)] * model.dim
        t[a] = F(3, 2)
        scale, unscale = Matrix.diagonal(t), Matrix.diagonal([1 / x for x in t])
        gen = {key: unscale * e * scale for key, e in model.gen.items()}
        gram = Matrix.diagonal([x * x * y for x, y in zip(t, model.gram.diagonal_entries())])
        assert not _agrees_with_the_oracle(replace(model, gen=gen, gram=gram))


@pytest.mark.parametrize("rho, products, comparisons", [
    ((1, 0), 2, 1), ((1, 0, -1), 12, 3 + 3), ((1, 0, 0, -1), 28, 6 + 8),
    ((1, 0, 0, 0, 0), 50, 10 + 15)])
def test_check_invariants_forms_two_products_per_serre_relation(monkeypatch, rho, products,
                                                                comparisons):
    # two products per relation: [e_k, f_l] for k <= l (1, 3, 6 and 10 at
    # m = 2..5), the Serre relations of the raising units (0, 2, 5 and 9) and
    # the closure of the non-simple ones (0, 1, 3 and 6); a matrix comparison
    # per unitarity pair k < l and per relation with no right-hand side
    model = build_rep(rho)
    products_made, compared = [], []
    matmul, eq = Matrix.matmul, Matrix.__eq__
    monkeypatch.setattr(Matrix, "matmul", lambda a, b: products_made.append(1) or matmul(a, b))
    monkeypatch.setattr(Matrix, "__eq__", lambda a, b: compared.append(1) or eq(a, b))
    model.check_invariants()
    assert (len(products_made), len(compared)) == (products, comparisons)


def test_build_rep_forms_the_lowering_units_as_adjoints(monkeypatch):
    # at m = 4 the three non-simple raising units take two products each,
    # and their lowering units one Gram adjoint each, beside the check
    products_made = []
    matmul = Matrix.matmul
    monkeypatch.setattr(Matrix, "matmul", lambda a, b: products_made.append(1) or matmul(a, b))
    monkeypatch.setattr(gtrep.Representation, "check_invariants", lambda self: None)
    model = build_rep((1, 0, 0, -1))
    assert len(products_made) == 6
    for k, l in itertools.combinations(range(1, 5), 2):
        assert gram_adjoint(model.gen[(k, l)], model.gram, model.gram) == model.gen[(l, k)]


@pytest.mark.parametrize("rho", [(1, 0, -1), (2, 0, 0, -1)])
def test_casimir_matrices_form_half_the_full_powers(monkeypatch, rho):
    # degree q forms the full block powers up to h = ceil(q/2), h - 1
    # products, and each c_p, p > h, as the block trace of P^h P^(p-h)
    model = build_rep(rho)
    n = model.dim
    for variant in ("plain", "tilde"):
        whole = [p.block_trace(n) for p in block_powers(model, 7, variant)]
        for q in range(8):
            calls = Counter()
            matmul, btp = Matrix.matmul, Matrix.block_trace_product
            monkeypatch.setattr(Matrix, "matmul",
                                lambda a, b: calls.update(["full"]) or matmul(a, b))
            monkeypatch.setattr(Matrix, "block_trace_product",
                                lambda a, b, n: calls.update(["traced"]) or btp(a, b, n))
            got = casimir_matrices(model, q, variant)
            monkeypatch.undo()
            h = (q + 1) // 2
            assert (calls["full"], calls["traced"]) == (max(h - 1, 0), q - h), q
            assert got == whole[:q + 1]
    with pytest.raises(ValueError, match="nonnegative"):
        casimir_matrices(model, -1)


def _complete_symmetric(k: int, m: int) -> dict:
    """h_k(x_1..x_m) as {exponent tuple: 1}; zero for k < 0."""
    if k < 0:
        return {}
    if m == 1:
        return {(k,): 1}
    return {(a,) + rest: 1 for a in range(k + 1)
            for rest in _complete_symmetric(k - a, m - 1)}


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _jacobi_trudi(partition) -> dict:
    """s_lambda = det(h_{lambda_i - i + j}), expanded over the permutations."""
    m = len(partition)
    total = {}
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[a] > perm[b] for a in range(m) for b in range(a + 1, m))
        term = {(0,) * m: (-1) ** inversions}
        for i, j in enumerate(perm):
            term = _poly_mul(term, _complete_symmetric(partition[i] - i + j, m))
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


@pytest.mark.parametrize("m,bound", [(2, 3), (3, 2), (4, 1)])
def test_weight_multiplicities_match_jacobi_trudi(m, bound):
    # an oracle independent of the patterns: the character of the module
    # rho - rho_m is the Schur polynomial, whose monomial coefficients are
    # the multiplicities of the diagonal action of the e_kk
    for rho in dominant_weights(m, bound):
        rep = build_rep(rho)
        diagonals = [rep.gen[(k, k)].diagonal_entries() for k in range(1, m + 1)]
        found = Counter(tuple(int(x) - rho.entries[-1] for x in w) for w in zip(*diagonals))
        shifted = tuple(x - rho.entries[-1] for x in rho.entries)
        assert dict(found) == _jacobi_trudi(shifted), rho
