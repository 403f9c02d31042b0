from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlergrad import envalg
from kahlergrad.envalg import (
    BudgetExceededError,
    PBWElement,
    casimir_element,
    commutator,
    e_power,
    k_central,
    k_of_casimirs,
    pbw_normalize,
    tilde_e_power,
    verify_binomial_relations,
)
from kahlergrad.weights import casimir_eigenvalue


def k_eval(n: int, xs) -> F:
    """K_n at the point (x_1..x_n) by the library's recursion:
    K_0 = 1, K_q = -sum_{p<q} K_p x_{q-p}."""
    return envalg._k_series([-F(x) for x in xs[:n]], F(1))[n]


# the multinomial form of K_n, an oracle for the recursion of the library
def k_multi_indices(n: int):
    """All (i_1..i_n) multiplicity tuples with sum_p p*i_p = n, as dicts."""
    def rec(remaining, max_part):
        if remaining == 0:
            yield {}
            return
        for part in range(min(remaining, max_part), 0, -1):
            for count in range(remaining // part, 0, -1):
                for rest in rec(remaining - part * count, part - 1):
                    d = dict(rest)
                    d[part] = count
                    yield d
    yield from rec(n, n)


def k_eval_table(n: int, xs) -> F:
    """K_n from the explicit multinomial coefficient table."""
    if n == 0:
        return F(1)
    xs = [F(x) for x in xs]
    total = F(0)
    for d in k_multi_indices(n):
        s = sum(d.values())
        coeff = F(factorial(s))
        term = F(1)
        for p, cnt in d.items():
            coeff /= factorial(cnt)
            term *= (-xs[p - 1]) ** cnt
        total += coeff * term
    return total


def gen(m, k, l):
    return PBWElement.generator(m, k, l)


def test_pbw_normalize_swap():
    # e21 e12 = e12 e21 + e22 - e11
    got = pbw_normalize([(2, 1), (1, 2)], m=2)
    expected = gen(2, 1, 2) * gen(2, 2, 1)  # already ordered
    expected = pbw_normalize([(1, 2), (2, 1)], 2) + gen(2, 2, 2) - gen(2, 1, 1)
    assert got == expected


def test_pbw_normalize_ordered_word_is_fixed():
    got = pbw_normalize([(1, 2), (2, 1)], m=2)
    assert got.terms == {((1, 2), (2, 1)): F(1)}


def test_pbw_commutator_of_units():
    # [e11, e12] = e12
    assert commutator(gen(2, 1, 1), gen(2, 1, 2)) == gen(2, 1, 2)


def test_e_power_base_cases():
    assert e_power(1, 1, 0, 3) == PBWElement.one(3)
    assert e_power(1, 2, 0, 3) == PBWElement.zero(3)
    got = e_power(1, 1, 2, 2)
    assert got.terms == {((1, 1), (1, 1)): F(1), ((1, 2), (2, 1)): F(1)}
    c1 = casimir_element(1, 3)
    assert c1 == gen(3, 1, 1) + gen(3, 2, 2) + gen(3, 3, 3)


def test_involution_examples():
    assert gen(2, 1, 2).involution() == -gen(2, 2, 1)
    c1 = casimir_element(1, 2)
    assert c1.involution() == -c1
    x = pbw_normalize([(1, 2), (2, 1)], 2)
    assert x.involution().involution() == x


def test_tilde_e_power_examples():
    assert tilde_e_power(1, 2, 1, 2) == -gen(2, 2, 1)
    assert casimir_element(1, 3, "tilde") == -casimir_element(1, 3)
    # oracle: normalize the defining word list of the degree-2 element
    raw = PBWElement.zero(2)
    for i in (1, 2):
        raw = raw + pbw_normalize([(i, 1), (1, i)], 2)
    got = tilde_e_power(1, 1, 2, 2)
    assert got == raw
    assert got.terms == {
        ((1, 1), (1, 1)): F(1),
        ((1, 2), (2, 1)): F(1),
        ((2, 2),): F(1),
        ((1, 1),): F(-1),
    }


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tilde_equals_involution_of_e_power(m):
    for q in range(4):
        for k in range(1, m + 1):
            for l in range(1, m + 1):
                assert tilde_e_power(k, l, q, m) == e_power(k, l, q, m).involution()


@pytest.mark.parametrize("m", [2, 3])
def test_adjoint_action_on_families(m):
    # [e_ij, e_kl^q] = d_jk e_il^q - d_il e_kj^q, and the mirrored tilde law
    for q in range(4):
        for i, j, k, l in product(range(1, m + 1), repeat=4):
            lhs = commutator(gen(m, i, j), e_power(k, l, q, m))
            rhs = PBWElement.zero(m)
            if j == k:
                rhs = rhs + e_power(i, l, q, m)
            if i == l:
                rhs = rhs - e_power(k, j, q, m)
            assert lhs == rhs, (i, j, k, l, q)

            lhs = commutator(gen(m, i, j), tilde_e_power(k, l, q, m))
            rhs = PBWElement.zero(m)
            if j == l:
                rhs = rhs + tilde_e_power(k, i, q, m)
            if i == k:
                rhs = rhs - tilde_e_power(j, l, q, m)
            assert lhs == rhs, (i, j, k, l, q)


@pytest.mark.parametrize("m", [2, 3])
def test_composition_laws(m):
    for p in range(3):
        for q in range(3):
            if p + q > 4:
                continue
            for k in range(1, m + 1):
                for l in range(1, m + 1):
                    acc = PBWElement.zero(m)
                    acc_t = PBWElement.zero(m)
                    for i in range(1, m + 1):
                        acc = acc + e_power(k, i, p, m) * e_power(i, l, q, m)
                        acc_t = acc_t + tilde_e_power(k, i, p, m) * tilde_e_power(i, l, q, m)
                    assert acc == e_power(k, l, p + q, m)
                    assert acc_t == tilde_e_power(k, l, p + q, m)


@pytest.mark.parametrize("m", [2, 3])
def test_casimir_elements_central(m):
    for q in range(4):
        for variant in ("plain", "tilde"):
            c = casimir_element(q, m, variant)
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    assert commutator(gen(m, i, j), c).is_zero(), (q, variant, i, j)


def test_k_closed_forms():
    x = [F(2), F(-3), F(5)]
    assert k_eval(0, []) == 1
    assert k_eval(1, x[:1]) == -x[0]
    assert k_eval(2, x[:2]) == x[0] ** 2 - x[1]
    assert k_eval(3, x) == -x[0] ** 3 + 2 * x[0] * x[1] - x[2]
    assert k_eval(4, [0, 0, 0, 0]) == 0


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.lists(rationals, min_size=8, max_size=8))
def test_k_recursion_matches_table(n, xs):
    assert k_eval(n, xs[:n]) == k_eval_table(n, xs[:n])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.lists(rationals, min_size=8, max_size=8))
def test_k_sign_symmetry(n, xs):
    flipped = [x if i % 2 == 0 else -x for i, x in enumerate(xs)]
    negated = [-x for x in xs]
    assert k_eval(n, flipped[:n]) == (-1) ** n * k_eval(n, negated[:n])


def test_k_central_small():
    # K_2 over the Casimir family is c_0^2 + c_1 with c_0 = m
    for m in (2, 3):
        expected = PBWElement.scalar(m, m * m) + casimir_element(1, m)
        assert k_central(2, m) == expected
    # K_3: c_0^3 + 2 c_0 c_1 + c_2
    m = 2
    expected = (
        PBWElement.scalar(m, m ** 3)
        + casimir_element(1, m).scale(2 * m)
        + casimir_element(2, m)
    )
    assert k_central(3, m) == expected


@pytest.mark.parametrize("variant", ["plain", "tilde"])
@pytest.mark.parametrize("m", [2, 3])
def test_k_central_matches_multinomial_formula(m, variant):
    # K_n(-c) = sum over the multiplicities i_p with sum_p p*i_p = n of
    # s!/prod_p i_p! * prod_p c_{p-1}^(i_p), s = sum_p i_p, written out here
    # from casimir_element products alone
    cas = [casimir_element(p, m, variant) for p in range(4)]
    for n in range(5):
        expected = PBWElement.zero(m)
        for d in k_multi_indices(n):
            coeff = F(factorial(sum(d.values())))
            term = PBWElement.one(m)
            for p, cnt in d.items():
                coeff /= factorial(cnt)
                for _ in range(cnt):
                    term = term * cas[p - 1]
            expected = expected + term.scale(coeff)
        assert k_central(n, m, variant) == expected
    with pytest.raises(ValueError):
        k_central(-1, m, variant)


def _k_central_per_element(n, m, variant, budget=None):
    """K_n(-c) by its recursion, with each c_p built by its own casimir_element call."""
    cs = [casimir_element(p, m, variant, budget) for p in range(n)]
    ks = [PBWElement.one(m)]
    for q in range(1, n + 1):
        total = PBWElement.zero(m)
        for p in range(q):
            total = total + ks[p] * cs[q - p - 1]
        ks.append(total)
    return ks[n]


@pytest.mark.parametrize("variant", ["plain", "tilde"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_k_central_matches_the_per_element_form(m, variant):
    for n in range(6):
        assert k_central(n, m, variant) == _k_central_per_element(n, m, variant), n
    # over budget, both name the same first element: degree p needs m^(p-1)
    # words, so each budget below stops at another degree
    for budget in sorted({0, m - 1, m * m - 1, m ** 3 - 1}):
        messages = []
        for build in (k_central, _k_central_per_element):
            with pytest.raises(BudgetExceededError) as exc:
                build(5, m, variant, budget)
            messages.append(str(exc.value))
        assert messages[0] == messages[1], budget


def test_k_of_casimirs_matches_scalars():
    for rho in [(1, 0), (2, 1), (1, 0, 0)]:
        m = len(rho)
        for n in range(4):
            cs = [casimir_eigenvalue(rho, p) for p in range(max(n, 1))]
            assert k_of_casimirs(n, rho) == k_eval(n, [-c for c in cs])


@pytest.mark.parametrize("m", [2, 3])
def test_coefficient_recursion_matches_k_central(m):
    # a_{0,0} = 1, a_{q,0} = -sum_{p<q} a_{p,0} x_{q-p} with
    # x_j = (-1)^(j-1) c_{j-1}; then a_{n,0} = (-1)^n K_n(-c)
    def x(j):
        return casimir_element(j - 1, m).scale(F(-1) ** (j - 1))

    a = [PBWElement.one(m)]
    for q in range(1, 5):
        acc = PBWElement.zero(m)
        for p in range(q):
            acc = acc + a[p] * x(q - p)
        a.append(acc.scale(-1))
    for n in range(5):
        assert a[n] == k_central(n, m).scale(F(-1) ** n)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        e_power(1, 1, 9, 3, budget=100)
    # explicit budget generous enough succeeds
    assert not e_power(1, 1, 3, 3, budget=100).is_zero()


def _path_sum_oracle(k, l, q, m, tilde):
    """The defining sum over index paths, one word at a time."""
    total = PBWElement.zero(m)
    for mid in product(range(1, m + 1), repeat=q - 1):
        seq = (k,) + mid + (l,)
        if tilde:
            word = [(seq[i + 1], seq[i]) for i in range(q)]
            total = total + pbw_normalize(word, m, F(-1) ** q)
        else:
            total = total + pbw_normalize([(seq[i], seq[i + 1]) for i in range(q)], m)
    return total


@pytest.mark.parametrize("m,q_max", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_degree_recursion_matches_path_sums(m, q_max):
    for q in range(1, q_max + 1):
        for k, l in product(range(1, m + 1), repeat=2):
            assert e_power(k, l, q, m) == _path_sum_oracle(k, l, q, m, False), (k, l, q)
            assert tilde_e_power(k, l, q, m) == _path_sum_oracle(k, l, q, m, True), (k, l, q)


def test_normal_forms_share_generator_tuples():
    m = 3
    for build in (e_power, tilde_e_power):
        x = build(1, 2, 4, m)
        assert x.degree() == 4
        ids = {id(g) for w in x.terms for g in w}
        assert len(ids) <= m * m


def test_binomial_report_order():
    # the loop nest the report follows: degree outermost, then the tags
    expected = []
    m, q_max = 3, 3
    pairs = list(product(range(1, m + 1), repeat=2))
    for q in range(q_max + 1):
        for k, l in pairs:
            for tag in ("binomial-tilde-to-plain", "binomial-plain-to-tilde"):
                expected.append((tag, {"m": m, "q": q, "k": k, "l": l}))
        for tag in ("casimir-binomial-tilde", "casimir-binomial-plain"):
            expected.append((tag, {"m": m, "q": q}))
        for k, l in pairs:
            expected.append(("solved-tilde-elements", {"m": m, "q": q, "k": k, "l": l}))
        expected.append(("solved-tilde-casimir", {"m": m, "q": q}))
    rep = verify_binomial_relations(m, q_max)
    got = [(it.tag, it.params) for it in rep.items]
    assert got == expected
    assert [list(p) for _, p in got] == [list(p) for _, p in expected]
    assert rep.passed


def test_binomial_budget_message():
    with pytest.raises(BudgetExceededError) as exc:
        verify_binomial_relations(3, 4, budget=20)
    assert str(exc.value) == (
        "e_power(1,1,4) at rank 3 needs 27 words, exceeding the term budget 20"
    )


def test_budget_guard_names_the_first_degree_over_budget():
    # the verifier stops at the first degree whose words exceed the budget;
    # a single element names the degree asked for
    messages = []
    for build in (lambda: verify_binomial_relations(3, 6, budget=20),
                  lambda: e_power(1, 2, 9, 3, budget=100),
                  lambda: casimir_element(5, 3, "tilde", budget=10)):
        with pytest.raises(BudgetExceededError) as exc:
            build()
        messages.append(str(exc.value))
    assert messages == [
        "e_power(1,1,4) at rank 3 needs 27 words, exceeding the term budget 20",
        "e_power(1,2,9) at rank 3 needs 6561 words, exceeding the term budget 100",
        "tilde_e_power(1,1,5) at rank 3 needs 81 words, exceeding the term budget 10",
    ]


def test_budget_from_environment(monkeypatch):
    from kahlergrad.envalg import term_budget

    monkeypatch.setenv("KAHLERGRAD_BUDGET", "123")
    assert term_budget() == 123
    assert term_budget(7) == 7  # explicit argument wins
    monkeypatch.setenv("KAHLERGRAD_BUDGET", "junk")
    with pytest.raises(ValueError):
        term_budget()
    monkeypatch.delenv("KAHLERGRAD_BUDGET")
    assert term_budget() == 10_000_000


def test_verify_binomial_relations_smoke():
    rep = verify_binomial_relations(2, 2)
    assert rep.passed
    assert rep.counts()["pass"] > 0


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        gen(2, 1, 2) + gen(3, 1, 2)
    with pytest.raises(ValueError):
        PBWElement.generator(2, 3, 1)


def test_unsorted_monomial_rejected():
    with pytest.raises(ValueError, match="normal ordered"):
        PBWElement(2, {((2, 1), (1, 2)): F(1)})


def test_binomial_relations_reject_a_wrong_shift(monkeypatch):
    # C(2,1)(-m) one too large breaks every degree-2 item that reads it: the
    # two binomial sums, the solved coefficients and the three trace forms
    real = envalg.binomial_shift

    def wrong(q, p, m):
        return real(q, p, m) + (1 if (q, p) == (2, 1) else 0)

    monkeypatch.setattr(envalg, "binomial_shift", wrong)
    rep = verify_binomial_relations(3, 3)
    failed = [it for it in rep.items if it.status == "fail"]
    assert len(failed) == 30
    assert {it.params["q"] for it in failed} == {2}
    assert Counter(it.tag for it in failed) == {
        "binomial-tilde-to-plain": 9,
        "binomial-plain-to-tilde": 9,
        "solved-tilde-elements": 9,
        "casimir-binomial-tilde": 1,
        "casimir-binomial-plain": 1,
        "solved-tilde-casimir": 1,
    }
    assert all(it.witness for it in failed)
    assert all(it.status == "pass" for it in rep.items if it.status != "fail")
    assert len(rep.items) == 4 * (3 * 9 + 3)


def test_integral_coefficients_are_ints():
    m = 3
    built = [e_power(1, 2, 4, m), tilde_e_power(2, 2, 3, m), casimir_element(3, m, "tilde"),
             k_central(3, m), pbw_normalize([(3, 1), (1, 2), (2, 3)], m, F(4, 2)),
             gen(m, 2, 1) * gen(m, 1, 2), PBWElement.scalar(m, F(6, 3)),
             e_power(2, 1, 2, m).scale(F(-6, 2)), e_power(3, 1, 2, m).involution()]
    for x in built:
        assert x.terms and all(type(c) is int for c in x.terms.values()), x


def test_non_integral_scalars_give_exact_fractions():
    x = e_power(1, 2, 3, 3)
    half = x.scale(F(1, 2))
    assert half.terms == {w: F(c, 2) for w, c in x.terms.items()}
    assert all(type(c) is F for c in half.terms.values())
    assert half.scale(2) == x
    word = [(2, 1), (1, 2)]
    third = pbw_normalize(word, 2, F(1, 3))
    assert third.terms == {((1, 2), (2, 1)): F(1, 3), ((2, 2),): F(1, 3), ((1, 1),): F(-1, 3)}
    assert all(type(c) is F for c in third.terms.values())
    assert third.scale(3) == pbw_normalize(word, 2)


def test_int_and_fraction_coefficients_agree():
    # repr is the witness text of a failed item, so it must not tell the
    # two coefficient types apart
    terms = {(): 5, ((1, 1),): -2, ((1, 2), (2, 1)): 1, ((2, 2), (2, 2)): 12}
    as_ints = PBWElement(2, terms)
    as_fractions = PBWElement(2, {w: F(c) for w, c in terms.items()})
    assert as_ints == as_fractions
    assert repr(as_ints) == repr(as_fractions)
    assert repr(as_ints) == "(5)*1 + (-2)*e[1,1] + (1)*e[1,2]*e[2,1] + (12)*e[2,2]*e[2,2]"
    assert as_ints * as_ints == as_fractions * as_fractions
    assert repr(as_ints - as_fractions.scale(F(1, 2))) == repr(as_fractions.scale(F(1, 2)))
