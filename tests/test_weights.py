from fractions import Fraction as F

import pytest

from kahlergrad import gt_patterns
from kahlergrad.weights import (
    HighestWeight,
    casimir_eigenvalue,
    casimir_quadratic_closed_form,
    conformal_table,
    dominant_weights,
    is_dominant,
    shift,
    transpose_weight,
    weyl_dimension,
)


def test_is_dominant():
    assert is_dominant((1, 0, 0))
    assert is_dominant((0, 0, -1))
    assert not is_dominant((0, 1))
    with pytest.raises(ValueError):
        is_dominant(())


def test_shift():
    assert shift((1, 0, 0), "+", 2) == HighestWeight((1, 1, 0))
    assert shift((1, 0, 0), "+", 3) is None
    assert shift((1, 0, 0), "-", 2) is None
    with pytest.raises(ValueError):
        shift((1, 0, 0), "+", 4)
    with pytest.raises(ValueError, match="sign must be"):
        shift((1, 0), "x", 1)


def test_conformal_table_examples():
    t = conformal_table((1, 0, 0), "+")
    assert t.w == (-1, 1, 2)
    assert t.gamma == (F(2), F(1), F(0))
    assert t.valid == (True, True, False)

    t = conformal_table((1, 0, 0), "-")
    assert t.w == (3, 1, 0)
    assert t.gamma == (F(1, 3), F(0), F(8, 3))

    t = conformal_table((0, 0), "+")
    assert t.w == (0, 1)
    assert t.gamma == (F(2), F(0))


@pytest.mark.parametrize("m", range(2, 7))
def test_exterior_family_closed_forms(m):
    # the four closed-form rows, whenever the row's index exists
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


def test_casimir_examples():
    # oracle: closed form sum rho^i (rho^i + m - 2i + 1), plus brute-force
    # matrix checks in test_gtrep
    assert casimir_eigenvalue((1, 0), 2) == casimir_quadratic_closed_form((1, 0)) == 2
    assert casimir_eigenvalue((2, 1), 2) == casimir_quadratic_closed_form((2, 1)) == 6
    assert casimir_eigenvalue((1, 0, 0), 0) == 3
    assert casimir_eigenvalue((1, 0, 0), 0, "tilde") == 3
    assert casimir_eigenvalue((1, 0, 0), 1, "tilde") == -1
    with pytest.raises(ValueError):
        casimir_eigenvalue((1, 0), -1)
    with pytest.raises(ValueError):
        casimir_eigenvalue((1, 0), 2, "weird")


def test_transpose_weight():
    assert transpose_weight((1, 0, 0)) == HighestWeight((0, 0, -1))
    assert transpose_weight((3, 3)) == HighestWeight((-3, -3))
    assert transpose_weight((2, 1)) == HighestWeight((-1, -2))


def test_weyl_dimension_against_pattern_count():
    for rho in [(1, 0), (1, 1, 0), (2, 0), (2, 1, 0), (1, 0, -1), (2, 2, 2)]:
        assert weyl_dimension(rho) == len(gt_patterns(rho))
    assert weyl_dimension((1, 0)) == 2
    assert weyl_dimension((1, 1, 0)) == 3
    assert weyl_dimension((4, 4, 4)) == 1


@pytest.mark.parametrize("m", range(1, 7))
def test_gamma_sums_and_first_moment(m):
    for rho in dominant_weights(m, 3):
        tm = conformal_table(rho, "-")
        tp = conformal_table(rho, "+")
        assert sum(tm.gamma) == m
        assert sum(tp.gamma) == m
        assert sum(F(w) * g for w, g in zip(tm.w, tm.gamma)) == sum(rho.entries)


@pytest.mark.parametrize("m", range(1, 5))
def test_gamma_vanishing_iff_invalid_shift(m):
    for rho in dominant_weights(m, 3):
        for sign in "+-":
            tab = conformal_table(rho, sign)
            for i in range(1, m + 1):
                assert (tab.gamma[i - 1] == 0) == (shift(rho, sign, i) is None)


@pytest.mark.parametrize("m", range(1, 5))
def test_contragredient_casimir_identity(m):
    for rho in dominant_weights(m, 2):
        tr = transpose_weight(rho)
        for q in range(2 * m + 1):
            assert casimir_eigenvalue(tr, q, "plain") == casimir_eigenvalue(
                rho, q, "tilde"
            )


@pytest.mark.parametrize("m", range(1, 5))
def test_tensor_dimension_count(m):
    for rho in dominant_weights(m, 2):
        for sign in "+-":
            total = 0
            for i in range(1, m + 1):
                s = shift(rho, sign, i)
                if s is not None:
                    total += weyl_dimension(s)
            assert total == m * weyl_dimension(rho)


def test_highest_weight_validation():
    with pytest.raises(ValueError):
        HighestWeight((0, 1))
    rho = HighestWeight.coerce([2, 1])
    assert rho.m == 2 and tuple(rho) == (2, 1)
