from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from kahlergrad.gtrep import _block
from kahlergrad.linalg import (
    ZERO,
    Matrix,
    SpectralCompletenessError,
    gram_adjoint,
    lagrange_coefficients,
    lagrange_projector,
    lagrange_projectors,
    linear_combination,
)


def test_gram_adjoint_identity():
    I = Matrix.identity(3)
    assert gram_adjoint(I, I, I) == I


def test_gram_adjoint_scalar():
    a = Matrix([[2]])
    gs = Matrix.diagonal([3])
    gt = Matrix.diagonal([5])
    assert gram_adjoint(a, gs, gt) == Matrix([[F(10, 3)]])


def test_gram_adjoint_transpose():
    a = Matrix([[1], [1]])
    assert gram_adjoint(a, Matrix.identity(1), Matrix.identity(2)) == Matrix([[1, 1]])


def test_gram_adjoint_involutive_with_swapped_grams():
    a = Matrix([[1, 2, 0], [0, 3, F(1, 2)]])
    gs = Matrix.diagonal([1, 2, 3])
    gt = Matrix.diagonal([F(1, 5), 7])
    assert gram_adjoint(gram_adjoint(a, gs, gt), gt, gs) == a


def test_gram_adjoint_rejects_bad_inputs():
    a = Matrix([[1, 2]])
    with pytest.raises(ValueError):
        gram_adjoint(a, Matrix.diagonal([1]), Matrix.diagonal([1]))
    with pytest.raises(ValueError):
        gram_adjoint(a, Matrix.diagonal([1, -1]), Matrix.diagonal([1]))
    with pytest.raises(ValueError):
        gram_adjoint(a, Matrix([[1, 1], [0, 1]]), Matrix.diagonal([1]))


@pytest.mark.parametrize("bad", [Matrix([[1, 0]]), Matrix([[1, 1], [0, 1]]),
                                 Matrix.diagonal([1, 0])])
def test_gram_adjoint_checks_a_distinct_target_form(bad):
    # a form passed as both source and target is checked once; a target form
    # that is another object is checked on its own
    a, good = Matrix([[1, 2], [0, 3]]), Matrix.diagonal([1, 2])
    with pytest.raises(ValueError, match="target gram"):
        gram_adjoint(a, good, bad)
    with pytest.raises(ValueError, match="source gram"):
        gram_adjoint(a, bad, bad)
    assert gram_adjoint(a, good, Matrix.diagonal([1, 2])) == gram_adjoint(a, good, good)


def test_lagrange_projector_diagonal():
    a = Matrix.diagonal([2, 0])
    assert lagrange_projector(a, [2, 0], 0) == Matrix.diagonal([1, 0])
    assert lagrange_projector(a, [2, 0], 1) == Matrix.diagonal([0, 1])


def test_lagrange_projector_upper_triangular():
    # hand check: (A - 3I) / (1 - 3)
    a = Matrix([[1, 1], [0, 3]])
    expected = Matrix([[1, F(-1, 2)], [0, 0]])
    assert lagrange_projector(a, [1, 3], 0) == expected


def test_lagrange_projector_errors():
    a = Matrix.diagonal([2, 0])
    with pytest.raises(ValueError, match="repeated"):
        lagrange_projector(a, [2, 2], 0)
    with pytest.raises(SpectralCompletenessError) as err:
        lagrange_projector(a, [2, 1], 0)
    assert err.value.residual is not None
    assert not err.value.residual.is_zero()


@pytest.mark.parametrize(
    "diag,conjugator",
    [
        ([1, 2, 3], [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
        ([F(1, 2), -2, 0], [[2, 0, 1], [1, 1, 0], [0, 1, 1]]),
        ([5, 5, -1], [[1, 2, 0], [0, 1, 0], [1, 0, 1]]),
    ],
)
def test_lagrange_projector_algebra(diag, conjugator):
    # conjugate a diagonal matrix by a unimodular integer matrix so the
    # spectrum is known exactly
    s = Matrix(conjugator)
    srref, pivots = s.rref()
    assert len(pivots) == 3
    # invert by Gauss-Jordan on [s | I]
    aug = Matrix([row[:] + ident[:] for row, ident in zip(s.data, Matrix.identity(3).data)])
    red, _ = aug.rref()
    sinv = Matrix([row[3:] for row in red.data])
    a = s * Matrix.diagonal(diag) * sinv
    lams = sorted(set(diag))
    projs = [lagrange_projector(a, lams, t) for t in range(len(lams))]
    total = Matrix.zeros(3, 3)
    for p in projs:
        assert p * p == p
        assert a * p == p * a
        total = total + p
    assert total == Matrix.identity(3)


def test_matrix_basics():
    a = Matrix([[1, 2], [3, 4]])
    assert (a - a).is_zero()
    assert a.scale(2) == Matrix([[2, 4], [6, 8]])
    k = Matrix([[1, 0], [0, 2]]).kron(Matrix([[0, 1], [1, 0]]))
    assert k == Matrix(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    )
    assert Matrix([[1, 2], [2, 4]]).rank() == 1
    with pytest.raises(ValueError):
        Matrix([[1], [2]]) * Matrix([[1], [2]])


# ---------------------------------------------------------------------------
# kernels against plain dense references
# ---------------------------------------------------------------------------

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SPARSE_ENTRY = st.one_of(st.just(0), SMALL)


def _dense(a):
    return [list(row) for row in a.data]


def _ref_mul(x, y):
    return [
        [sum((x[i][k] * y[k][j] for k in range(len(y))), F(0)) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def _ref_rref(rows):
    a = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


# pairwise coprime and large denominators, numerators of either sign
WIDE = st.one_of(SMALL, st.builds(
    F, st.integers(-10**20, 10**20),
    st.sampled_from([7, 11, 13, 2**31 - 1, 10**9 + 7, 3**40]),
))
WIDE_ENTRY = st.one_of(st.just(0), WIDE)
COEFF = st.one_of(st.sampled_from([0, 1, -1]), WIDE)


@st.composite
def sparse_matrices(draw, rows=None, cols=None, entries=SPARSE_ENTRY):
    """A sparse rational matrix, some of whose entries are then overwritten
    through ``.data`` with 0, Fraction(0) or a nonzero value."""
    r = draw(st.integers(1, 5)) if rows is None else rows
    c = draw(st.integers(1, 5)) if cols is None else cols
    a = Matrix(draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                             min_size=r, max_size=r)))
    for i, j, x in draw(st.lists(
        st.tuples(st.integers(0, r - 1), st.integers(0, c - 1),
                  st.one_of(st.sampled_from([0, F(0)]), SMALL.filter(bool))),
        max_size=3,
    )):
        a.data[i][j] = x
    return a


@st.composite
def same_shape_pairs(draw):
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(sparse_matrices(r, c)), draw(sparse_matrices(r, c))


@st.composite
def product_pairs(draw, entries=SPARSE_ENTRY):
    r, k, c = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(sparse_matrices(r, k, entries)), draw(sparse_matrices(k, c, entries))


@st.composite
def combinations(draw):
    """(terms, rows, cols): up to five (coefficient, matrix) pairs of one shape."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    terms = draw(st.lists(st.tuples(COEFF, sparse_matrices(r, c, WIDE_ENTRY)), max_size=5))
    return terms, r, c


def _stores_no_zero(a):
    """Every stored entry is a nonzero Fraction inside the shape, and the
    stored entries are exactly the nonzero entries of the dense view."""
    stored = a.nonzero_entries()
    dense = {(i, j): x for i, row in enumerate(a.data) for j, x in enumerate(row) if x != 0}
    return (all(type(x) is F and x != 0 for _, _, x in stored)
            and len(stored) == a.nonzero_count()
            and {(i, j): x for i, j, x in stored} == dense)


def test_constructors_store_no_zero():
    for a in (Matrix([[0, F(0)], [F(1, 2), 0]]), Matrix.zeros(2, 3),
              Matrix.identity(3), Matrix.diagonal([0, 2, F(0)]), Matrix([[0.0, "0/3"]])):
        assert _stores_no_zero(a)
    assert Matrix.zeros(2, 3).nonzero_entries() == []
    assert Matrix.diagonal([0, 2, F(0)]).nonzero_entries() == [(1, 1, F(2))]
    assert Matrix([[0, F(0)], [F(1, 2), 0]]).nonzero_entries() == [(1, 0, F(1, 2))]


def test_writes_store_no_zero():
    a = Matrix([[1, F(1, 2), 4], [3, 0, 5]])
    a.data[0][0] = 0
    a.data[0][1] = F(0)
    a.data[1][0] += -3  # cancels the entry
    a.data[1][1] = F(0)  # no entry there before
    a[0, 2] = F(0)
    a[1, 2] -= 5
    assert _stores_no_zero(a) and a.is_zero() and a.nonzero_count() == 0
    assert a == Matrix.zeros(2, 3) and a.is_diagonal()


def test_dense_view_reads_and_writes_the_storage():
    # the uses of .data outside the library: += writes, row[:] copies, len,
    # dense iteration, negative indices and IndexError
    a = Matrix.zeros(2, 3)
    a.data[0][2] += 2
    a.data[1][-3] += F(1, 2)
    a.data[0][2] += 1
    assert a.nonzero_entries() == [(0, 2, F(3)), (1, 0, F(1, 2))]
    assert a == Matrix([[0, 0, 3], [F(1, 2), 0, 0]])
    assert a.data == [[0, 0, 3], [F(1, 2), 0, 0]]
    row = a.data[-1]
    assert len(a.data) == 2 and len(row) == 3
    assert [x._numerator for x in row] == [1, 0, 0]
    assert list(row) == [F(1, 2), 0, 0] and all(type(x) is F for x in row)
    assert row == [F(1, 2), 0, 0] and row != [F(1, 2), 0, 1]
    assert type(row[:]) is list and row[:] == [F(1, 2), 0, 0] and row[1:] == [0, 0]
    assert row[-3] == a[-1, 0] == F(1, 2) and row[-1] == a[1, -1] == 0
    copy = Matrix([r[:] for r in a.data])
    copy.data[0][2] += -1
    assert copy[0, 2] == 2 and a[0, 2] == 3  # a copy shares no storage
    for bad in (3, -4):
        with pytest.raises(IndexError):
            row[bad]
        with pytest.raises(IndexError):
            row[bad] = 1
        with pytest.raises(IndexError):
            a[0, bad]
    for bad in (2, -3):
        with pytest.raises(IndexError):
            a.data[bad]
        with pytest.raises(IndexError):
            a[bad, 0] = 1
    assert a == Matrix([[0, 0, 3], [F(1, 2), 0, 0]])


@settings(max_examples=80, deadline=None)
@given(same_shape_pairs(), SMALL)
def test_elementwise_kernels_match_dense(pair, s):
    a, b = pair
    da, db = _dense(a), _dense(b)
    assert (a + b).data == [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]
    assert (a - b).data == [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]
    assert a.scale(s).data == [[s * x for x in row] for row in da]
    assert (-a).data == [[-x for x in row] for row in da]
    assert (a == b) == (da == db)
    assert a.is_zero() == all(x == 0 for row in da for x in row)
    assert a.nonzero_count() == sum(x != 0 for row in da for x in row)
    assert a.is_diagonal() == all(
        x == 0 for i, row in enumerate(da) for j, x in enumerate(row) if i != j
    )
    # the inputs are left as they were
    assert _dense(a) == da and _dense(b) == db


@settings(max_examples=80, deadline=None)
@given(product_pairs(), sparse_matrices())
def test_products_match_dense(pair, c):
    a, b = pair
    assert a.matmul(b).data == _ref_mul(_dense(a), _dense(b))
    assert a.kron(c).data == [
        [x * y for x in ra for y in rc] for ra in _dense(a) for rc in _dense(c)
    ]


@settings(max_examples=80, deadline=None)
@given(sparse_matrices())
def test_rref_matches_dense(a):
    red, pivots = a.rref()
    ref, ref_pivots = _ref_rref(_dense(a))
    assert red.data == ref and pivots == ref_pivots
    assert a.rank() == len(ref_pivots)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(), st.data())
def test_gram_adjoint_matches_dense(a, data):
    positive = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
    gs = data.draw(st.lists(positive, min_size=a.cols, max_size=a.cols))
    gt = data.draw(st.lists(positive, min_size=a.rows, max_size=a.rows))
    out = gram_adjoint(a, Matrix.diagonal(gs), Matrix.diagonal(gt))
    assert out.data == [
        [a.data[y][x] * gt[y] / gs[x] for y in range(a.rows)] for x in range(a.cols)
    ]


@settings(max_examples=60, deadline=None)
@given(same_shape_pairs(), product_pairs())
def test_kernels_keep_the_zero_convention(pair, prod):
    # no kernel stores a zero, whatever was written through .data before
    a, b = pair
    c, d = prod
    grams = [Matrix.diagonal([F(k + 1, 2) for k in range(n)]) for n in (a.rows, a.cols)]
    for out in (a + b, a - b, a - a, a.scale(3), a.scale(0), -a, c.matmul(d), a.kron(d),
                a.rref()[0], a.submatrix(range(a.rows - 1, -1, -1), range(0, a.cols, 2)),
                gram_adjoint(a, grams[1], grams[0]),
                linear_combination([(2, a), (-1, b), (F(1, 3), a)], a.rows, a.cols)):
        assert _stores_no_zero(out)


def _is_canonical(a):
    """The storage rules: integer numerators, none of them zero, over one
    positive denominator that shares no factor with all of them."""
    nums = [x for row in a._nums for x in row.values()]
    return (type(a._den) is int and a._den > 0 and all(type(x) is int and x for x in nums)
            and gcd(a._den, *nums) == 1)


@settings(max_examples=80, deadline=None)
@given(product_pairs(WIDE_ENTRY), sparse_matrices(entries=WIDE_ENTRY), COEFF, st.data())
def test_every_result_is_canonical(pair, c, s, data):
    a, b = pair
    n = data.draw(st.integers(1, 2))
    square = data.draw(sparse_matrices(2 * n, 2 * n, WIDE_ENTRY))
    positive = st.fractions(min_value=F(1, 4), max_value=6, max_denominator=6)
    grams = [Matrix.diagonal(data.draw(st.lists(positive, min_size=k, max_size=k)))
             for k in (a.cols, a.rows)]
    doubled = a.scale(2)
    results = [
        a.matmul(b), doubled.matmul(b.scale(F(1, 2))),
        a.kron(c), c.scale(s), c.scale(6), a - a, -doubled,
        linear_combination([(s, a), (F(1, 2), doubled), (-1, a)], a.rows, a.cols),
        Matrix.block([[a, doubled], [doubled.scale(F(1, 3)), a.scale(s)]]),
        square.block_transpose(n), square.scale(6).block_transpose(n),
        square.block_trace(n), square.scale(6).block_trace(n),
        square.block_trace_product(square, n), square.scale(6).block_trace_product(square, n),
        doubled.submatrix(range(a.rows), range(0, a.cols, 2)),
        a.rref()[0], doubled.rref()[0], gram_adjoint(doubled, *grams),
        Matrix.from_rows([{j: 2 * x for j, x in enumerate(row)} for row in a.data], a.cols),
        Matrix.diagonal([F(2, 3), 0, 4]), Matrix.identity(2), Matrix.zeros(2, 2),
    ]
    for out in results:
        assert _is_canonical(out) and _stores_no_zero(out)
    # the writer: each write, including one that drops the entry holding the
    # gcd at 1, leaves the storage canonical
    for i, j, x in data.draw(st.lists(
        st.tuples(st.integers(0, c.rows - 1), st.integers(0, c.cols - 1),
                  st.one_of(st.just(0), WIDE)), max_size=6,
    )):
        c[i, j] = x
        assert _is_canonical(c) and c[i, j] == x


@settings(max_examples=80, deadline=None)
@given(product_pairs(WIDE_ENTRY), st.data())
def test_equal_values_reached_two_ways_compare_equal(pair, data):
    a, b = pair
    c = data.draw(sparse_matrices(b.cols, data.draw(st.integers(1, 4)), WIDE_ENTRY))
    assert a.scale(F(2, 4)) == a.scale(F(1, 2))
    assert a.scale(6).scale(F(1, 6)) == a == a.scale(F(1, 3)).scale(3)
    assert (a * b) * c == a * (b * c)
    assert (a + a) - a == a and (a - a).scale(F(1, 7)) == Matrix.zeros(a.rows, a.cols)
    assert linear_combination([(F(1, 3), a), (F(2, 3), a)], a.rows, a.cols) == a
    assert Matrix(_dense(a)) == a == Matrix.block([[a, a.scale(3)]]).submatrix(
        range(a.rows), range(a.cols))
    # entry by entry through the writer, in reverse order, from a scaled copy
    rebuilt = a.scale(5)
    for i in reversed(range(a.rows)):
        for j in reversed(range(a.cols)):
            rebuilt[i, j] = a[i, j]
    assert rebuilt == a


def _ref_combination(terms, rows, cols):
    out = [[F(0)] * cols for _ in range(rows)]
    for c, a in terms:
        for i in range(rows):
            for j in range(cols):
                out[i][j] += F(c) * a.data[i][j]
    return out


@settings(max_examples=100, deadline=None)
@given(product_pairs(WIDE_ENTRY))
def test_integer_matmul_matches_dense(pair):
    a, b = pair
    before = _dense(a), _dense(b)
    out = a.matmul(b)
    assert out.data == _ref_mul(*before)
    assert _stores_no_zero(out)
    assert (_dense(a), _dense(b)) == before


@settings(max_examples=100, deadline=None)
@given(combinations())
def test_linear_combination_matches_dense(case):
    terms, r, c = case
    before = [_dense(a) for _, a in terms]
    out = linear_combination(terms, r, c)
    assert (out.rows, out.cols) == (r, c)
    assert out.data == _ref_combination(terms, r, c)
    assert _stores_no_zero(out)
    assert [_dense(a) for _, a in terms] == before


def test_linear_combination_edge_cases():
    assert linear_combination([], 2, 3).data == [[ZERO] * 3] * 2
    a = Matrix([[F(1, 3), 0], [F(-2, 7), F(5)]])
    cancelled = linear_combination([(1, a), (-1, a)], 2, 2)
    assert cancelled.data == [[ZERO] * 2] * 2 and cancelled.nonzero_entries() == []
    assert linear_combination([(0, a), (1, a)], 2, 2) == a
    assert linear_combination([(F(3, 2), a)], 2, 2) == a.scale(F(3, 2))
    # every term's shape is checked, even under a zero coefficient
    for terms in ([(1, a), (1, Matrix.zeros(2, 3))], [(0, Matrix.zeros(3, 2))]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            linear_combination(terms, 2, 2)
    with pytest.raises(ValueError):
        a + Matrix.zeros(2, 1)
    with pytest.raises(ValueError):
        a.matmul(Matrix.zeros(3, 2))


def test_scalar_predicate_tests_values():
    a = Matrix.identity(3).scale(F(1, 2))
    assert a.is_scalar()
    a.data[0][1] = F(0)
    assert a.is_scalar() and a.is_diagonal()
    a.data[2][2] = F(1, 3)
    assert not a.is_scalar()


@settings(max_examples=80, deadline=None)
@given(st.one_of(sparse_matrices(entries=WIDE_ENTRY),
                 product_pairs(WIDE_ENTRY).map(lambda pair: pair[0].matmul(pair[1]))))
def test_rref_matches_dense_wide(a):
    # wide entries and rank-deficient products, so the integer rows carry
    # large numerators and denominators through the content division
    red, pivots = a.rref()
    ref, ref_pivots = _ref_rref(_dense(a))
    assert red.data == ref and pivots == ref_pivots and _stores_no_zero(red)


@settings(max_examples=40, deadline=None)
@given(sparse_matrices(entries=WIDE_ENTRY))
def test_rref_leaves_its_input_alone(a):
    before = Matrix(_dense(a))
    red, _ = a.rref()
    assert a == before
    reduced = Matrix(_dense(red))
    # a write to either matrix must not show in the other: no row is shared
    for i in range(a.rows):
        for j in range(a.cols):
            red[i, j] = 7
    assert a == before
    for i in range(a.rows):
        for j in range(a.cols):
            a[i, j] = 5
    red, _ = before.rref()
    assert red == reduced


def test_lagrange_coefficients_interpolate_the_nodes():
    nodes = [F(-2), F(1, 3), F(0), F(5)]
    for t in range(len(nodes)):
        c = lagrange_coefficients(nodes, t)
        assert len(c) == len(nodes)
        for s, x in enumerate(nodes):
            assert sum(cd * x ** d for d, cd in enumerate(c)) == int(s == t)
    assert lagrange_coefficients([F(3)], 0) == [1]


# ---------------------------------------------------------------------------
# Lagrange projection from one power series against whole-matrix interpolation
# ---------------------------------------------------------------------------

def _ref_projector(a, lams, t):
    """Whole-matrix Lagrange interpolation on plain lists, and its residual."""
    n = len(a)
    eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    shift = lambda lam: [[a[i][j] - lam * eye[i][j] for j in range(n)] for i in range(n)]
    p = eye
    for j, lam in enumerate(lams):
        if j != t:
            p = [[x / (lams[t] - lam) for x in row] for row in _ref_mul(p, shift(lam))]
    return p, _ref_mul(p, shift(lams[t]))


@st.composite
def permuted_block_diagonal(draw):
    """P (S_1 D_1 S_1^-1 (+) S_2 D_2 S_2^-1 (+) ...) P^T with unit upper
    triangular integer S_b, so the spectrum is the set of diagonal entries."""
    spectrum = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = sum(sizes)
    dense = [[F(0)] * n for _ in range(n)]
    used = set()
    off = 0
    for b in sizes:
        d = Matrix.diagonal([draw(st.sampled_from(spectrum)) for _ in range(b)])
        used.update(d.diagonal_entries())
        nil = Matrix([[draw(st.integers(-2, 2)) if j > i else 0 for j in range(b)]
                      for i in range(b)])
        s = Matrix.identity(b) + nil
        sinv = Matrix.identity(b)
        power = Matrix.identity(b)
        for k in range(1, b):
            power = power * nil
            sinv = sinv + power.scale((-1) ** k)
        blk = s * d * sinv
        for i in range(b):
            dense[off + i][off:off + b] = blk.data[i]
        off += b
    perm = draw(st.permutations(range(n)))
    a = Matrix([[dense[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2)):
        if a.data[i][j] == 0:
            a.data[i][j] = F(0)  # stores nothing, so no blocks are joined
    extra = draw(st.lists(st.integers(5, 7), max_size=1))
    return a, [F(x) for x in spectrum + extra], used


@settings(max_examples=60, deadline=None)
@given(permuted_block_diagonal(), st.data())
def test_block_projector_matches_whole_matrix(case, data):
    a, lams, _ = case
    t = data.draw(st.integers(0, len(lams) - 1))
    ref, residual = _ref_projector(_dense(a), lams, t)
    assert all(x == 0 for row in residual for x in row)
    proj = lagrange_projector(a, lams, t)
    assert proj.data == ref and _stores_no_zero(proj)


@settings(max_examples=60, deadline=None)
@given(permuted_block_diagonal(), st.data())
def test_block_projector_residual_with_moved_eigenvalue(case, data):
    a, lams, eigenvalues = case
    moved = data.draw(st.sampled_from([i for i, lam in enumerate(lams) if lam in eigenvalues]))
    wrong = list(lams)
    wrong[moved] += F(1, 2)
    t = data.draw(st.integers(0, len(lams) - 1))
    _, residual = _ref_projector(_dense(a), wrong, t)
    count = sum(x != 0 for row in residual for x in row)
    assert count > 0
    with pytest.raises(SpectralCompletenessError) as err:
        lagrange_projector(a, wrong, t)
    assert f"({count} nonzero residual entries)" in str(err.value)
    assert err.value.residual.data == residual and _stores_no_zero(err.value.residual)


def _ref_residual(a, lams):
    """The product of all (a - lambda_j) on plain lists."""
    n = len(a)
    p = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for lam in lams:
        p = _ref_mul(p, [[a[i][j] - lam * (i == j) for j in range(n)] for i in range(n)])
    return p


@settings(max_examples=60, deadline=None)
@given(permuted_block_diagonal())
def test_all_projectors_match_whole_matrix(case):
    a, lams, _ = case
    n = a.rows
    projs = lagrange_projectors(a, lams)
    assert len(projs) == len(lams)
    for t, proj in enumerate(projs):
        ref, _ = _ref_projector(_dense(a), lams, t)
        assert proj.data == ref and _stores_no_zero(proj)
    assert linear_combination([(1, p) for p in projs], n, n) == Matrix.identity(n)
    for s, p in enumerate(projs):
        for t, q in enumerate(projs):
            assert p * q == (p if s == t else Matrix.zeros(n, n))


@settings(max_examples=60, deadline=None)
@given(permuted_block_diagonal(), st.data())
def test_all_projectors_residual_with_moved_eigenvalue(case, data):
    a, lams, eigenvalues = case
    moved = data.draw(st.sampled_from([i for i, lam in enumerate(lams) if lam in eigenvalues]))
    wrong = list(lams)
    wrong[moved] += F(1, 2)
    residual = _ref_residual(_dense(a), wrong)
    count = sum(x != 0 for row in residual for x in row)
    assert count > 0
    with pytest.raises(SpectralCompletenessError) as err:
        lagrange_projectors(a, wrong)
    assert f"({count} nonzero residual entries)" in str(err.value)
    assert err.value.residual.data == residual and _stores_no_zero(err.value.residual)


@st.composite
def block_grids(draw):
    """A grid of sparse blocks: one height per grid row, one width per grid column."""
    heights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    return [[draw(sparse_matrices(h, w)) for w in widths] for h in heights]


@settings(max_examples=60, deadline=None)
@given(block_grids())
def test_block_round_trips_with_submatrix(grid):
    big = Matrix.block(grid)
    assert _stores_no_zero(big)
    top = 0
    for row in grid:
        left = 0
        for a in row:
            assert big.submatrix(range(top, top + a.rows), range(left, left + a.cols)) == a
            left += a.cols
        top += row[0].rows
    assert (big.rows, big.cols) == (top, left)


def test_block_rejects_mismatched_shapes():
    a, b = Matrix.identity(2), Matrix.zeros(2, 3)
    assert Matrix.block([[a, b]]) == Matrix([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    for grid in ([[a, Matrix.zeros(3, 3)]],         # one grid row, two heights
                 [[a, b], [b, a]],                  # one grid column, two widths
                 [[a, b], [a]]):                    # grid rows of two lengths
        with pytest.raises(ValueError, match="one height"):
            Matrix.block(grid)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_block_transpose_moves_blocks(m, n, data):
    a = data.draw(sparse_matrices(m * n, m * n))
    flipped = a.block_transpose(n)
    assert _stores_no_zero(flipped)

    def block(x, k, l):
        return x.submatrix(range(k * n, (k + 1) * n), range(l * n, (l + 1) * n))

    for k in range(m):
        for l in range(m):
            assert block(flipped, k, l) == block(a, l, k)
    assert flipped.block_transpose(n) == a


def test_block_transpose_rejects_a_bad_grid():
    # and so do block_trace and block_trace_product, on the same shapes
    for a, n in ((Matrix.zeros(4, 2), 2), (Matrix.zeros(2, 4), 2), (Matrix.identity(4), 3)):
        for kernel in (a.block_transpose, a.block_trace,
                       lambda n: a.block_trace_product(Matrix.identity(4), n),
                       lambda n: Matrix.identity(4).block_trace_product(a, n)):
            with pytest.raises(ValueError, match="square grid"):
                kernel(n)
    with pytest.raises(ValueError, match="dimension mismatch"):
        Matrix.identity(4).block_trace_product(Matrix.identity(2), 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_block_trace_sums_the_diagonal_blocks(m, n, data):
    a = data.draw(sparse_matrices(m * n, m * n, WIDE_ENTRY))
    trace = a.block_trace(n)
    assert _is_canonical(trace) and _stores_no_zero(trace)
    assert trace == linear_combination([(1, _block(a, n, k, k)) for k in range(1, m + 1)], n, n)
    assert a.block_trace(m * n) == a and a.block_transpose(n).block_trace(n) == trace


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(entries=WIDE_ENTRY))
def test_integer_entries_are_the_numerators_over_one_denominator(a):
    d, entries = a.integer_entries()
    assert [(i, j, F(x, d)) for i, j, x in entries] == a.nonzero_entries()
    assert d > 0 and gcd(d, *(x for _, _, x in entries)) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_block_trace_product_matches_the_block_trace_of_the_product(m, n, data):
    a = data.draw(sparse_matrices(m * n, m * n, WIDE_ENTRY))
    b = data.draw(sparse_matrices(m * n, m * n, WIDE_ENTRY))
    traced = a.block_trace_product(b, n)
    assert _is_canonical(traced) and _stores_no_zero(traced)
    assert traced == a.matmul(b).block_trace(n)
    assert a.block_trace_product(b, m * n) == a.matmul(b)


def test_from_rows_keeps_the_storage_rules():
    a = Matrix.from_rows([{0: 2, 2: F(0)}, {}, {1: F(-1, 3), 2: "1/2"}], 3)
    assert _stores_no_zero(a)
    assert a == Matrix([[2, 0, 0], [0, 0, 0], [0, F(-1, 3), F(1, 2)]])
    for bad in (3, -1):
        with pytest.raises(ValueError, match="column index"):
            Matrix.from_rows([{bad: 1}], 3)
