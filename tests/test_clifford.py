import hashlib
from fractions import Fraction as F

import pytest

from kahlergrad import bochner
from kahlergrad.clifford import (
    build_system,
    derived_representation,
    target_generator,
    verify_cross_relations,
    verify_equivariance,
    verify_adjoint_pairing,
    verify_relations,
    verify_spinor_model,
)
from kahlergrad.envalg import k_of_casimirs
from kahlergrad.gtrep import block_powers, build_rep, e_power_matrix, gt_patterns
from kahlergrad.linalg import (
    Matrix,
    gram_adjoint,
    lagrange_coefficients,
    lagrange_projectors,
    linear_combination,
)
from kahlergrad.weights import (
    FAMILY,
    HighestWeight,
    conformal_table,
    dominant_weights,
    transpose_weight,
    weyl_dimension,
)


def test_trivial_module_plus_side():
    rep = build_rep((0, 0, 0))
    sys = build_system(rep, "+")
    dims = [t.dim if t else 0 for t in sys.targets]
    assert dims == [3, 0, 0]  # only mu_1 is dominant; natural module appears
    # gamma_{+1} equals m: the trace constant over the only component
    acc = Matrix.zeros(1, 1)
    for k in range(1, 4):
        acc = acc + sys.p_star_p(1, k, k)
    assert acc == Matrix([[3]])


@pytest.mark.parametrize("m", [2, 3])
def test_natural_module_minus_decomposition(m):
    rho = tuple([1] + [0] * (m - 1))
    rep = build_rep(rho)
    sys = build_system(rep, "-")
    dims = [t.dim if t else 0 for t in sys.targets]
    expected = [0] * m
    expected[0] = 1            # the trivial module
    expected[m - 1] = m * m - 1  # the adjoint-type module
    assert dims == expected


@pytest.mark.parametrize("p", [0, 1, 2])
def test_exterior_module_plus_targets(p):
    m = 3
    rho = tuple([1] * p + [0] * (m - p))
    rep = build_rep(rho)
    sys = build_system(rep, "+")
    valid = [t.index for t in sys.targets if t]
    if p == 0:
        assert valid == [1]
    elif p < m:
        assert valid == [1, p + 1]
    else:
        assert valid == [1]


def test_verify_relations_small():
    rep = build_rep((1, 0))
    plus = build_system(rep, "+")
    minus = build_system(rep, "-")
    out = verify_relations(plus, q_max=2)
    out.extend(verify_cross_relations(plus, minus, q_max=2))
    assert out.passed, [it.describe() for it in out.failures()]
    out = verify_relations(minus, q_max=2)
    assert out.passed, [it.describe() for it in out.failures()]


def test_cross_relations_report_rank():
    rep = build_rep((1, 0))
    plus = build_system(rep, "+")
    minus = build_system(rep, "-")
    out = verify_cross_relations(plus, minus, q_max=2)
    assert out.passed
    ranks = [it for it in out.items if it.tag == "cross-sign-rank"]
    assert len(ranks) == 1
    assert int(ranks[0].params["rank"]) <= int(ranks[0].params["symbols"])


def test_cross_relations_reject_mismatched_systems():
    rep = build_rep((1, 0))
    plus, minus = build_system(rep, "+"), build_system(rep, "-")
    minus_elsewhere = build_system(build_rep((1, 0)), "-")  # an equal module, another build
    for first, second in ((minus, plus), (plus, plus), (plus, minus_elsewhere)):
        with pytest.raises(ValueError, match="plus and the minus system of one module"):
            verify_cross_relations(first, second, q_max=1)


def _rank_item(report):
    (item,) = [it for it in report.items if it.tag == "cross-sign-rank"]
    return item


def test_cross_sign_rank_fails_on_a_corrupted_coefficient_row(monkeypatch):
    # the cross relations and the emitted records read one binomial template,
    # so corrupting its K series shows in both
    rep = build_rep((1, 0, 0))
    plus, minus = build_system(rep, "+"), build_system(rep, "-")
    item = _rank_item(verify_cross_relations(plus, minus, q_max=3))
    assert item.status == "pass" and item.params["rank"] == 2  # min(c=2, 3+1)
    emitted = bochner.bochner_identity((1, 0, 0), 2)
    real = bochner.k_series

    def corrupted(table, n):
        ks = real(table, n)
        if FAMILY[table.sign] == "tilde" and n >= 1:
            ks[1] += 1
        return ks

    monkeypatch.setattr(bochner, "k_series", corrupted)
    item = _rank_item(verify_cross_relations(plus, minus, q_max=3))
    assert item.status == "fail" and item.params["rank"] == 4
    assert bochner.bochner_identity((1, 0, 0), 2) != emitted


def _recoupling(w):
    """M_ij = prod_{k != j} (w_i - w_k - 1) / prod_{k != i} (w_i - w_k), by
    (i, j) from 1, for the far sign's conformal weights w: the scalar by
    which the far sign's S_i with its blocks swapped acts on the near sign's
    component j."""
    w = [F(x) for x in w]
    idx = range(len(w))
    out = {}
    for i in idx:
        den = F(1)
        for k in idx:
            if k != i:
                den *= w[i] - w[k]
        for j in idx:
            num = F(1)
            for k in idx:
                if k != j:
                    num *= w[i] - w[k] - 1
            out[(i + 1, j + 1)] = num / den
    return out


RECOUPLING_WEIGHTS = [(2, 0, -1), (1, 1, 0), (2, 2, 0), (1, 0, -1), (2, 1, 0, -1), (1, 0),
                      (0, 0)]


def test_recoupling_matrix_on_the_maps():
    # the swapped far S_i times each near map A_j is M_ij A_j
    pairs = 0
    for rho in RECOUPLING_WEIGHTS:
        rep = build_rep(rho)
        systems = {sign: build_system(rep, sign) for sign in "+-"}
        n, m = rep.dim, rep.m
        for near, far in (("+", "-"), ("-", "+")):
            M = _recoupling(conformal_table(rho, far).w)
            for i in range(1, m + 1):
                swapped = systems[far].p_star_p_matrix(i).block_transpose(n)
                for t in filter(None, systems[near].targets):
                    assert swapped * t.basis == t.basis.scale(M[(i, t.index)]), (rho, near, i)
                    pairs += 1
    assert pairs == 104


def test_recoupling_matrix_solves_the_cross_sign_templates():
    # near_j + sum_i far_i M_ij = 0 for every valid near component j: the
    # cross-sign relation applied to the near map A_j
    cases = 0
    for m, bound in ((2, 4), (3, 2), (4, 1)):
        for rho in dominant_weights(m, bound):
            for near, far in (("+", "-"), ("-", "+")):
                tables = conformal_table(rho, near), conformal_table(rho, far)
                M = _recoupling(tables[1].w)
                for near_c, far_c in bochner.binomial_template(*tables, 6):
                    for j in range(1, m + 1):
                        if tables[0].valid[j - 1]:
                            assert near_c[j - 1] + sum(
                                c * M[(i, j)] for i, c in enumerate(far_c, 1)) == 0, (rho, near, j)
                            cases += 1
    assert cases == 2604


def _dual_index(rho):
    """pi[x]: the index of p*, pattern x of rho with each row negated and
    reversed, among the patterns of rho* = transpose_weight(rho)."""
    index = {p: x for x, p in enumerate(gt_patterns(transpose_weight(rho)))}
    return [index[tuple(tuple(-e for e in reversed(row)) for row in p)] for p in gt_patterns(rho)]


def _is_contragredient(rep, dual, minus, plus_dual):
    """Whether ``dual``, built on rho*, is the contragredient of ``rep`` in
    the pattern bases up to a diagonal d, solved from the units with d = 1
    at the highest-weight pattern: dual(e_kl)[pi x, pi y] = (d_x / d_y)
    (-rep(e_kl)[y, x]); and whether the projectors of ``minus`` on rep are
    those of ``plus_dual`` on rho* transposed in the same bases:
    P-_i[(k-1)n + a, (l-1)n + b] = (d_a / d_b) P+_{m+1-i}[(l-1)n + pi b, (k-1)n + pi a]."""
    m, n = rep.m, rep.dim
    pi = _dual_index(rep.rho)
    ratios = [[] for _ in range(n)]      # (x, d_x / d_y) by y, from each stored entry
    for key, g in rep.gen.items():
        for y, x, v in g.nonzero_entries():
            ratios[y].append((x, dual.gen[key][pi[x], pi[y]] / -v))
    d, todo = {0: F(1)}, [0]
    while todo:
        y = todo.pop()
        for x, ratio in ratios[y]:
            if x not in d:
                d[x] = d[y] * ratio
                todo.append(x)
    if len(d) < n or 0 in d.values():
        return False
    big = [k * n + x for k in range(m) for x in pi]
    return all(
        {(x, y): v for x, y, v in dual.gen[key].submatrix(pi, pi).nonzero_entries()}
        == {(x, y): d[x] / d[y] * -v for y, x, v in g.nonzero_entries()}
        for key, g in rep.gen.items()) and all(
        {(r, c): v for r, c, v in minus.projectors[i].nonzero_entries()}
        == {(c, r): d[c % n] / d[r % n] * v for r, c, v
            in plus_dual.projectors[m - 1 - i].submatrix(big, big).nonzero_entries()}
        for i in range(m))


DUAL_WEIGHTS = [(1, 0), (3, 0), (0, 0), (2, 0, -1), (1, 1, 0), (2, 2, -1), (1, 0, -1),
                (2, 0, -2), (2, 1, 0, -1), (3, 1, 0, -2), (1, 1, -1, -1), (2, 1, -1, -2)]


def _dual_systems(rho):
    rep, dual = build_rep(rho), build_rep(transpose_weight(rho))
    return rep, dual, build_system(rep, "-"), build_system(dual, "+")


@pytest.mark.parametrize("rho", DUAL_WEIGHTS)
def test_contragredient_duality(rho):
    # the library uses this duality nowhere: the pattern basis of rho* is
    # the dual basis of rho's, rescaled, so the sign - branch of the tensor
    # action and the minus table's Lagrange nodes are checked against the
    # plus side (self-dual where rho* = rho: (1,0,-1) and (2,1,-1,-2))
    assert _is_contragredient(*_dual_systems(rho))


def test_contragredient_duality_fails_on_one_changed_entry():
    from dataclasses import replace
    rep, dual, minus, plus_dual = _dual_systems((2, 0, -1))
    for key in ((1, 2), (3, 1), (2, 2)):
        g = rep.gen[key]
        r, c, x = g.nonzero_entries()[1]
        changed = Matrix([row[:] for row in g.data])
        changed[r, c] = x + 1
        assert not _is_contragredient(replace(rep, gen={**rep.gen, key: changed}), dual,
                                      minus, plus_dual), key
    for i in range(3):
        proj = minus.projectors[i]
        r, c, x = proj.nonzero_entries()[5]
        proj[r, c] = x + F(1, 3)
        assert not _is_contragredient(rep, dual, minus, plus_dual), i
        proj[r, c] = x
    assert _is_contragredient(rep, dual, minus, plus_dual)


def _aux(m, sign, k, l):
    """e_kl on the natural module (sign +) or its conjugate (sign -)."""
    out = Matrix.zeros(m, m)
    if sign == "+":
        out[k - 1, l - 1] = 1
    else:
        out[l - 1, k - 1] = -1
    return out


@pytest.mark.parametrize("rho", [(1, 0), (1, 0, 0), (2, 0, -1)])
def test_target_generator_built_on_first_use(rho):
    rep = build_rep(rho)
    m, n = rep.m, rep.dim
    for sign in "+-":
        sys = build_system(rep, sign)
        assert not sys._tensor_gen
        for i, t in enumerate(sys.targets, 1):
            if t is None:
                continue
            for k in range(1, m + 1):
                for l in range(1, m + 1):
                    tensor = (Matrix.identity(m).kron(rep.gen[(k, l)])
                              + _aux(m, sign, k, l).kron(Matrix.identity(n)))
                    assert target_generator(sys, i, k, l) == t.coords * tensor * t.basis


def test_exterior_annihilation_identity():
    # (m - p + 1) p* p on the lowering map recovers the matrix units
    m, p = 3, 1
    rep = build_rep((1, 0, 0))
    minus = build_system(rep, "-")
    for k in range(1, m + 1):
        for l in range(1, m + 1):
            got = minus.p_star_p(p, k, l).scale(m - p + 1)
            assert got == rep.gen[(k, l)]


@pytest.mark.parametrize("rho", [(1, 0), (1, 0, 0), (1, 1, 0)])
def test_equivariance(rho):
    rep = build_rep(rho)
    for sign in "+-":
        out = verify_equivariance(build_system(rep, sign))
        assert out.passed, [it.describe() for it in out.failures()]


def test_adjoint_pairing_trivial_module():
    rep = build_rep((0, 0))
    plus = build_system(rep, "+")
    raised = derived_representation(plus, 1)
    raised.check_invariants()  # raises on violation
    assert raised.rho == HighestWeight((1, 0))
    out = verify_adjoint_pairing(plus, 1)
    assert out.passed, [it.describe() for it in out.failures()]
    ratio = [it for it in out.items if it.tag == "raise-lower-ratio-squared"][0]
    assert ratio.params["ratio_squared"] == F(1, 2)  # 1/gamma_{+1} = 1/m


def test_adjoint_pairing_natural_module():
    plus = build_system(build_rep((1, 0)), "+")
    out = verify_adjoint_pairing(plus, 1)
    assert out.passed, [it.describe() for it in out.failures()]
    ratio = [it for it in out.items if it.tag == "raise-lower-ratio-squared"][0]
    # gamma_{+1} = 1 - 1/(w_{+1} - w_{+2}) = 3/2
    assert ratio.params["ratio_squared"] == F(2, 3)


def test_adjoint_pairing_invalid_shift_is_skipped():
    rep = build_rep((1, 0, 0))
    plus = build_system(rep, "+")
    out = verify_adjoint_pairing(plus, 3)  # (1,0,1) is not dominant
    assert out.passed
    assert out.items[0].status == "not-applicable"


def test_adjoint_pairing_index_outside_1_to_m_raises():
    plus = build_system(build_rep((1, 0, -1)), "+")
    for i in (0, 4):
        with pytest.raises(ValueError, match=f"component index i={i} outside 1..3"):
            verify_adjoint_pairing(plus, i)


def test_adjoint_pairing_rejects_a_minus_system():
    minus = build_system(build_rep((1, 0, -1)), "-")
    with pytest.raises(ValueError, match="starts from the plus system"):
        verify_adjoint_pairing(minus, 1)


DERIVED_WEIGHTS = [(1, 0), (2, 1, 0), (2, 0, -1), (1, 0, 0, -1)]


def _components(rho):
    """Each system on rho, both signs, with each of its components."""
    rep = build_rep(rho)
    for sign in "+-":
        sys = build_system(rep, sign)
        for t in filter(None, sys.targets):
            yield sys, t


def test_derived_representation_is_a_module():
    for rho in DERIVED_WEIGHTS:
        for sys, t in _components(rho):
            derived = derived_representation(sys, t.index)  # raises on a violation
            derived.check_invariants()
            assert derived.rho == t.weight and derived.gram is t.gram
            assert derived.dim == weyl_dimension(t.weight)
    plus = build_system(build_rep((1, 0, 0)), "+")
    with pytest.raises(ValueError, match="no component at i=3"):
        derived_representation(plus, 3)  # (1,0,1) is not dominant


@pytest.mark.parametrize("rho", DERIVED_WEIGHTS)
def test_derived_representation_equals_the_compression_of_every_unit(rho):
    # the completion from the simple units against C_i e A_i for all m^2 units
    for sys, t in _components(rho):
        derived = derived_representation(sys, t.index)
        units = [(k, l) for k in range(1, sys.m + 1) for l in range(1, sys.m + 1)]
        assert derived.gen == {u: t.coords * sys.tensor_generator(*u) * t.basis for u in units}
        assert derived.gram == t.gram


@pytest.mark.parametrize("rho", [(1, 0, -1), (2, 1, 0), (1, 0, 0)])
def test_derived_representation_rejects_a_corrupted_map(rho):
    # each of the first six stored entries of a plus map raised by one, its
    # adjoint entry in the basis changed to match: the completed module must
    # fail its invariants
    rep = build_rep(rho)
    n = rep.dim
    for i in [t.index for t in build_system(rep, "+").targets if t]:
        for entry in range(6):
            plus = build_system(rep, "+")
            t = plus.target(i)
            r, a, x = t.coords.nonzero_entries()[entry]
            t.coords[r, a] = x + 1
            t.basis[a, r] = (x + 1) * t.gram[r, r] / rep.gram[a % n, a % n]
            with pytest.raises(AssertionError):
                derived_representation(plus, i)


def test_component_index_outside_1_to_m_raises():
    plus = build_system(build_rep((1, 0, -1)), "+")
    for i in (0, 4):
        calls = (lambda: derived_representation(plus, i),
                 lambda: target_generator(plus, i, 1, 1),
                 lambda: plus.p_star_p(i, 1, 1),
                 lambda: plus.target(i))
        for call in calls:
            with pytest.raises(ValueError, match=f"component index i={i} outside 1..3"):
                call()
    t, n = plus.target(3), plus.rep.dim
    assert plus.p_star_p(3, 1, 1) == _adjoint(t, 1, n) * _map(t, 1, n)


@pytest.mark.parametrize("rho", [(2, 1, 0), (2, 0, -1)])
def test_adjoints_are_row_blocks_of_the_basis(rho):
    # row block k of the basis must equal the Gram adjoint of column block k
    # of the coordinate map, also over a derived module, whose form is the
    # induced one
    rep = build_rep(rho)
    plus = build_system(rep, "+")
    systems = (plus, build_system(rep, "-"),
               build_system(derived_representation(plus, 1), "-"))
    for sys in systems:
        n = sys.rep.dim
        for t in filter(None, sys.targets):
            for k in range(1, sys.m + 1):
                assert _adjoint(t, k, n) == gram_adjoint(_map(t, k, n), sys.rep.gram, t.gram)


@pytest.mark.parametrize("m", [2, 3])
def test_spinor_model(m):
    out = verify_spinor_model(m)
    assert out.passed, [it.describe() for it in out.failures()][:5]


def _transpose(a):
    return Matrix([list(col) for col in zip(*a.data)])


def _map(t, k, n):
    """p_i(basis_k): column block k of the coordinate map."""
    return t.coords.submatrix(range(t.dim), range((k - 1) * n, k * n))


def _adjoint(t, k, n):
    """p_i(basis_k)^*: row block k of the basis."""
    return t.basis.submatrix(range((k - 1) * n, k * n), range(t.dim))


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("rho", [(2, 1, 0), (2, 0, -1)])
def test_build_system_basis(rho, sign):
    # Chat preserves the total weight, so it has several blocks on these
    # modules; the basis must still be an orthogonal frame of each image
    rep = build_rep(rho)
    sys = build_system(rep, sign)
    m, n = sys.m, rep.dim
    tensor_gram = Matrix.diagonal([g for _ in range(m) for g in rep.gram.diagonal_entries()])
    assert sum(t is not None for t in sys.targets) >= 2
    for i, t in enumerate(sys.targets, 1):
        if t is None:
            continue
        induced = _transpose(t.basis) * tensor_gram * t.basis
        assert induced.is_diagonal()
        assert induced == t.gram
        assert t.coords * t.basis == Matrix.identity(t.dim)
        assert sys.projectors[i - 1] * t.basis == t.basis
        assert t.basis.rows == m * n and t.dim == weyl_dimension(t.weight)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("rho", [(1, 0), (2, 0, -1), (1, 0, 0, -1)])
def test_chat_is_the_kron_sum_regrouped(rho, sign):
    # Chat = 2 sum_kl e_kl (x) e_lk as a sum of Kronecker products, in the
    # tensor index a*m + k-1, regrouped to the k-major (k-1)*n + a: it is
    # -2 P, and its projectors at -2 w_i, regrouped, are the system's
    rep = build_rep(rho)
    m, n = rep.m, rep.dim
    sys = build_system(rep, sign)
    chat = Matrix.zeros(m * n, m * n)
    for k in range(1, m + 1):
        for l in range(1, m + 1):
            chat = chat + rep.gen[(k, l)].kron(_aux(m, sign, l, k)).scale(2)
    k_major = [a * m + k for k in range(m) for a in range(n)]
    assert chat.submatrix(k_major, k_major) == sys.chat
    projectors = lagrange_projectors(chat, [-2 * w for w in sys.table.w])
    assert [x.submatrix(k_major, k_major) for x in projectors] == sys.projectors


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("rho", [(1, 0), (2, 0, -1), (1, 0, 0, -1)])
def test_projectors_are_lagrange_polynomials_of_the_block_powers(rho, sign):
    # each stored projector is the Lagrange basis polynomial of w_i in P,
    # recombined from the block powers of degree < m: the form that the
    # vandermonde-solved items compare S_i with
    rep = build_rep(rho)
    m, N = rep.m, rep.m * rep.dim
    sys = build_system(rep, sign)
    powers = block_powers(rep, m - 1, FAMILY[sign])
    for i in range(1, m + 1):
        assert sys.projectors[i - 1] == linear_combination(
            zip(lagrange_coefficients(sys.table.w, i - 1), powers), N, N), i


@pytest.mark.parametrize("rho, sign, i, k, l", [((2, 0, -1), "+", 1, 1, 1),
                                                ((2, 0, -1), "-", 2, 1, 3),
                                                ((1, 0, -1), "+", 3, 1, 2)])
def test_changed_projector_entry_fails_both_readings_of_one_difference(rho, sign, i, k, l):
    # the sixth stored entry of P_i, raised by 1/3 after every component is
    # built, lies in block (k, l): vandermonde-solved reads S_i - P_i by
    # n x n block and projection-formula by column block, and each fails
    # there alone
    sys = build_system(build_rep(rho), sign)
    assert all(sys.targets)  # each component is built from the projector stored at its first read
    proj = sys.projectors[i - 1]
    r, c, x = proj.nonzero_entries()[5]
    proj[r, c] = x + F(1, 3)
    base = {"rho": str(HighestWeight(rho)), "sign": sign, "i": i}
    failed = [(it.tag, it.params, it.witness) for it in verify_relations(sys, 1).failures()
              if it.tag in ("vandermonde-solved", "projection-formula")]
    witness = "1 nonzero entries in difference"
    assert failed == [("vandermonde-solved", {**base, "k": k, "l": l}, witness),
                      ("projection-formula", {**base, "l": l}, witness)]


# Gram diagonals of every target, as SHA-256 of their "p/q" strings: the
# induced form depends on which pivot columns rref picks, so a change of the
# pivot order (as in a k-major read of the projector) changes these digests
GRAM_DIGESTS = {
    ((2, 1, 0, -1), "+"): {
        1: "4e6b33b1a8c72df7066d3af03b5285d4ae493a8e17f038a0412c0fca5ac54c2a",
        2: "b67013327e0c2b09743bf87a638098c76a25ba43d46cb6c06dd8ce5051b7182e",
        3: "301c8e2ab1af2075610dd12c714b1d617ec13c5a7733aca2801e7d8ad63270c6",
        4: "50061ec4af017ee58807457fdc1fa00c72aee6b968e48bf9284014dfcef496a7"},
    ((2, 1, 0, -1), "-"): {
        1: "63cc5a933f1d6d15be2d6997ecbb6703e64ccbdfb6aea00e2aeeea511688410f",
        2: "fcb459165d7b3351d5b0ad45c34ac100983e7b88b280d80344263c2d1838d228",
        3: "95c1260ac3f093d3e44705eb35b702420ef7accf9911e4ae4ae71642eaec3be3",
        4: "822c190f366ce9ba2661e56c44dce0f043580a232010bd45270b3d9603e62a57"},
    ((2, 0, -2), "+"): {
        1: "da88e5eccc4fddd8e42912d35e9d247ec401137139331996de233b903e16596b",
        2: "6edc964ff56be38cbfdd8a365c04f9d7533f5ffbefbc4b8df7aed8ed45b666ff",
        3: "04bb381152ca4835fa678ee4701b9e29ae903db6347709cb6f45c73f68c9c0ff"},
    ((2, 0, -2), "-"): {
        1: "a91d40f2cfd3630a0c813aee66b1ef443a926c7dd454f1d7be4934dbfd808500",
        2: "4dee036be862e95152a801b25b4b85b886f688abd7e87bf4a11f4ff4ba2ae12a",
        3: "e5281f7dd003bcb59e837ed56575632e0a5a1e31947d58d13831190c68752de7"},
}


@pytest.mark.parametrize("rho, sign", sorted(GRAM_DIGESTS))
def test_pivot_order_pins_the_gram_form(rho, sign):
    sys = build_system(build_rep(rho), sign)
    digests = {}
    for t in filter(None, sys.targets):
        text = " ".join(f"{x.numerator}/{x.denominator}" for x in t.gram.diagonal_entries())
        digests[t.index] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == GRAM_DIGESTS[(rho, sign)]


def test_build_system_rejects_bad_sign():
    rep = build_rep((1, 0))
    with pytest.raises(ValueError):
        build_system(rep, "x")


def _restricted_build_modules():
    """(2,0,-1), (2,1,0,-1) and one raised module of (2,0,-1)."""
    yield build_rep((2, 0, -1))
    yield build_rep((2, 1, 0, -1))
    yield derived_representation(build_system(build_rep((2, 0, -1)), "+"), 1)


@pytest.fixture
def built(monkeypatch):
    """The (sign, i) of every component built, in order."""
    from kahlergrad import clifford
    component, out = clifford._component, []

    def recording(sys, i):
        out.append((sys.sign, i))
        return component(sys, i)

    monkeypatch.setattr(clifford, "_component", recording)
    return out


@pytest.mark.parametrize("sign", "+-")
def test_a_restricted_build_equals_the_full_builds_component(built, sign):
    # a restricted build, a system of which only component i is read, builds
    # that component alone, equal to component i of a system read in full
    for rep in _restricted_build_modules():
        full = build_system(rep, sign).targets
        for i in range(1, rep.m + 1):
            part = build_system(rep, sign)
            built.clear()
            t, u = part.target(i), full[i - 1]
            assert (t is None) == (u is None)
            assert built == ([] if t is None else [(sign, i)])
            if t is not None:
                assert (t.weight, t.dim) == (u.weight, u.dim)
                assert t.basis == u.basis and t.coords == u.coords and t.gram == u.gram
            assert part.target(i) is t and len(built) == (t is not None)  # kept, not rebuilt


@pytest.mark.parametrize("sign", "+-")
def test_a_restricted_build_still_checks_the_spectrum(monkeypatch, built, sign):
    # build_system checks the spectrum before any component is read
    from dataclasses import replace
    from kahlergrad import clifford
    from kahlergrad.linalg import SpectralCompletenessError

    def shifted_table(rho, sign):
        tab = conformal_table(rho, sign)
        return replace(tab, w=tab.w[:-1] + (tab.w[-1] + 100,))

    monkeypatch.setattr(clifford, "conformal_table", shifted_table)
    with pytest.raises(SpectralCompletenessError):
        build_system(build_rep((2, 0, -1)), sign)
    assert built == []


def test_a_wrong_rank_raises_when_its_component_is_first_read(monkeypatch):
    # the rank is checked on a component's first read, not by build_system;
    # in a verify task the raise is the task's one failed item
    from kahlergrad import cli, clifford
    monkeypatch.setattr(clifford, "weyl_dimension", lambda rho: weyl_dimension(rho) + 1)
    rho = (2, 0, -1)
    sys = build_system(build_rep(rho), "+")
    for i in range(1, 4):
        with pytest.raises(AssertionError, match="projector rank"):
            sys.target(i)
    _, report = cli._run_task(("clifford", rho, 2, 1, None))
    assert report.counts() == {"pass": 0, "fail": 1, "not-applicable": 0}
    assert "projector rank" in report.items[0].witness


# ---------------------------------------------------------------------------
# failing items and their witnesses, against dense references
# ---------------------------------------------------------------------------

def _dense(a):
    return [list(row) for row in a.data]


def _embed_column(m, k, n):
    """Matrix of phi |-> phi (x) basis_k, with tensor index (k-1)*n + a."""
    out = Matrix.zeros(n * m, n)
    for a in range(n):
        out.data[(k - 1) * n + a][a] = F(1)
    return out


def _dmul(x, y):
    return [[sum((x[i][t] * y[t][j] for t in range(len(y))), F(0))
             for j in range(len(y[0]))] for i in range(len(x))]


def _dsum(terms):
    """sum of c * a over (c, a) pairs of dense matrices of one shape."""
    rows, cols = len(terms[0][1]), len(terms[0][1][0])
    return [[sum((F(c) * a[i][j] for c, a in terms), F(0)) for j in range(cols)]
            for i in range(rows)]


def _witness(dense):
    return f"{sum(x != 0 for row in dense for x in row)} nonzero entries in difference"


def _dense_p_star_p(sys, i, k, l):
    """p_i(k)^* p_i(l) from the maps and the two Gram forms, entry by entry."""
    n = sys.rep.dim
    t = sys.targets[i - 1]
    if t is None:
        return [[F(0)] * n for _ in range(n)]
    return _dmul(_dense_adjoint(sys, t, k), _dense(_map(t, l, n)))


def _lagrange_coefficients(ws, i):
    """Coefficients of x^0 .. x^(m-1) in prod_{j != i} (x - w_j) / (w_i - w_j)."""
    poly = [F(1)]
    for j, w in enumerate(ws):
        if j != i - 1:
            shifted = [F(0)] + poly
            poly = [a - w * b for a, b in zip(shifted, poly + [F(0)])]
            poly = [c / (ws[i - 1] - w) for c in poly]
    return poly


def _dense_adjoint(sys, t, k):
    """p(k)^* from the map and the two Gram forms, entry by entry."""
    gs, gt = sys.rep.gram.diagonal_entries(), t.gram.diagonal_entries()
    pk = _dense(_map(t, k, sys.rep.dim))
    return [[pk[y][x] * gt[y] / gs[x] for y in range(t.dim)] for x in range(sys.rep.dim)]


def _expected_differences(plus, minus, q_max, sign="+"):
    """Dense difference of each item of the tags below, by (tag, params): the
    relations of the ``sign`` system and the cross-sign relations."""
    rep = plus.rep
    m, n = rep.m, rep.dim
    rho = rep.rho
    units = [(k, l) for k in range(1, m + 1) for l in range(1, m + 1)]
    sys = plus if sign == "+" else minus
    ws = [F(w) for w in sys.table.w]
    wp = [F(w) for w in plus.table.w]
    wm = [F(w) for w in minus.table.w]
    powers = [e_power_matrix(rep, d, FAMILY[sign]) for d in range(max(q_max, m - 1) + 1)]
    gen = {key: _dense(g) for key, g in rep.gen.items()}
    psp = {(s.sign, i, k, l): _dense_p_star_p(s, i, k, l)
           for s in (plus, minus) for i in range(1, m + 1) for k, l in units}
    out = {}
    for q in range(q_max + 1):
        for k, l in units:
            out[("completeness" if q == 0 else "moment-identity", q, k, l)] = _dsum(
                [(ws[i - 1] ** q, psp[(sign, i, k, l)]) for i in range(1, m + 1)]
                + [(-1, _dense(powers[q][(k, l)]))])
    for i in range(1, m + 1):
        t = sys.targets[i - 1]
        coeffs = _lagrange_coefficients(ws, i)
        for k, l in units:
            out[("vandermonde-solved", i, k, l)] = _dsum(
                [(1, psp[(sign, i, k, l)])]
                + [(-c, _dense(powers[d][(k, l)])) for d, c in enumerate(coeffs)])
        out[("gamma-trace", i)] = _dsum(
            [(1, psp[(sign, i, k, k)]) for k in range(1, m + 1)]
            + [(-sys.table.gamma[i - 1], _dense(Matrix.identity(n)))])
        if t is None:
            continue
        maps = [_dense(_map(t, k, n)) for k in range(1, m + 1)]
        for k in range(1, m + 1):
            if sign == "+":
                terms = [(1, _dmul(maps[l - 1], gen[(k, l)])) for l in range(1, m + 1)]
            else:
                terms = [(-1, _dmul(maps[l - 1], gen[(l, k)])) for l in range(1, m + 1)]
            out[("intertwining", i, k)] = _dsum([(ws[i - 1], maps[k - 1])] + terms)
        out[("target-completeness", i)] = _dsum(
            [(1, _dmul(maps[k - 1], _dense_adjoint(sys, t, k))) for k in range(1, m + 1)]
            + [(-1, _dense(Matrix.identity(t.dim)))])
    for q in range(q_max + 1):
        for tag, left, wl, right, wr, variant in (
            ("cross-sign-plus", plus, wp, minus, wm, "plain"),
            ("cross-sign-minus", minus, wm, plus, wp, "tilde"),
        ):
            kq = [k_of_casimirs(p, rho, variant) for p in range(q + 1)]
            for k, l in units:
                lhs = [((wl[i - 1] - m) ** q, psp[(left.sign, i, k, l)]) for i in range(1, m + 1)]
                rhs = [(-(-1) ** q * sum(kq[q - p] * wr[i - 1] ** p for p in range(q + 1)),
                        psp[(right.sign, i, l, k)]) for i in range(1, m + 1)]
                out[(tag, q, k, l)] = _dsum(lhs + rhs)
    for i in range(1, m + 1):
        proj = _dense(sys.projectors[i - 1])
        for l in range(1, m + 1):
            out[("projection-formula", i, l)] = _dsum(
                [(1, _dmul(proj, _dense(_embed_column(m, l, n))))]
                + [(-1, _dmul(_dense(_embed_column(m, k, n)), psp[(sign, i, k, l)]))
                   for k in range(1, m + 1)])
    return out


CHECKED_TAGS = {
    "completeness": ("q", "k", "l"),
    "moment-identity": ("q", "k", "l"),
    "vandermonde-solved": ("i", "k", "l"),
    "gamma-trace": ("i",),
    "target-completeness": ("i",),
    "projection-formula": ("i", "l"),
    "cross-sign-plus": ("q", "k", "l"),
    "cross-sign-minus": ("q", "k", "l"),
}
# the map corruption of the plus test below keeps the intertwining exactly
# (the dense differences vanish too), so the minus test checks this tag
INTERTWINING = {"intertwining": ("i", "k")}


def test_corrupted_map_fails_with_dense_witnesses():
    rep = build_rep((1, 0, -1))
    plus, minus = build_system(rep, "+"), build_system(rep, "-")
    assert all(plus.targets) and all(minus.targets)
    t = plus.targets[0]
    t.coords.data[0][0] = t.coords.data[0][0] + 1  # a fresh object, as a caller would write
    # the adjoint is stored in the basis: change it to match, so the dense
    # reference below, which derives it from the map, sees the same system
    t.basis.data[0][0] = t.coords[0, 0] * t.gram[0, 0] / rep.gram[0, 0]
    out = verify_relations(plus, q_max=2)
    out.extend(verify_cross_relations(plus, minus, q_max=2))
    expected = _expected_differences(plus, minus, 2)

    failed = set()
    for it in out.items:
        if it.status == "pass":
            assert it.witness is None
        if it.tag not in CHECKED_TAGS:
            continue
        diff = expected[(it.tag, *(it.params[p] for p in CHECKED_TAGS[it.tag]))]
        zero = all(x == 0 for row in diff for x in row)
        assert (it.status == "pass") == zero, it.describe()
        if not zero:
            assert it.witness == _witness(diff), it.describe()
            failed.add(it.tag)
    assert failed == set(CHECKED_TAGS)
    # the projectors themselves were not touched
    assert all(it.status == "pass" for it in out.items
               if it.tag.startswith("projector-"))


@pytest.mark.parametrize("rho", [(1, 0, 0), (2, 0, -1)])
def test_projection_formula_selection_equals_products(rho):
    # the projection-formula item compares, for each k, block (k, l) of P_i
    # with p_i(k)^* p_i(l): that is row block k of P_i E_l - sum_k E_k
    # p_i(k)^* p_i(l)
    rep = build_rep(rho)
    m, n = rep.m, rep.dim
    for sign in "+-":
        sys = build_system(rep, sign)
        for i, t in enumerate(sys.targets, 1):
            if t is None:
                continue
            proj = sys.projectors[i - 1]
            for l in range(1, m + 1):
                product = diff = proj * _embed_column(m, l, n)
                for k in range(1, m + 1):
                    diff = diff - _embed_column(m, k, n) * sys.p_star_p(i, k, l)
                for k in range(1, m + 1):
                    rows = range((k - 1) * n, k * n)
                    selected = proj.submatrix(rows, range((l - 1) * n, l * n))
                    assert product.submatrix(rows, range(n)) == selected
                    assert diff.submatrix(rows, range(n)) == selected - sys.p_star_p(i, k, l)


def _assert_items_match_dense(out, expected, tags):
    """Each item of ``tags`` (tag -> its keys of ``expected``) passes exactly
    when its dense difference vanishes, and a failure's witness counts it;
    returns the tags that failed."""
    failed = set()
    for it in out.items:
        if it.status == "pass":
            assert it.witness is None
        if it.tag not in tags:
            continue
        diff = expected[(it.tag, *(it.params[p] for p in tags[it.tag]))]
        zero = all(x == 0 for row in diff for x in row)
        assert (it.status == "pass") == zero, it.describe()
        if not zero:
            assert it.witness == _witness(diff), it.describe()
            failed.add(it.tag)
    return failed


def test_corrupted_minus_map_fails_with_dense_witnesses():
    # the lowering side, whose intertwining and moments read the plain family
    rep = build_rep((1, 0, -1))
    plus, minus = build_system(rep, "+"), build_system(rep, "-")
    assert all(plus.targets) and all(minus.targets)
    t, n = minus.targets[2], rep.dim
    t.coords[0, n + 1] = t.coords[0, n + 1] - 2  # entry (0, 1) of the second map
    t.basis[n + 1, 0] = t.coords[0, n + 1] * t.gram[0, 0] / rep.gram[1, 1]
    out = verify_relations(minus, q_max=2)
    out.extend(verify_cross_relations(plus, minus, q_max=2))
    tags = {**CHECKED_TAGS, **INTERTWINING}
    assert _assert_items_match_dense(out, _expected_differences(plus, minus, 2, "-"), tags) \
        == set(tags)
    assert all(it.status == "pass" for it in out.items if it.tag.startswith("projector-"))
