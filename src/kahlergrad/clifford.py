"""Clifford homomorphisms between explicit U(m) modules.

Given a matrix model of the module labelled rho, the tensor space with the
natural module (sign +) or its conjugate (sign -) splits into the shifted
modules labelled rho +- mu_i.  The tensor space has one index, k-major:
(k-1) n + a for source basis vector a and auxiliary basis vector k.  So the
operator

    Chat = 2 sum_{kl} pi_rho(e_{kl}) (x) pi_aux(e_{lk})

is -2 P, P the m x m block matrix of `gtrep.block_powers` in the sign's
family.  P acts as the constant w_{+-i} on the component labelled
rho +- mu_i, the predicted constants are pairwise distinct, and Lagrange
interpolation gives the projectors without ever leaving Q.  The
construction doubles as a proof that the predicted spectrum is right:
spectral completeness is checked during the build, and the rank of each
projector against the Weyl dimension when its component is first read.

The maps p_{+i}(eps_k) (resp. p_{-i}(eps_bar_k)) are the compositions
phi |-> projection of (phi (x) basis vector k), written in a basis A_i of
the projector image obtained from its pivot columns, orthogonalized in
integer arithmetic against the tensor Gram form so the induced Gram form
stays diagonal.  Each map is stored once, as column block k of the
coordinate map C_i, and its adjoint as row block k of A_i.  No phase
choices are made; every verified identity below is phase independent (it
involves p* p, p p*, or solved intertwiners), the content that survives the
unit-scalar ambiguity of the splitting.

The identities among the symbols are checked as identities of mn x mn block
matrices: block (k, l) of S_i = A_i C_i, which is the projector P_i, is
p_i(basis_k)^* p_i(basis_l), and of a block power one family element.  Each
identity is one exact sum, reported block by block.  The checks read P and
the P_i that `build_system` stored, so the Vandermonde-solved form (P_i as a
polynomial of degree < m in P) is the difference S_i - P_i.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .linalg import Matrix, gram_adjoint, lagrange_projectors, linear_combination
from .report import VerificationReport
from .weights import (
    FAMILY,
    ConformalWeightTable,
    HighestWeight,
    conformal_table,
    shift,
    weyl_dimension,
)
from . import gtrep
from .gtrep import Representation, block_powers

__all__ = [
    "TargetData",
    "CliffordSystem",
    "build_system",
    "derived_representation",
    "verify_relations",
    "verify_cross_relations",
    "verify_adjoint_pairing",
    "verify_equivariance",
    "verify_spinor_model",
]


@dataclass
class TargetData:
    index: int                    # i with 1 <= i <= m
    weight: HighestWeight
    dim: int
    basis: Matrix                 # N x dim, columns orthogonal for the tensor form;
                                  # row block k is the adjoint of the k-th map
    gram: Matrix                  # diagonal dim x dim, induced squared norms
    coords: Matrix                # dim x N coordinate map (left inverse of basis);
                                  # column block k is the k-th map


@dataclass
class CliffordSystem:
    rep: Representation
    sign: str
    table: ConformalWeightTable
    p: Matrix                     # P, degree 1 of the sign's family in `block_powers`
    projectors: List[Matrix]
    _targets: Dict[int, TargetData] = field(default_factory=dict, repr=False)
    _pp_cache: dict = field(default_factory=dict, repr=False)
    _tensor_gen: Dict[Tuple[int, int], Matrix] = field(default_factory=dict, repr=False)

    @property
    def m(self) -> int:
        return self.rep.m

    @property
    def chat(self) -> Matrix:
        """Chat = -2 P, the operator whose spectrum splits the tensor space."""
        return self.p.scale(-2)

    def tensor_generator(self, k: int, l: int) -> Matrix:
        """Action of e_{kl} on the tensor space, built on first use."""
        out = self._tensor_gen.get((k, l))
        if out is None:
            m, n = self.m, self.rep.dim
            out = Matrix.identity(m).kron(self.rep.gen[(k, l)]) + _aux_generator(
                m, self.sign, k, l).kron(Matrix.identity(n))
            self._tensor_gen[(k, l)] = out
        return out

    @property
    def targets(self) -> List[Optional[TargetData]]:
        """Every component, in order, each read through `target`."""
        return [self.target(i) for i in range(1, self.m + 1)]

    def target(self, i: int) -> Optional[TargetData]:
        """The component at i, None where the shift is invalid; i must lie
        in 1..m.  A component is built by `_component` on its first read,
        from the projector stored then, and kept."""
        if not 1 <= i <= self.m:
            raise ValueError(f"component index i={i} outside 1..{self.m}")
        if self.table.valid[i - 1] and i not in self._targets:
            self._targets[i] = _component(self, i)
        return self._targets.get(i)

    def p_star_p_matrix(self, i: int) -> Matrix:
        """S_i = A_i C_i, the basis times the coordinate map, whose block
        (k, l) is p_i(basis_k)^* p_i(basis_l); the zero matrix when the
        component vanishes."""
        if i not in self._pp_cache:
            t, N = self.target(i), self.m * self.rep.dim
            self._pp_cache[i] = Matrix.zeros(N, N) if t is None else t.basis * t.coords
        return self._pp_cache[i]

    def p_star_p(self, i: int, k: int, l: int) -> Matrix:
        """p_i(basis_k)^* p_i(basis_l) on the source module, block (k, l) of
        `p_star_p_matrix`; zero matrix when the component vanishes."""
        return gtrep._block(self.p_star_p_matrix(i), self.rep.dim, k, l)


def _aux_generator(m: int, sign: str, k: int, l: int) -> Matrix:
    """Action of e_{kl} on the auxiliary module: the natural one for sign +,
    its contragredient (X |-> -X^T on the conjugate basis) for sign -."""
    rows = [{} for _ in range(m)]
    if sign == "+":
        rows[k - 1][l - 1] = 1
    else:
        rows[l - 1][k - 1] = -1
    return Matrix.from_rows(rows, m)


def build_system(rep: Representation, sign: str) -> CliffordSystem:
    """The Clifford system of ``rep`` for ``sign``: P and its projectors.
    Raises `SpectralCompletenessError` on a wrong spectrum and
    `AssertionError` on a nonzero projector at an invalid shift; each
    component is built, and its rank checked, when `CliffordSystem.target`
    first reads it."""
    table = conformal_table(rep.rho, sign)  # raises on a bad sign
    # Chat = -2 P acts as -2 w_i on component i: the projectors of P at the
    # w_i are those of Chat, as Lagrange interpolation is scale invariant
    p = block_powers(rep, 1, FAMILY[sign])[1]
    projectors = lagrange_projectors(p, table.w)
    for i, (valid, proj) in enumerate(zip(table.valid, projectors), 1):
        if not valid and not proj.is_zero():
            raise AssertionError(f"projector at invalid shift i={i} is nonzero (rank "
                                 f"{proj.rank()}, expected 0)")
    return CliffordSystem(rep=rep, sign=sign, table=table, p=p, projectors=projectors)


def _component(sys: CliffordSystem, i: int) -> TargetData:
    """The component at the valid shift i, from the pivot columns of P_i
    orthogonalized against the tensor form, its rank checked against the
    Weyl dimension."""
    rep, proj = sys.rep, sys.projectors[i - 1]
    m, n, N = rep.m, rep.dim, proj.rows
    # tensor Gram form: source form on the module factor, unit form on the
    # auxiliary factor (both bases are unitary), as integers g over one dg;
    # the source form is diagonal and positive, so its entries are its diagonal
    dg, source_diag = rep.gram.integer_entries()
    g = [x for _, _, x in source_diag] * m
    # the one place the (a, k) order a m + k-1 stays: rref picks each
    # projector's pivot columns from the projector read in that order, as
    # k-major pivots give a far denser basis (rho = (3,1,-1,-3), sign +:
    # 39,275 nonzeros over 2,580-bit denominators, against 19,613 over 27-bit)
    by_a = [k * n + a for a in range(n) for k in range(m)]
    shifted = shift(rep.rho, sys.sign, i)
    expected_dim = weyl_dimension(shifted)
    _, pivots = proj.submatrix(by_a, by_a).rref()
    if len(pivots) != expected_dim:
        raise AssertionError(f"projector rank {len(pivots)} != Weyl dimension "
                             f"{expected_dim} at i={i} for {rep.rho} sign {sys.sign}")
    # orthogonalize the pivot columns against the tensor form; a column
    # is (v, dv, nv): integers {tensor index: nonzero entry} over the
    # denominator dv, and nv = dg dv^2 |v|^2.  Subtracting the projection
    # onto (u, du, nu) gives (nu v - <g u, v> u) / (nu dv).  Only the
    # earlier columns in `near`, those sharing an index with v, can have a
    # nonzero product with it; holders[a] lists the columns nonzero at a.
    columns = {by_a[c]: {} for c in pivots}
    for a, c, x in proj.nonzero_entries():
        if c in columns:
            columns[c][a] = x
    ortho: List[tuple] = []
    holders: List[List[int]] = [[] for _ in range(N)]
    for col in columns.values():
        dv = lcm(*(x.denominator for x in col.values()))
        v = {a: x.numerator * (dv // x.denominator) for a, x in col.items()}
        near = set().union(*(holders[a] for a in v))
        for j, (u, _, nu) in enumerate(ortho):
            if j not in near:
                continue
            dot = sum(g[a] * y * v[a] for a, y in u.items() if a in v)
            if dot:
                near.update(*(holders[a] for a in u.keys() - v.keys()))
                w = {a: nu * v.get(a, 0) - dot * u.get(a, 0) for a in v.keys() | u.keys()}
                h = gcd(dv * nu, *w.values())
                v = {a: x // h for a, x in w.items() if x}
                dv = dv * nu // h
        nv = sum(g[a] * x * x for a, x in v.items())
        if nv <= 0:
            raise AssertionError("pivot columns not independent")
        for a in v:
            holders[a].append(len(ortho))
        ortho.append((v, dv, nv))
    d = len(ortho)
    basis_rows = [{} for _ in range(N)]
    for r, (v, dv, _) in enumerate(ortho):
        for a, x in v.items():
            basis_rows[a][r] = Fraction(x, dv)
    basis = Matrix.from_rows(basis_rows, d)
    # coords[r, a] = basis[a, r] G_a / |v_r|^2, and G is the source form on
    # each block: row block k of the basis is the adjoint of the k-th map
    coords = Matrix.from_rows([{a: Fraction(x * g[a] * dv, nv) for a, x in v.items()}
                               for v, dv, nv in ortho], N)
    gram = Matrix.diagonal([Fraction(nv, dg * dv * dv) for _, dv, nv in ortho])
    return TargetData(index=i, weight=shifted, dim=d, basis=basis, gram=gram, coords=coords)


def target_generator(sys: CliffordSystem, i: int, k: int, l: int) -> Matrix:
    """Action of e_{kl} on the component at i, in the component basis."""
    t = sys.target(i)
    if t is None:
        raise ValueError(f"no component at i={i}")
    return t.coords * sys.tensor_generator(k, l) * t.basis


def derived_representation(sys: CliffordSystem, i: int) -> Representation:
    """The component at i as a standalone matrix model, so that a further
    system can be built on it with consistent bases: `gtrep.complete_module`
    completes and checks the compressed e_kk and simple units C_i e A_i.  It
    equals the compression of every unit: S_i = A_i C_i commutes with the
    tensor action and C_i S_i = C_i, so [C_i x A_i, C_i y A_i] = C_i [x, y] A_i,
    and C_i is the adjoint of A_i for the induced form."""
    keys = range(1, sys.m + 1)
    # target_generator raises when there is no component at i
    gen = {(k, l): target_generator(sys, i, k, l) for k in keys for l in keys if abs(k - l) <= 1}
    t = sys.target(i)
    return gtrep.complete_module(t.weight, gen, t.gram)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _check_blocks(report: VerificationReport, tag: str, params: Iterable[dict], diff: Matrix,
                  height: int, width: int):
    """One item per height x width block of ``diff``, with ``params`` in
    row-major block order: it passes when its block vanishes, and a
    failure's witness counts the block's nonzero entries."""
    across = diff.cols // width
    counts = Counter(a // height * across + b // width for a, b, _ in diff.nonzero_entries())
    for block, item in enumerate(params):
        report.check(tag, item, not counts[block],
                     witness=f"{counts[block]} nonzero entries in difference")


def _check_zero(report: VerificationReport, tag: str, params: dict, diff: Matrix):
    """One item that passes when ``diff`` vanishes."""
    _check_blocks(report, tag, [params], diff, diff.rows, diff.cols)


def _by_unit(params: dict, m: int) -> Iterator[dict]:
    """``params`` with each (k, l), k-major: the items of the m x m blocks."""
    return ({**params, "k": k, "l": l} for k in range(1, m + 1) for l in range(1, m + 1))


def _check_projection_formula(report: VerificationReport, tag: str, params: dict,
                              sys: CliffordSystem, formed: Dict[int, Matrix]):
    """One item per valid i and per l: P_i E_l = sum_k E_k p_i(basis_k)^*
    p_i(basis_l), with E_k the N x n matrix of phi |-> phi (x) basis_k, the
    identity at row block k.  So P_i is S_i, and the item of l is column
    block l of S_i - P_i, taken from ``formed`` where it holds i."""
    m, n = sys.m, sys.rep.dim
    for i in range(1, m + 1):
        if sys.table.valid[i - 1]:
            diff = formed[i] if i in formed else sys.p_star_p_matrix(i) - sys.projectors[i - 1]
            _check_blocks(report, tag, ({**params, "i": i, "l": l} for l in range(1, m + 1)),
                          diff, m * n, n)


def _check_moments(report: VerificationReport, tag: str, params: dict,
                   sys: CliffordSystem, q: int, power: Matrix):
    """One item per (k, l): sum_i w_i^q S_i over the valid i equals
    ``power``, the degree-q block power of the family paired with the
    system's sign (tilde for +, plain for -).  At q = 0 this is
    completeness."""
    terms = [(Fraction(w) ** q, sys.p_star_p_matrix(i)) for i, w in enumerate(sys.table.w, 1)
             if sys.table.valid[i - 1]]
    terms.append((-1, power))
    _check_blocks(report, tag, _by_unit(params, sys.m),
                  linear_combination(terms, power.rows, power.cols), sys.rep.dim, sys.rep.dim)


def verify_relations(sys: CliffordSystem, q_max: int) -> VerificationReport:
    """Exact matrix checks of the algebraic identities satisfied by one
    system: completeness, the degree-q trace identities against the
    enveloping-algebra elements, the Vandermonde-solved form S_i - P_i, the
    gamma trace constants, the target-side completeness and the projection
    formula, each one sum of mn x mn block matrices reported block by
    block; the intertwining is w_i C_i - C_i P by column block k.  P and
    the projectors P_i are the ones the system was built from; only the
    block powers of degree 0 .. q_max are formed here.  The cross-sign
    relations, which need both systems, are `verify_cross_relations`.
    """
    rep_ = sys.rep
    m, n = sys.m, rep_.dim
    N = m * n
    rho = rep_.rho
    report = VerificationReport()
    base = {"rho": str(rho), "sign": sys.sign}
    gammas = sys.table.gamma
    valid = [i for i in range(1, m + 1) if sys.table.valid[i - 1]]

    for i in range(1, m + 1):
        proj = sys.projectors[i - 1]
        report.check("projector-idempotent", {**base, "i": i},
                     proj * proj == proj)
        expected = weyl_dimension(shift(rho, sys.sign, i)) if sys.table.valid[i - 1] else 0
        # the rank the component's first read found with its one rref: its
        # dimension, or 0 where build_system checked that the projector vanishes
        t = sys.target(i)
        report.check("projector-rank", {**base, "i": i, "expected": expected},
                     (t.dim if t else 0) == expected)
        for j in range(i + 1, m + 1):
            _check_zero(report, "projector-orthogonal", {**base, "i": i, "j": j},
                        proj * sys.projectors[j - 1])

    powers = block_powers(rep_, q_max, FAMILY[sys.sign])

    for q in range(q_max + 1):
        _check_moments(report, "completeness" if q == 0 else "moment-identity",
                       {**base, "q": q}, sys, q, powers[q])

    # intertwining: the maps shuffle the source action into the weight factor
    for i in valid:
        maps = sys.target(i).coords
        _check_blocks(report, "intertwining", ({**base, "i": i, "k": k} for k in range(1, m + 1)),
                      linear_combination([(sys.table.w[i - 1], maps), (-1, maps * sys.p)],
                                         maps.rows, N), maps.rows, n)

    # Vandermonde-solved form: p_i^* p_i is the Lagrange basis polynomial of
    # w_i in P, the projector build_system formed from degrees < m.  The
    # projection formula reads the same difference by column block: a
    # vanishing one stores no entry and is kept for it, any other is formed
    # again there rather than held across the checks in between
    vanished = {}
    for i in valid:
        diff = sys.p_star_p_matrix(i) - sys.projectors[i - 1]
        _check_blocks(report, "vandermonde-solved", _by_unit({**base, "i": i}, m), diff, n, n)
        if diff.is_zero():
            vanished[i] = diff

    # trace constants
    for i in range(1, m + 1):
        _check_zero(report, "gamma-trace", {**base, "i": i, "gamma": gammas[i - 1]},
                    sys.p_star_p_matrix(i).block_trace(n) - gammas[i - 1] * Matrix.identity(n))

    # completeness on each component
    for i in range(1, m + 1):
        t = sys.target(i)
        if t is None:
            report.skip("target-completeness", {**base, "i": i}, "component vanishes")
            continue
        _check_zero(report, "target-completeness", {**base, "i": i},
                    t.coords * t.basis - Matrix.identity(t.dim))

    _check_projection_formula(report, "projection-formula", base, sys, vanished)
    return report


def verify_cross_relations(
    plus: CliffordSystem, minus: CliffordSystem, q_max: int
) -> VerificationReport:
    """Cross-sign relations: each shifted binomial power of one family is a
    Casimir-weighted combination of the other, with swapped basis indices:
    one sum of the near side's S_i and the far side's S_i with block (l, k)
    moved to (k, l), one item per block.  Also checks the rank of the
    emitted relation family over the symbol slots of the valid components:
    min(c, q_max + 1), with c the number of valid components of each sign."""
    if plus.sign != "+" or minus.sign != "-" or plus.rep is not minus.rep:
        raise ValueError("cross relations need the plus and the minus system of one module")
    from .bochner import binomial_template  # loads envalg, which no other check here needs
    m, n = plus.m, plus.rep.dim
    N = m * n
    rho = plus.rep.rho
    report = VerificationReport()
    base = {"rho": str(rho)}
    templates = {"+": binomial_template(plus.table, minus.table, q_max),
                 "-": binomial_template(minus.table, plus.table, q_max)}
    pp = {s.sign: [s.p_star_p_matrix(i) for i in range(1, m + 1)] for s in (plus, minus)}
    flipped = {sign: [x.block_transpose(n) for x in mats] for sign, mats in pp.items()}

    rows = []
    for q in range(q_max + 1):
        # each side shifted by -m against the other family
        for tag, left, right in (("cross-sign-plus", "+", "-"), ("cross-sign-minus", "-", "+")):
            near, far = templates[left][q]
            terms = [*zip(near, pp[left]), *zip(far, flipped[right])]
            _check_blocks(report, tag, _by_unit({**base, "q": q}, m),
                          linear_combination(terms, N, N), n, n)
            rows.append(near + far if left == "+" else far + near)

    valid_cols = [i for i in range(m) if plus.table.valid[i]] + [
        m + i for i in range(m) if minus.table.valid[i]
    ]
    restricted = Matrix([[row[c] for c in valid_cols] for row in rows])
    rank = restricted.rank()
    # Both signs have c valid components (one plus the strict descents of
    # rho).  On the valid plus columns the plus-side rows are the Vandermonde
    # matrix ((w_{+i} - m)^q) for q <= q_max, whose nodes are distinct since
    # the w_{+i} are, so the rank is at least min(c, q_max + 1).  The minus-
    # side rows add nothing to it, and this item checks that: on the valid
    # columns a row is fixed by its far part and a closed-form recoupling
    # matrix, see test_recoupling_matrix_solves_the_cross_sign_templates.
    c = sum(plus.table.valid)
    expected = min(c, q_max + 1)
    report.check(
        "cross-sign-rank",
        {**base, "relations": len(rows), "symbols": len(valid_cols), "rank": rank},
        rank == expected,
        witness=f"rank {rank}, expected min({c}, {q_max + 1}) = {expected}",
    )
    return report


def verify_equivariance(sys: CliffordSystem) -> VerificationReport:
    """Infinitesimal equivariance: commuting a generator past a map costs
    exactly the action on the auxiliary vector.  The item of k is column
    block k of e_su C_i - C_i e_su, e_su acting on the component and on the
    tensor space."""
    m = sys.m
    report = VerificationReport()
    base = {"rho": str(sys.rep.rho), "sign": sys.sign}
    for i in range(1, m + 1):
        t = sys.target(i)
        if t is None:
            continue
        for s in range(1, m + 1):
            for u in range(1, m + 1):
                _check_blocks(report, "equivariance",
                              ({**base, "i": i, "s": s, "u": u, "k": k} for k in range(1, m + 1)),
                              target_generator(sys, i, s, u) * t.coords
                              - t.coords * sys.tensor_generator(s, u), t.dim, sys.rep.dim)
    return report


def verify_adjoint_pairing(sys_plus: CliffordSystem, i: int) -> VerificationReport:
    """Phase-free comparison of the two maps between a module and its raised
    neighbour.

    With P_k the raising maps of ``sys_plus`` at i and M_k the lowering maps
    of the minus system built here on the raised component, a single
    intertwiner T with M_k = T P_k^* for every k is solved for explicitly;
    the squared-norm statement is T^* T = (1/gamma_{+i}) id together with
    M_k^* M_l = (1/gamma_{+i}) P_k P_l^* on the raised module.  Phases are
    never compared.  The minus system's source is `derived_representation`,
    whose Gram form is the plus component's, so its component i descends
    back to rho in the basis of ``sys_plus``; it is the one component of
    the minus system read here, so the only one built.
    """
    if sys_plus.sign != "+":
        raise ValueError("the adjoint pairing starts from the plus system")
    report = VerificationReport()
    m = sys_plus.m
    base = {"rho": str(sys_plus.rep.rho), "i": i}
    t_plus = sys_plus.target(i)  # raises when i lies outside 1..m
    if t_plus is None:
        report.skip("raise-lower", base, "shift not dominant")
        return report
    sys_minus = build_system(derived_representation(sys_plus, i), "-")
    t_minus = sys_minus.target(i)

    # with the maps P_k stacked by rows and the M_k and P_k^* side by side,
    # T = (1/gamma) sum_k M_k P_k is one product, and each family one sum;
    # the M_k side by side are the minus coordinate map, and the P_k and
    # P_k^* the plus coordinate map and basis, regrouped
    n, d = sys_plus.rep.dim, t_plus.dim
    inv_gamma = Fraction(1) / sys_plus.table.gamma[i - 1]
    ks = range(1, m + 1)
    blocks = [range((k - 1) * n, k * n) for k in ks]
    raising = Matrix.block([[t_plus.coords.submatrix(range(d), b)] for b in blocks])
    raising_star = Matrix.block([[t_plus.basis.submatrix(b, range(d)) for b in blocks]])
    T = (t_minus.coords * raising).scale(inv_gamma)
    _check_blocks(report, "raise-lower-proportionality", ({**base, "k": k} for k in ks),
                  t_minus.coords - T * raising_star, n, d)

    T_star = gram_adjoint(T, sys_plus.rep.gram, t_minus.gram)
    _check_zero(report, "raise-lower-ratio-squared", {**base, "ratio_squared": inv_gamma},
                linear_combination([(1, T_star * T), (-inv_gamma, Matrix.identity(n))], n, n))

    _check_blocks(report, "raise-lower-squared", _by_unit(base, m),
                  linear_combination([(1, sys_minus.p_star_p_matrix(i)),
                                      (-inv_gamma, raising * raising_star)], m * d, m * d), d, d)
    return report


def verify_spinor_model(m: int) -> VerificationReport:
    """Exterior-algebra family: for each degree p the module labelled
    (1_p, 0_{m-p}) carries at most four maps, whose table has closed forms
    and whose bilinear combinations reproduce the Clifford relation and the
    diagonal action of the matrix units.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    report = VerificationReport()
    for p in range(m + 1):
        rho = HighestWeight(tuple([1] * p + [0] * (m - p)))
        rep_ = gtrep.build_rep(rho)
        plus = build_system(rep_, "+")
        minus = build_system(rep_, "-")
        base = {"m": m, "p": p}
        wp, gp = plus.table.w, plus.table.gamma
        wm, gm = minus.table.w, minus.table.gamma

        # closed-form table rows (row, w, gamma, expected w, expected gamma),
        # whenever the row's index exists
        rows = []
        if p >= 1:
            rows += [("+1", wp[0], gp[0], -1, Fraction(p * (m + 1), p + 1)),
                     (f"-{p}", wm[p - 1], gm[p - 1], m - p + 1, Fraction(p, m - p + 1))]
        if p <= m - 1:
            rows += [(f"+{p+1}", wp[p], gp[p], p, Fraction(m - p, p + 1)),
                     (f"-{m}", wm[m - 1], gm[m - 1], 0, Fraction((m + 1) * (m - p), m - p + 1))]
        for row, w, gamma, w_0, gamma_0 in rows:
            report.check("spinor-table", {**base, "row": row}, w == w_0 and gamma == gamma_0,
                         witness=f"w={w}, gamma={gamma}")

        n = rep_.dim
        N = m * n

        # bilinear Clifford relation (creation/annihilation squared scalings)
        terms = [(-1, Matrix.identity(N))]
        if p <= m - 1:
            terms.append((p + 1, plus.p_star_p_matrix(p + 1)))
        if p >= 1:
            terms.append((m - p + 1, minus.p_star_p_matrix(p).block_transpose(n)))
        _check_blocks(report, "clifford-anticommutation", _by_unit(base, m),
                      linear_combination(terms, N, N), n, n)

        # the matrix units through the annihilation pair
        if p >= 1:
            _check_blocks(report, "unit-action", _by_unit(base, m),
                          linear_combination([(m - p + 1, minus.p_star_p_matrix(p)),
                                              (-1, minus.p)], N, N), n, n)

        # degree-1 trace identity with the closed-form weights; the plus
        # system's P is the tilde one
        _check_moments(report, "spinor-moment-identity-q1", base, plus, 1, plus.p)

        # completeness (both signs) and the projection formula
        for sysx in (plus, minus):
            params = {**base, "sign": sysx.sign}
            _check_moments(report, "spinor-completeness", params, sysx, 0, Matrix.identity(N))
            _check_projection_formula(report, "spinor-projection-formula", params, sysx, {})
    return report
