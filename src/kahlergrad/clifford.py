"""Clifford homomorphisms between explicit U(m) modules.

Given a matrix model of the module labelled rho, the tensor space with the
natural module (sign +) or its conjugate (sign -) splits into the shifted
modules labelled rho +- mu_i.  The splitting is computed by exact spectral
projection: the operator

    Chat = 2 sum_{kl} pi_rho(e_{kl}) (x) pi_aux(e_{lk})

acts as the constant -2 w_{+-i} on the component labelled rho +- mu_i, the
predicted constants are pairwise distinct, and Lagrange interpolation gives
the projectors without ever leaving Q.  The construction doubles as a proof
that the predicted spectrum is right: spectral completeness and the rank of
every projector against the Weyl dimension are checked during the build.

The maps p_{+i}(eps_k) (resp. p_{-i}(eps_bar_k)) are the compositions
phi |-> projection of (phi (x) basis vector k), written in a basis of the
projector image obtained from its pivot columns, orthogonalized in integer
arithmetic against the tensor Gram form so the induced Gram form stays
diagonal; in that basis p_{+-i}(basis_k)^* is row block k of the basis.  No
phase choices are made; every verified identity below is phase independent
(it involves p* p, p p*, or solved intertwiners), the content that survives
the unit-scalar ambiguity of the splitting.

The identities among the symbols p_i(basis_k)^* p_i(basis_l) are checked
as identities of mn x mn block matrices, the tensor index regrouped by k:
the (k, l) block of S_i = A_i C_i (A_i the adjoints stacked by rows, C_i
the maps side by side) is one symbol, and of `gtrep.block_powers` one
family element.  Each identity is one exact sum, reported block by block.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .linalg import (
    Matrix,
    gram_adjoint,
    lagrange_coefficients,
    lagrange_projectors,
    linear_combination,
)
from .report import VerificationReport
from .weights import (
    FAMILY,
    ConformalWeightTable,
    HighestWeight,
    conformal_table,
    shift,
    weyl_dimension,
)
from .bochner import binomial_template
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
    basis: Matrix                 # N x dim, columns orthogonal for the tensor form
    gram: Matrix                  # diagonal dim x dim, induced squared norms
    coords: Matrix                # dim x N coordinate map (left inverse of basis)
    pmaps: List[Matrix]           # entry k-1: dim x n matrix of the k-th map
    adjoints: List[Matrix]        # entry k-1: n x dim adjoint of pmaps[k-1]


@dataclass
class CliffordSystem:
    rep: Representation
    sign: str
    table: ConformalWeightTable
    chat: Matrix
    projectors: List[Matrix]
    targets: List[Optional[TargetData]]
    _pp_cache: dict = field(default_factory=dict, repr=False)
    _tensor_gen: Dict[Tuple[int, int], Matrix] = field(default_factory=dict, repr=False)

    @property
    def m(self) -> int:
        return self.rep.m

    def tensor_generator(self, k: int, l: int) -> Matrix:
        """Action of e_{kl} on the tensor space, built on first use."""
        out = self._tensor_gen.get((k, l))
        if out is None:
            m, n = self.m, self.rep.dim
            out = self.rep.gen[(k, l)].kron(Matrix.identity(m)) + Matrix.identity(n).kron(
                _aux_generator(m, self.sign, k, l)
            )
            self._tensor_gen[(k, l)] = out
        return out

    def target(self, i: int) -> Optional[TargetData]:
        """The component at i, None where it vanishes; i must lie in 1..m."""
        if not 1 <= i <= self.m:
            raise ValueError(f"component index i={i} outside 1..{self.m}")
        return self.targets[i - 1]

    def p_adjoint(self, i: int, k: int) -> Matrix:
        """p_i(basis_k)^*; the component must exist."""
        return self.target(i).adjoints[k - 1]

    def p_star_p_matrix(self, i: int) -> Matrix:
        """S_i = A_i C_i, A_i the adjoints stacked by rows and C_i the maps
        side by side, whose block (k, l) is p_i(basis_k)^* p_i(basis_l); the
        zero matrix when the component vanishes."""
        if i not in self._pp_cache:
            t, N = self.target(i), self.m * self.rep.dim
            self._pp_cache[i] = (Matrix.zeros(N, N) if t is None else
                                 Matrix.block([[a] for a in t.adjoints]) * Matrix.block([t.pmaps]))
        return self._pp_cache[i]

    def p_star_p(self, i: int, k: int, l: int) -> Matrix:
        """p_i(basis_k)^* p_i(basis_l) on the source module, block (k, l) of
        `p_star_p_matrix`; zero matrix when the component vanishes."""
        n = self.rep.dim
        return self.p_star_p_matrix(i).submatrix(range((k - 1) * n, k * n),
                                                 range((l - 1) * n, l * n))


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
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    m, n = rep.m, rep.dim
    N = n * m
    table = conformal_table(rep.rho, sign)

    chat = linear_combination(
        [(2, rep.gen[(k, l)].kron(_aux_generator(m, sign, l, k)))
         for k in range(1, m + 1) for l in range(1, m + 1)], N, N)

    projectors = lagrange_projectors(chat, [Fraction(-2 * w) for w in table.w])

    # tensor Gram form: source form on the module factor, unit form on the
    # auxiliary factor (both bases are unitary), as integers g over one dg
    source_diag = rep.gram.diagonal_entries()
    dg = lcm(*(x.denominator for x in source_diag))
    g = [x.numerator * (dg // x.denominator) for x in source_diag for _ in range(m)]

    targets: List[Optional[TargetData]] = []
    for i in range(1, m + 1):
        shifted = shift(rep.rho, sign, i)
        proj = projectors[i - 1]
        if shifted is None:
            if not proj.is_zero():
                raise AssertionError(
                    f"projector at invalid shift i={i} is nonzero (rank "
                    f"{proj.rank()}, expected 0)"
                )
            targets.append(None)
            continue
        expected_dim = weyl_dimension(shifted)
        _, pivots = proj.rref()
        if len(pivots) != expected_dim:
            raise AssertionError(
                f"projector rank {len(pivots)} != Weyl dimension {expected_dim} "
                f"at i={i} for {rep.rho} sign {sign}"
            )
        # orthogonalize the pivot columns against the tensor form; a column
        # is (v, dv, nv): integers {tensor index: nonzero entry} over the
        # denominator dv, and nv = dg dv^2 |v|^2.  Subtracting the projection
        # onto (u, du, nu) gives (nu v - <g u, v> u) / (nu dv).
        columns = {c: {} for c in pivots}
        for a, c, x in proj.nonzero_entries():
            if c in columns:
                columns[c][a] = x
        ortho: List[tuple] = []
        for col in columns.values():
            dv = lcm(*(x.denominator for x in col.values()))
            v = {a: x.numerator * (dv // x.denominator) for a, x in col.items()}
            for u, _, nu in ortho:
                if u.keys().isdisjoint(v):
                    continue
                dot = sum(g[a] * y * v[a] for a, y in u.items() if a in v)
                if dot:
                    w = {a: nu * v.get(a, 0) - dot * u.get(a, 0) for a in v.keys() | u.keys()}
                    h = gcd(dv * nu, *w.values())
                    v = {a: x // h for a, x in w.items() if x}
                    dv = dv * nu // h
            nv = sum(g[a] * x * x for a, x in v.items())
            if nv <= 0:
                raise AssertionError("pivot columns not independent")
            ortho.append((v, dv, nv))
        d = len(ortho)
        basis_rows = [{} for _ in range(N)]
        for r, (v, dv, _) in enumerate(ortho):
            for a, x in v.items():
                basis_rows[a][r] = Fraction(x, dv)
        basis = Matrix.from_rows(basis_rows, d)
        coords = Matrix.from_rows([{a: Fraction(x * g[a] * dv, nv) for a, x in v.items()}
                                   for v, dv, nv in ortho], N)
        # coords[r, a] = basis[a, r] G_a / |v_r|^2, and G is the source form on
        # each row block: the k-th map's adjoint is the basis at rows k-1, k-1+m, ...
        pmaps = [coords.submatrix(range(d), range(k - 1, N, m)) for k in range(1, m + 1)]
        adjoints = [basis.submatrix(range(k - 1, N, m), range(d)) for k in range(1, m + 1)]
        targets.append(
            TargetData(
                index=i,
                weight=shifted,
                dim=d,
                basis=basis,
                gram=Matrix.diagonal([Fraction(nv, dg * dv * dv) for _, dv, nv in ortho]),
                coords=coords,
                pmaps=pmaps,
                adjoints=adjoints,
            )
        )

    return CliffordSystem(
        rep=rep,
        sign=sign,
        table=table,
        chat=chat,
        projectors=projectors,
        targets=targets,
    )


def target_generator(sys: CliffordSystem, i: int, k: int, l: int) -> Matrix:
    """Action of e_{kl} on the component at i, in the component basis."""
    t = sys.target(i)
    if t is None:
        raise ValueError(f"no component at i={i}")
    return t.coords * sys.tensor_generator(k, l) * t.basis


def derived_representation(sys: CliffordSystem, i: int) -> Representation:
    """The component at i packaged as a standalone matrix model, so that a
    further system can be built on top of it with consistent bases.  Its
    invariants are not checked here; call `check_invariants` for that."""
    # target_generator raises when there is no component at i
    gen = {
        (k, l): target_generator(sys, i, k, l)
        for k in range(1, sys.m + 1)
        for l in range(1, sys.m + 1)
    }
    t = sys.target(i)
    return Representation(rho=t.weight, dim=t.dim, gen=gen, gram=t.gram)


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
                              sys: CliffordSystem):
    """One item per valid i and per l: P_i E_l = sum_k E_k p_i(basis_k)^*
    p_i(basis_l), with E_k the N x n matrix of phi |-> phi (x) basis_k (tensor
    index a*m + k-1).  With rows and columns regrouped by k, P_i is S_i; the
    item of l is column block l of the difference."""
    m, n = sys.m, sys.rep.dim
    order = [a * m + k for k in range(m) for a in range(n)]
    for i in range(1, m + 1):
        if sys.targets[i - 1] is not None:
            diff = sys.projectors[i - 1].submatrix(order, order) - sys.p_star_p_matrix(i)
            _check_blocks(report, tag, ({**params, "i": i, "l": l} for l in range(1, m + 1)),
                          diff, m * n, n)


def _check_moments(report: VerificationReport, tag: str, params: dict,
                   sys: CliffordSystem, q: int, power: Matrix):
    """One item per (k, l): sum_i w_i^q S_i over the valid i equals
    ``power``, the degree-q block power of the family paired with the
    system's sign (tilde for +, plain for -).  At q = 0 this is
    completeness."""
    terms = [(Fraction(w) ** q, sys.p_star_p_matrix(i)) for i, w in enumerate(sys.table.w, 1)
             if sys.targets[i - 1] is not None]
    terms.append((-1, power))
    _check_blocks(report, tag, _by_unit(params, sys.m),
                  linear_combination(terms, power.rows, power.cols), sys.rep.dim, sys.rep.dim)


def verify_relations(sys: CliffordSystem, q_max: int) -> VerificationReport:
    """Exact matrix checks of the algebraic identities satisfied by one
    system: completeness, the degree-q trace identities against the
    enveloping-algebra elements, the Vandermonde-solved form, the gamma
    trace constants, the target-side completeness and the projection
    formula, each one sum of mn x mn block matrices reported block by
    block; the intertwining is w_i C_i - C_i P^1 by column block k.  The
    cross-sign relations, which need both systems, are
    `verify_cross_relations`.
    """
    rep_ = sys.rep
    m, n = sys.m, rep_.dim
    N = m * n
    rho = rep_.rho
    report = VerificationReport()
    base = {"rho": str(rho), "sign": sys.sign}
    ws = [Fraction(w) for w in sys.table.w]
    gammas = sys.table.gamma
    valid = [i for i in range(1, m + 1) if sys.targets[i - 1] is not None]

    for i in range(1, m + 1):
        proj = sys.projectors[i - 1]
        report.check("projector-idempotent", {**base, "i": i},
                     proj * proj == proj)
        expected = weyl_dimension(shift(rho, sys.sign, i)) if sys.table.valid[i - 1] else 0
        # the rank build_system found with its one rref: the component's
        # dimension, or 0 where it checked that the projector vanishes
        t = sys.targets[i - 1]
        report.check("projector-rank", {**base, "i": i, "expected": expected},
                     (t.dim if t else 0) == expected)
        for j in range(i + 1, m + 1):
            _check_zero(report, "projector-orthogonal", {**base, "i": i, "j": j},
                        proj * sys.projectors[j - 1])

    # degrees up to m-1 are also needed by the Vandermonde-solved form, and
    # degree 1 by the intertwining
    powers = block_powers(rep_, max(q_max, m - 1, 1), FAMILY[sys.sign])

    for q in range(q_max + 1):
        _check_moments(report, "completeness" if q == 0 else "moment-identity",
                       {**base, "q": q}, sys, q, powers[q])

    # intertwining: the maps shuffle the source action into the weight factor
    for i in valid:
        maps = Matrix.block([sys.targets[i - 1].pmaps])
        _check_blocks(report, "intertwining", ({**base, "i": i, "k": k} for k in range(1, m + 1)),
                      linear_combination([(ws[i - 1], maps), (-1, maps * powers[1])],
                                         maps.rows, N), maps.rows, n)

    # Vandermonde-solved form: p_i^* p_i as a combination of degrees < m
    for i in valid:
        # minus the Lagrange basis polynomial of w_i, degree by degree
        terms = [(-c, power) for c, power in zip(lagrange_coefficients(ws, i - 1), powers)]
        terms.append((1, sys.p_star_p_matrix(i)))
        _check_blocks(report, "vandermonde-solved", _by_unit({**base, "i": i}, m),
                      linear_combination(terms, N, N), n, n)

    # trace constants
    ident = Matrix.identity(n)
    for i in range(1, m + 1):
        terms = [(1, sys.p_star_p(i, k, k)) for k in range(1, m + 1)]
        terms.append((-gammas[i - 1], ident))
        _check_zero(report, "gamma-trace", {**base, "i": i, "gamma": gammas[i - 1]},
                    linear_combination(terms, n, n))

    # completeness on each component
    for i in range(1, m + 1):
        t = sys.targets[i - 1]
        if t is None:
            report.skip("target-completeness", {**base, "i": i}, "component vanishes")
            continue
        _check_zero(report, "target-completeness", {**base, "i": i},
                    Matrix.block([t.pmaps]) * Matrix.block([[a] for a in t.adjoints])
                    - Matrix.identity(t.dim))

    _check_projection_formula(report, "projection-formula", base, sys)
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
    # side rows add nothing to it on every family scanned (m <= 4 at bound 2
    # and m = 5 at bound 1, q_max <= 3), and this item checks that.
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
    exactly the action on the auxiliary vector."""
    rep_ = sys.rep
    m = sys.m
    report = VerificationReport()
    base = {"rho": str(rep_.rho), "sign": sys.sign}
    for i in range(1, m + 1):
        t = sys.targets[i - 1]
        if t is None:
            continue
        tg = {(s, u): target_generator(sys, i, s, u)
              for s in range(1, m + 1) for u in range(1, m + 1)}
        for s in range(1, m + 1):
            for u in range(1, m + 1):
                for k in range(1, m + 1):
                    pk = t.pmaps[k - 1]
                    terms = [(1, tg[(s, u)] * pk), (-1, pk * rep_.gen[(s, u)])]
                    if sys.sign == "+" and u == k:
                        terms.append((-1, t.pmaps[s - 1]))
                    if sys.sign == "-" and s == k:
                        terms.append((1, t.pmaps[u - 1]))
                    _check_zero(report, "equivariance",
                                {**base, "i": i, "s": s, "u": u, "k": k},
                                linear_combination(terms, t.dim, rep_.dim))
    return report


def verify_adjoint_pairing(
    sys_plus: CliffordSystem, sys_minus_on_target: CliffordSystem, i: int
) -> VerificationReport:
    """Phase-free comparison of the two maps between a module and its raised
    neighbour.

    With P_k the raising maps of ``sys_plus`` at i and M_k the lowering maps
    of the minus system built on the raised module (whose source basis must
    be the raised component of ``sys_plus``), a single intertwiner T with
    M_k = T P_k^* for every k is solved for explicitly; the squared-norm
    statement is T^* T = (1/gamma_{+i}) id together with
    M_k^* M_l = (1/gamma_{+i}) P_k P_l^* on the raised module.  Phases are
    never compared.
    """
    report = VerificationReport()
    m = sys_plus.m
    rho = sys_plus.rep.rho
    base = {"rho": str(rho), "i": i}
    raised = shift(rho, "+", i)
    if raised is None:
        report.skip("raise-lower", base, "shift not dominant")
        return report
    if sys_minus_on_target is None:
        raise ValueError(
            f"shift at i={i} is dominant; the minus system on {raised} is required"
        )
    if sys_minus_on_target.sign != "-" or sys_minus_on_target.rep.rho != raised:
        raise ValueError(
            "second system must be the minus system on the raised module "
            f"{raised}, got sign {sys_minus_on_target.sign} on "
            f"{sys_minus_on_target.rep.rho}"
        )
    t_plus = sys_plus.targets[i - 1]
    t_minus = sys_minus_on_target.targets[i - 1]
    if t_minus is None or t_minus.weight != rho:
        raise ValueError("minus system does not descend back to the source module")
    if sys_minus_on_target.rep.gram != t_plus.gram:
        raise ValueError("bases are not shared: build the minus system on the "
                         "derived representation of the plus target")

    # with the maps P_k stacked by rows and the M_k and P_k^* side by side,
    # T = (1/gamma) sum_k M_k P_k is one product, and each family one sum
    n, d = sys_plus.rep.dim, t_plus.dim
    inv_gamma = Fraction(1) / sys_plus.table.gamma[i - 1]
    lowering, raising = Matrix.block([t_minus.pmaps]), Matrix.block([[p] for p in t_plus.pmaps])
    raising_star = Matrix.block([t_plus.adjoints])
    T = (lowering * raising).scale(inv_gamma)
    _check_blocks(report, "raise-lower-proportionality",
                  ({**base, "k": k} for k in range(1, m + 1)), lowering - T * raising_star, n, d)

    T_star = gram_adjoint(T, sys_plus.rep.gram, t_minus.gram)
    _check_zero(report, "raise-lower-ratio-squared", {**base, "ratio_squared": inv_gamma},
                linear_combination([(1, T_star * T), (-inv_gamma, Matrix.identity(n))], n, n))

    _check_blocks(report, "raise-lower-squared", _by_unit(base, m),
                  linear_combination([(1, sys_minus_on_target.p_star_p_matrix(i)),
                                      (-inv_gamma, raising * raising_star)], m * d, m * d), d, d)
    return report


def verify_spinor_model(m: int) -> VerificationReport:
    """Exterior-algebra family: for each degree p the module labelled
    (1_p, 0_{m-p}) carries at most four maps, whose table has closed forms
    and whose bilinear combinations reproduce the Clifford relation and the
    diagonal action of the matrix units.
    """
    from .gtrep import build_rep

    if m < 2:
        raise ValueError("need m >= 2")
    report = VerificationReport()
    for p in range(m + 1):
        rho = HighestWeight(tuple([1] * p + [0] * (m - p)))
        rep_ = build_rep(rho)
        plus = build_system(rep_, "+")
        minus = build_system(rep_, "-")
        base = {"m": m, "p": p}
        wp, gp = plus.table.w, plus.table.gamma
        wm, gm = minus.table.w, minus.table.gamma

        # closed-form table rows, whenever the row's index exists
        if p >= 1:
            report.check("spinor-table", {**base, "row": "+1"},
                         wp[0] == -1 and gp[0] == Fraction(p * (m + 1), p + 1),
                         witness=f"w={wp[0]}, gamma={gp[0]}")
            report.check("spinor-table", {**base, "row": f"-{p}"},
                         wm[p - 1] == m - p + 1 and gm[p - 1] == Fraction(p, m - p + 1),
                         witness=f"w={wm[p-1]}, gamma={gm[p-1]}")
        if p <= m - 1:
            report.check("spinor-table", {**base, "row": f"+{p+1}"},
                         wp[p] == p and gp[p] == Fraction(m - p, p + 1),
                         witness=f"w={wp[p]}, gamma={gp[p]}")
            report.check("spinor-table", {**base, "row": f"-{m}"},
                         wm[m - 1] == 0
                         and gm[m - 1] == Fraction((m + 1) * (m - p), m - p + 1),
                         witness=f"w={wm[m-1]}, gamma={gm[m-1]}")

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
                                              (-1, block_powers(rep_, 1)[1])], N, N), n, n)

        # degree-1 trace identity with the closed-form weights
        degree0, degree1 = block_powers(rep_, 1, "tilde")
        _check_moments(report, "spinor-moment-identity-q1", base, plus, 1, degree1)

        # completeness (both signs) and the projection formula
        for sysx in (plus, minus):
            params = {**base, "sign": sysx.sign}
            _check_moments(report, "spinor-completeness", params, sysx, 0, degree0)
            _check_projection_formula(report, "spinor-projection-formula", params, sysx)
    return report
