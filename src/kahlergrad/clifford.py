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
projector image obtained from its pivot columns, orthogonalized against the
tensor Gram form so the induced Gram form stays diagonal; in that basis
p_{+-i}(basis_k)^* is row block k of the basis.  No phase choices are made;
every verified identity below is phase independent (it involves p* p, p p*,
or solved intertwiners), the content that survives the unit-scalar
ambiguity of the splitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

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
from .gtrep import Representation, e_power_matrices

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

    def p_star_p(self, i: int, k: int, l: int) -> Matrix:
        """p_i(basis_k)^* p_i(basis_l) on the source module; zero matrix when
        the component vanishes."""
        key = (i, k, l)
        cached = self._pp_cache.get(key)
        if cached is not None:
            return cached
        t = self.target(i)
        n = self.rep.dim
        if t is None:
            out = Matrix.zeros(n, n)
        else:
            out = self.p_adjoint(i, k) * t.pmaps[l - 1]
        self._pp_cache[key] = out
        return out


def _aux_generator(m: int, sign: str, k: int, l: int) -> Matrix:
    """Action of e_{kl} on the auxiliary module: the natural one for sign +,
    its contragredient (X |-> -X^T on the conjugate basis) for sign -."""
    out = Matrix.zeros(m, m)
    if sign == "+":
        out[k - 1, l - 1] = 1
    else:
        out[l - 1, k - 1] = -1
    return out


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
    # auxiliary factor (both bases are unitary)
    source_diag = rep.gram.diagonal_entries()
    tensor_diag = [source_diag[a] for a in range(n) for _ in range(m)]

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
        # is a dict {tensor index: nonzero entry}
        columns = {c: {} for c in pivots}
        for a, c, x in proj.nonzero_entries():
            if c in columns:
                columns[c][a] = x
        ortho: List[dict] = []
        norms: List[Fraction] = []
        for v in columns.values():
            for u, nu in zip(ortho, norms):
                if u.keys().isdisjoint(v):
                    continue
                coeff = sum(tensor_diag[a] * y * v[a] for a, y in u.items() if a in v) / nu
                if coeff:
                    for a, y in u.items():
                        x = v[a] - coeff * y if a in v else -coeff * y
                        if x:
                            v[a] = x
                        else:
                            del v[a]
            nv = sum(tensor_diag[a] * x * x for a, x in v.items())
            if nv <= 0:
                raise AssertionError("pivot columns not independent")
            ortho.append(v)
            norms.append(nv)
        d = len(ortho)
        basis = Matrix.zeros(N, d)
        coords = Matrix.zeros(d, N)
        for r, (v, nv) in enumerate(zip(ortho, norms)):
            for a, x in v.items():
                basis[a, r] = x
                coords[r, a] = x * tensor_diag[a] / nv
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
                gram=Matrix.diagonal(norms),
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

def _check_zero(report: VerificationReport, tag: str, params: dict, *diffs: Matrix):
    """One item that passes when every matrix of ``diffs`` vanishes; a
    failure's witness counts their nonzero entries."""
    count = sum(diff.nonzero_count() for diff in diffs)
    report.check(tag, params, not count, witness=f"{count} nonzero entries in difference")


def _check_projection_formula(report: VerificationReport, tag: str, params: dict,
                              sys: CliffordSystem):
    """One item per valid i and per l: P_i E_l = sum_k E_k p_i(basis_k)^*
    p_i(basis_l), with E_k the N x n matrix of phi |-> phi (x) basis_k (tensor
    index a*m + k-1), by row blocks: block k (rows k-1, k-1+m, ...) is P_i at
    the columns l-1, l-1+m, ... on the left and the k-th term on the right."""
    m = sys.m
    N = m * sys.rep.dim
    for i in range(1, m + 1):
        if sys.targets[i - 1] is not None:
            proj = sys.projectors[i - 1]
            for l in range(1, m + 1):
                cols = range(l - 1, N, m)
                _check_zero(report, tag, {**params, "i": i, "l": l},
                            *[proj.submatrix(range(k - 1, N, m), cols) - sys.p_star_p(i, k, l)
                              for k in range(1, m + 1)])


def _check_moments(report: VerificationReport, tag: str, params: dict,
                   sys: CliffordSystem, q: int, power: Dict[Tuple[int, int], Matrix]):
    """One item per (k, l): sum_i w_i^q p_i(basis_k)^* p_i(basis_l) over the
    valid i equals power[(k, l)], the (k, l) block of degree q of the family
    paired with the system's sign (tilde for +, plain for -).  At q = 0 this
    is completeness."""
    m, n = sys.m, sys.rep.dim
    coeffs = [(i, Fraction(w) ** q) for i, w in enumerate(sys.table.w, 1)
              if sys.targets[i - 1] is not None]
    for k in range(1, m + 1):
        for l in range(1, m + 1):
            terms = [(c, sys.p_star_p(i, k, l)) for i, c in coeffs]
            terms.append((-1, power[(k, l)]))
            _check_zero(report, tag, {**params, "k": k, "l": l},
                        linear_combination(terms, n, n))


def verify_relations(sys: CliffordSystem, q_max: int) -> VerificationReport:
    """Exact matrix checks of the algebraic identities satisfied by one
    system: completeness, the degree-q trace identities against the
    enveloping-algebra elements, the Vandermonde-solved form, the gamma
    trace constants, the target-side completeness and the projection
    formula.  The cross-sign relations, which need both systems, are
    `verify_cross_relations`.
    """
    rep_ = sys.rep
    m, n = sys.m, rep_.dim
    rho = rep_.rho
    report = VerificationReport()
    base = {"rho": str(rho), "sign": sys.sign}
    ws = [Fraction(w) for w in sys.table.w]
    gammas = sys.table.gamma
    valid = [i for i in range(1, m + 1) if sys.targets[i - 1] is not None]
    units = [(k, l) for k in range(1, m + 1) for l in range(1, m + 1)]

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

    # degrees up to m-1 are also needed by the Vandermonde-solved form
    powers = e_power_matrices(rep_, max(q_max, m - 1), FAMILY[sys.sign])

    for q in range(q_max + 1):
        _check_moments(report, "completeness" if q == 0 else "moment-identity",
                       {**base, "q": q}, sys, q, powers[q])

    # intertwining: the maps shuffle the source action into the weight factor
    for i in valid:
        t = sys.targets[i - 1]
        for k in range(1, m + 1):
            terms = [(ws[i - 1], t.pmaps[k - 1])]
            for l in range(1, m + 1):
                if sys.sign == "+":
                    terms.append((1, t.pmaps[l - 1] * rep_.gen[(k, l)]))
                else:
                    terms.append((-1, t.pmaps[l - 1] * rep_.gen[(l, k)]))
            _check_zero(report, "intertwining", {**base, "i": i, "k": k},
                        linear_combination(terms, t.dim, n))

    # Vandermonde-solved form: p_i^* p_i as a combination of degrees < m
    for i in valid:
        # minus the Lagrange basis polynomial of w_i, degree by degree
        coeffs = [-c for c in lagrange_coefficients(ws, i - 1)]
        for k, l in units:
            terms = [(1, sys.p_star_p(i, k, l))]
            terms += [(c, powers[j][(k, l)]) for j, c in enumerate(coeffs)]
            _check_zero(report, "vandermonde-solved", {**base, "i": i, "k": k, "l": l},
                        linear_combination(terms, n, n))

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
        terms = [(1, t.pmaps[k - 1] * sys.p_adjoint(i, k)) for k in range(1, m + 1)]
        terms.append((-1, Matrix.identity(t.dim)))
        _check_zero(report, "target-completeness", {**base, "i": i},
                    linear_combination(terms, t.dim, t.dim))

    _check_projection_formula(report, "projection-formula", base, sys)
    return report


def verify_cross_relations(
    plus: CliffordSystem, minus: CliffordSystem, q_max: int
) -> VerificationReport:
    """Cross-sign relations: each shifted binomial power of one family is a
    Casimir-weighted combination of the other, with swapped basis indices.
    Also checks the rank of the emitted relation family over the symbol
    slots of the valid components: min(c, q_max + 1), with c the number of
    valid components of each sign."""
    if plus.sign != "+" or minus.sign != "-" or plus.rep is not minus.rep:
        raise ValueError("cross relations need the plus and the minus system of one module")
    m, n = plus.m, plus.rep.dim
    rho = plus.rep.rho
    report = VerificationReport()
    base = {"rho": str(rho)}
    templates = {sign: binomial_template(rho, q_max, sign) for sign in "+-"}

    rows = []
    for q in range(q_max + 1):
        # each side shifted by -m against the other family
        for tag, left, right in (("cross-sign-plus", plus, minus),
                                 ("cross-sign-minus", minus, plus)):
            near, far = templates[left.sign][q]
            for k in range(1, m + 1):
                for l in range(1, m + 1):
                    terms = [(c, left.p_star_p(i, k, l)) for i, c in enumerate(near, 1)]
                    terms += [(c, right.p_star_p(i, l, k)) for i, c in enumerate(far, 1)]
                    _check_zero(report, tag, {**base, "q": q, "k": k, "l": l},
                                linear_combination(terms, n, n))
            rows.append(near + far if left is plus else far + near)

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

    gamma = sys_plus.table.gamma[i - 1]
    P, M = t_plus.pmaps, t_minus.pmaps
    P_star, M_star = t_plus.adjoints, t_minus.adjoints

    n = sys_plus.rep.dim
    inv_gamma = Fraction(1) / gamma
    T = linear_combination([(inv_gamma, M[k] * P[k]) for k in range(m)], t_minus.dim, n)

    for k in range(m):
        _check_zero(report, "raise-lower-proportionality", {**base, "k": k + 1},
                    M[k] - T * P_star[k])

    T_star = gram_adjoint(T, sys_plus.rep.gram, t_minus.gram)
    _check_zero(report, "raise-lower-ratio-squared", {**base, "ratio_squared": inv_gamma},
                linear_combination([(1, T_star * T), (-inv_gamma, Matrix.identity(n))], n, n))

    for k in range(m):
        for l in range(m):
            _check_zero(report, "raise-lower-squared", {**base, "k": k + 1, "l": l + 1},
                        linear_combination([(1, M_star[k] * M[l]),
                                            (-inv_gamma, P[k] * P_star[l])],
                                           t_plus.dim, t_plus.dim))
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
        ident = Matrix.identity(n)
        units = [(k, l) for k in range(1, m + 1) for l in range(1, m + 1)]

        # bilinear Clifford relation (creation/annihilation squared scalings)
        for k, l in units:
            terms = [(-1, ident)] if k == l else []
            if p <= m - 1:
                terms.append((p + 1, plus.p_star_p(p + 1, k, l)))
            if p >= 1:
                terms.append((m - p + 1, minus.p_star_p(p, l, k)))
            _check_zero(report, "clifford-anticommutation", {**base, "k": k, "l": l},
                        linear_combination(terms, n, n))

        # the matrix units through the annihilation pair
        if p >= 1:
            for k, l in units:
                _check_zero(report, "unit-action", {**base, "k": k, "l": l},
                            linear_combination([(m - p + 1, minus.p_star_p(p, k, l)),
                                                (-1, rep_.gen[(k, l)])], n, n))

        # degree-1 trace identity with the closed-form weights
        degree0, degree1 = e_power_matrices(rep_, 1, "tilde")
        _check_moments(report, "spinor-moment-identity-q1", base, plus, 1, degree1)

        # completeness (both signs) and the projection formula
        for sysx in (plus, minus):
            params = {**base, "sign": sysx.sign}
            _check_moments(report, "spinor-completeness", params, sysx, 0, degree0)
            _check_projection_formula(report, "spinor-projection-formula", params, sysx)
    return report
