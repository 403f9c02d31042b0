"""Coefficient content of the Bochner-type identities and their scalar
specializations.

Identities are emitted as exact rational coefficient records over the formal
second-order operators D_{-i}^* D_{-i} and D_{+i}^* D_{+i}, with the
curvature side isolated as a list of formal tokens (R^p, the connection
Laplacians, and multiples of the scalar curvature kappa).  The manifold-level
meaning of the tokens is out of scope here; the algebraic shadow of each
identity is validated at the matrix level through the cross-sign relations
of the Clifford systems, whose coefficients come from `binomial_template`.

Degree 0 is a family (the two halves, their sum and their difference), so
the emitters return lists of identity records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import List, Optional, Tuple

from .envalg import binomial_shift, k_series
from .weights import ConformalWeightTable, HighestWeight, conformal_table, family_table, shift

__all__ = [
    "CurvatureTerm",
    "BochnerIdentity",
    "EigenvalueBound",
    "binomial_template",
    "bochner_identity",
    "weitzenboeck",
    "constant_curvature_scalar",
    "cpm_holomorphic_eigenvalue",
    "kirchberg_bound",
    "dolbeault_identities",
]

TOKEN_ORDER = ["nabla*nabla", "nabla10*nabla10", "nabla01*nabla01", "kappa"]


@dataclass(frozen=True)
class CurvatureTerm:
    token: str
    coeff: Fraction


def _sort_curvature(terms) -> Tuple[CurvatureTerm, ...]:
    merged: dict = {}
    for t in terms:
        merged[t.token] = merged.get(t.token, Fraction(0)) + t.coeff

    def key(token: str):
        if token.startswith("R^"):
            return (1, int(token[2:]))
        return (0, TOKEN_ORDER.index(token))

    return tuple(
        CurvatureTerm(tok, co)
        for tok, co in sorted(merged.items(), key=lambda kv: key(kv[0]))
        if co
    )


@dataclass
class BochnerIdentity:
    """One identity line: sum_i minus[i] D_{-i}^*D_{-i} + plus[i] D_{+i}^*D_{+i}
    equals the curvature side.  Coefficient lists are 0-based over i = 1..m;
    coefficients at invalid shifts multiply operators that vanish on the
    associated module and are reported as such via the validity flags."""

    rho: HighestWeight
    q: Optional[int]
    label: str
    minus_coeffs: Tuple[Fraction, ...]
    plus_coeffs: Tuple[Fraction, ...]
    curvature: Tuple[CurvatureTerm, ...]
    minus_valid: Tuple[bool, ...]
    plus_valid: Tuple[bool, ...]
    dbar: Optional[dict] = None

    @property
    def m(self) -> int:
        return self.rho.m


def _tables(rho):
    return conformal_table(rho, "-"), conformal_table(rho, "+")


def _record(tables, q, label, minus, plus, curv, dbar=None) -> BochnerIdentity:
    """One identity record on the module of the (minus, plus) ``tables``.  A
    coefficient side is a list over i = 1..m or a dict {i: coefficient}."""
    tm, tp = tables

    def side(coeffs) -> Tuple[Fraction, ...]:
        if isinstance(coeffs, dict):
            coeffs = [coeffs.get(i, 0) for i in range(1, tm.rho.m + 1)]
        return tuple(Fraction(c) for c in coeffs)

    return BochnerIdentity(
        rho=tm.rho, q=q, label=label,
        minus_coeffs=side(minus), plus_coeffs=side(plus),
        curvature=_sort_curvature(curv),
        minus_valid=tm.valid, plus_valid=tp.valid, dbar=dbar,
    )


def binomial_template(near: ConformalWeightTable, far: ConformalWeightTable,
                      q_max: int) -> List[Tuple[Tuple[Fraction, ...], ...]]:
    """For q = 0 .. q_max, the (near, far) coefficients of the degree-q
    cross-sign relation of the maps of the ``near`` table's sign: near_i =
    (w_i - m)^q on their p_i^* p_i, far_i = (-1)^{q+1} sum_p K_{q-p}(-c')
    w'_i^p on those of the other sign, w' and c' the weights and Casimirs of
    ``far``, the other sign's table of the same weight (tilde for sign -)."""
    if near.rho != far.rho or near.sign == far.sign:
        raise ValueError("need the tables of both signs on one weight")
    m = near.rho.m
    near_w, far_w = ([Fraction(w) for w in t.w] for t in (near, far))
    ks = k_series(far, q_max)   # far's Casimirs are those of FAMILY[far.sign]
    return [
        (tuple((w - m) ** q for w in near_w),
         tuple(Fraction(-1) ** (q + 1) * sum(ks[q - p] * w ** p for p in range(q + 1))
               for w in far_w))
        for q in range(q_max + 1)
    ]


def bochner_identity(rho, q: int) -> List[BochnerIdentity]:
    """Identity family at one degree.

    Degree 0 gives the two one-sided Laplacian halves, their sum (the full
    connection Laplacian) and their difference (the mean curvature).  Degree
    1 gives the conformal-weight-weighted combination equal to R^1.  Higher
    degrees take both sides from the sign - `binomial_template`:
    (w_{-i} - m)^q on the minus side, (-1)^{q+1} sum_p K_{q-p}(-c~) w_{+i}^p
    on the plus side, and sum_p C(q,p)(-m)^{q-p} R^p on the curvature side.
    """
    rho = HighestWeight.coerce(rho)
    if q < 0:
        raise ValueError("q must be nonnegative")
    m = rho.m
    tables = tm, tp = _tables(rho)
    ones, zeros = [1] * m, [0] * m
    if q == 0:
        return [
            _record(tables, 0, "degree-0-minus-part", ones, zeros,
                    [CurvatureTerm("nabla10*nabla10", Fraction(1))]),
            _record(tables, 0, "degree-0-plus-part", zeros, ones,
                    [CurvatureTerm("nabla01*nabla01", Fraction(1))]),
            _record(tables, 0, "degree-0-laplacian", ones, ones,
                    [CurvatureTerm("nabla*nabla", Fraction(1))]),
            _record(tables, 0, "degree-0-curvature", ones, [-1] * m,
                    [CurvatureTerm("R^0", Fraction(1))]),
        ]
    if q == 1:
        return [_record(tables, 1, "degree-1", tm.w, tp.w, [CurvatureTerm("R^1", Fraction(1))])]
    minus, plus = binomial_template(tm, tp, q)[q]
    curv = [CurvatureTerm(f"R^{p}", binomial_shift(q, p, m)) for p in range(q + 1)]
    return [_record(tables, q, f"degree-{q}", minus, plus, curv)]


def weitzenboeck(rho) -> BochnerIdentity:
    """The combination cancelling the top and bottom operators.

    sum_{i<m} 2(rho^i - rho^m + m - i)/(rho^1 - rho^m) D_{-i}^*D_{-i}
    + sum_{i>1} 2(rho^1 - rho^i + i - 1)/(rho^1 - rho^m) D_{+i}^*D_{+i}
    = nabla*nabla + 2/(rho^1 - rho^m) R^1 - (rho^1 + rho^m)/(rho^1 - rho^m) R^0.

    Requires a module of rank >= 2 (rho^1 > rho^m); determinant powers have
    no such combination.
    """
    rho = HighestWeight.coerce(rho)
    m = rho.m
    top, bottom = rho.entries[0], rho.entries[-1]
    span = top - bottom
    if span == 0:
        raise ValueError(
            f"weight {rho} labels a rank-1 module (rho^1 = rho^m); the "
            "top/bottom cancellation needs rank >= 2"
        )
    minus = [Fraction(2 * (rho.entries[i - 1] - bottom + m - i), span) if i < m else 0
             for i in range(1, m + 1)]
    plus = [Fraction(2 * (top - rho.entries[i - 1] + i - 1), span) if i > 1 else 0
            for i in range(1, m + 1)]
    if any(c < 0 for c in minus + plus):
        raise AssertionError(f"negative Weitzenboeck coefficient for {rho}: {minus}, {plus}")
    curv = [
        CurvatureTerm("nabla*nabla", Fraction(1)),
        CurvatureTerm("R^1", Fraction(2, span)),
        CurvatureTerm("R^0", -Fraction(top + bottom, span)),
    ]
    return _record(_tables(rho), None, "weitzenboeck", minus, plus, curv)


def constant_curvature_scalar(rho, q: int, r) -> Fraction:
    """Scalar by which the degree-q curvature endomorphism acts when the
    holomorphic sectional curvature is a constant r:
    (r/2) (c_q c_1 + c_{q+1})."""
    rho = HighestWeight.coerce(rho)
    if q < 0:
        raise ValueError("q must be nonnegative")
    r = Fraction(r)
    tab = family_table(rho, "plain")
    return r / 2 * (tab.casimir(q) * tab.casimir(1) + tab.casimir(q + 1))


def cpm_holomorphic_eigenvalue(rho, i: int, r) -> Fraction:
    """Eigenvalue (r/2) gamma_{-i} (w_{-i} + sum rho^j) of D_{-i}^*D_{-i} on
    nonzero holomorphic sections over the constant-curvature model."""
    rho = HighestWeight.coerce(rho)
    if shift(rho, "-", i) is None:
        raise ValueError(
            f"no gradient at i={i}: the lowered weight is not dominant"
        )
    r = Fraction(r)
    tab = conformal_table(rho, "-")
    return r / 2 * tab.gamma[i - 1] * (tab.w[i - 1] + sum(rho.entries))


@dataclass(frozen=True)
class EigenvalueBound:
    m: int
    bound_coefficient: Fraction     # multiplier of kappa_0 / 4
    witness_p: int

    def __post_init__(self):
        if not self.bound_coefficient > 1:
            raise AssertionError(f"bound coefficient {self.bound_coefficient} is not > 1")


def kirchberg_bound(m: int) -> EigenvalueBound:
    """min over p < m of max{(2p+2)/(2p+1), (2m-2p)/(2m-2p-1)}, with the
    minimizing degree; agrees with m/(m-1) for even m and (m+1)/m for odd."""
    if m < 2:
        raise ValueError("need complex dimension m >= 2")
    best = None
    witness = None
    for p in range(m):
        val = max(Fraction(2 * p + 2, 2 * p + 1), Fraction(2 * m - 2 * p, 2 * m - 2 * p - 1))
        if best is None or val < best:
            best, witness = val, p
    closed = Fraction(m, m - 1) if m % 2 == 0 else Fraction(m + 1, m)
    if best != closed:
        raise AssertionError(f"bound {best} at m={m} differs from the closed form {closed}")
    return EigenvalueBound(m=m, bound_coefficient=best, witness_p=witness)


def dolbeault_identities(m: int, p: int) -> List[BochnerIdentity]:
    """The identity family on the degree-p exterior module (1_p, 0_{m-p}),
    untwisted and twisted by the square root of the canonical bundle.

    The curvature rewrites specific to this family are applied as token
    substitutions: R^1 = R^0 on the exterior modules, R^0 = 0 at p = 0 and
    R^0 = kappa/2 at p = m, and the square-root twist contributes -kappa/4
    at degree 0 and -R^0/2 at degree 1.
    """
    if not 0 <= p <= m:
        raise ValueError(f"need 0 <= p <= m, got p={p}, m={m}")
    if m < 2:
        raise ValueError("need m >= 2")
    rho = HighestWeight(tuple([1] * p + [0] * (m - p)))
    tables = tm, tp = _tables(rho)
    mk = partial(_record, tables, None)

    # R^0 specializes to a kappa multiple at the boundary degrees
    def r0_terms(factor: Fraction):
        if p == 0:
            return []
        if p == m:
            return [CurvatureTerm("kappa", factor / 2)]
        return [CurvatureTerm("R^0", factor)]

    # the valid maps: lowering p and m, raising 1 and p+1
    minus_ops = {i: 1 for i, ok in enumerate(tm.valid, 1) if ok}
    plus_ops = {i: 1 for i, ok in enumerate(tp.valid, 1) if ok}
    w_minus = {i: tm.w[i - 1] for i in minus_ops}
    w_plus = {i: tp.w[i - 1] for i in plus_ops}

    out = [
        mk("dolbeault-laplacian", minus_ops, plus_ops,
           [CurvatureTerm("nabla*nabla", Fraction(1))]),
        mk("dolbeault-curvature", minus_ops,
           {i: -c for i, c in plus_ops.items()}, r0_terms(Fraction(1))),
        mk("dolbeault-degree-1", w_minus, w_plus, r0_terms(Fraction(1))),
    ]

    # top/bottom cancellation, on the operator side of the Lichnerowicz
    # record; at p = 0 and p = m only one operator remains
    lich_minus = {p: 2 * (m - p + 1)} if p >= 1 else {}
    lich_plus = {p + 1: 2 * (p + 1)} if p <= m - 1 else {}
    out.append(mk("dolbeault-weitzenboeck", lich_minus, lich_plus,
                  [CurvatureTerm("nabla*nabla", Fraction(1))] + r0_terms(Fraction(1))))

    # square-root twist: degree-0 pieces gain -kappa/4, degree-1 gains -R^0/2
    out.append(mk("spin-laplacian", minus_ops, plus_ops,
                  [CurvatureTerm("nabla*nabla", Fraction(1))]))
    out.append(mk("spin-curvature", minus_ops,
                  {i: -c for i, c in plus_ops.items()},
                  r0_terms(Fraction(1)) + [CurvatureTerm("kappa", Fraction(-1, 4))]))
    out.append(mk("spin-degree-1", w_minus, w_plus, r0_terms(Fraction(1, 2))))

    out.append(mk("lichnerowicz", lich_minus, lich_plus,
                  [CurvatureTerm("nabla*nabla", Fraction(1)),
                   CurvatureTerm("kappa", Fraction(1, 4))]))

    # Dirac eigenvalue line: twisted top/bottom operators against the
    # one-sided Laplacians, with the weights that drive the min-max bound
    dbar = {
        "dbar_dbar_star": Fraction(2 * m - 2 * p + 1, 2 * m - 2 * p + 2),
        "dbar_star_dbar": Fraction(2 * p + 1, 2 * p + 2),
    }
    if p == 0:
        out.append(mk("dirac-estimate", {m: -1}, {1: 1},
                      [CurvatureTerm("kappa", Fraction(1, 4))], dbar=dbar))
    elif p == m:
        out.append(mk("dirac-estimate", {m: 1}, {1: -1},
                      [CurvatureTerm("kappa", Fraction(1, 4))], dbar=dbar))
    else:
        out.append(mk("dirac-estimate",
                      {p: 2 * m - 2 * p + 1, m: -1},
                      {p + 1: 2 * p + 1, 1: -1},
                      [CurvatureTerm("kappa", Fraction(1, 4))], dbar=dbar))
    return out
