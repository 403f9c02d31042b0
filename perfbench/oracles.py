"""Closed forms the benchmark checks `kahlergrad verify` reports against.

Nothing here imports `kahlergrad`: every value is recomputed from its
defining formula, so a fault in `weights` or `bochner` cannot hide itself by
agreeing with its own output.  Weights are tuples of ints; indices i are
1-based as in the report params.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod


def weight_label(rho) -> str:
    """The report's spelling of a weight, e.g. ``(2,0,-2)``."""
    return "(" + ",".join(str(x) for x in rho) + ")"


def dominant_family(m: int, bound: int) -> list:
    """Every weakly decreasing integer m-tuple with entries in [-bound, bound]."""
    out = []

    def extend(prefix, top):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for v in range(top, -bound - 1, -1):
            extend(prefix + [v], v)

    extend([], bound)
    return out


def weyl_dim(rho) -> int:
    """Weyl's product formula prod_{i<j} (rho_i - rho_j + j - i) / (j - i)."""
    m = len(rho)
    num = prod(rho[i] - rho[j] + j - i for i in range(m) for j in range(i + 1, m))
    den = prod(j - i for i in range(m) for j in range(i + 1, m))
    if num % den:
        raise ArithmeticError(f"Weyl product not integral for {rho}")
    return num // den


def shifted(rho, sign: str, i: int):
    """rho +- e_i when it is still weakly decreasing, else None."""
    out = list(rho)
    out[i - 1] += 1 if sign == "+" else -1
    ok = all(out[j] >= out[j + 1] for j in range(len(out) - 1))
    return tuple(out) if ok else None


def conformal_weights(rho, sign: str) -> list:
    """w_{+i} = -rho_i + i - 1 and w_{-i} = rho_i + m - i, for i = 1..m."""
    m = len(rho)
    if sign == "+":
        return [-rho[i - 1] + i - 1 for i in range(1, m + 1)]
    return [rho[i - 1] + m - i for i in range(1, m + 1)]


def gammas(rho, sign: str) -> list:
    """gamma_i = prod_{j != i} (w_i - w_j - 1) / (w_i - w_j)."""
    w = conformal_weights(rho, sign)
    return [
        prod((Fraction(w[i] - w[j] - 1, w[i] - w[j]) for j in range(len(w)) if j != i),
             start=Fraction(1))
        for i in range(len(w))
    ]


def valid_count(rho, sign: str) -> int:
    return sum(shifted(rho, sign, i) is not None for i in range(1, len(rho) + 1))


def dual(rho) -> tuple:
    """Label of the contragredient module: negate and reverse."""
    return tuple(-x for x in reversed(rho))


def casimir_closed_form(rho, q: int):
    """Scalar of c_q on the module rho for q <= 2, or None beyond.

    c_0 = m, c_1 = sum rho_i, c_2 = sum rho_i (rho_i + m - 2i + 1).  The tilde
    family follows from the contragredient symmetry c~_q(rho) = c_q(rho*)."""
    m = len(rho)
    if q == 0:
        return Fraction(m)
    if q == 1:
        return Fraction(sum(rho))
    if q == 2:
        return Fraction(sum(r * (r + m - 2 * i + 1) for i, r in enumerate(rho, 1)))
    return None


# ---------------------------------------------------------------------------
# report item counts: tag -> (passed, not applicable) for one task
# ---------------------------------------------------------------------------

def clifford_counts(rho, q_max: int) -> dict:
    """Items of `verify_relations(plus, q, paired=minus, cross_q_max=min(q, 2))`
    followed by `verify_relations(minus, q)` for one weight."""
    m = len(rho)
    out = {}

    def add(tag, passed, na=0):
        p0, n0 = out.get(tag, (0, 0))
        out[tag] = (p0 + passed, n0 + na)

    for sign in "+-":
        v = valid_count(rho, sign)
        add("projector-idempotent", m)
        add("projector-rank", m)
        add("projector-orthogonal", m * (m - 1) // 2)
        add("completeness", m * m)
        add("moment-identity", q_max * m * m)
        add("intertwining", v * m)
        add("vandermonde-solved", v * m * m)
        add("gamma-trace", m)
        add("target-completeness", v, m - v)
        add("projection-formula", v * m)
    cross = min(q_max, 2) + 1
    add("cross-sign-plus", cross * m * m)
    add("cross-sign-minus", cross * m * m)
    add("cross-sign-rank", 1)
    return out


def gtrep_counts(rho, q_max: int) -> dict:
    return {
        "build-rep": (1, 0),
        "casimir-matrix": (2 * (q_max + 1), 0),
        "casimir-2-closed-form": (1, 0),
    }


def adjoint_counts(rho) -> dict:
    m = len(rho)
    v = valid_count(rho, "+")
    out = {
        "raise-lower-proportionality": (v * m, 0),
        "raise-lower-ratio-squared": (v, 0),
        "raise-lower-squared": (v * m * m, 0),
    }
    if v < m:
        out["raise-lower"] = (0, m - v)
    return out


def envalg_counts(m: int, q_max: int) -> dict:
    """Per degree: three m*m families and three trace forms, so
    (q_max + 1)(3 m^2 + 3) items in all."""
    per_q = {
        "binomial-tilde-to-plain": m * m,
        "binomial-plain-to-tilde": m * m,
        "solved-tilde-elements": m * m,
        "casimir-binomial-tilde": 1,
        "casimir-binomial-plain": 1,
        "solved-tilde-casimir": 1,
    }
    return {tag: ((q_max + 1) * n, 0) for tag, n in per_q.items()}
