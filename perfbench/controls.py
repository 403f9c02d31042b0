"""Negative controls and sampled Casimir oracles, run in the benchmark process
outside the timed region.

A negative control feeds the program one deliberately wrong input and passes
only if the program rejects it; the unperturbed input must be accepted, or
the rejection would prove nothing.  The seeded `random.Random` picks the
sampled weight and the perturbed entry.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import comb

import oracles


def projector_control(wl, rng) -> list:
    """`lagrange_projector` on a sampled Chat must raise
    SpectralCompletenessError once one predicted eigenvalue is moved."""
    from kahlergrad.gtrep import build_rep
    from kahlergrad.linalg import Matrix, SpectralCompletenessError, lagrange_projector

    rho = rng.choice(oracles.dominant_family(wl.m, wl.bound))
    sign = rng.choice("+-")
    m = len(rho)
    rep = build_rep(rho)
    n = rep.dim
    # Chat = 2 sum_{kl} pi(e_kl) (x) aux(e_lk); aux(e_lk) is the unit at (l, k)
    # for sign + and minus the unit at (k, l) for sign -.
    chat = Matrix.zeros(n * m, n * m)
    for (k, l), g in rep.gen.items():
        row, col, unit = (l, k, 2) if sign == "+" else (k, l, -2)
        for a in range(n):
            for b in range(n):
                if g.data[a][b]:
                    chat.data[a * m + row - 1][b * m + col - 1] += unit * g.data[a][b]
    eigenvalues = [Fraction(-2 * w) for w in oracles.conformal_weights(rho, sign)]
    target = rng.randrange(m)
    where = f"rho={rho} sign={sign}"
    try:
        lagrange_projector(chat, eigenvalues, target)
    except SpectralCompletenessError as exc:
        return [f"projector control: true spectrum rejected at {where}: {exc}"]
    # move the eigenvalue of a nonzero component off the integers
    moved = rng.choice([i for i in range(m) if oracles.shifted(rho, sign, i + 1)])
    wrong = list(eigenvalues)
    wrong[moved] += Fraction(rng.choice((1, -1)), 2)
    try:
        lagrange_projector(chat, wrong, target)
    except SpectralCompletenessError:
        return []
    return [f"projector control: eigenvalue {moved + 1} moved at {where} was accepted"]


def invariants_control(wl, rng) -> list:
    """A model with one generator entry changed must fail check_invariants."""
    from kahlergrad.gtrep import build_rep
    from kahlergrad.linalg import Matrix

    rho = rng.choice(oracles.dominant_family(wl.m, wl.bound))
    model = build_rep(rho)
    key = rng.choice(sorted(model.gen))
    a, b = rng.randrange(model.dim), rng.randrange(model.dim)
    changed = Matrix([row[:] for row in model.gen[key].data])
    changed.data[a][b] += rng.choice((1, -1))
    bad = replace(model, gen={**model.gen, key: changed})
    where = f"rho={rho} gen{key}[{a},{b}]"
    try:
        model.check_invariants()
    except AssertionError as exc:
        return [f"invariants control: unperturbed model rejected at {where}: {exc}"]
    try:
        bad.check_invariants()
    except AssertionError:
        return []
    return [f"invariants control: perturbed model accepted at {where}"]


def identity_control(wl, rng) -> list:
    """The binomial relation sum_p C(q,p) (-m)^(q-p) e~^p_kl
    = (-1)^q sum_p K_(q-p) e^p_lk must leave a nonzero difference once one
    binomial coefficient is off by one."""
    from kahlergrad.envalg import PBWElement, e_power, k_central, tilde_e_power

    m = wl.m
    q = rng.randint(1, min(wl.q, 3))
    k, l = rng.randint(1, m), rng.randint(1, m)
    off = rng.randint(1, q)
    sign = Fraction(-1) ** q
    rhs = PBWElement.zero(m)
    for p in range(q + 1):
        rhs = rhs + k_central(q - p, m) * e_power(l, k, p, m)
    rhs = rhs.scale(sign)

    def lhs(bump):
        total = PBWElement.zero(m)
        for p in range(q + 1):
            c = comb(q, p) + (1 if p == bump else 0)
            total = total + tilde_e_power(k, l, p, m).scale(c * (-m) ** (q - p))
        return total

    where = f"q={q} k={k} l={l} p={off}"
    if not (lhs(None) - rhs).is_zero():
        return [f"identity control: true relation leaves a difference at {where}"]
    if (lhs(off) - rhs).is_zero():
        return [f"identity control: perturbed relation accepted at {where}"]
    return []


CONTROLS = {
    "projector": projector_control,
    "invariants": invariants_control,
    "identity": identity_control,
}


def casimir_sample(wl, rng, size: int = 2) -> list:
    """Casimir matrices of sampled weights against the closed forms for
    q <= 2, and the tilde family against the plain one on the dual module."""
    from kahlergrad.gtrep import build_rep, casimir_matrix

    problems = []
    for rho in rng.sample(oracles.dominant_family(wl.m, wl.bound), size):
        model, dual_model = build_rep(rho), build_rep(oracles.dual(rho))
        for q in range(wl.q + 1):
            mats = {
                "plain": casimir_matrix(model, q, "plain"),
                "tilde": casimir_matrix(model, q, "tilde"),
                "dual": casimir_matrix(dual_model, q, "plain"),
            }
            if not all(mat.is_scalar() for mat in mats.values()):
                problems.append(f"casimir matrices of {rho} at q={q} are not scalar")
                continue
            got = {name: mat[0, 0] for name, mat in mats.items()}
            want = {
                "plain": oracles.casimir_closed_form(rho, q),
                "tilde": oracles.casimir_closed_form(oracles.dual(rho), q),
                "dual": got["tilde"],
            }
            for name, value in want.items():
                if value is not None and got[name] != value:
                    problems.append(f"casimir {name} of {rho} at q={q}: "
                                    f"{got[name]} != {value}")
    return problems
