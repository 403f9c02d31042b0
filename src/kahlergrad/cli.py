"""Command-line frontend.

Subcommands: weights, casimir, identity, verify, estimate, spinor-table,
cpm.  Every command has a --json mode with a stable, versioned schema in
which all rationals appear as "p/q" strings (never floats) and integers as
JSON integers.  Exit codes: 0 all good, 1 a verification failed, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import List, Optional

from . import bochner, envalg, weights
from .gtrep import DimensionBudgetError
from .report import VerificationReport

SCHEMA = "kahlergrad/v1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


class InputError(ValueError):
    pass


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False)


def parse_weight(text: str):
    try:
        entries = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"weight must be comma-separated integers, got {text!r}")
    if not weights.is_dominant(entries):
        raise InputError(f"weight {entries} is not weakly decreasing")
    return weights.HighestWeight(entries)


# ---------------------------------------------------------------------------
# weights / casimir
# ---------------------------------------------------------------------------

def _weights_payload(rho) -> dict:
    m = rho.m
    tp = weights.conformal_table(rho, "+")
    tm = weights.conformal_table(rho, "-")
    return {
        "schema": SCHEMA,
        "kind": "weights",
        "rho": list(rho.entries),
        "m": m,
        "plus": [
            {"i": i + 1, "w": tp.w[i], "gamma": frac(tp.gamma[i]), "valid": tp.valid[i]}
            for i in range(m)
        ],
        "minus": [
            {"i": i + 1, "w": tm.w[i], "gamma": frac(tm.gamma[i]), "valid": tm.valid[i]}
            for i in range(m)
        ],
        "casimir": [
            {
                "q": q,
                "plain": frac(weights.casimir_eigenvalue(rho, q, "plain")),
                "tilde": frac(weights.casimir_eigenvalue(rho, q, "tilde")),
            }
            for q in range(2 * m + 1)
        ],
    }


def cmd_weights(args) -> int:
    rho = parse_weight(args.rho)
    payload = _weights_payload(rho)
    if args.json:
        print(dump_json(payload))
        return EXIT_OK
    print(f"rho = {rho}   (m = {rho.m}, dim = {weights.weyl_dimension(rho)})")
    print("  i |   w_{+i} gamma_{+i} valid |   w_{-i} gamma_{-i} valid")
    for row_p, row_m in zip(payload["plus"], payload["minus"]):
        print(
            f"{row_p['i']:>3} | {row_p['w']:>8} {row_p['gamma']:>10} "
            f"{str(row_p['valid']):>5} | {row_m['w']:>8} {row_m['gamma']:>10} "
            f"{str(row_m['valid']):>5}"
        )
    print("  q |  casimir  tilde-casimir")
    for row in payload["casimir"]:
        print(f"{row['q']:>3} | {row['plain']:>8}  {row['tilde']:>12}")
    return EXIT_OK


def cmd_casimir(args) -> int:
    rho = parse_weight(args.rho)
    q_max = args.q if args.q is not None else 2 * rho.m
    if q_max < 0:
        raise InputError(f"--q must be >= 0, got {q_max}")
    rows = [
        {
            "q": q,
            "plain": frac(weights.casimir_eigenvalue(rho, q, "plain")),
            "tilde": frac(weights.casimir_eigenvalue(rho, q, "tilde")),
        }
        for q in range(q_max + 1)
    ]
    payload = {
        "schema": SCHEMA,
        "kind": "casimir",
        "rho": list(rho.entries),
        "m": rho.m,
        "values": rows,
    }
    if args.json:
        print(dump_json(payload))
        return EXIT_OK
    for row in rows:
        print(f"q={row['q']}: plain {row['plain']}  tilde {row['tilde']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------

def _identity_record(ident: bochner.BochnerIdentity) -> dict:
    m = ident.m
    rec = {
        "label": ident.label,
        "minus": [
            {"i": i + 1, "coeff": frac(ident.minus_coeffs[i]),
             "valid": ident.minus_valid[i]}
            for i in range(m)
        ],
        "plus": [
            {"i": i + 1, "coeff": frac(ident.plus_coeffs[i]),
             "valid": ident.plus_valid[i]}
            for i in range(m)
        ],
        "curvature": [
            {"token": t.token, "coeff": frac(t.coeff)} for t in ident.curvature
        ],
    }
    if ident.dbar is not None:
        rec["dbar"] = {k: frac(v) for k, v in sorted(ident.dbar.items())}
    return rec


def _identities_payload(rho, idents, mode) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "identity",
        "rho": list(rho.entries),
        "m": rho.m,
        "mode": mode,
        "identities": [_identity_record(x) for x in idents],
    }


def _coeff_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


_TOKEN_LATEX = {
    "nabla*nabla": "\\nabla^{*}\\nabla",
    "nabla10*nabla10": "\\nabla^{1,0\\,*}\\nabla^{1,0}",
    "nabla01*nabla01": "\\nabla^{0,1\\,*}\\nabla^{0,1}",
    "kappa": "\\kappa",
}


def _identity_sides(ident: bochner.BochnerIdentity) -> tuple:
    """The (coefficient, term) pairs of each side: the nonzero D_t^* D_t with
    t the sign and index, e.g. "-1", then every curvature token."""
    lhs = [(c, f"{sign}{i}")
           for sign, coeffs in (("-", ident.minus_coeffs), ("+", ident.plus_coeffs))
           for i, c in enumerate(coeffs, start=1) if c]
    return lhs, [(t.coeff, t.token) for t in ident.curvature]


def _latex_sum(terms) -> str:
    """Signed sum of (coefficient, LaTeX term) pairs, unit coefficients left out."""
    parts = []
    for c, tex in terms:
        lead = "" if not parts and c > 0 else ("+" if c > 0 else "-")
        mag = abs(c)
        cs = "" if mag == 1 else _coeff_latex(mag) + "\\,"
        parts.append(f"{lead}{cs}{tex}")
    return " ".join(parts) if parts else "0"


def _identity_latex(ident: bochner.BochnerIdentity) -> str:
    lhs, rhs = _identity_sides(ident)
    lhs = [(c, f"D_{{{t}}}^{{*}}D_{{{t}}}") for c, t in lhs]
    rhs = [(c, f"R^{{{t[2:]}}}" if t.startswith("R^") else _TOKEN_LATEX[t]) for c, t in rhs]
    return f"{_latex_sum(lhs)} = {_latex_sum(rhs)}"


def _latex_document(rho, idents) -> str:
    lines = [
        "\\documentclass{article}",
        "\\usepackage{amsmath}",
        "\\begin{document}",
        f"% weight {rho}",
    ]
    for ident in idents:
        lines.append(f"% {ident.label}")
        lines.append("\\begin{equation}")
        lines.append(_identity_latex(ident))
        lines.append("\\end{equation}")
    lines.append("\\end{document}")
    return "\n".join(lines)


def _identity_text(ident: bochner.BochnerIdentity) -> str:
    lhs, rhs = _identity_sides(ident)
    left = " + ".join(f"({c})*D[{t}]*D[{t}]" for c, t in lhs) or "0"
    right = " + ".join(f"({c})*{token}" for c, token in rhs) or "0"
    return f"{ident.label}:  {left} = {right}"


def cmd_identity(args) -> int:
    rho = parse_weight(args.rho)
    if args.weitzenboeck:
        idents = [bochner.weitzenboeck(rho)]
        mode = "weitzenboeck"
    else:
        q = args.q if args.q is not None else 0
        idents = bochner.bochner_identity(rho, q)
        mode = f"q={q}"
    if args.json:
        print(dump_json(_identities_payload(rho, idents, mode)))
    elif args.latex:
        print(_latex_document(rho, idents))
    else:
        for ident in idents:
            print(_identity_text(ident))
    return EXIT_OK


# ---------------------------------------------------------------------------
# scalar commands
# ---------------------------------------------------------------------------

def cmd_estimate(args) -> int:
    bound = bochner.kirchberg_bound(args.m)
    payload = {
        "schema": SCHEMA,
        "kind": "dirac-eigenvalue-bound",
        "m": bound.m,
        "coefficient": frac(bound.bound_coefficient),
        "witness_p": bound.witness_p,
    }
    if args.json:
        print(dump_json(payload))
    else:
        print(
            f"m={bound.m}: lambda^2 >= ({frac(bound.bound_coefficient)}) * kappa_0/4"
            f"   (witness p={bound.witness_p})"
        )
    return EXIT_OK


def cmd_spinor_table(args) -> int:
    m = args.m
    if m < 1:
        raise InputError("need m >= 1")
    blocks = []
    for p in range(m + 1):
        rho = weights.HighestWeight(tuple([1] * p + [0] * (m - p)))
        tp = weights.conformal_table(rho, "+")
        tm = weights.conformal_table(rho, "-")
        rows = []
        if p >= 1:
            rows.append({"map": "+1", "w": tp.w[0], "gamma": frac(tp.gamma[0])})
        if p <= m - 1:
            rows.append({"map": f"+{p+1}", "w": tp.w[p], "gamma": frac(tp.gamma[p])})
        if p <= m - 1:
            rows.append({"map": f"-{m}", "w": tm.w[m - 1], "gamma": frac(tm.gamma[m - 1])})
        if p >= 1:
            rows.append({"map": f"-{p}", "w": tm.w[p - 1], "gamma": frac(tm.gamma[p - 1])})
        blocks.append({"p": p, "rho": list(rho.entries), "rows": rows})
    payload = {"schema": SCHEMA, "kind": "spinor-table", "m": m, "degrees": blocks}
    if args.json:
        print(dump_json(payload))
        return EXIT_OK
    for block in blocks:
        print(f"p={block['p']}  rho={tuple(block['rho'])}")
        for row in block["rows"]:
            print(f"   {row['map']:>4}:  w = {row['w']:>3}   gamma = {row['gamma']}")
    return EXIT_OK


def cmd_cpm(args) -> int:
    rho = parse_weight(args.rho)
    r = Fraction(args.r)
    value = bochner.cpm_holomorphic_eigenvalue(rho, args.i, r)
    payload = {
        "schema": SCHEMA,
        "kind": "cpm-eigenvalue",
        "rho": list(rho.entries),
        "i": args.i,
        "r": frac(r),
        "eigenvalue": frac(value),
    }
    if args.json:
        print(dump_json(payload))
    else:
        print(f"D[-{args.i}]*D[-{args.i}] eigenvalue on holomorphic sections: {frac(value)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

SUITES = ("weights", "gtrep", "envalg", "clifford", "spinor", "adjoint")


def _task_weights(m: int, bound: int, q_max: int, budget) -> VerificationReport:
    rep = VerificationReport()
    for rho in weights.dominant_weights(m, bound):
        base = {"rho": str(rho)}
        for sign in ("+", "-"):
            tab = weights.conformal_table(rho, sign)
            rep.check("gamma-sum", {**base, "sign": sign}, sum(tab.gamma) == m)
            ok = all(
                (tab.gamma[i] == 0) == (weights.shift(rho, sign, i + 1) is None)
                for i in range(m)
            )
            rep.check("gamma-vanishing", {**base, "sign": sign}, ok)
            total = sum(
                (weights.weyl_dimension(s) if (s := weights.shift(rho, sign, i + 1)) else 0)
                for i in range(m)
            )
            rep.check("dimension-count", {**base, "sign": sign},
                      total == m * weights.weyl_dimension(rho))
        rep.check(
            "casimir-degree-1", base,
            weights.casimir_eigenvalue(rho, 1, "plain") == sum(rho.entries),
        )
        tr = weights.transpose_weight(rho)
        ok = all(
            weights.casimir_eigenvalue(tr, q, "plain")
            == weights.casimir_eigenvalue(rho, q, "tilde")
            for q in range(2 * m + 1)
        )
        rep.check("contragredient-casimir", base, ok)
    return rep


def _task_gtrep(rho_entries, q_max: int, budget) -> VerificationReport:
    from .gtrep import build_rep, casimir_matrices
    from .linalg import Matrix

    rep = VerificationReport()
    rho = weights.HighestWeight(rho_entries)
    base = {"rho": str(rho)}
    try:
        model = build_rep(rho)
    except AssertionError as exc:
        rep.check("build-rep", base, False, witness=str(exc))
        return rep
    rep.check("build-rep", base, True)
    # casimir-2-closed-form needs c_2 even when q_max < 2
    casimirs = {variant: casimir_matrices(model, max(q_max, 2), variant)
                for variant in ("plain", "tilde")}
    for q in range(q_max + 1):
        for variant in ("plain", "tilde"):
            mat = casimirs[variant][q]
            expected = weights.casimir_eigenvalue(rho, q, variant)
            ok = mat.is_scalar() and mat.diagonal_entries()[0] == expected
            rep.check("casimir-matrix", {**base, "q": q, "variant": variant}, ok,
                      witness=f"expected scalar {expected}")
    c2 = casimirs["plain"][2]
    rep.check(
        "casimir-2-closed-form", base,
        c2 == Matrix.identity(model.dim).scale(weights.casimir_quadratic_closed_form(rho)),
    )
    return rep


def _task_envalg(m: int, q_max: int, budget) -> VerificationReport:
    return envalg.verify_binomial_relations(m, q_max, budget=budget)


def _task_clifford(rho_entries, q_max: int, budget) -> VerificationReport:
    from .clifford import build_system, verify_cross_relations, verify_relations
    from .gtrep import build_rep

    rho = weights.HighestWeight(rho_entries)
    model = build_rep(rho)
    plus = build_system(model, "+")
    minus = build_system(model, "-")
    rep = verify_relations(plus, q_max)
    rep.extend(verify_cross_relations(plus, minus, min(q_max, 2)))
    rep.extend(verify_relations(minus, q_max))
    return rep


def _task_spinor(m: int, q_max: int, budget) -> VerificationReport:
    from .clifford import verify_spinor_model

    return verify_spinor_model(m)


def _task_adjoint(rho_entries, q_max: int, budget) -> VerificationReport:
    from .clifford import build_system, derived_representation, verify_adjoint_pairing
    from .gtrep import build_rep

    rho = weights.HighestWeight(rho_entries)
    model = build_rep(rho)
    plus = build_system(model, "+")
    rep = VerificationReport()
    for i in range(1, rho.m + 1):
        if weights.shift(rho, "+", i) is None:
            rep.skip("raise-lower", {"rho": str(rho), "i": i}, "shift not dominant")
            continue
        raised = derived_representation(plus, i)
        minus_on_target = build_system(raised, "-")
        rep.extend(verify_adjoint_pairing(plus, minus_on_target, i))
    return rep


_TASK_FUNCS = {
    "weights": _task_weights,
    "gtrep": _task_gtrep,
    "envalg": _task_envalg,
    "clifford": _task_clifford,
    "spinor": _task_spinor,
    "adjoint": _task_adjoint,
}


def _run_task(task) -> tuple:
    """Run one task.  A term or dimension budget makes it not applicable;
    any other exception becomes one failed item, so the batch goes on."""
    suite, arg, q_max, bound, budget = task
    rep = VerificationReport()
    try:
        if suite == "weights":
            rep = _task_weights(arg, bound, q_max, budget)
        else:
            rep = _TASK_FUNCS[suite](arg, q_max, budget)
    except (envalg.BudgetExceededError, DimensionBudgetError) as exc:
        rep.skip(suite, {"arg": str(arg)}, f"budget exceeded: {exc}")
    except Exception as exc:
        import traceback

        traceback.print_exc()
        rep.check(suite, {"arg": str(arg)}, False,
                  witness=f"{type(exc).__name__}: {exc}")
    return (task, rep)


def _verify_tasks(suites, ms, bound: int, q_max: int, budget) -> list:
    tasks = []
    for m in ms:
        family = [rho.entries for rho in weights.dominant_weights(m, bound)]
        for suite in suites:
            if suite in ("weights", "envalg"):
                tasks.append((suite, m, q_max, bound, budget))
            elif suite == "spinor":
                if m >= 2:
                    tasks.append((suite, m, q_max, bound, budget))
            else:
                for entries in family:
                    tasks.append((suite, entries, q_max, bound, budget))
    return tasks


def _parse_m_range(text: str) -> list:
    """'3' -> [3]; '2-4' -> [2, 3, 4]."""
    try:
        if "-" in text.lstrip("-"):
            lo, hi = map(int, text.split("-", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise InputError(f"--m must be an integer or a range like 2-4, got {text!r}")
    if lo > hi:
        raise InputError(f"--m range {text!r} is empty: {lo} > {hi}")
    if lo < 1:
        raise InputError("--m values must be >= 1")
    return list(range(lo, hi + 1))


def cmd_verify(args) -> int:
    if args.suite == "all":
        suites = list(SUITES)
    elif args.suite in SUITES:
        suites = [args.suite]
    else:
        raise InputError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)} or 'all'"
        )
    ms = _parse_m_range(args.m)
    if args.bound < 0 or args.q < 0:
        raise InputError("need --bound >= 0 and --q >= 0")
    if args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")
    budget = envalg.term_budget(args.budget)  # resolved once, for every task
    if budget < 0:
        source = "--budget" if args.budget is not None else "KAHLERGRAD_BUDGET"
        raise InputError(f"{source} must be >= 0, got {budget}")
    tasks = _verify_tasks(suites, ms, args.bound, args.q, budget)
    total = VerificationReport()
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]
    lines = []
    for (suite, arg, *_), rep in results:
        total.extend(rep)
        label = f"{suite}({arg if isinstance(arg, int) else ','.join(map(str, arg))})"
        lines.append((label, rep))
    if args.json:
        payload = {
            "schema": SCHEMA,
            "kind": "verification",
            "m": ms,
            "bound": args.bound,
            "q": args.q,
            "suites": suites,
            **total.to_json_dict(),
        }
        print(dump_json(payload))
    else:
        for label, rep in lines:
            print(f"{label}: {rep.summary()}")
            for item in rep.failures():
                print(f"  {item.describe()}")
        print(f"TOTAL {total.summary()}")
    return EXIT_OK if total.verdict == "PASS" else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahlergrad",
        description=(
            "Exact tables, identity coefficients and verification suites for "
            "the first-order invariant operators attached to U(m) modules."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="conformal weight / gamma / Casimir table")
    p.add_argument("rho", help="comma-separated weight, e.g. 1,0,0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("casimir", help="Casimir scalars of both families")
    p.add_argument("rho")
    p.add_argument("--q", type=int, default=None, help="maximal degree (default 2m)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("identity", help="emit identity coefficient records")
    p.add_argument("rho")
    p.add_argument("--q", type=int, default=None, help="degree (default 0)")
    p.add_argument("--weitzenboeck", action="store_true",
                   help="emit the top/bottom cancellation instead")
    p.add_argument("--json", action="store_true")
    p.add_argument("--latex", action="store_true")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("verify", help="run verification suites over a weight family")
    p.add_argument("--m", default="2", help="rank, or a range like 2-3")
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--suite", default="all",
                   help=f"one of {', '.join(SUITES)} or 'all'")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, default=None,
                   help="term budget (default KAHLERGRAD_BUDGET or 10^7)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", help="Dirac eigenvalue bound coefficient")
    p.add_argument("m", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("spinor-table", help="weight/gamma table of the exterior family")
    p.add_argument("m", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spinor_table)

    p = sub.add_parser("cpm", help="holomorphic-section eigenvalue (constant curvature)")
    p.add_argument("rho")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--r", default="1", help="holomorphic sectional curvature (rational)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cpm)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
