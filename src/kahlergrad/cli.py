"""Command-line frontend.

Subcommands: weights, casimir, identity, verify, estimate, spinor-table,
cpm.  Each ``cmd_*`` returns its JSON payload and its text lines, and `main`
prints one of them: every command has a --json mode with a stable, versioned
schema in which all rationals appear as "p/q" strings (never floats) and
integers as JSON integers.  Exit codes: 0 all good, 1 a verification failed
or checked nothing (a payload with "passed": false, which only verify
emits), 2 usage or input error, 141 (128 + SIGPIPE) stdout closed by its
reader before the output was written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from importlib import import_module
from itertools import islice
from typing import List, Optional

from . import weights
from .report import BudgetError, VerificationReport

# each command imports the library modules it runs, and only the --jobs N > 1
# path loads the pool; perfbench/tracing.py swaps in its own pool class here
ProcessPoolExecutor = BrokenProcessPool = None

SCHEMA = "kahlergrad/v1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141      # 128 + SIGPIPE


class InputError(ValueError):
    pass


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def dump_json(obj, out):
    """Write ``obj`` and a newline to the text file ``out``, as
    ``json.dumps(obj, indent=2, ensure_ascii=False)``, 4096 chunks a write."""
    chunks = json.JSONEncoder(indent=2, ensure_ascii=False).iterencode(obj)
    while batch := list(islice(chunks, 4096)):
        out.write("".join(batch))
    out.write("\n")


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

def _table_rows(tab) -> list:
    return [{"i": i + 1, "w": w, "gamma": frac(g), "valid": ok}
            for i, (w, g, ok) in enumerate(zip(tab.w, tab.gamma, tab.valid))]


def _casimir_rows(rho, q_max: int) -> list:
    plain, tilde = (weights.family_table(rho, v) for v in ("plain", "tilde"))
    return [{"q": q, "plain": frac(plain.casimir(q)), "tilde": frac(tilde.casimir(q))}
            for q in range(q_max + 1)]


def cmd_weights(args) -> tuple:
    rho = parse_weight(args.rho)
    plus, minus = (_table_rows(weights.conformal_table(rho, s)) for s in "+-")
    payload = {
        "schema": SCHEMA,
        "kind": "weights",
        "rho": list(rho.entries),
        "m": rho.m,
        "plus": plus,
        "minus": minus,
        "casimir": _casimir_rows(rho, 2 * rho.m),
    }
    lines = [f"rho = {rho}   (m = {rho.m}, dim = {weights.weyl_dimension(rho)})",
             "  i |   w_{+i} gamma_{+i} valid |   w_{-i} gamma_{-i} valid"]
    lines += [f"{p['i']:>3} | {p['w']:>8} {p['gamma']:>10} {str(p['valid']):>5} | "
              f"{n['w']:>8} {n['gamma']:>10} {str(n['valid']):>5}" for p, n in zip(plus, minus)]
    lines.append("  q |  casimir  tilde-casimir")
    lines += [f"{row['q']:>3} | {row['plain']:>8}  {row['tilde']:>12}"
              for row in payload["casimir"]]
    return payload, lines


def cmd_casimir(args) -> tuple:
    rho = parse_weight(args.rho)
    q_max = args.q if args.q is not None else 2 * rho.m
    if q_max < 0:
        raise InputError(f"--q must be >= 0, got {q_max}")
    rows = _casimir_rows(rho, q_max)
    payload = {"schema": SCHEMA, "kind": "casimir", "rho": list(rho.entries), "m": rho.m,
               "values": rows}
    return payload, [f"q={row['q']}: plain {row['plain']}  tilde {row['tilde']}" for row in rows]


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------

def _identity_record(ident) -> dict:
    rec = {"label": ident.label}
    for side, coeffs, valid in (("minus", ident.minus_coeffs, ident.minus_valid),
                                ("plus", ident.plus_coeffs, ident.plus_valid)):
        rec[side] = [{"i": i, "coeff": frac(c), "valid": ok}
                     for i, (c, ok) in enumerate(zip(coeffs, valid), start=1)]
    rec["curvature"] = [{"token": t.token, "coeff": frac(t.coeff)} for t in ident.curvature]
    if ident.dbar is not None:
        rec["dbar"] = {k: frac(v) for k, v in sorted(ident.dbar.items())}
    return rec


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


def _identity_sides(ident) -> tuple:
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


def _identity_latex(ident) -> str:
    lhs, rhs = _identity_sides(ident)
    lhs = [(c, f"D_{{{t}}}^{{*}}D_{{{t}}}") for c, t in lhs]
    rhs = [(c, f"R^{{{t[2:]}}}" if t.startswith("R^") else _TOKEN_LATEX[t]) for c, t in rhs]
    return f"{_latex_sum(lhs)} = {_latex_sum(rhs)}"


def _latex_document(rho, idents) -> str:
    lines = ["\\documentclass{article}", "\\usepackage{amsmath}", "\\begin{document}",
             f"% weight {rho}"]
    for ident in idents:
        lines += [f"% {ident.label}", "\\begin{equation}", _identity_latex(ident),
                  "\\end{equation}"]
    lines.append("\\end{document}")
    return "\n".join(lines)


def _identity_text(ident) -> str:
    lhs, rhs = _identity_sides(ident)
    left = " + ".join(f"({c})*D[{t}]*D[{t}]" for c, t in lhs) or "0"
    right = " + ".join(f"({c})*{token}" for c, token in rhs) or "0"
    return f"{ident.label}:  {left} = {right}"


def cmd_identity(args) -> tuple:
    if args.json and args.latex:
        raise InputError("--json and --latex cannot be combined")
    if args.weitzenboeck and args.q is not None:
        raise InputError("--weitzenboeck takes no --q")
    from . import bochner
    rho = parse_weight(args.rho)
    if args.weitzenboeck:
        idents = [bochner.weitzenboeck(rho)]
        mode = "weitzenboeck"
    else:
        q = args.q if args.q is not None else 0
        idents = bochner.bochner_identity(rho, q)
        mode = f"q={q}"
    payload = {
        "schema": SCHEMA,
        "kind": "identity",
        "rho": list(rho.entries),
        "m": rho.m,
        "mode": mode,
        "identities": [_identity_record(x) for x in idents],
    }
    if args.latex:
        return payload, [_latex_document(rho, idents)]
    return payload, [_identity_text(ident) for ident in idents]


# ---------------------------------------------------------------------------
# scalar commands
# ---------------------------------------------------------------------------

def cmd_estimate(args) -> tuple:
    from . import bochner
    bound = bochner.kirchberg_bound(args.m)
    coefficient = frac(bound.bound_coefficient)
    payload = {
        "schema": SCHEMA,
        "kind": "dirac-eigenvalue-bound",
        "m": bound.m,
        "coefficient": coefficient,
        "witness_p": bound.witness_p,
    }
    return payload, [f"m={bound.m}: lambda^2 >= ({coefficient}) * kappa_0/4"
                     f"   (witness p={bound.witness_p})"]


def cmd_spinor_table(args) -> tuple:
    m = args.m
    if m < 1:
        raise InputError("need m >= 1")
    blocks, lines = [], []
    for p in range(m + 1):
        rho = weights.HighestWeight(tuple([1] * p + [0] * (m - p)))
        tp, tm = (weights.conformal_table(rho, s) for s in "+-")
        # the valid maps, raising 1 and p+1, then lowering m and p
        rows = [{"map": f"+{i}", "w": tp.w[i - 1], "gamma": frac(tp.gamma[i - 1])}
                for i in range(1, m + 1) if tp.valid[i - 1]]
        rows += [{"map": f"-{i}", "w": tm.w[i - 1], "gamma": frac(tm.gamma[i - 1])}
                 for i in range(m, 0, -1) if tm.valid[i - 1]]
        blocks.append({"p": p, "rho": list(rho.entries), "rows": rows})
        lines.append(f"p={p}  rho={rho.entries}")
        lines += [f"   {row['map']:>4}:  w = {row['w']:>3}   gamma = {row['gamma']}"
                  for row in rows]
    return {"schema": SCHEMA, "kind": "spinor-table", "m": m, "degrees": blocks}, lines


def cmd_cpm(args) -> tuple:
    from . import bochner
    rho = parse_weight(args.rho)
    try:
        r = Fraction(args.r)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--r must be a rational number like 2 or 3/2, got {args.r!r}") from None
    value = frac(bochner.cpm_holomorphic_eigenvalue(rho, args.i, r))
    payload = {
        "schema": SCHEMA,
        "kind": "cpm-eigenvalue",
        "rho": list(rho.entries),
        "i": args.i,
        "r": frac(r),
        "eigenvalue": value,
    }
    return payload, [f"D[-{args.i}]*D[-{args.i}] eigenvalue on holomorphic sections: {value}"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _task_weights(m: int, bound: int, q_max: int, budget) -> VerificationReport:
    rep = VerificationReport()
    for rho in weights.dominant_weights(m, bound):
        base = {"rho": str(rho)}
        tables = {weights.FAMILY[sign]: weights.conformal_table(rho, sign) for sign in "+-"}
        for tab in tables.values():
            params = {**base, "sign": tab.sign}
            rep.check("gamma-sum", params, sum(tab.gamma) == m,
                      witness=f"sum {sum(tab.gamma)}, expected {m}")
            rep.check("gamma-vanishing", params,
                      all((g == 0) != ok for g, ok in zip(tab.gamma, tab.valid)),
                      witness=f"gamma {[str(g) for g in tab.gamma]}, valid {list(tab.valid)}")
            total = sum(
                (weights.weyl_dimension(s) if (s := weights.shift(rho, tab.sign, i + 1)) else 0)
                for i in range(m)
            )
            rep.check("dimension-count", params, total == m * weights.weyl_dimension(rho))
        rep.check("casimir-degree-1", base, tables["plain"].casimir(1) == sum(rho.entries))
        dual = weights.family_table(weights.transpose_weight(rho), "plain")
        rep.check("contragredient-casimir", base,
                  all(dual.casimir(q) == tables["tilde"].casimir(q) for q in range(2 * m + 1)))
    return rep


def _task_gtrep(rho_entries, bound: int, q_max: int, budget) -> VerificationReport:
    from . import gtrep
    from .linalg import Matrix
    rep = VerificationReport()
    rho = weights.HighestWeight(rho_entries)
    base = {"rho": str(rho)}
    try:
        model = gtrep.build_rep(rho)
    except AssertionError as exc:
        rep.check("build-rep", base, False, witness=str(exc))
        return rep
    rep.check("build-rep", base, True)
    # casimir-2-closed-form needs c_2 even when q_max < 2
    casimirs = {variant: gtrep.casimir_matrices(model, max(q_max, 2), variant)
                for variant in ("plain", "tilde")}
    tables = {variant: weights.family_table(rho, variant) for variant in casimirs}
    for q in range(q_max + 1):
        for variant in ("plain", "tilde"):
            mat = casimirs[variant][q]
            expected = tables[variant].casimir(q)
            ok = mat.is_scalar() and mat[0, 0] == expected
            rep.check("casimir-matrix", {**base, "q": q, "variant": variant}, ok,
                      witness=f"expected scalar {expected}")
    c2 = casimirs["plain"][2]
    rep.check(
        "casimir-2-closed-form", base,
        c2 == Matrix.identity(model.dim).scale(weights.casimir_quadratic_closed_form(rho)),
    )
    return rep


def _task_envalg(m: int, bound: int, q_max: int, budget) -> VerificationReport:
    from . import envalg
    return envalg.verify_binomial_relations(
        m, q_max, budget=envalg.DEFAULT_TERM_BUDGET if budget is None else budget)


def _task_clifford(rho_entries, bound: int, q_max: int, budget) -> VerificationReport:
    from . import clifford, gtrep
    model = gtrep.build_rep(weights.HighestWeight(rho_entries))
    plus = clifford.build_system(model, "+")
    minus = clifford.build_system(model, "-")
    rep = clifford.verify_relations(plus, q_max)
    rep.extend(clifford.verify_cross_relations(plus, minus, min(q_max, 2)))
    rep.extend(clifford.verify_relations(minus, q_max))
    return rep


def _task_spinor(m: int, bound: int, q_max: int, budget) -> VerificationReport:
    from . import clifford
    return clifford.verify_spinor_model(m)


def _task_adjoint(rho_entries, bound: int, q_max: int, budget) -> VerificationReport:
    from . import clifford, gtrep
    model = gtrep.build_rep(weights.HighestWeight(rho_entries))
    plus = clifford.build_system(model, "+")
    rep = VerificationReport()
    for i in range(1, model.m + 1):  # an invalid shift is reported as not applicable
        rep.extend(clifford.verify_adjoint_pairing(plus, i))
    return rep


# each suite's task function, and whether it runs once per rank or once per
# weight of the family
SUITES = {
    "weights": (_task_weights, "rank"),
    "gtrep": (_task_gtrep, "weight"),
    "envalg": (_task_envalg, "rank"),
    "clifford": (_task_clifford, "weight"),
    "spinor": (_task_spinor, "rank"),
    "adjoint": (_task_adjoint, "weight"),
}


def _run_task(task) -> tuple:
    """Run one task.  A term or dimension budget makes it not applicable;
    any other exception becomes one failed item, so the batch goes on."""
    suite, arg, q_max, bound, budget = task
    rep = VerificationReport()
    try:
        rep = SUITES[suite][0](arg, bound, q_max, budget)
    except BudgetError as exc:
        rep.skip(suite, {"arg": str(arg)}, f"budget exceeded: {exc}")
    except Exception as exc:
        import traceback
        traceback.print_exc()
        rep.check(suite, {"arg": str(arg)}, False,
                  witness=f"{type(exc).__name__}: {exc}")
    return (task, rep)


def _load_pool(suites) -> None:
    """Import the pool, and the modules of ``suites`` for its forked workers
    to inherit, then freeze the heap: the workers' collections never walk
    the parent's objects, so they neither spend time on them nor copy their
    pages on write."""
    global ProcessPoolExecutor, BrokenProcessPool
    # suites first: after the pool modules they left a larger peak RSS
    for suite in suites:    # spinor and adjoint run clifford, the others their namesakes
        import_module(f".{'clifford' if suite in ('spinor', 'adjoint') else suite}", __package__)
        if suite == "clifford":     # its cross relations load bochner on first use
            import_module(".bochner", __package__)
    from concurrent.futures.process import BrokenProcessPool
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    gc.freeze()


def _run_alone(task) -> tuple:
    """`_run_task` in a one-worker pool; a worker that dies fails the task."""
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return next(pool.map(_run_task, [task]))
    except BrokenProcessPool as exc:
        rep = VerificationReport()
        rep.check(task[0], {"arg": str(task[1])}, False, witness=f"worker process died: {exc}")
        return (task, rep)


def _verify_tasks(suites, ms, bound: int, q_max: int, budget) -> list:
    tasks = []
    for m in ms:
        family = [rho.entries for rho in weights.dominant_weights(m, bound)]
        for suite in suites:
            if suite == "spinor" and m < 2:     # the spinor model starts at m = 2
                continue
            args = [m] if SUITES[suite][1] == "rank" else family
            tasks += [(suite, arg, q_max, bound, budget) for arg in args]
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


def cmd_verify(args) -> tuple:
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
    if args.budget is not None and args.budget < 0:
        raise InputError(f"--budget must be >= 0, got {args.budget}")
    tasks = _verify_tasks(suites, ms, args.bound, args.q, args.budget)
    total = VerificationReport()
    if args.jobs > 1 and tasks:
        _load_pool(suites)
        results = []
        try:
            # a forked pool starts all its workers at once: no more than tasks
            with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
                results.extend(pool.map(_run_task, tasks))
        except BrokenProcessPool:  # the tasks left rerun alone, to find the one that kills
            results += map(_run_alone, tasks[len(results):])
    else:
        results = [_run_task(t) for t in tasks]
    lines = []
    for (suite, arg, *_), rep in results:
        total.extend(rep)
        label = f"{suite}({arg if isinstance(arg, int) else ','.join(map(str, arg))})"
        lines.append(f"{label}: {rep.summary()}")
        lines += [f"  {item.describe()}" for item in rep.failures()]
    lines.append(f"TOTAL {total.summary()}")
    payload = {
        "schema": SCHEMA,
        "kind": "verification",
        "m": ms,
        "bound": args.bound,
        "q": args.q,
        "suites": suites,
        **total.to_json_dict(),
    }
    return payload, lines


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
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("casimir", help="Casimir scalars of both families")
    p.add_argument("rho")
    p.add_argument("--q", type=int, default=None, help="maximal degree (default 2m)")
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("identity", help="emit identity coefficient records")
    p.add_argument("rho")
    p.add_argument("--q", type=int, default=None, help="degree (default 0)")
    p.add_argument("--weitzenboeck", action="store_true",
                   help="emit the top/bottom cancellation instead")
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
                   help="term budget (default 10^7)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", help="Dirac eigenvalue bound coefficient")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("spinor-table", help="weight/gamma table of the exterior family")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_spinor_table)

    p = sub.add_parser("cpm", help="holomorphic-section eigenvalue (constant curvature)")
    p.add_argument("rho")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--r", default="1", help="holomorphic sectional curvature (rational)")
    p.set_defaults(func=cmd_cpm)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines = args.func(args)
    except ValueError as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.json:
            dump_json(payload, sys.stdout)
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early, which fails no check; what is still buffered
        # goes to devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    # only a verify payload carries "passed"
    return EXIT_VERIFY_FAIL if payload.get("passed") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
