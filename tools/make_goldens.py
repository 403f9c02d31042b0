"""Regenerate the pinned golden files for the identity emission commands.

The numbers here are computed from the closed formulas directly (conformal
weights by substitution, the cancellation coefficients by substituting the
weight entries), NOT by calling the emitter that is under test; the emitter's
output is compared byte-for-byte against these files in the acceptance suite.

Run from the repository root:  python3 tools/make_goldens.py
"""

import pathlib
from fractions import Fraction as F

from kahlergrad.cli import dump_json, frac

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

RHO = (1, 0)
M = len(RHO)

# oracle: conformal weights and shift validity from their defining formulas
W_MINUS = [RHO[i] + (M - 1 - i) for i in range(M)]
W_PLUS = [-RHO[i] + i for i in range(M)]


def dominant(v):
    return all(v[i] >= v[i + 1] for i in range(len(v) - 1))


VALID_MINUS = [dominant([RHO[j] - (1 if j == i else 0) for j in range(M)]) for i in range(M)]
VALID_PLUS = [dominant([RHO[j] + (1 if j == i else 0) for j in range(M)]) for i in range(M)]


def side(coeffs, valid):
    return [
        {"i": i + 1, "coeff": frac(coeffs[i]), "valid": valid[i]}
        for i in range(M)
    ]


def payload(mode, identities):
    return {
        "schema": "kahlergrad/v1",
        "kind": "identity",
        "rho": list(RHO),
        "m": M,
        "mode": mode,
        "identities": identities,
    }


def ident(label, minus, plus, curvature):
    return {
        "label": label,
        "minus": side(minus, VALID_MINUS),
        "plus": side(plus, VALID_PLUS),
        "curvature": [{"token": t, "coeff": frac(c)} for t, c in curvature],
    }


def write(name, obj):
    GOLDEN.mkdir(parents=True, exist_ok=True)
    path = GOLDEN / name
    with path.open("w") as fh:
        dump_json(obj, fh)
    print(f"wrote {path}")


ones = [F(1)] * M
zeros = [F(0)] * M

q0 = payload(
    "q=0",
    [
        ident("degree-0-minus-part", ones, zeros, [("nabla10*nabla10", F(1))]),
        ident("degree-0-plus-part", zeros, ones, [("nabla01*nabla01", F(1))]),
        ident("degree-0-laplacian", ones, ones, [("nabla*nabla", F(1))]),
        ident("degree-0-curvature", ones, [-x for x in ones], [("R^0", F(1))]),
    ],
)
write("identity_1_0_q0.json", q0)

q1 = payload(
    "q=1",
    [
        ident(
            "degree-1",
            [F(w) for w in W_MINUS],
            [F(w) for w in W_PLUS],
            [("R^1", F(1))],
        )
    ],
)
write("identity_1_0_q1.json", q1)

# top/bottom cancellation by direct substitution of the weight entries
span = RHO[0] - RHO[-1]
wz_minus = [
    F(2 * (RHO[i] - RHO[-1] + M - (i + 1)), span) if i + 1 < M else F(0)
    for i in range(M)
]
wz_plus = [
    F(2 * (RHO[0] - RHO[i] + (i + 1) - 1), span) if i + 1 > 1 else F(0)
    for i in range(M)
]
wz = payload(
    "weitzenboeck",
    [
        ident(
            "weitzenboeck",
            wz_minus,
            wz_plus,
            [
                ("nabla*nabla", F(1)),
                ("R^0", -F(RHO[0] + RHO[-1], span)),
                ("R^1", F(2, span)),
            ],
        )
    ],
)
write("identity_1_0_weitzenboeck.json", wz)
