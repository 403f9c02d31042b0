"""Highest weights of U(m) and their closed-form scalar data.

A dominant integral weight is a weakly decreasing integer vector
``rho = (rho^1, ..., rho^m)``.  Attached to it are the two families of
conformal weights

    w_{-i} = rho^i + (m - i),      w_{+i} = -rho^i + i - 1,

their gamma constants ``gamma_{+-i} = prod_{j != i} (1 - 1/(w_i - w_j))``,
and the Casimir scalars ``sum_i w_{-i}^q gamma_{-i}`` (plain) and
``sum_i w_{+i}^q gamma_{+i}`` (tilde).  Indices i, and weight entries, are
1-based in the API; returned lists are 0-based with entry ``j`` belonging
to ``i = j + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator, Optional, Sequence, Union

__all__ = [
    "HighestWeight",
    "ConformalWeightTable",
    "is_dominant",
    "shift",
    "FAMILY",
    "conformal_table",
    "family_table",
    "casimir_eigenvalue",
    "casimir_quadratic_closed_form",
    "transpose_weight",
    "weyl_dimension",
    "dominant_weights",
]


def is_dominant(entries: Sequence[int]) -> bool:
    """True iff the integer vector is weakly decreasing (and nonempty)."""
    if len(entries) == 0:
        raise ValueError("weight vector must be nonempty")
    return all(entries[i] >= entries[i + 1] for i in range(len(entries) - 1))


@dataclass(frozen=True)
class HighestWeight:
    entries: tuple

    def __post_init__(self):
        ents = tuple(int(x) for x in self.entries)
        object.__setattr__(self, "entries", ents)
        if not is_dominant(ents):
            raise ValueError(f"{ents} violates the dominance condition")

    @classmethod
    def coerce(cls, rho: Union["HighestWeight", Sequence[int]]) -> "HighestWeight":
        if isinstance(rho, HighestWeight):
            return rho
        return cls(tuple(rho))

    @property
    def m(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.entries) + ")"


def shift(rho, sign: str, i: int) -> Optional[HighestWeight]:
    """rho +- mu_i when dominant, else None (the shifted module is zero)."""
    rho = HighestWeight.coerce(rho)
    if not 1 <= i <= rho.m:
        raise ValueError(f"index i={i} out of range 1..{rho.m}")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    ents = list(rho.entries)
    ents[i - 1] += 1 if sign == "+" else -1
    if not is_dominant(ents):
        return None
    return HighestWeight(tuple(ents))


# the Casimir family whose scalars each sign's table gives
FAMILY = {"+": "tilde", "-": "plain"}


@dataclass(frozen=True)
class ConformalWeightTable:
    rho: HighestWeight
    sign: str
    w: tuple            # integers, entry j is w for i = j+1
    gamma: tuple        # Fractions
    valid: tuple        # bools: is rho +- mu_i dominant

    def casimir(self, q: int) -> Fraction:
        """sum_i w_i^q gamma_i, the degree-q Casimir scalar of the family
        FAMILY[sign] on the module labelled rho."""
        if q < 0:
            raise ValueError("q must be nonnegative")
        return sum(
            (Fraction(wi) ** q if q else Fraction(1)) * gi
            for wi, gi in zip(self.w, self.gamma)
        )


def _conformal_w(rho: HighestWeight, sign: str) -> list:
    m = rho.m
    if sign == "+":
        return [-rho.entries[i] + i for i in range(m)]
    if sign == "-":
        return [rho.entries[i] + (m - 1 - i) for i in range(m)]
    raise ValueError("sign must be '+' or '-'")


def _gamma(w: Sequence[int]) -> list:
    out = []
    for i, wi in enumerate(w):
        g = Fraction(1)
        for j, wj in enumerate(w):
            if j != i:
                g *= 1 - Fraction(1, wi - wj)
        out.append(g)
    return out


def conformal_table(rho, sign: str) -> ConformalWeightTable:
    """Conformal weights, gamma constants and shift validity for one sign.

    gamma is always the product formula.  That it vanishes exactly at the
    non-dominant shifts, and that the gammas sum to m, are theorems; the
    `weights` verify suite reports them item by item.  Only distinct
    weights are required here, since gamma divides by their differences.
    """
    rho = HighestWeight.coerce(rho)
    w = _conformal_w(rho, sign)
    if len(set(w)) != len(w):
        raise AssertionError(f"conformal weights not distinct for {rho}: {w}")
    valid = tuple(shift(rho, sign, i) is not None for i in range(1, rho.m + 1))
    return ConformalWeightTable(rho, sign, tuple(w), tuple(_gamma(w)), valid)


def family_table(rho, variant: str) -> ConformalWeightTable:
    """The conformal table whose `casimir` gives the scalars of ``variant``."""
    for sign, family in FAMILY.items():
        if family == variant:
            return conformal_table(rho, sign)
    raise ValueError("variant must be 'plain' or 'tilde'")


def casimir_eigenvalue(rho, q: int, variant: str = "plain") -> Fraction:
    """Scalar of the degree-q Casimir element on the module labelled rho.

    plain: sum_i w_{-i}^q gamma_{-i};  tilde: sum_i w_{+i}^q gamma_{+i}.
    """
    return family_table(rho, variant).casimir(q)


def casimir_quadratic_closed_form(rho) -> Fraction:
    """Independent closed form for the degree-2 Casimir scalar:
    sum_i rho^i (rho^i + m - 2i + 1)."""
    rho = HighestWeight.coerce(rho)
    m = rho.m
    return Fraction(
        sum(r * (r + m - 2 * (i + 1) + 1) for i, r in enumerate(rho.entries))
    )


def transpose_weight(rho) -> HighestWeight:
    """Label of the contragredient module: negate and reverse."""
    rho = HighestWeight.coerce(rho)
    return HighestWeight(tuple(-x for x in reversed(rho.entries)))


def weyl_dimension(rho) -> int:
    """prod_{i<j} (rho^i - rho^j + j - i) / (j - i); errors if non-integral."""
    rho = HighestWeight.coerce(rho)
    m = rho.m
    d = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            d *= Fraction(rho.entries[i] - rho.entries[j] + j - i, j - i)
    if d.denominator != 1 or d <= 0:
        raise ValueError(f"non-integral Weyl dimension {d} for {rho}")
    return int(d)


def dominant_weights(m: int, bound: int) -> Iterator[HighestWeight]:
    """All dominant weights of rank m with entries in [-bound, bound]."""
    if m < 1 or bound < 0:
        raise ValueError("need m >= 1 and bound >= 0")
    values = range(bound, -bound - 1, -1)
    for combo in combinations_with_replacement(values, m):
        yield HighestWeight(tuple(combo))
