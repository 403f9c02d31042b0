"""The enveloping algebra of gl(m) over Q as a normal-ordered term algebra.

Elements are finite rational combinations of ordered monomials in the matrix
units e_{kl}.  The fixed monomial order is lexicographic on the index pair
(k,l); any total order would do, since normal forms are only ever compared
within one fixed order.  Rewriting uses the commutation rule

    e_{ij} e_{kl} = e_{kl} e_{ij} + delta_{jk} e_{il} - delta_{li} e_{kj}.

Words are built from one table of the m^2 generator pairs, so a normal form
holds at most m^2 distinct generator tuples however many terms it has.

On top of the raw algebra this module builds the degree-q elements e_{kl}^q
and their involution images, the Casimir traces c_q, the generating-function
polynomials K_n, and a symbolic verifier for the binomial relations tying the
two families together.  The degree-q elements come from recursion on the
degree, e^q_kl = sum_i e^(q-1)_ki e_il, one row at a time, rather than from
normal-ordering each of the m^(q-1) index-path words.  The verifier builds the
four families e_kl, e_lk, ~e_kl, ~e_lk of one unordered pair {k, l} once, runs
every check of (k,l) and (l,k) on them and drops them before the next pair.
The diagonal families sum to the Casimir elements, the K_n follow by recursion.
"""

from __future__ import annotations

import os
from fractions import Fraction
from operator import gt
from math import comb, factorial
from typing import Dict, Optional, Sequence, Tuple

from .report import VerificationReport
from .weights import family_table

Generator = Tuple[int, int]          # (k, l), 1-based
Monomial = Tuple[Generator, ...]     # nondecreasing in the fixed order

__all__ = [
    "BudgetExceededError",
    "PBWElement",
    "pbw_normalize",
    "e_power",
    "tilde_e_power",
    "casimir_element",
    "commutator",
    "k_eval",
    "k_eval_table",
    "k_multi_indices",
    "k_of_casimirs",
    "k_central",
    "binomial_shift",
    "verify_binomial_relations",
    "term_budget",
]

_ENV_BUDGET = "KAHLERGRAD_BUDGET"
DEFAULT_TERM_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """An expansion would exceed the configured term budget."""


def term_budget(budget: Optional[int] = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(_ENV_BUDGET)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{_ENV_BUDGET} must be an integer, got {env!r}")
    return DEFAULT_TERM_BUDGET


def _guard(count: int, budget: Optional[int], what: str):
    limit = term_budget(budget)
    if count > limit:
        raise BudgetExceededError(
            f"{what} needs {count} words, exceeding the term budget {limit}"
        )


def _check_index(k: int, m: int):
    if not 1 <= k <= m:
        raise ValueError(f"generator index {k} out of range 1..{m}")


class PBWElement:
    """Element of U(gl(m)) in normal-ordered form.

    terms maps ordered monomials to nonzero rational coefficients; the zero
    element has an empty map.  Instances are immutable.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Dict[Monomial, Fraction]):
        self.m = m
        self.terms = {w: c for w, c in terms.items() if c}
        for w in self.terms:
            if any(map(gt, w, w[1:])):
                raise ValueError(f"monomial {w} is not normal ordered")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "PBWElement":
        return cls(m, {})

    @classmethod
    def one(cls, m: int) -> "PBWElement":
        return cls(m, {(): Fraction(1)})

    @classmethod
    def scalar(cls, m: int, value) -> "PBWElement":
        return cls(m, {(): Fraction(value)})

    @classmethod
    def generator(cls, m: int, k: int, l: int) -> "PBWElement":
        _check_index(k, m)
        _check_index(l, m)
        return cls(m, {((k, l),): Fraction(1)})

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PBWElement)
            and self.m == other.m
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Filtration degree of the normal form (0 for scalars and zero)."""
        return max((len(w) for w in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            mono = "*".join(f"e[{k},{l}]" for k, l in w) if w else "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PBWElement") -> "PBWElement":
        self._same_rank(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            old = terms.get(w)
            terms[w] = c if old is None else old + c
        return PBWElement(self.m, terms)

    def __sub__(self, other: "PBWElement") -> "PBWElement":
        return self + other.scale(-1)

    def __neg__(self) -> "PBWElement":
        return self.scale(-1)

    def scale(self, s) -> "PBWElement":
        s = Fraction(s)
        if not s:
            return PBWElement.zero(self.m)
        if s == 1:
            return self
        return PBWElement(self.m, {w: s * c for w, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PBWElement):
            return self.scale(other)
        self._same_rank(other)
        gens = _generators(self.m)
        out: Dict[Monomial, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _accumulate(out, w1 + w2, c1 * c2, gens)
        return PBWElement(self.m, out)

    def __rmul__(self, other):
        return self.scale(other)

    def involution(self) -> "PBWElement":
        """Transpose each generator, keep the order, weigh by (-1)^degree."""
        gens = _generators(self.m)
        out: Dict[Monomial, Fraction] = {}
        for w, c in self.terms.items():
            sign = -c if len(w) % 2 else c
            word = tuple(gens[l][k] for k, l in w)
            _accumulate(out, word, sign, gens)
        return PBWElement(self.m, out)

    def _same_rank(self, other: "PBWElement"):
        if self.m != other.m:
            raise ValueError(f"rank mismatch: {self.m} vs {other.m}")


def _generators(m: int):
    """The m^2 generator pairs, gens[k][l] = (k, l) for 1 <= k, l <= m.

    Words built from one table share these objects, so a normal form holds
    at most m^2 distinct generator tuples however many terms it has.
    """
    return [()] + [[()] + [(k, l) for l in range(1, m + 1)] for k in range(1, m + 1)]


def _accumulate(out: Dict[Monomial, Fraction], word, coeff: Fraction, gens):
    """Normal-order one word into ``out`` by adjacent-swap rewriting.

    A swap reuses the two generator objects; a commutator term takes its
    generator from the table ``gens`` of `_generators`.
    """
    stack = [(list(word), coeff)]
    while stack:
        w, c = stack.pop()
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x > y:
                (a, b), (k, l) = x, y
                stack.append((w[:i] + [y, x] + w[i + 2:], c))
                if b == k:
                    stack.append((w[:i] + [gens[a][l]] + w[i + 2:], c))
                if l == a:
                    stack.append((w[:i] + [gens[k][b]] + w[i + 2:], -c))
                break
        else:
            key = tuple(w)
            old = out.get(key)
            if old is None:
                out[key] = c
            else:
                new = old + c
                if new:
                    out[key] = new
                else:
                    del out[key]


def pbw_normalize(word: Sequence[Generator], m: int, coeff=1) -> PBWElement:
    """Normal form of a single word of generators with a rational coefficient."""
    for k, l in word:
        _check_index(k, m)
        _check_index(l, m)
    gens = _generators(m)
    out: Dict[Monomial, Fraction] = {}
    _accumulate(out, tuple(gens[k][l] for k, l in word), Fraction(coeff), gens)
    return PBWElement(m, out)


def _path_sum(k: int, l: int, q: int, m: int, budget: Optional[int], tilde: bool) -> PBWElement:
    """e^q_kl, or its involution image when ``tilde``, with the index, degree
    and budget checks of both builders; for q >= 1 by recursion on the degree:

        e^p_kj = sum_i e^(p-1)_ki e_ij,    ~e^p_kj = -sum_i ~e^(p-1)_ki e_ji.

    Row k is built one degree at a time, each step right-multiplying normal
    forms by a single generator; the last degree is built at column l only.
    This equals the sum over index paths because normal forms are unique.
    """
    _check_index(k, m)
    _check_index(l, m)
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q == 0:
        return PBWElement.one(m) if k == l else PBWElement.zero(m)
    name = "tilde_e_power" if tilde else "e_power"
    _guard(m ** (q - 1), budget, f"{name}({k},{l},{q}) at rank {m}")
    gens = _generators(m)
    unit = Fraction(-1 if tilde else 1)
    row = {j: {(gens[j][k] if tilde else gens[k][j],): unit} for j in range(1, m + 1)}
    for p in range(2, q + 1):
        step = {}
        for j in (range(1, m + 1) if p < q else (l,)):
            out: Dict[Monomial, Fraction] = {}
            for i in range(1, m + 1):
                g = gens[j][i] if tilde else gens[i][j]
                for w, c in row[i].items():
                    _accumulate(out, w + (g,), -c if tilde else c, gens)
            step[j] = out
        row = step
    return PBWElement(m, row[l])


def e_power(k: int, l: int, q: int, m: int, budget: Optional[int] = None) -> PBWElement:
    """Degree-q element: sum over index paths e_{k i_1} e_{i_1 i_2} ... e_{i_{q-1} l}."""
    return _path_sum(k, l, q, m, budget, tilde=False)


def tilde_e_power(k: int, l: int, q: int, m: int, budget: Optional[int] = None) -> PBWElement:
    """Involution image of e_power, from its defining sum
    (-1)^q sum e_{i_1 k} e_{i_2 i_1} ... e_{l i_{q-1}}."""
    return _path_sum(k, l, q, m, budget, tilde=True)


def casimir_element(q: int, m: int, variant: str = "plain",
                    budget: Optional[int] = None) -> PBWElement:
    """Central trace element c_q = sum_k e_{kk}^q (or its involution image)."""
    if variant not in ("plain", "tilde"):
        raise ValueError("variant must be 'plain' or 'tilde'")
    build = e_power if variant == "plain" else tilde_e_power
    total = PBWElement.zero(m)
    for k in range(1, m + 1):
        total = total + build(k, k, q, m, budget)
    return total


def commutator(a: PBWElement, b: PBWElement) -> PBWElement:
    return a * b - b * a


# ---------------------------------------------------------------------------
# K polynomials: coefficients of 1 / (1 + x_1 z + x_2 z^2 + ...)
# ---------------------------------------------------------------------------

def _k_series(cs, unit) -> list:
    """K_0 .. K_n of -c, n = len(cs), from c_0 .. c_{n-1} by the recursion
    K_0 = unit, K_q = sum_{p<q} K_p c_{q-p-1}.  The unit is Fraction(1) for
    scalars and PBWElement.one(m) for central elements."""
    ks = [unit]
    for q in range(1, len(cs) + 1):
        total = unit * 0
        for p in range(q):
            total = total + ks[p] * cs[q - p - 1]
        ks.append(total)
    return ks


def k_eval(n: int, xs: Sequence) -> Fraction:
    """K_n at the point (x_1..x_n), by the recursion of `_k_series`:
    K_0 = 1, K_q = -sum_{p<q} K_p x_{q-p}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(xs) < n:
        raise ValueError(f"need at least {n} coordinates, got {len(xs)}")
    return _k_series([-Fraction(x) for x in xs[:n]], Fraction(1))[n]


def k_multi_indices(n: int):
    """All (i_1..i_n) multiplicity tuples with sum_p p*i_p = n, as dicts."""
    def rec(remaining, max_part):
        if remaining == 0:
            yield {}
            return
        for part in range(min(remaining, max_part), 0, -1):
            for count in range(remaining // part, 0, -1):
                for rest in rec(remaining - part * count, part - 1):
                    d = dict(rest)
                    d[part] = count
                    yield d
    yield from rec(n, n)


def k_eval_table(n: int, xs: Sequence) -> Fraction:
    """K_n from the explicit multinomial coefficient table; must agree with
    the recursion (tested propertywise)."""
    if n == 0:
        return Fraction(1)
    xs = [Fraction(x) for x in xs]
    total = Fraction(0)
    for d in k_multi_indices(n):
        s = sum(d.values())
        coeff = Fraction(factorial(s))
        term = Fraction(1)
        for p, cnt in d.items():
            coeff /= factorial(cnt)
            term *= (-xs[p - 1]) ** cnt
        total += coeff * term
    return total


def k_of_casimirs(n: int, rho, variant: str = "plain") -> Fraction:
    """K_n(-c) evaluated on the module labelled rho: the all-positive
    multinomial sum of products of Casimir scalars c_0 .. c_{n-1}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tab = family_table(rho, variant)
    return _k_series([tab.casimir(p) for p in range(n)], Fraction(1))[n]


def k_central(n: int, m: int, variant: str = "plain",
              budget: Optional[int] = None) -> PBWElement:
    """K_n(-c) as a central element of the algebra itself, by the recursion
    of `_k_series` on the Casimir elements c_0 .. c_{n-1}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _k_series([casimir_element(p, m, variant, budget) for p in range(n)],
                     PBWElement.one(m))[n]


# ---------------------------------------------------------------------------
# Symbolic verification of the binomial relations between the two families
# ---------------------------------------------------------------------------

def binomial_shift(q: int, p: int, m: int) -> Fraction:
    """C(q,p) (-m)^(q-p), the coefficient of x^p in (x - m)^q."""
    return Fraction(comb(q, p)) * Fraction(-m) ** (q - p)


def _binomial_sum(q, m, family) -> PBWElement:
    """sum_p C(q,p) (-m)^(q-p) family[p]."""
    total = PBWElement.zero(m)
    for p in range(q + 1):
        total = total + family[p].scale(binomial_shift(q, p, m))
    return total


def _binomial_diff(q, m, family, dual, ks):
    """_binomial_sum of family - (-1)^q sum_p ks[q-p] * dual[p]."""
    rhs = PBWElement.zero(m)
    for p in range(q + 1):
        rhs = rhs + ks[q - p] * dual[p]
    return _binomial_sum(q, m, family) - rhs.scale(Fraction(-1) ** q)


def verify_binomial_relations(m: int, q_max: int, budget: Optional[int] = None) -> VerificationReport:
    """Machine check of the degree-q relations between the e and tilde-e
    families, their trace forms, and the solved expressions, all as exact
    normal-form identities.

    The index pairs are taken unordered: the four families e_kl, e_lk,
    ~e_kl and ~e_lk of degree p <= q_max serve every check of both (k,l) and
    (l,k), so each element is built once.  The diagonal families come first:
    they sum to the Casimir elements, which give K_0 .. K_{q_max+1}, and go
    before the off-diagonal pairs.  The items are then reported degree by
    degree, in the fixed order of the tags.
    """
    if m < 1 or q_max < 0:
        raise ValueError("need m >= 1 and q_max >= 0")
    degrees = range(q_max + 1)

    def families(a, b):
        return ([e_power(a, b, p, m, budget) for p in degrees],
                [tilde_e_power(a, b, p, m, budget) for p in degrees])

    diagonal = [families(k, k) for k in range(1, m + 1)]
    cas = [sum((plain[p] for plain, _ in diagonal), PBWElement.zero(m)) for p in degrees]
    cas_t = [sum((tilde[p] for _, tilde in diagonal), PBWElement.zero(m)) for p in degrees]
    kc, kct = (_k_series(c, PBWElement.one(m)) for c in (cas, cas_t))
    # solved[q][p] = sum_{s=p}^{q} C(q,s) (-m)^(q-s) K_{s-p}, the coefficient
    # of e^p_lk in the solved form of ~e^q_kl
    solved = [[sum((kc[s - p].scale(binomial_shift(q, s, m)) for s in range(p, q + 1)),
                   PBWElement.zero(m)) for p in range(q + 1)] for q in degrees]
    witness = {}    # (tag, q, k, l) -> None when the difference is zero, else its repr

    def record(key, diff):
        witness[key] = None if diff.is_zero() else repr(diff)

    def check(fam):
        """Every check of each (a, b) in fam, which maps (a, b) and (b, a) to
        their plain and tilde families."""
        for (a, b), (plain, tilde) in fam.items():
            plain_ba, tilde_ba = fam[b, a]
            for q in degrees:
                record(("binomial-tilde-to-plain", q, a, b),
                       _binomial_diff(q, m, tilde, plain_ba, kc))
                record(("binomial-plain-to-tilde", q, a, b),
                       _binomial_diff(q, m, plain, tilde_ba, kct))
                rhs = PBWElement.zero(m)
                for p in range(q + 1):
                    rhs = rhs + solved[q][p] * plain_ba[p]
                record(("solved-tilde-elements", q, a, b),
                       tilde[q] - rhs.scale(Fraction(-1) ** q))

    for k, fam in enumerate(diagonal, 1):
        check({(k, k): fam})
    del diagonal
    for k in range(1, m + 1):
        for l in range(k + 1, m + 1):
            check({(k, l): families(k, l), (l, k): families(l, k)})

    for q in degrees:
        sign = Fraction(-1) ** q
        record(("casimir-binomial-tilde", q), _binomial_sum(q, m, cas_t) - kc[q + 1].scale(sign))
        record(("casimir-binomial-plain", q), _binomial_sum(q, m, cas) - kct[q + 1].scale(sign))
        record(("solved-tilde-casimir", q), cas_t[q] - _binomial_sum(q, m, kc[1:]).scale(sign))

    rep = VerificationReport()
    pairs = [(k, l) for k in range(1, m + 1) for l in range(1, m + 1)]

    def emit(tag, q, k=None, l=None):
        if k is None:
            params, w = {"m": m, "q": q}, witness[tag, q]
        else:
            params, w = {"m": m, "q": q, "k": k, "l": l}, witness[tag, q, k, l]
        rep.check(tag, params, w is None, witness=w)

    for q in degrees:
        for k, l in pairs:
            emit("binomial-tilde-to-plain", q, k, l)
            emit("binomial-plain-to-tilde", q, k, l)
        emit("casimir-binomial-tilde", q)
        emit("casimir-binomial-plain", q)
        for k, l in pairs:
            emit("solved-tilde-elements", q, k, l)
        emit("solved-tilde-casimir", q)
    return rep
