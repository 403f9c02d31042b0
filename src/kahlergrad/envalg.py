"""The enveloping algebra of gl(m) over Q as a normal-ordered term algebra.

Elements are finite rational combinations of ordered monomials in the matrix
units e_{kl}.  The fixed monomial order is lexicographic on the index pair
(k,l); any total order would do, since normal forms are only ever compared
within one fixed order.  Rewriting uses the commutation rule

    e_{ij} e_{kl} = e_{kl} e_{ij} + delta_{jk} e_{il} - delta_{li} e_{kj}.

Words are built from one table of the m^2 generator pairs, so a normal form
holds at most m^2 distinct generator tuples however many terms it has.  A
coefficient is a Python int while every scalar that went into it is
integral; a Fraction appears only where a non-integral scalar comes in.

On top of the raw algebra this module builds the degree-q elements e_{kl}^q
and their involution images, the Casimir traces c_q, the generating-function
polynomials K_n, and a symbolic verifier for the binomial relations tying the
two families together.  The degree-q elements come from one series per row:
row k of e^p (or of ~e^p) is built for p = 0, 1, 2, ... by recursion on the
degree, e^p_kl = sum_i e^(p-1)_ki e_il, rather than by normal-ordering each of
the m^(p-1) index-path words.  The verifier builds the series of every row
once, sums its diagonal into the Casimir elements, which give the K_n by
recursion, and drops the families of each index pair once the checks of
(k,l) and (l,k) have read them.  Each checked difference is collected in one
dict, however many scaled elements and products it sums.
"""

from __future__ import annotations

import os
from fractions import Fraction
from operator import gt
from math import comb
from typing import Dict, Optional, Sequence, Tuple, Union

from .report import VerificationReport
from .weights import family_table

Generator = Tuple[int, int]          # (k, l), 1-based
Monomial = Tuple[Generator, ...]     # nondecreasing in the fixed order
Coefficient = Union[int, Fraction]   # an int while every input is integral

__all__ = [
    "BudgetExceededError",
    "PBWElement",
    "pbw_normalize",
    "e_power",
    "tilde_e_power",
    "casimir_element",
    "commutator",
    "k_series",
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


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class PBWElement:
    """Element of U(gl(m)) in normal-ordered form.

    terms maps ordered monomials to nonzero rational coefficients, ints or
    Fractions; the zero element has an empty map.  Instances are immutable.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Dict[Monomial, Coefficient]):
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
        return cls(m, {(): 1})

    @classmethod
    def scalar(cls, m: int, value) -> "PBWElement":
        return cls(m, {(): _exact(value)})

    @classmethod
    def generator(cls, m: int, k: int, l: int) -> "PBWElement":
        _check_index(k, m)
        _check_index(l, m)
        return cls(m, {((k, l),): 1})

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
        return _combine(self.m, [(1, self), (1, other)])

    def __sub__(self, other: "PBWElement") -> "PBWElement":
        self._same_rank(other)
        return _combine(self.m, [(1, self), (-1, other)])

    def __neg__(self) -> "PBWElement":
        return self.scale(-1)

    def scale(self, s) -> "PBWElement":
        return _combine(self.m, [(s, self)])

    def __mul__(self, other):
        if not isinstance(other, PBWElement):
            return self.scale(other)
        self._same_rank(other)
        return _combine(self.m, products=[(1, self, other)])

    def __rmul__(self, other):
        return self.scale(other)

    def involution(self) -> "PBWElement":
        """Transpose each generator, keep the order, weigh by (-1)^degree."""
        gens = _generators(self.m)
        out: Dict[Monomial, Coefficient] = {}
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


def _accumulate(out: Dict[Monomial, Coefficient], word, coeff, gens, start: int = 0):
    """Normal-order one word into ``out`` by adjacent-swap rewriting.

    ``word[:start + 1]`` must be ordered, so the scan for a descent begins at
    ``start``; a rewrite at i can only make a new descent at i - 1.  A swap
    reuses the two generator objects; a commutator term takes its generator
    from the table ``gens`` of `_generators`.
    """
    stack = [(list(word), coeff, max(start, 0))]
    while stack:
        w, c, i = stack.pop()
        for i in range(i, len(w) - 1):
            x, y = w[i], w[i + 1]
            if x > y:
                (a, b), (k, l) = x, y
                j = i - 1 if i else 0
                stack.append((w[:i] + [y, x] + w[i + 2:], c, j))
                if b == k:
                    stack.append((w[:i] + [gens[a][l]] + w[i + 2:], c, j))
                if l == a:
                    stack.append((w[:i] + [gens[k][b]] + w[i + 2:], -c, j))
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


def _combine(m: int, parts=(), products=()) -> PBWElement:
    """sum s*x over (s, x) in ``parts`` plus sum s*a*b over (s, a, b) in
    ``products``, collected in one dict and validated once."""
    gens = _generators(m)
    out: Dict[Monomial, Coefficient] = {}
    for s, x in parts:
        s = _exact(s)
        for w, c in x.terms.items():
            old = out.get(w)
            out[w] = s * c if old is None else old + s * c
    for s, a, b in products:
        s = _exact(s)
        for w1, c1 in a.terms.items():
            for w2, c2 in b.terms.items():
                _accumulate(out, w1 + w2, s * c1 * c2, gens, len(w1) - 1)
    return PBWElement(m, out)


def pbw_normalize(word: Sequence[Generator], m: int, coeff=1) -> PBWElement:
    """Normal form of a single word of generators with a rational coefficient."""
    for k, l in word:
        _check_index(k, m)
        _check_index(l, m)
    gens = _generators(m)
    out: Dict[Monomial, Coefficient] = {}
    _accumulate(out, tuple(gens[k][l] for k, l in word), _exact(coeff), gens)
    return PBWElement(m, out)


def _rows(k: int, q: int, m: int, budget: Optional[int], tilde: bool,
          l: Optional[int] = None) -> list:
    """Row k of e^p, or of its involution image when ``tilde``, for every
    degree p = 0 .. q: rows[p][j] holds the terms of e^p_kj.  By recursion on
    the degree,

        e^p_kj = sum_i e^(p-1)_ki e_ij,    ~e^p_kj = -sum_i ~e^(p-1)_ki e_ji,

    each step right-multiplying normal forms by a single generator; this
    equals the sum over index paths because normal forms are unique.  With
    ``l`` given, degree q is built at column l only.  Each degree p is guarded
    before it is built, named as the element (k, l, p), l defaulting to k.
    """
    name = "tilde_e_power" if tilde else "e_power"
    gens = _generators(m)
    cols = range(1, m + 1)
    sign = -1 if tilde else 1
    rows = [{j: {(): 1} if j == k else {} for j in cols}]
    for p in range(1, q + 1):
        _guard(m ** (p - 1), budget, f"{name}({k},{l or k},{p}) at rank {m}")
        prev, step = rows[-1], {}
        for j in (cols if p < q or l is None else (l,)):
            out: Dict[Monomial, Coefficient] = {}
            for i in cols:
                g = gens[j][i] if tilde else gens[i][j]
                for w, c in prev[i].items():
                    _accumulate(out, w + (g,), sign * c, gens, len(w) - 1)
            step[j] = out
        rows.append(step)
    return rows


def _element(k: int, l: int, q: int, m: int, budget: Optional[int], tilde: bool) -> PBWElement:
    """e^q_kl, or ~e^q_kl when ``tilde``, from the series of row k, with the
    index and degree checks of both builders and the guard of degree q."""
    _check_index(k, m)
    _check_index(l, m)
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q:
        name = "tilde_e_power" if tilde else "e_power"
        _guard(m ** (q - 1), budget, f"{name}({k},{l},{q}) at rank {m}")
    return PBWElement(m, _rows(k, q, m, budget, tilde, l)[q][l])


def e_power(k: int, l: int, q: int, m: int, budget: Optional[int] = None) -> PBWElement:
    """Degree-q element: sum over index paths e_{k i_1} e_{i_1 i_2} ... e_{i_{q-1} l}."""
    return _element(k, l, q, m, budget, tilde=False)


def tilde_e_power(k: int, l: int, q: int, m: int, budget: Optional[int] = None) -> PBWElement:
    """Involution image of e_power, from its defining sum
    (-1)^q sum e_{i_1 k} e_{i_2 i_1} ... e_{l i_{q-1}}."""
    return _element(k, l, q, m, budget, tilde=True)


def casimir_element(q: int, m: int, variant: str = "plain",
                    budget: Optional[int] = None) -> PBWElement:
    """Central trace element c_q = sum_k e_{kk}^q (or its involution image)."""
    if variant not in ("plain", "tilde"):
        raise ValueError("variant must be 'plain' or 'tilde'")
    return _combine(m, [(1, _element(k, k, q, m, budget, variant == "tilde"))
                        for k in range(1, m + 1)])


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


def k_series(table, n: int) -> list:
    """K_0(-c) .. K_n(-c) on one module, c_p = table.casimir(p) the Casimir
    scalars of one conformal table."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _k_series([table.casimir(p) for p in range(n)], Fraction(1))


def k_of_casimirs(n: int, rho, variant: str = "plain") -> Fraction:
    """K_n(-c) evaluated on the module labelled rho: the all-positive
    multinomial sum of products of Casimir scalars c_0 .. c_{n-1}."""
    return k_series(family_table(rho, variant), n)[n]


def k_central(n: int, m: int, variant: str = "plain",
              budget: Optional[int] = None) -> PBWElement:
    """K_n(-c) as a central element of the algebra itself, by the recursion
    of `_k_series` on the Casimir elements c_0 .. c_{n-1}, read from one
    degree series of each row."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if variant not in ("plain", "tilde"):
        raise ValueError("variant must be 'plain' or 'tilde'")
    rows = [_rows(k, n - 1, m, budget, variant == "tilde", k) for k in range(1, m + 1)] if n else []
    cs = [_combine(m, [(1, PBWElement(m, row[p][k])) for k, row in enumerate(rows, 1)])
          for p in range(n)]
    return _k_series(cs, PBWElement.one(m))[n]


# ---------------------------------------------------------------------------
# Symbolic verification of the binomial relations between the two families
# ---------------------------------------------------------------------------

def binomial_shift(q: int, p: int, m: int) -> Fraction:
    """C(q,p) (-m)^(q-p), the coefficient of x^p in (x - m)^q."""
    return Fraction(comb(q, p)) * Fraction(-m) ** (q - p)


def _shifted(q, m, family) -> list:
    """The (C(q,p) (-m)^(q-p), family[p]) parts of the degree-q binomial sum."""
    return [(binomial_shift(q, p, m), family[p]) for p in range(q + 1)]


def _binomial_diff(q, m, family, dual, ks) -> PBWElement:
    """sum_p C(q,p) (-m)^(q-p) family[p] - (-1)^q sum_p ks[q-p] * dual[p]."""
    return _combine(m, _shifted(q, m, family),
                    [(-(-1) ** q, ks[q - p], dual[p]) for p in range(q + 1)])


def verify_binomial_relations(m: int, q_max: int, budget: Optional[int] = None) -> VerificationReport:
    """Machine check of the degree-q relations between the e and tilde-e
    families, their trace forms, and the solved expressions, all as exact
    normal-form identities.

    The series of each row k is built once, for every degree p <= q_max and
    every column, so each family element is built once.  The diagonal
    elements sum to the Casimir elements, which give K_0 .. K_{q_max+1}; the
    index pairs are then taken unordered, and the families e_kl, e_lk, ~e_kl
    and ~e_lk are dropped once the checks of (k,l) and (l,k) have read them.
    The items are reported degree by degree, in the fixed order of the tags.
    """
    if m < 1 or q_max < 0:
        raise ValueError("need m >= 1 and q_max >= 0")
    degrees = range(q_max + 1)
    cols = range(1, m + 1)
    words = {}      # one tuple per distinct word, shared by every family

    def families(tilde):
        fam = {}
        for k in cols:
            rows = _rows(k, q_max, m, budget, tilde)
            for l in cols:
                fam[k, l] = [PBWElement(m, {words.setdefault(w, w): c for w, c in rows[p][l].items()})
                             for p in degrees]
        return fam

    plain, tilde = families(False), families(True)
    del words
    cas, cas_t = ([_combine(m, [(1, fam[k, k][p]) for k in cols]) for p in degrees]
                  for fam in (plain, tilde))
    kc, kct = (_k_series(c, PBWElement.one(m)) for c in (cas, cas_t))
    # solved[q][p] = sum_{s=p}^{q} C(q,s) (-m)^(q-s) K_{s-p}, the coefficient
    # of e^p_lk in the solved form of ~e^q_kl
    solved = [[_combine(m, [(binomial_shift(q, s, m), kc[s - p]) for s in range(p, q + 1)])
               for p in range(q + 1)] for q in degrees]
    witness = {}    # (tag, q, k, l) -> None when the difference is zero, else its repr

    def record(key, diff):
        witness[key] = None if diff.is_zero() else repr(diff)

    def check(a, b):
        """Every check of (a, b), on its families and those of (b, a)."""
        for q in degrees:
            record(("binomial-tilde-to-plain", q, a, b),
                   _binomial_diff(q, m, tilde[a, b], plain[b, a], kc))
            record(("binomial-plain-to-tilde", q, a, b),
                   _binomial_diff(q, m, plain[a, b], tilde[b, a], kct))
            record(("solved-tilde-elements", q, a, b),
                   _combine(m, [(1, tilde[a, b][q])],
                            [(-(-1) ** q, solved[q][p], plain[b, a][p]) for p in range(q + 1)]))

    for k in cols:              # the diagonal first, then each unordered pair
        for l in range(k, m + 1):
            pair = {(k, l), (l, k)}
            for a, b in pair:
                check(a, b)
            for key in pair:
                del plain[key], tilde[key]

    for q in degrees:
        sign = (-1) ** q
        record(("casimir-binomial-tilde", q), _combine(m, _shifted(q, m, cas_t) + [(-sign, kc[q + 1])]))
        record(("casimir-binomial-plain", q), _combine(m, _shifted(q, m, cas) + [(-sign, kct[q + 1])]))
        record(("solved-tilde-casimir", q),
               _combine(m, [(1, cas_t[q])] + [(-sign * s, x) for s, x in _shifted(q, m, kc[1:])]))

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
