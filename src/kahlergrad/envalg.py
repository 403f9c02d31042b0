"""The enveloping algebra of gl(m) over Q as a normal-ordered term algebra.

Elements are finite rational combinations of ordered monomials in the matrix
units e_{kl}.  The fixed monomial order is lexicographic on the index pair
(k,l); any total order would do, since normal forms are only ever compared
within one fixed order.  Rewriting uses the commutation rule

    e_{ij} e_{kl} = e_{kl} e_{ij} + delta_{jk} e_{il} - delta_{li} e_{kj}.

A word is normal-ordered by insertion: at its first descent the out-of-order
letter y moves left past every larger letter x in one step, by
x y = y x + [x, y] once per letter passed, and each commutator term, one
letter shorter, is ordered the same way.  A product of two ordered words that
is already ordered (the last letter of the one <= the first of the other)
goes straight into the result.  Words are built from one table of the m^2
generator pairs, so a normal form holds at most m^2 distinct generator
tuples however many terms it has.  A coefficient is a Python int while every
scalar that went into it is integral; a Fraction appears only where a
non-integral scalar comes in.

On top of the raw algebra this module builds the degree-q elements e_{kl}^q
and their involution images, the Casimir traces c_q, the generating-function
polynomials K_n, and a symbolic verifier for the binomial relations tying the
two families together.  The degree-q elements come from one series per row:
row k of e^p (or of ~e^p) is built for p = 0, 1, 2, ... by recursion on the
degree, e^p_kl = sum_i e^(p-1)_ki e_il, rather than by normal-ordering each of
the m^(p-1) index-path words.  The verifier builds the series of every row
once, sums its diagonal into the Casimir elements, which give the K_n by
recursion, and checks each relation in the order it reports them.  Each
product sum T_s(l,k) = sum_p K_{s-p} e^p_lk is formed once and read by every
relation that needs it.  Each checked difference is collected in one dict,
however many scaled elements and products it sums.
"""

from __future__ import annotations

from fractions import Fraction
from operator import gt
from math import comb
from typing import Dict, Optional, Sequence, Tuple, Union

from .report import BudgetError, VerificationReport
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
    "DEFAULT_TERM_BUDGET",
]

DEFAULT_TERM_BUDGET = 10_000_000


class BudgetExceededError(BudgetError, RuntimeError):
    """An expansion would exceed the configured term budget."""


def _guard(count: int, budget: int, what: str):
    if count > budget:
        raise BudgetExceededError(
            f"{what} needs {count} words, exceeding the term budget {budget}"
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

    @classmethod
    def _ordered(cls, m: int, terms: Dict[Monomial, Coefficient]) -> "PBWElement":
        """The element of ``terms``, whose words the normal-ordering kernels
        have just ordered, so their order is not checked again."""
        x = cls.__new__(cls)
        x.m = m
        x.terms = {w: c for w, c in terms.items() if c}
        return x

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

    def _same_rank(self, other: "PBWElement"):
        if self.m != other.m:
            raise ValueError(f"rank mismatch: {self.m} vs {other.m}")


def _generators(m: int):
    """The m^2 generator pairs, gens[k][l] = (k, l) for 1 <= k, l <= m.

    Words built from one table share these objects, so a normal form holds
    at most m^2 distinct generator tuples however many terms it has.
    """
    return [()] + [[()] + [(k, l) for l in range(1, m + 1)] for k in range(1, m + 1)]


def _add(out: Dict[Monomial, Coefficient], w: Monomial, c: Coefficient):
    """out[w] += c for an ordered word w, dropping w when it cancels."""
    c += out.get(w, 0)
    if c:
        out[w] = c
    else:
        out.pop(w, None)


def _accumulate(out: Dict[Monomial, Coefficient], word: Monomial, coeff, gens, start: int = 0):
    """Normal-order the word ``word`` into ``out`` by insertion.

    ``word[:start + 1]`` must be ordered (start >= 0), so the scan for the
    first descent x_i > y begins at ``start``.  The letter y then moves left
    past every larger letter x_j .. x_i in one step, by x y = y x + [x, y]
    once per letter it passes:

        u x_j .. x_i y r = u y x_j .. x_i r
                           + sum_{t=j..i} u x_j .. x_{t-1} [x_t, y] x_{t+1} .. x_i r,

    with [e_ab, e_kl] = delta_bk e_al - delta_la e_kb.  Each commutator term
    is one letter shorter and goes on the stack, its scan starting one
    position before the new letter; the moved word is ordered through y's
    old position, and its scan goes on at the next one.  Words stay tuples;
    a moved letter keeps its generator object, and a commutator term takes
    its generator from the table ``gens`` of `_generators`.
    """
    stack = [(word, coeff, start)]
    while stack:
        w, c, i = stack.pop()
        last = len(w) - 1
        while True:
            while i < last and w[i] <= w[i + 1]:
                i += 1
            if i >= last:
                _add(out, w, c)
                break
            y = w[i + 1]
            k, l = y
            tail = w[i + 2:]
            j = i
            while j >= 0 and w[j] > y:
                a, b = w[j]
                if b == k or l == a:
                    head, rest, back = w[:j], w[j + 1:i + 1] + tail, j - 1 if j else 0
                    if b == k:
                        stack.append((head + (gens[a][l],) + rest, c, back))
                    if l == a:
                        stack.append((head + (gens[k][b],) + rest, -c, back))
                j -= 1
            w = w[:j + 1] + (y,) + w[j + 1:i + 1] + tail
            i += 1


def _combine(m: int, parts=(), products=()) -> PBWElement:
    """sum s*x over (s, x) in ``parts`` plus sum s*a*b over (s, a, b) in
    ``products``, collected in one dict and validated once.  A product of two
    words that is already ordered goes straight into the dict."""
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
            sc1 = s * c1
            for w2, c2 in b.terms.items():
                if w1 and w2 and w1[-1] > w2[0]:
                    _accumulate(out, w1 + w2, sc1 * c2, gens, len(w1) - 1)
                else:
                    _add(out, w1 + w2, sc1 * c2)
    return PBWElement._ordered(m, out)


def pbw_normalize(word: Sequence[Generator], m: int, coeff=1) -> PBWElement:
    """Normal form of a single word of generators with a rational coefficient."""
    for k, l in word:
        _check_index(k, m)
        _check_index(l, m)
    gens = _generators(m)
    out: Dict[Monomial, Coefficient] = {}
    _accumulate(out, tuple(gens[k][l] for k, l in word), _exact(coeff), gens)
    return PBWElement._ordered(m, out)


def _rows(k: int, q: int, m: int, budget: int, tilde: bool,
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
                    if w and w[-1] > g:
                        _accumulate(out, w + (g,), sign * c, gens, len(w) - 1)
                    else:
                        _add(out, w + (g,), sign * c)
            step[j] = out
        rows.append(step)
    return rows


def _element(k: int, l: int, q: int, m: int, budget: int, tilde: bool) -> PBWElement:
    """e^q_kl, or ~e^q_kl when ``tilde``, from the series of row k, with the
    index and degree checks of both builders and the guard of degree q."""
    _check_index(k, m)
    _check_index(l, m)
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q:
        name = "tilde_e_power" if tilde else "e_power"
        _guard(m ** (q - 1), budget, f"{name}({k},{l},{q}) at rank {m}")
    return PBWElement._ordered(m, _rows(k, q, m, budget, tilde, l)[q][l])


def e_power(k: int, l: int, q: int, m: int, budget: int = DEFAULT_TERM_BUDGET) -> PBWElement:
    """Degree-q element: sum over index paths e_{k i_1} e_{i_1 i_2} ... e_{i_{q-1} l}."""
    return _element(k, l, q, m, budget, tilde=False)


def tilde_e_power(k: int, l: int, q: int, m: int, budget: int = DEFAULT_TERM_BUDGET) -> PBWElement:
    """Involution image of e_power, from its defining sum
    (-1)^q sum e_{i_1 k} e_{i_2 i_1} ... e_{l i_{q-1}}."""
    return _element(k, l, q, m, budget, tilde=True)


def casimir_element(q: int, m: int, variant: str = "plain",
                    budget: int = DEFAULT_TERM_BUDGET) -> PBWElement:
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
              budget: int = DEFAULT_TERM_BUDGET) -> PBWElement:
    """K_n(-c) as a central element of the algebra itself, by the recursion
    of `_k_series` on the Casimir elements c_0 .. c_{n-1}, read from one
    degree series of each row."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if variant not in ("plain", "tilde"):
        raise ValueError("variant must be 'plain' or 'tilde'")
    rows = [_rows(k, n - 1, m, budget, variant == "tilde", k) for k in range(1, m + 1)] if n else []
    cs = [_combine(m, [(1, PBWElement._ordered(m, row[p][k])) for k, row in enumerate(rows, 1)])
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


def _k_products(q, m, ks, dual) -> PBWElement:
    """T_q = sum_{p<=q} ks[q-p] * dual[p], the products of one binomial item."""
    return _combine(m, products=[(1, ks[q - p], dual[p]) for p in range(q + 1)])


def _binomial_diff(q, m, family, t) -> PBWElement:
    """sum_p C(q,p) (-m)^(q-p) family[p] - (-1)^q t, t = T_q of `_k_products`."""
    return _combine(m, _shifted(q, m, family) + [(-(-1) ** q, t)])


def verify_binomial_relations(m: int, q_max: int,
                              budget: int = DEFAULT_TERM_BUDGET) -> VerificationReport:
    """Machine check of the degree-q relations between the e and tilde-e
    families, their trace forms, and the solved expressions, all as exact
    normal-form identities.

    The series of each row k is built once, for every degree p <= q_max and
    every column, so each family element is built once.  The diagonal
    elements sum to the Casimir elements, which give K_0 .. K_{q_max+1}.
    Each relation is then checked where it is reported: degree by degree, in
    the fixed order of the tags.

    The products T_s(l,k) = sum_{p<=s} K_{s-p} e^p_lk are formed once per
    (s, l, k), for the binomial-tilde-to-plain item of degree s.  The solved
    form of ~e^q_kl has the coefficient sum_{s=p..q} C(q,s) (-m)^(q-s) K_{s-p}
    at e^p_lk; by distributivity its products sum to

        sum_p sum_{s>=p} C(q,s) (-m)^(q-s) K_{s-p} e^p_lk
            = sum_s C(q,s) (-m)^(q-s) T_s(l,k),

    so the solved-tilde-elements item checks
    ~e^q_kl - (-1)^q sum_s C(q,s) (-m)^(q-s) T_s(l,k), a linear combination
    with no products.
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
                fam[k, l] = [PBWElement._ordered(m, {words.setdefault(w, w): c
                                                     for w, c in rows[p][l].items()})
                             for p in degrees]
        return fam

    plain, tilde = families(False), families(True)
    del words
    cas, cas_t = ([_combine(m, [(1, fam[k, k][p]) for k in cols]) for p in degrees]
                  for fam in (plain, tilde))
    kc, kct = (_k_series(c, PBWElement.one(m)) for c in (cas, cas_t))
    rep = VerificationReport()
    pairs = [(k, l) for k in cols for l in cols]
    ts = {pair: [] for pair in pairs}   # ts[l, k][s] = T_s(l,k) = sum_p K_{s-p} e^p_lk
    for q in degrees:
        sign, at = (-1) ** q, {"m": m, "q": q}
        for k, l in pairs:
            ts[l, k].append(_k_products(q, m, kc, plain[l, k]))
            for tag, diff in (
                    ("binomial-tilde-to-plain", _binomial_diff(q, m, tilde[k, l], ts[l, k][q])),
                    ("binomial-plain-to-tilde",
                     _binomial_diff(q, m, plain[k, l], _k_products(q, m, kct, tilde[l, k])))):
                rep.check(tag, {**at, "k": k, "l": l}, diff.is_zero(), witness=repr(diff))
        for tag, diff in (
                ("casimir-binomial-tilde", _combine(m, _shifted(q, m, cas_t) + [(-sign, kc[q + 1])])),
                ("casimir-binomial-plain", _combine(m, _shifted(q, m, cas) + [(-sign, kct[q + 1])]))):
            rep.check(tag, at, diff.is_zero(), witness=repr(diff))
        for k, l in pairs:
            diff = _combine(m, [(1, tilde[k, l][q])]
                            + [(-sign * s, t) for s, t in _shifted(q, m, ts[l, k])])
            rep.check("solved-tilde-elements", {**at, "k": k, "l": l}, diff.is_zero(),
                      witness=repr(diff))
        diff = _combine(m, [(1, cas_t[q])] + [(-sign * s, x) for s, x in _shifted(q, m, kc[1:])])
        rep.check("solved-tilde-casimir", at, diff.is_zero(), witness=repr(diff))
    return rep
