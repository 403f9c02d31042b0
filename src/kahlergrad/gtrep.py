"""Explicit rational matrix models of irreducible gl(m) modules.

The basis is indexed by Gelfand-Tsetlin patterns: triangular integer arrays
whose row r has r entries, whose top row equals the highest weight, and whose
adjacent rows interlace, each stored as its tuple of rows, bottom-up.  The
raising/lowering matrix elements use the classical rational (non-orthonormal)
normalization, so every entry stays in Q; unitarity is recovered from the
invariant diagonal Gram form of `invariant_gram`, a closed norm formula,
instead of orthonormalizing, which would need square roots.

Conventions for the matrix-element formulas, with shifted entries
l_{k,j} = lambda_{k,j} - j:

  E_{k,k+1}: coefficient of the pattern with lambda_{k,j} raised by one is
      - prod_{i<=k+1} (l_{k+1,i} - l_{k,j}) / prod_{i != j} (l_{k,i} - l_{k,j})
  E_{k+1,k}: coefficient of the pattern with lambda_{k,j} lowered by one is
        prod_{i<=k-1} (l_{k-1,i} - l_{k,j}) / prod_{i != j} (l_{k,i} - l_{k,j})

Terms whose target array is not a pattern are dropped (the classical
convention).  From the e_kk and these simple units, `complete_module` forms
the other raising units as commutators and each other lowering unit as a
Gram adjoint, then checks the module against the weight grading, the adjoint
condition and Serre's presentation of gl(m), which imply every commutation
relation.  Every model the library hands out, `clifford.derived_representation`'s
too, is completed and checked there, in one place.  The Casimir matrices are
block traces of the block powers up to half their degree and of products of
two of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial, lcm
from operator import mul, sub
from typing import Dict, List, Tuple

from .linalg import Matrix, gram_adjoint, linear_combination
from .report import BudgetError
from .weights import HighestWeight, weyl_dimension

__all__ = [
    "Representation",
    "gt_patterns",
    "build_rep",
    "complete_module",
    "invariant_gram",
    "block_powers",
    "e_power_matrix",
    "casimir_matrix",
    "casimir_matrices",
    "DEFAULT_DIMENSION_BUDGET",
    "DimensionBudgetError",
]

DEFAULT_DIMENSION_BUDGET = 4000


class DimensionBudgetError(BudgetError, ValueError):
    """Raised when a module's Weyl dimension exceeds the build budget."""


def gt_patterns(rho) -> list:
    """All patterns with top row rho, highest-weight pattern first.  A pattern
    is a tuple of rows, bottom-up: row r has r + 1 entries and the last row is
    rho.  Each row ranges over the entries interlacing the row above it, its
    first entry varying slowest."""
    rho = HighestWeight.coerce(rho)
    pats = [(rho.entries,)]
    for _ in range(rho.m - 1):
        pats = [(row,) + rows for rows in pats
                for row in product(*(range(a, b - 1, -1) for a, b in zip(rows[0], rows[0][1:])))]
    return pats


@dataclass
class Representation:
    """Matrix model: generator matrices gen[(k,l)] (1-based) plus the
    invariant diagonal Gram form."""

    rho: HighestWeight
    dim: int
    gen: Dict[Tuple[int, int], Matrix]
    gram: Matrix

    @property
    def m(self) -> int:
        return self.rho.m

    def check_invariants(self):
        """Weight grading, unitarity, commutation; raises on violation.

        The checks, with e_k = e_{k,k+1}, f_k = e_{k+1,k} and
        X* = G^-1 X^T G:
          (a) each e_kk is diagonal and sum_k e_kk = |rho|;
          (b) unitarity: e_kl* = e_lk for k < l;
          (c) weights: every stored entry (r, c) of e_k has
              weight(r) - weight(c) = eps_k - eps_{k+1};
          (d) [e_k, f_l] = d_kl (e_kk - e_{k+1,k+1}) for k <= l;
          (e) Serre: [e_k, e_l] = 0 for |k - l| >= 2 and
              [e_k, e_{k,k+2}] = [e_{k+1}, e_{k,k+2}] = 0;
          (f) closure: e_kl = [e_{k,l-1}, e_{l-1,l}] for l - k >= 2.
        Beside (a) and (b), they hold exactly when every relation
        [e_ij, e_kl] = d_jk e_il - d_li e_kj does.  Each is such a relation,
        (c) as [e_ii, e_k] = (d_ik - d_{i,k+1}) e_k for a diagonal e_ii.
        Conversely, G and each e_kk are diagonal, so e_kk* = e_kk; * is an
        anti-automorphism with ** = id, so by (b) f_k* = e_k, and * maps
        (c), (d) and (e) onto the relations of the f_k and of the pairs
        k > l in (d).  With (f) at l = k + 2, (e) reads [e_k, e_l] = 0 for
        |k - l| >= 2 and [e_k, [e_k, e_{k+1}]] = [e_{k+1}, [e_{k+1}, e_k]] = 0.
        These are the relations of Serre's presentation of gl(m) by the
        e_kk, e_k and f_k (J.-P. Serre, Algebres de Lie semi-simples
        complexes, 1966, ch. VI), so a Lie homomorphism phi on gl(m) takes
        the units E_kk, E_{k,k+1} and E_{k+1,k} to e_kk, e_k and f_k, and by
        (f) and induction on l - k, E_kl to e_kl for every k < l.  The map
        X -> phi(X^T)* is a Lie homomorphism too, and by (b) it agrees with
        phi on the generators, so the two are equal and
        phi(E_lk) = phi(E_kl)* = e_kl* = e_lk: every gen matrix is phi of its
        unit, and every relation holds.

        The trace and the weights are read from the integer diagonals, with
        no product; each relation of (d), (e) and (f) costs two products."""
        m, n, gen = self.m, self.dim, self.gen
        for k in range(1, m + 1):
            if not gen[(k, k)].is_diagonal():
                raise AssertionError(f"gen[{k},{k}] not diagonal")
        # weight[r][k - 1]: the numerator of e_kk[r, r] over the denominator units[k - 1]
        units, diagonals = zip(*(gen[(k, k)].integer_entries() for k in range(1, m + 1)))
        weight = [[0] * m for _ in range(n)]
        for k, entries in enumerate(diagonals):
            for r, _, x in entries:
                weight[r][k] = x
        common = lcm(*units)
        scale = [common // d for d in units]
        if any(sum(map(mul, w, scale)) != common * sum(self.rho.entries) for w in weight):
            raise AssertionError("weight grading: trace of diagonal action wrong")
        for k, l in combinations(range(1, m + 1), 2):
            if gram_adjoint(gen[(k, l)], self.gram, self.gram) != gen[(l, k)]:
                raise AssertionError(f"unitarity fails at {(k,l)}")
        for k in range(1, m):
            step = [d * ((i == k) - (i == k + 1)) for i, d in enumerate(units, 1)]
            for r, c, _ in gen[(k, k + 1)].integer_entries()[1]:
                if list(map(sub, weight[r], weight[c])) != step:
                    raise AssertionError(f"commutation fails at the weight of "
                                         f"e_{(k, k + 1)} entry {(r, c)}")
        # (a, b, rhs): [gen[a], gen[b]] = sum of c * gen[x] over (c, x) in rhs
        relations = [((k, k + 1), (l + 1, l), [] if k < l else [(1, (k, k)), (-1, (k + 1, k + 1))])
                     for k, l in combinations_with_replacement(range(1, m), 2)]
        relations += [((k, k + 1), (l, l + 1), []) for k, l in combinations(range(1, m), 2)
                      if l - k >= 2]
        for k in range(1, m - 1):
            relations += [((k, k + 1), (k, k + 2), []), ((k + 1, k + 2), (k, k + 2), [])]
        relations += [((k, l - 1), (l - 1, l), [(1, (k, l))])
                      for k, l in combinations(range(1, m + 1), 2) if l - k >= 2]
        for a, b, rhs in relations:
            ab, ba = gen[a] * gen[b], gen[b] * gen[a]
            terms = [(1, ab), (-1, ba)] + [(-c, gen[x]) for c, x in rhs]
            if not (linear_combination(terms, n, n).is_zero() if rhs else ab == ba):
                raise AssertionError(f"commutation fails at {a + b}")


def _ladder(pats, index, k, step):
    """E_{k,k+1} (step 1) or E_{k+1,k} (step -1) by the formulas of the module
    docstring: the numerator runs over row k+step, the sign is -step, and
    lambda_{k,j} moves by step."""
    out = [{} for _ in pats]
    for c, p in enumerate(pats):
        lk = [p[k - 1][j] - (j + 1) for j in range(k)]
        near = p[k + step - 1] if k + step >= 1 else ()
        ln = [x - (i + 1) for i, x in enumerate(near)]
        for j in range(k):
            num = -step
            for v in ln:
                num *= v - lk[j]
            if not num:
                continue
            den = 1
            for i in range(k):
                if i != j:
                    den *= lk[i] - lk[j]
            row = p[k - 1]
            # index holds every pattern with this top row, which a step keeps;
            # distinct j reach distinct patterns, so entry (r, c) is written once
            r = index.get(p[:k - 1] + (row[:j] + (row[j] + step,) + row[j + 1:],) + p[k:])
            if r is not None:
                out[r][c] = Fraction(num, den)
    return Matrix.from_rows(out, len(pats))


def invariant_gram(pats) -> Matrix:
    """The invariant diagonal Gram form, G^-1 e_kl^T G = e_lk, on the patterns
    ``pats`` by the Gelfand-Tsetlin norm formula (Molev, arXiv:math/0211289,
    section 2).  With l_{k,i} = lambda_{k,i} - i, the norm of a pattern is

      prod_{k=2..m} prod_{1<=i<=j<k} (l_{k,i} - l_{k-1,j})! (l_{k,i} - l_{k,j+1} - 1)!
                                   / (l_{k-1,i} - l_{k-1,j})! (l_{k-1,i} - l_{k,j+1} - 1)!

    Interlacing, lambda_{k,i} >= lambda_{k-1,i} >= lambda_{k,i+1}, makes every
    argument nonnegative, so each norm is defined and positive; on the
    highest-weight pattern row k-1 starts row k, so its norm is exactly 1.
    The formula shares no code with the ladder formulas, and the adjoint
    condition is checked once, by `Representation.check_invariants`.
    """
    norms = []
    for p in pats:
        num = den = 1
        rows = [[x - i for i, x in enumerate(row, 1)] for row in p]
        for low, high in zip(rows, rows[1:]):
            for i, j in combinations_with_replacement(range(len(low)), 2):
                num *= factorial(high[i] - low[j]) * factorial(high[i] - high[j + 1] - 1)
                den *= factorial(low[i] - low[j]) * factorial(low[i] - high[j + 1] - 1)
        norms.append(Fraction(num, den))
    return Matrix.diagonal(norms)


def build_rep(rho, dim_budget: int = DEFAULT_DIMENSION_BUDGET) -> Representation:
    """Construct the full matrix model for the module labelled rho."""
    rho = HighestWeight.coerce(rho)
    m = rho.m
    dim = weyl_dimension(rho)
    if dim > dim_budget:
        raise DimensionBudgetError(f"dimension {dim} exceeds budget {dim_budget} "
                                   f"for {rho}")
    pats = gt_patterns(rho)
    if len(pats) != dim:
        raise AssertionError(f"pattern count {len(pats)} != Weyl dimension {dim} for {rho}")
    index = {p: i for i, p in enumerate(pats)}
    gen: Dict[Tuple[int, int], Matrix] = {}
    # the weight of a pattern: the differences of its row sums, bottom-up
    sums = [[0] + [sum(row) for row in p] for p in pats]
    for k in range(1, m + 1):
        gen[(k, k)] = Matrix.diagonal([s[k] - s[k - 1] for s in sums])
    for k in range(1, m):
        gen[(k, k + 1)] = _ladder(pats, index, k, 1)
        gen[(k + 1, k)] = _ladder(pats, index, k, -1)
    return complete_module(rho, gen, invariant_gram(pats))


def complete_module(rho: HighestWeight, gen: dict, gram: Matrix) -> Representation:
    """The checked module labelled rho from its e_kk and simple units, in
    ``gen``, and its invariant diagonal Gram form: adds each other raising
    unit by closure, e_kl = [e_{k,l-1}, e_{l-1,l}], and each other lowering
    unit as the Gram adjoint e_lk = e_kl*, then runs `check_invariants`."""
    m = rho.m
    for d in range(2, m):
        for k in range(1, m + 1 - d):
            l = k + d
            gen[(k, l)] = (gen[(k, l - 1)] * gen[(l - 1, l)]
                           - gen[(l - 1, l)] * gen[(k, l - 1)])
            gen[(l, k)] = gram_adjoint(gen[(k, l)], gram, gram)
    rep = Representation(rho=rho, dim=gram.rows, gen=gen, gram=gram)
    rep.check_invariants()
    return rep


def block_powers(rep: Representation, q_max: int, variant: str = "plain") -> List[Matrix]:
    """The powers P^0 = I .. P^q_max of the m*dim square matrix P whose (k,l)
    block is the matrix of e_kl (plain) or of ~e_kl = -e_lk (tilde),
    multiplied up from one P; by the composition law, block (k,l) of P^q is
    the matrix of e^q_kl (or ~e^q_kl)."""
    if q_max < 0:
        raise ValueError("q must be nonnegative")
    if variant not in ("plain", "tilde"):
        raise ValueError("variant must be 'plain' or 'tilde'")
    keys = range(1, rep.m + 1)
    base = Matrix.block([[rep.gen[(k, l) if variant == "plain" else (l, k)] for l in keys]
                         for k in keys])
    powers = [Matrix.identity(rep.m * rep.dim), base if variant == "plain" else -base]
    while len(powers) <= q_max:
        powers.append(powers[-1] * powers[1])
    return powers[:q_max + 1]


def _block(power: Matrix, n: int, k: int, l: int) -> Matrix:
    """Block (k,l), counted from 1, of a matrix of n x n blocks."""
    return power.submatrix(range((k - 1) * n, k * n), range((l - 1) * n, l * n))


def e_power_matrix(rep: Representation, q: int, variant: str = "plain") -> Dict[Tuple[int, int], Matrix]:
    """Matrices of all e_{kl}^q (or tilde) at once, the blocks of one block power."""
    power = block_powers(rep, q, variant)[q]
    keys = range(1, rep.m + 1)
    return {(k, l): _block(power, rep.dim, k, l) for k in keys for l in keys}


def casimir_matrices(rep: Representation, q_max: int, variant: str = "plain") -> List[Matrix]:
    """Matrices of c_0 .. c_q_max (plain) or of their involution images
    (tilde): the block traces of the block powers P^0 .. P^h, h = ceil(q_max / 2),
    and for p > h the block trace of P^h P^(p-h), which
    `Matrix.block_trace_product` forms without the off-diagonal blocks."""
    h = (q_max + 1) // 2
    powers = block_powers(rep, min(h, q_max), variant)   # a negative q_max raises
    n = rep.dim
    return ([power.block_trace(n) for power in powers]
            + [powers[h].block_trace_product(powers[p - h], n) for p in range(h + 1, q_max + 1)])


def casimir_matrix(rep: Representation, q: int, variant: str = "plain") -> Matrix:
    """Matrix of c_q (plain) or of its involution image (tilde)."""
    return casimir_matrices(rep, q, variant)[q]
