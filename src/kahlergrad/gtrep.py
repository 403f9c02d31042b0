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
convention); every build is then machine-checked, in one place, against the
weight grading, the adjoint condition and the commutation relations, one
relation per class of the pairs the Gram adjoint maps onto each other, so a
transcription error in the formulas cannot survive construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial
from typing import Dict, List, Tuple

from .linalg import Matrix, gram_adjoint, linear_combination
from .report import BudgetError
from .weights import HighestWeight, weyl_dimension

__all__ = [
    "Representation",
    "gt_patterns",
    "build_rep",
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

        Unitarity is checked as e_kl* = e_lk for k < l, where X* = G^-1 X^T G;
        since ** = id and G and each e_kk are diagonal, that gives e_ij* = e_ji
        for all i, j.  The anti-automorphism * then maps the relation
        [e_ij, e_kl] = d_jk e_il - d_li e_kj onto that of (l,k), (j,i).  As a
        relation is trivial at (i,j) = (k,l) and odd under swapping the pair,
        one pair per class {{(i,j), (k,l)}, {(l,k), (j,i)}} carries them all;
        one with no d term reads ab == ba."""
        m, n = self.m, self.dim
        for k in range(1, m + 1):
            if not self.gen[(k, k)].is_diagonal():
                raise AssertionError(f"gen[{k},{k}] not diagonal")
        total = linear_combination([(1, self.gen[(k, k)]) for k in range(1, m + 1)], n, n)
        expected = Fraction(sum(self.rho.entries))
        if any(x != expected for x in total.diagonal_entries()):
            raise AssertionError("weight grading: trace of diagonal action wrong")
        for k, l in combinations(range(1, m + 1), 2):
            if gram_adjoint(self.gen[(k, l)], self.gram, self.gram) != self.gen[(l, k)]:
                raise AssertionError(f"unitarity fails at {(k,l)}")
        for (i, j), (k, l) in combinations(product(range(1, m + 1), repeat=2), 2):
            if sorted([(l, k), (j, i)]) < [(i, j), (k, l)]:
                continue  # the class is checked at its least pair
            ab, ba = self.gen[(i, j)] * self.gen[(k, l)], self.gen[(k, l)] * self.gen[(i, j)]
            terms = [(1, ab), (-1, ba)]
            if j == k:
                terms.append((-1, self.gen[(i, l)]))
            if l == i:
                terms.append((1, self.gen[(k, j)]))
            if not (ab == ba if j != k and l != i else linear_combination(terms, n, n).is_zero()):
                raise AssertionError(f"commutation fails at {(i,j,k,l)}")


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
            rows = [list(r) for r in p]
            rows[k - 1][j] += step
            # index holds every pattern with this top row, which a step keeps
            r = index.get(tuple(map(tuple, rows)))
            if r is not None:
                out[r][c] = out[r].get(c, 0) + Fraction(num, den)
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
        raise DimensionBudgetError(
            f"dimension {dim} exceeds budget {dim_budget} for {rho}"
        )
    pats = gt_patterns(rho)
    if len(pats) != dim:
        raise AssertionError(
            f"pattern count {len(pats)} != Weyl dimension {dim} for {rho}"
        )
    index = {p: i for i, p in enumerate(pats)}
    gen: Dict[Tuple[int, int], Matrix] = {}
    # the weight of a pattern: the differences of its row sums, bottom-up
    sums = [[0] + [sum(row) for row in p] for p in pats]
    for k in range(1, m + 1):
        gen[(k, k)] = Matrix.diagonal([s[k] - s[k - 1] for s in sums])
    for k in range(1, m):
        gen[(k, k + 1)] = _ladder(pats, index, k, 1)
        gen[(k + 1, k)] = _ladder(pats, index, k, -1)
    # remaining units by commutator closure e_{kl} = [e_{k,l-1}, e_{l-1,l}]
    for d in range(2, m):
        for k in range(1, m + 1 - d):
            l = k + d
            gen[(k, l)] = (gen[(k, l - 1)] * gen[(l - 1, l)]
                           - gen[(l - 1, l)] * gen[(k, l - 1)])
            gen[(l, k)] = (gen[(l, l - 1)] * gen[(l - 1, k)]
                           - gen[(l - 1, k)] * gen[(l, l - 1)])
    gram = invariant_gram(pats)
    rep = Representation(rho=rho, dim=dim, gen=gen, gram=gram)
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
    (tilde), the block traces of one run of block powers."""
    return [power.block_trace(rep.dim) for power in block_powers(rep, q_max, variant)]


def casimir_matrix(rep: Representation, q: int, variant: str = "plain") -> Matrix:
    """Matrix of c_q (plain) or of its involution image (tilde)."""
    return casimir_matrices(rep, q, variant)[q]
