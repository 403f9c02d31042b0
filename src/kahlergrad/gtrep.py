"""Explicit rational matrix models of irreducible gl(m) modules.

The basis is indexed by Gelfand-Tsetlin patterns: triangular integer arrays
whose row r has r entries, whose top row equals the highest weight, and whose
adjacent rows interlace.  The raising/lowering matrix elements use the
classical rational (non-orthonormal) normalization, so every entry stays in
Q; unitarity is recovered by solving separately for the invariant diagonal
Gram form instead of orthonormalizing, which would need square roots.

Conventions for the matrix-element formulas, with shifted entries
l_{k,j} = lambda_{k,j} - j:

  E_{k,k+1}: coefficient of the pattern with lambda_{k,j} raised by one is
      - prod_{i<=k+1} (l_{k+1,i} - l_{k,j}) / prod_{i != j} (l_{k,i} - l_{k,j})
  E_{k+1,k}: coefficient of the pattern with lambda_{k,j} lowered by one is
        prod_{i<=k-1} (l_{k-1,i} - l_{k,j}) / prod_{i != j} (l_{k,i} - l_{k,j})

Terms whose target array is not a pattern are dropped (the classical
convention); every build is then machine-checked against the commutation
relations, the weight grading, and the adjoint condition, so a transcription
error in the formulas cannot survive construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .linalg import Matrix, gram_adjoint, linear_combination
from .weights import HighestWeight, weyl_dimension

__all__ = [
    "GTPattern",
    "Representation",
    "gt_patterns",
    "build_rep",
    "invariant_gram",
    "block_powers",
    "e_power_matrices",
    "e_power_matrix",
    "casimir_matrix",
    "casimir_matrices",
    "DEFAULT_DIMENSION_BUDGET",
    "DimensionBudgetError",
]

DEFAULT_DIMENSION_BUDGET = 4000


class DimensionBudgetError(ValueError):
    """Raised when a module's Weyl dimension exceeds the build budget."""


@dataclass(frozen=True)
class GTPattern:
    """Rows stored bottom-up: rows[r] has r+1 entries; rows[-1] is the label."""

    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        for r, row in enumerate(self.rows):
            if len(row) != r + 1:
                raise ValueError("row lengths must be 1..m")
        if not _interlaces(self.rows):
            raise ValueError(f"interlacing violated in {self.rows}")

    @property
    def m(self) -> int:
        return len(self.rows)

    def weight(self) -> Tuple[int, ...]:
        sums = [0] + [sum(row) for row in self.rows]
        return tuple(sums[r + 1] - sums[r] for r in range(self.m))


def _interlaces(rows) -> bool:
    for r in range(len(rows) - 1):
        low, high = rows[r], rows[r + 1]
        for i in range(r + 1):
            if not (high[i] >= low[i] >= high[i + 1]):
                return False
    return True


def gt_patterns(rho) -> list:
    """All patterns with top row rho, highest-weight pattern first."""
    rho = HighestWeight.coerce(rho)
    out = []

    def descend(rows_topdown):
        top = rows_topdown[-1]
        if len(top) == 1:
            out.append(GTPattern(tuple(reversed(rows_topdown))))
            return
        r = len(top)
        choices = [range(top[i], top[i + 1] - 1, -1) for i in range(r - 1)]

        def rec(i, acc):
            if i == r - 1:
                descend(rows_topdown + [tuple(acc)])
                return
            for v in choices[i]:
                rec(i + 1, acc + [v])

        rec(0, [])

    descend([rho.entries])
    return out


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
        """Commutation, weight grading, unitarity; raises on violation."""
        m, n = self.m, self.dim
        for k in range(1, m + 1):
            if not self.gen[(k, k)].is_diagonal():
                raise AssertionError(f"gen[{k},{k}] not diagonal")
        total = linear_combination([(1, self.gen[(k, k)]) for k in range(1, m + 1)], n, n)
        expected = Fraction(sum(self.rho.entries))
        if any(x != expected for x in total.diagonal_entries()):
            raise AssertionError("weight grading: trace of diagonal action wrong")
        # [e_ij, e_kl] = d_jk e_il - d_li e_kj; both sides change sign when the
        # pair is swapped and vanish when (i,j) = (k,l), so (i,j) < (k,l) suffices
        units = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        for a, (i, j) in enumerate(units):
            for k, l in units[a + 1:]:
                terms = [(1, self.gen[(i, j)] * self.gen[(k, l)]),
                         (-1, self.gen[(k, l)] * self.gen[(i, j)])]
                if j == k:
                    terms.append((-1, self.gen[(i, l)]))
                if l == i:
                    terms.append((1, self.gen[(k, j)]))
                if not linear_combination(terms, n, n).is_zero():
                    raise AssertionError(f"commutation fails at {(i,j,k,l)}")
        for k in range(1, m + 1):
            for l in range(1, m + 1):
                if gram_adjoint(self.gen[(k, l)], self.gram, self.gram) != self.gen[(l, k)]:
                    raise AssertionError(f"unitarity fails at {(k,l)}")


def _ladder(pats, index, k, step):
    """E_{k,k+1} (step 1) or E_{k+1,k} (step -1) by the formulas of the module
    docstring: the numerator runs over row k+step, the sign is -step, and
    lambda_{k,j} moves by step."""
    out = [{} for _ in pats]
    for c, p in enumerate(pats):
        lk = [p.rows[k - 1][j] - (j + 1) for j in range(k)]
        near = p.rows[k + step - 1] if k + step >= 1 else ()
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
            rows = [list(r) for r in p.rows]
            rows[k - 1][j] += step
            if not _interlaces(rows):
                continue
            target = out[index[tuple(tuple(r) for r in rows)]]
            target[c] = target.get(c, 0) + Fraction(num, den)
    return Matrix.from_rows(out, len(pats))


def invariant_gram(m: int, gen: Dict[Tuple[int, int], Matrix]) -> Matrix:
    """Diagonal positive G with G^-1 A_{kl}^T G = A_{lk}, normalized so the
    highest-weight vector has norm 1.

    The ratio G_x / G_y along a lowering edge y -> x is forced by the adjoint
    condition on the raising/lowering pair; the solution is propagated from
    the highest-weight vector.  A one-sided edge on that walk, an unreached
    vector or a non-positive entry raises; the full condition for every
    generator is checked once, by `Representation.check_invariants`.
    """
    n = gen[(1, 1)].rows
    weights = list(zip(*(gen[(k, k)].diagonal_entries() for k in range(1, m + 1))))
    hw = max(range(n), key=lambda b: weights[b])
    # the lowering edges y -> x of each k, as the nonzero entries of column y
    edges = {k: [[] for _ in range(n)] for k in range(1, m)}
    for k, columns in edges.items():
        for x, y, b in gen[(k + 1, k)].nonzero_entries():
            columns[y].append((x, b))
    G: list = [None] * n
    G[hw] = Fraction(1)
    frontier = [hw]
    while frontier:
        nxt = []
        for y in frontier:
            for k, columns in edges.items():
                A = gen[(k, k + 1)]
                for x, b in columns[y]:
                    if G[x] is None:
                        a = A[y, x]
                        if not a:
                            raise ValueError(
                                "inconsistent adjoint system: one-sided edge "
                                f"{y}->{x} at k={k}"
                            )
                        G[x] = G[y] * a / b
                        nxt.append(x)
        frontier = nxt
    if any(g is None for g in G):
        raise ValueError("weight graph not connected; generators inconsistent")
    if any(g <= 0 for g in G):
        raise ValueError("invariant form not positive; generators inconsistent")
    return Matrix.diagonal(G)


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
    index = {p.rows: i for i, p in enumerate(pats)}
    gen: Dict[Tuple[int, int], Matrix] = {}
    for k in range(1, m + 1):
        gen[(k, k)] = Matrix.diagonal([Fraction(p.weight()[k - 1]) for p in pats])
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
    gram = invariant_gram(m, gen)
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
    return e_power_matrices(rep, q, variant)[q]


def e_power_matrices(rep: Representation, q_max: int,
                     variant: str = "plain") -> List[Dict[Tuple[int, int], Matrix]]:
    """`e_power_matrix` of every degree 0..q_max, the blocks of `block_powers`."""
    keys = range(1, rep.m + 1)
    return [{(k, l): _block(power, rep.dim, k, l) for k in keys for l in keys}
            for power in block_powers(rep, q_max, variant)]


def casimir_matrices(rep: Representation, q_max: int, variant: str = "plain") -> List[Matrix]:
    """Matrices of c_0 .. c_q_max (plain) or of their involution images
    (tilde), the block traces of one run of block powers."""
    n = rep.dim
    return [linear_combination([(1, _block(power, n, k, k)) for k in range(1, rep.m + 1)], n, n)
            for power in block_powers(rep, q_max, variant)]


def casimir_matrix(rep: Representation, q: int, variant: str = "plain") -> Matrix:
    """Matrix of c_q (plain) or of its involution image (tilde)."""
    return casimir_matrices(rep, q, variant)[q]
