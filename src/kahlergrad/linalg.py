"""Exact rational linear algebra whose cost follows the nonzero entries.

Everything downstream (weight tables, enveloping-algebra coefficients,
representation matrices, spectral projectors) lives over the rationals, so
this module deliberately offers no floating-point mode.  A matrix keeps its
entries as one dense row-major list of lists of :class:`fractions.Fraction`
(``Matrix.data``); equality is entrywise exact equality.

The matrices met here are a few percent nonzero, so every kernel does
arithmetic on nonzero entries only.  Zero convention: constructors and
kernels store the shared object :data:`ZERO` for every zero entry, and
kernels find the other entries with ``x is not ZERO``, which runs no Python
code per entry.  A value written into ``.data`` from outside, a fresh
``Fraction(0)`` included, is treated as stored: it costs arithmetic, never a
wrong result.  The predicates (``==``, ``is_zero``, ``is_diagonal``, ...)
still test the stored entries by value.

Sums are accumulated in Python ints over a common denominator and turned
into one Fraction per nonzero result entry.  ``matmul`` brings the stored
entries of its right operand over one denominator once per call and those of
each left row over that row's own.  :func:`linear_combination` sums c * A
over many terms in one pass, each output row over its common denominator;
``+``, ``-`` and ``scale`` are its one- and two-term cases.  The values are
the same exact rationals as with Fraction arithmetic.

:func:`lagrange_projector` interpolates each connected block of its input's
off-diagonal nonzero pattern on its own and reassembles the result.  A
polynomial in a block-diagonal matrix is block diagonal and the spectral
projector is unique, so the result is exactly that of the whole matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

__all__ = [
    "ZERO",
    "Matrix",
    "SpectralCompletenessError",
    "gram_adjoint",
    "lagrange_projector",
    "linear_combination",
]

ZERO = Fraction(0)
_ONE = Fraction(1)


class SpectralCompletenessError(ValueError):
    """Raised when a supplied eigenvalue list does not annihilate the matrix."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _as_fraction(x) -> Fraction:
    """``x`` as a Fraction, with every zero mapped to :data:`ZERO`."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    # the numerator slot is read without the Python-level Fraction.__bool__
    return x if x._numerator else ZERO


def _stored(row) -> list:
    """(column, entry) pairs of the stored (non-``ZERO``) entries of one row."""
    return [(j, x) for j, x in enumerate(row) if x is not ZERO]


def _integer_rows(data) -> tuple:
    """The stored entries of every row as (column, integer) pairs over one
    common denominator D, and D."""
    rows = [_stored(row) for row in data]
    d = lcm(*{x._denominator for row in rows for _, x in row})
    return [[(j, x._numerator * (d // x._denominator)) for j, x in row]
            for row in rows], d


class Matrix:
    """Immutable-by-convention exact rational matrix.

    The entry lists are owned by the instance; callers must not mutate them
    (the zero convention of the module docstring tells what a write costs).
    All arithmetic returns new matrices.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        rows = [[_as_fraction(x) for x in row] for row in data]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and column")
        ncol = len(rows[0])
        if any(len(r) != ncol for r in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = ncol
        self.data = rows

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m.data = [[ZERO] * cols for _ in range(rows)]
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([_ONE] * n)

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        ents = [_as_fraction(x) for x in entries]
        m = cls.zeros(len(ents), len(ents))
        for i, x in enumerate(ents):
            m.data[i][i] = x
        return m

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The entries at the given row and column indices, in that order."""
        out = Matrix.__new__(Matrix)
        out.rows, out.cols = len(rows), len(cols)
        out.data = [[r[j] for j in cols] for r in map(self.data.__getitem__, rows)]
        return out

    # -- basic protocol ----------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        # list equality tests identity first, so shared ZEROs cost nothing
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        body = "; ".join(",".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{self.rows}x{self.cols}]({body})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return linear_combination([(_ONE, self), (_ONE, other)], self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return linear_combination([(_ONE, self), (-1, other)], self.rows, self.cols)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, s) -> "Matrix":
        return linear_combination([(s, self)], self.rows, self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch in product: {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}"
            )
        out = Matrix.zeros(self.rows, other.cols)
        brows, db = _integer_rows(other.data)
        for arow, orow in zip(self.data, out.data):
            stored = _stored(arow)
            if not stored:
                continue
            da = lcm(*{a._denominator for _, a in stored})
            acc = {}
            for k, a in stored:
                ai = a._numerator * (da // a._denominator)
                for j, b in brows[k]:
                    acc[j] = acc.get(j, 0) + ai * b
            d = da * db
            for j, v in acc.items():
                if v:
                    orow[j] = Fraction(v, d)
        return out

    def kron(self, other: "Matrix") -> "Matrix":
        br, bc = other.rows, other.cols
        out = Matrix.zeros(self.rows * br, self.cols * bc)
        brows = [_stored(row) for row in other.data]
        for i, arow in enumerate(self.data):
            for j, a in _stored(arow):
                off = j * bc
                for orow, bstored in zip(out.data[i * br:(i + 1) * br], brows):
                    for l, b in bstored:
                        orow[off + l] = a * b
        return out

    # -- predicates and reductions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(x for row in self.data for x in row if x is not ZERO)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_diagonal(self) -> bool:
        return not any(
            x for i, row in enumerate(self.data) for j, x in _stored(row) if i != j
        )

    def diagonal_entries(self) -> list:
        n = min(self.rows, self.cols)
        return [self.data[i][i] for i in range(n)]

    def is_scalar(self) -> bool:
        """Square, diagonal and constant on the diagonal."""
        if not self.is_square() or not self.is_diagonal():
            return False
        d = self.diagonal_entries()
        return all(x == d[0] for x in d)

    def nonzero_count(self) -> int:
        return sum(1 for row in self.data for x in row if x is not ZERO and x)

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        a = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            piv = None
            for i in range(r, self.rows):
                x = a[i][c]
                if x is not ZERO and x:
                    piv = i
                    break
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            prow = a[r]
            inv = 1 / prow[c]
            for j, x in _stored(prow):
                prow[j] = x * inv
            pstored = _stored(prow)
            for i, row in enumerate(a):
                if row[c] is ZERO or i == r:
                    continue
                f = -row[c]
                for j, y in pstored:
                    x = row[j]
                    v = f * y if x is ZERO else x + f * y
                    row[j] = v if v._numerator else ZERO
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        out = Matrix.__new__(Matrix)
        out.rows, out.cols, out.data = self.rows, self.cols, a
        return out, pivots

    def rank(self) -> int:
        return len(self.rref()[1])


def _check_gram(g: Matrix, name: str):
    if not g.is_square():
        raise ValueError(f"{name} gram must be square")
    if not g.is_diagonal():
        raise ValueError(f"{name} gram must be diagonal")
    if any(x <= 0 for x in g.diagonal_entries()):
        raise ValueError(f"{name} gram must have positive diagonal entries")


def gram_adjoint(a: Matrix, gram_source: Matrix, gram_target: Matrix) -> Matrix:
    """Adjoint of ``a`` with respect to two diagonal positive Hermitian forms.

    ``a`` maps the source space (cols) to the target space (rows); the result
    is ``G_source^-1 . a^T . G_target`` mapping target back to source.  All
    data is real rational, so conjugation is trivial.
    """
    _check_gram(gram_source, "source")
    _check_gram(gram_target, "target")
    if a.cols != gram_source.rows or a.rows != gram_target.rows:
        raise ValueError(
            f"adjoint dimension mismatch: map is {a.rows}x{a.cols}, grams are "
            f"{gram_source.rows} (source) and {gram_target.rows} (target)"
        )
    gs = gram_source.diagonal_entries()
    out = Matrix.zeros(a.cols, a.rows)
    for y, (row, g) in enumerate(zip(a.data, gram_target.diagonal_entries())):
        for x, v in _stored(row):
            if v._numerator:
                s = gs[x]
                out.data[x][y] = Fraction(v._numerator * g._numerator * s._denominator,
                                          v._denominator * g._denominator * s._numerator)
    return out


def _connected_blocks(a: Matrix) -> list:
    """Index lists, each ascending, of the connected components of the graph
    whose edges are the stored off-diagonal entries of ``a``."""
    parent = list(range(a.rows))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, row in enumerate(a.data):
        for j, _ in _stored(row):
            ri, rj = root(i), root(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    blocks = {}
    for i in range(a.rows):
        blocks.setdefault(root(i), []).append(i)
    return list(blocks.values())


def _place(dst: Matrix, blk: Matrix, idx: list):
    """Write the square block ``blk`` into ``dst`` at rows and columns ``idx``."""
    for i, brow in zip(idx, blk.data):
        drow = dst.data[i]
        for c, x in _stored(brow):
            drow[idx[c]] = x


def lagrange_projector(a: Matrix, eigenvalues: Sequence, target_index: int) -> Matrix:
    """Spectral projector onto one eigenvalue by Lagrange interpolation.

    ``eigenvalues`` must be pairwise distinct and spectrally complete for
    ``a`` (the product of all ``a - lambda_j`` must vanish); the projector for
    ``eigenvalues[target_index]`` is then ``prod_{j != t} (a - lambda_j) /
    (lambda_t - lambda_j)``.  Completeness is always checked, so a wrong
    predicted spectrum fails loudly instead of producing a non-projector.

    The interpolation runs on each connected block of the off-diagonal
    nonzero pattern with the full eigenvalue list (a superset of a block's
    spectrum is enough), and the projector and the residual are reassembled.
    """
    if not a.is_square():
        raise ValueError("lagrange_projector needs a square matrix")
    lams = [_as_fraction(x) for x in eigenvalues]
    if len(set(lams)) != len(lams):
        raise ValueError(f"repeated eigenvalues in spectrum list: {lams}")
    if not 0 <= target_index < len(lams):
        raise ValueError("target_index out of range")
    coeff = _ONE
    for j, lam in enumerate(lams):
        if j != target_index:
            coeff /= lams[target_index] - lam
    blocks = _connected_blocks(a)
    # lambda times the identity, for each block size and eigenvalue
    scalars = {b: [Matrix.diagonal([lam] * b) for lam in lams]
               for b in {len(idx) for idx in blocks}}
    proj = Matrix.zeros(a.rows, a.rows)
    residues = []
    for idx in blocks:
        blk = a.submatrix(idx, idx)
        factors = [blk - s for s in scalars[len(idx)]]
        p = None
        for j, factor in enumerate(factors):
            if j != target_index:
                p = factor if p is None else p.matmul(factor)
        p = Matrix.identity(len(idx)) if p is None else p.scale(coeff)
        _place(proj, p, idx)
        res = p.matmul(factors[target_index])
        if not res.is_zero():
            residues.append((res, idx))
    if residues:
        residual = Matrix.zeros(a.rows, a.rows)
        for res, idx in residues:
            _place(residual, res, idx)
        raise SpectralCompletenessError(
            f"eigenvalue list {lams} is not spectrally complete "
            f"({residual.nonzero_count()} nonzero residual entries)",
            residual=residual,
        )
    return proj


def linear_combination(terms, rows: int, cols: int) -> Matrix:
    """The sum of c * A over the (c, A) pairs of ``terms``, each A rows x cols.

    One pass over each A's stored entries: every output row is summed in
    Python ints over that row's common denominator.  Zero coefficients are
    skipped and coefficient-1 terms are added without a multiplication.
    """
    parts = []
    for c, a in terms:
        if a.rows != rows or a.cols != cols:
            raise ValueError(
                f"dimension mismatch: {a.rows}x{a.cols} term in a {rows}x{cols} sum"
            )
        c = _as_fraction(c)
        if c is not ZERO:
            parts.append((c._numerator, c._denominator, a.data))
    out = Matrix.zeros(rows, cols)
    for r, orow in enumerate(out.data):
        row_terms = []
        for cn, cd, data in parts:
            stored = _stored(data[r])
            if stored:
                row_terms.append((cn, cd, stored))
        if not row_terms:
            continue
        d = lcm(*{cd * x._denominator for _, cd, stored in row_terms for _, x in stored})
        acc = {}
        for cn, cd, stored in row_terms:
            if cn == 1 and cd == 1:
                for j, x in stored:
                    acc[j] = acc.get(j, 0) + x._numerator * (d // x._denominator)
            else:
                f = d // cd
                for j, x in stored:
                    acc[j] = acc.get(j, 0) + cn * x._numerator * (f // x._denominator)
        for j, v in acc.items():
            if v:
                orow[j] = Fraction(v, d)
    return out
