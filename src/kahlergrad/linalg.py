"""Exact rational linear algebra whose cost follows the nonzero entries.

Everything downstream (weight tables, enveloping-algebra coefficients,
representation matrices, spectral projectors) lives over the rationals, so
this module deliberately offers no floating-point mode.

Each row of a :class:`Matrix` is a dict {column: Fraction} of its nonzero
entries, and a stored entry is never zero: constructors and kernels store
nonzero results only, and ``m[i, j] = x``, the one entry writer, deletes the
entry when x is zero.  So ``==``, ``is_zero``, ``is_diagonal`` and
``nonzero_count`` are tests on the storage, and every kernel iterates the
stored entries.  The layout is private to this module: other code reads with
``m[i, j]`` and ``nonzero_entries()`` and writes with ``m[i, j] = x``.
``Matrix.data`` is a dense view built on that reader and writer, for code
that indexes rows: ``m.data[i][j]`` reads or writes one entry, and a row
iterates over all its entries.  ``Matrix.from_rows`` builds a matrix from
dicts of its rows' entries, ``Matrix.block`` from a grid of blocks, and
``block_transpose`` swaps block (k, l) with block (l, k).

Sums are accumulated in Python ints over a common denominator and turned
into one Fraction per nonzero result entry.  ``matmul`` brings the stored
entries of its right operand over one denominator once per call and those of
each left row over that row's own.  :func:`linear_combination` sums c * A
over many terms in one pass, each output row over its common denominator;
``+``, ``-`` and ``scale`` are its one- and two-term cases.  The values are
the same exact rationals as with Fraction arithmetic, and no result depends
on the order in which a row's entries are stored.

:func:`lagrange_projectors` gives every spectral projector of a matrix from
one power series: the powers of the whole matrix are formed once by sparse
``matmul`` (a product never leaves the blocks of the nonzero pattern, so no
block split is needed), and the completeness residual and each projector are
one ``linear_combination`` of them, with the coefficients of
:func:`lagrange_coefficients`.  ``rref`` is a fraction-free reduction over
integer rows, each divided by its content after every elimination, that
turns a row into Fractions only once, when it is scaled to a leading 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod
from operator import index
from typing import Iterable, Sequence

__all__ = [
    "ZERO",
    "Matrix",
    "SpectralCompletenessError",
    "gram_adjoint",
    "lagrange_coefficients",
    "lagrange_projector",
    "lagrange_projectors",
    "linear_combination",
]

ZERO = Fraction(0)
_ONE = Fraction(1)


class SpectralCompletenessError(ValueError):
    """Raised when a supplied eigenvalue list does not annihilate the matrix."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class Matrix:
    """Exact rational matrix stored as sparse rows; see the module docstring."""

    __slots__ = ("rows", "cols", "_sparse_rows")

    def __init__(self, data: Sequence[Sequence]):
        dense = [list(row) for row in data]
        if not dense or not dense[0]:
            raise ValueError("matrix needs at least one row and column")
        ncol = len(dense[0])
        if any(len(r) != ncol for r in dense):
            raise ValueError("ragged rows")
        self.rows, self.cols = len(dense), ncol
        self._sparse_rows = [{} for _ in dense]
        for i, row in enumerate(dense):
            for j, x in enumerate(row):
                self[i, j] = x

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m._sparse_rows = [{} for _ in range(rows)]
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([_ONE] * n)

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        ents = list(entries)
        m = cls.zeros(len(ents), len(ents))
        for i, x in enumerate(ents):
            m[i, i] = x
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[dict], cols: int) -> "Matrix":
        """The matrix whose row i holds the entries {column: value} of
        ``rows[i]``; zero values are dropped."""
        if any(not 0 <= j < cols for row in rows for j in row):
            raise ValueError(f"column index outside 0..{cols - 1}")
        out = cls.zeros(len(rows), cols)
        out._sparse_rows = [{j: x if isinstance(x, Fraction) else Fraction(x)
                             for j, x in row.items() if x} for row in rows]
        return out

    @classmethod
    def block(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """The block matrix with the given rows of blocks: the blocks of one
        grid row share a height, and those of one grid column a width."""
        heights = [row[0].rows for row in grid]
        widths = [a.cols for a in grid[0]]
        for row, h in zip(grid, heights):
            if [(a.rows, a.cols) for a in row] != [(h, w) for w in widths]:
                raise ValueError("the blocks of a grid row need one height, "
                                 "and those of a grid column one width")
        offsets = [sum(widths[:t]) for t in range(len(widths))]
        out = cls.zeros(sum(heights), sum(widths))
        out._sparse_rows = [
            {o + j: x for o, a in zip(offsets, row) for j, x in a._sparse_rows[r].items()}
            for row, h in zip(grid, heights) for r in range(h)]
        return out

    def block_transpose(self, n: int) -> "Matrix":
        """The square matrix of n x n blocks with block (l, k) moved to (k, l);
        each block itself is kept as it is."""
        if self.rows != self.cols or self.rows % n:
            raise ValueError(f"{self.rows}x{self.cols} matrix is no square grid of {n}x{n} blocks")
        out = Matrix.zeros(self.rows, self.cols)
        for r, row in enumerate(self._sparse_rows):
            k, a = divmod(r, n)
            for c, x in row.items():
                l, b = divmod(c, n)
                out._sparse_rows[l * n + a][k * n + b] = x
        return out

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The entries at the given rows and distinct columns, in that order."""
        pos = {c: k for k, c in enumerate(cols)}
        out = Matrix.zeros(len(rows), len(cols))
        out._sparse_rows = [{pos[c]: x for c, x in self._sparse_rows[r].items() if c in pos}
                            for r in rows]
        return out

    def __getitem__(self, ij) -> Fraction:
        """The entry at (i, j); negative indices count from the end."""
        i, j = ij
        return self._sparse_rows[i].get(range(self.cols)[index(j)], ZERO)

    def __setitem__(self, ij, x):
        """The one entry writer: stores x as a Fraction, or deletes the entry if x is 0."""
        i, j = ij
        row = self._sparse_rows[i]
        j = range(self.cols)[index(j)]
        if not isinstance(x, Fraction):
            x = Fraction(x)
        if x._numerator:
            row[j] = x
        else:
            row.pop(j, None)

    def nonzero_entries(self) -> list:
        """(i, j, x) for every nonzero entry, row by row."""
        return [(i, j, x) for i, row in enumerate(self._sparse_rows) for j, x in row.items()]

    @property
    def data(self) -> list:
        """Dense view: a list of row views; ``data[i][j]`` reads or writes one entry."""
        return [_DenseRow(self, i) for i in range(self.rows)]

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._sparse_rows == other._sparse_rows
        )

    def __repr__(self):
        body = "; ".join(",".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{self.rows}x{self.cols}]({body})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return linear_combination([(1, self), (1, other)], self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return linear_combination([(1, self), (-1, other)], self.rows, self.cols)

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
        # the right operand's entries as integers over one denominator db
        db = lcm(*{x._denominator for row in other._sparse_rows for x in row.values()})
        brows = [[(j, x._numerator * (db // x._denominator)) for j, x in row.items()]
                 for row in other._sparse_rows]
        for i, arow in enumerate(self._sparse_rows):
            if not arow:
                continue
            da = lcm(*{a._denominator for a in arow.values()})
            acc = {}
            for k, a in arow.items():
                ai = a._numerator * (da // a._denominator)
                for j, b in brows[k]:
                    acc[j] = acc.get(j, 0) + ai * b
            d = da * db
            out._sparse_rows[i] = {j: Fraction(v, d) for j, v in acc.items() if v}
        return out

    def kron(self, other: "Matrix") -> "Matrix":
        bc = other.cols
        out = Matrix.zeros(self.rows * other.rows, self.cols * bc)
        out._sparse_rows = [
            {j * bc + l: a * b for j, a in arow.items() for l, b in brow.items()}
            for arow in self._sparse_rows for brow in other._sparse_rows
        ]
        return out

    # -- predicates and reductions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self._sparse_rows)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_diagonal(self) -> bool:
        # row i may store its diagonal entry and nothing else
        return all(len(row) == (i in row) for i, row in enumerate(self._sparse_rows))

    def diagonal_entries(self) -> list:
        return [self._sparse_rows[i].get(i, ZERO) for i in range(min(self.rows, self.cols))]

    def is_scalar(self) -> bool:
        """Square, diagonal and constant on the diagonal."""
        d = self.diagonal_entries()
        return self.is_square() and self.is_diagonal() and all(x == d[0] for x in d)

    def nonzero_count(self) -> int:
        return sum(map(len, self._sparse_rows))

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list).

        Fraction-free, row at a time (Bareiss, Math. Comp. 22, 1968): a row in
        integers over its denominators' lcm is reduced by the pivot rows so
        far; a remainder becomes the pivot row of its leading column, cleared
        from the others.  Each elimination divides out the row's content; a
        pivot row becomes Fractions once, scaled to a leading 1."""
        found = {}  # pivot column -> integer row, zero at every other pivot
        for row in self._sparse_rows:
            if not row:
                continue
            d = lcm(*{x._denominator for x in row.values()})
            v = _primitive({j: x._numerator * (d // x._denominator) for j, x in row.items()})
            for c in [c for c in v if c in found]:
                v = _eliminate(v, found[c], c)
            if v:
                c = min(v)
                for k, u in found.items():
                    if c in u:
                        found[k] = _eliminate(u, v, c)
                found[c] = v
        pivots = sorted(found)
        out = Matrix.zeros(self.rows, self.cols)
        for r, c in enumerate(pivots):
            lead = found[c][c]
            out._sparse_rows[r] = {j: Fraction(x, lead) for j, x in found[c].items()}
        return out, pivots

    def rank(self) -> int:
        return len(self.rref()[1])


def _primitive(v: dict) -> dict:
    """The integer row ``v`` divided by its content, the gcd of its entries."""
    g = gcd(*v.values())
    return v if g == 1 else {j: x // g for j, x in v.items()}


def _eliminate(v: dict, u: dict, c: int) -> dict:
    """The primitive integer row of u[c] v - v[c] u, which is zero at column c."""
    g = gcd(u[c], v[c])
    a, b = u[c] // g, v[c] // g
    out = {j: a * x for j, x in v.items()} if a != 1 else dict(v)
    for j, y in u.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out) if out else out


class _DenseRow:
    """Row i of a matrix as a dense list of ``cols`` entries; reads and
    writes go through the matrix's ``m[i, j]`` reader and writer."""

    __slots__ = ("_m", "_i")

    def __init__(self, m: Matrix, i: int):
        self._m, self._i = m, i

    def __len__(self):
        return self._m.cols

    def __iter__(self):
        row = self._m._sparse_rows[self._i]
        return map(row.get, range(self._m.cols), repeat(ZERO))

    def __getitem__(self, j):
        if isinstance(j, slice):
            return list(self)[j]
        return self._m[self._i, j]

    def __setitem__(self, j, x):
        self._m[self._i, j] = x

    def __eq__(self, other):
        if isinstance(other, (list, _DenseRow)):
            return list(self) == list(other)
        return NotImplemented


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
    for y, (row, g) in enumerate(zip(a._sparse_rows, gram_target.diagonal_entries())):
        for x, v in row.items():
            s = gs[x]
            out._sparse_rows[x][y] = Fraction(
                v._numerator * g._numerator * s._denominator,
                v._denominator * g._denominator * s._numerator)
    return out


def _monic(roots: Sequence) -> list:
    """Coefficients, lowest degree first, of the product of (x - r) over ``roots``."""
    c = [_ONE]
    for r in roots:
        c = [a - r * b for a, b in zip([ZERO, *c], [*c, ZERO])]
    return c


def lagrange_coefficients(nodes: Sequence, t: int) -> list:
    """Coefficients, lowest degree first, of the Lagrange basis polynomial of
    node t: the product of (x - nodes[j]) / (nodes[t] - nodes[j]) over j != t."""
    others = [x for j, x in enumerate(nodes) if j != t]
    denom = prod((nodes[t] - x for x in others), start=_ONE)
    return [c / denom for c in _monic(others)]


def _spectrum(a: Matrix, eigenvalues: Sequence) -> list:
    """``eigenvalues`` as Fractions, once ``a`` is square and they are distinct."""
    if not a.is_square():
        raise ValueError("lagrange_projector needs a square matrix")
    lams = [Fraction(x) for x in eigenvalues]
    if len(set(lams)) != len(lams):
        raise ValueError(f"repeated eigenvalues in spectrum list: {lams}")
    return lams


def lagrange_projectors(a: Matrix, eigenvalues: Sequence) -> list:
    """The spectral projectors of ``a`` onto each of ``eigenvalues``, in order.

    The eigenvalues must be distinct and spectrally complete: the residual,
    the product of all ``a - lambda_j``, must vanish, or a
    :class:`SpectralCompletenessError` carries it.  The residual and each
    projector are linear combinations of the powers a^0 .. a^m, formed once."""
    lams = _spectrum(a, eigenvalues)
    n = a.rows
    powers = [Matrix.identity(n), a]
    while len(powers) <= len(lams):
        powers.append(powers[-1].matmul(a))
    residual = linear_combination(zip(_monic(lams), powers), n, n)
    if not residual.is_zero():
        raise SpectralCompletenessError(
            f"eigenvalue list {lams} is not spectrally complete "
            f"({residual.nonzero_count()} nonzero residual entries)",
            residual=residual,
        )
    return [linear_combination(zip(lagrange_coefficients(lams, t), powers), n, n)
            for t in range(len(lams))]


def lagrange_projector(a: Matrix, eigenvalues: Sequence, target_index: int) -> Matrix:
    """The projector onto ``eigenvalues[target_index]`` of
    :func:`lagrange_projectors`.  On an incomplete spectrum the error's
    residual is this projector's own, P_t (a - lambda_t)."""
    lams = _spectrum(a, eigenvalues)
    if not 0 <= target_index < len(lams):
        raise ValueError("target_index out of range")
    try:
        return lagrange_projectors(a, lams)[target_index]
    except SpectralCompletenessError as err:
        # the monic product over prod_{j != t} (lambda_t - lambda_j)
        err.residual = err.residual.scale(lagrange_coefficients(lams, target_index)[-1])
        raise


def linear_combination(terms, rows: int, cols: int) -> Matrix:
    """The sum of c * A over the (c, A) pairs of ``terms``, each A rows x cols
    and each c an int or a Fraction.

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
        cn, cd = c.as_integer_ratio()
        if cn:
            parts.append((cn, cd, a._sparse_rows))
    out = Matrix.zeros(rows, cols)
    for r in range(rows):
        row_terms = [(cn, cd, data[r]) for cn, cd, data in parts if data[r]]
        if not row_terms:
            continue
        d = lcm(*{cd * x._denominator for _, cd, row in row_terms for x in row.values()})
        acc = {}
        for cn, cd, row in row_terms:
            if cn == 1 and cd == 1:
                for j, x in row.items():
                    acc[j] = acc.get(j, 0) + x._numerator * (d // x._denominator)
            else:
                f = d // cd
                for j, x in row.items():
                    acc[j] = acc.get(j, 0) + cn * x._numerator * (f // x._denominator)
        out._sparse_rows[r] = {j: Fraction(v, d) for j, v in acc.items() if v}
    return out
