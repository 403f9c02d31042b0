"""Exact rational linear algebra whose cost follows the nonzero entries.

Everything downstream (weight tables, enveloping-algebra coefficients,
representation matrices, spectral projectors) lives over the rationals, so
this module deliberately offers no floating-point mode.

A :class:`Matrix` is sparse integer rows, one dict {column: nonzero int} per
row, over one positive denominator for the whole matrix, kept canonical: the
gcd of the denominator and all numerators is 1 (so the zero matrix has
denominator 1), and ``==``, ``is_zero``, ``is_diagonal`` and
``nonzero_count`` are tests on the storage.  The layout is private to this
module: other code reads Fractions with ``m[i, j]``, ``nonzero_entries()``
and ``diagonal_entries()`` and writes any rational with ``m[i, j] = x``.
``Matrix.data`` is a dense view on that reader and writer: ``m.data[i][j]``
reads or writes one entry, and a row iterates over all its entries.

The kernels work on the numerators, make no Fraction and end with at most
one division by gcd(denominator, numerators): ``matmul`` over the product
of the denominators, :func:`linear_combination` (``+``, ``-`` and ``scale``
are its one- and two-term cases) in one pass over one lcm, ``kron``,
``submatrix`` and :func:`gram_adjoint` in integers; ``Matrix.block`` (over
the lcm of its blocks) and ``block_transpose`` need no division.
:func:`lagrange_projectors` forms the powers of a matrix once by sparse
``matmul`` and gives the completeness residual and every spectral projector
as one ``linear_combination`` of them.  ``rref`` is a fraction-free
reduction of the stored rows over the lcm of its pivot rows' leads.
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
    """Exact rational matrix: sparse integer rows over one denominator; see
    the module docstring."""

    __slots__ = ("rows", "cols", "_nums", "_den")

    def __init__(self, data: Sequence[Sequence]):
        dense = [list(row) for row in data]
        if not dense or not dense[0]:
            raise ValueError("matrix needs at least one row and column")
        ncol = len(dense[0])
        if any(len(r) != ncol for r in dense):
            raise ValueError("ragged rows")
        self.rows, self.cols = len(dense), ncol
        self._nums, self._den = _integer_rows(enumerate(row) for row in dense)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m._nums, m._den = [{} for _ in range(rows)], 1
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_rows([{i: 1} for i in range(n)], n)

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        ents = list(entries)
        return cls.from_rows([{i: x} for i, x in enumerate(ents)], len(ents))

    @classmethod
    def from_rows(cls, rows: Sequence[dict], cols: int) -> "Matrix":
        """The matrix whose row i holds the entries {column: value} of
        ``rows[i]``; zero values are dropped."""
        if any(not 0 <= j < cols for row in rows for j in row):
            raise ValueError(f"column index outside 0..{cols - 1}")
        out = cls.zeros(len(rows), cols)
        out._nums, out._den = _integer_rows(row.items() for row in rows)
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
        # canonical over the lcm d: for each prime power p^e of d, a block whose
        # denominator p^e divides has a numerator and a factor d / den prime to p
        d = lcm(*(a._den for row in grid for a in row))
        scaled = [[(o, d // a._den, a._nums) for o, a in zip(offsets, row)] for row in grid]
        out = cls.zeros(sum(heights), sum(widths))
        out._nums = [{o + j: f * x for o, f, nums in blocks for j, x in nums[r].items()}
                     for blocks, h in zip(scaled, heights) for r in range(h)]
        out._den = d
        return out

    def block_transpose(self, n: int) -> "Matrix":
        """The square matrix of n x n blocks with block (l, k) moved to (k, l);
        each block itself is kept as it is."""
        if self.rows != self.cols or self.rows % n:
            raise ValueError(f"{self.rows}x{self.cols} matrix is no square grid of {n}x{n} blocks")
        out = Matrix.zeros(self.rows, self.cols)
        out._den = self._den
        for r, row in enumerate(self._nums):
            k, a = divmod(r, n)
            for c, x in row.items():
                l, b = divmod(c, n)
                out._nums[l * n + a][k * n + b] = x
        return out

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The entries at the given rows and distinct columns, in that order."""
        pos = {c: k for k, c in enumerate(cols)}
        return _canonical(len(rows), len(cols),
                          [{pos[c]: x for c, x in self._nums[r].items() if c in pos}
                           for r in rows], self._den)

    def __getitem__(self, ij) -> Fraction:
        """The entry at (i, j); negative indices count from the end."""
        i, j = ij
        x = self._nums[i].get(range(self.cols)[index(j)])
        return Fraction(x, self._den) if x else ZERO

    def __setitem__(self, ij, x):
        """The one entry writer: stores any rational x, or deletes the entry
        if x is 0, and brings the matrix back to canonical form."""
        i, j = ij
        j = range(self.cols)[index(j)]
        p, q = Fraction(x).as_integer_ratio()
        d = lcm(self._den, q)
        f = d // self._den
        nums = [{c: f * y for c, y in row.items()} for row in self._nums] if f > 1 else self._nums
        nums[i].pop(j, None)
        if p:
            nums[i][j] = p * (d // q)
        self._nums, self._den = _reduced(nums, d)

    def nonzero_entries(self) -> list:
        """(i, j, x) for every nonzero entry, row by row."""
        d = self._den
        return [(i, j, Fraction(x, d)) for i, row in enumerate(self._nums) for j, x in row.items()]

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
            and self._den == other._den
            and self._nums == other._nums
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
        bnums = other._nums
        nums = []
        for arow in self._nums:
            acc = {}
            for k, a in arow.items():
                for j, b in bnums[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            nums.append({j: x for j, x in acc.items() if x} if 0 in acc.values() else acc)
        return _canonical(self.rows, other.cols, nums, self._den * other._den)

    def kron(self, other: "Matrix") -> "Matrix":
        bc = other.cols
        return _canonical(
            self.rows * other.rows, self.cols * bc,
            [{j * bc + l: a * b for j, a in arow.items() for l, b in brow.items()}
             for arow in self._nums for brow in other._nums],
            self._den * other._den)

    # -- predicates and reductions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_diagonal(self) -> bool:
        # row i may store its diagonal entry and nothing else
        return all(len(row) == (i in row) for i, row in enumerate(self._nums))

    def diagonal_entries(self) -> list:
        d = self._den
        return [Fraction(x, d) if (x := self._nums[i].get(i)) else ZERO
                for i in range(min(self.rows, self.cols))]

    def is_scalar(self) -> bool:
        """Square, diagonal and constant on the diagonal."""
        diagonal = {row.get(i, 0) for i, row in enumerate(self._nums)}
        return self.is_square() and self.is_diagonal() and len(diagonal) <= 1

    def nonzero_count(self) -> int:
        return sum(map(len, self._nums))

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list).

        Fraction-free, row at a time (Bareiss, Math. Comp. 22, 1968): a stored
        integer row is reduced by the pivot rows so far; a remainder becomes
        the pivot row of its leading column, cleared from the others, and each
        elimination divides out the row's content.  Row r of the result is
        pivot row r over its lead: over the lcm of the leads, canonical."""
        found = {}  # pivot column -> integer row, zero at every other pivot
        for row in self._nums:
            if not row:
                continue
            v = _primitive(row)
            for c in [c for c in v if c in found]:
                v = _eliminate(v, found[c], c)
            if v:
                c = min(v)
                for k, u in found.items():
                    if c in u:
                        found[k] = _eliminate(u, v, c)
                found[c] = v
        pivots = sorted(found)
        d = lcm(*(found[c][c] for c in pivots))
        out = Matrix.zeros(self.rows, self.cols)
        for r, c in enumerate(pivots):
            f = d // found[c][c]
            out._nums[r] = {j: f * x for j, x in found[c].items()}
        out._den = d
        return out, pivots

    def rank(self) -> int:
        return len(self.rref()[1])


def _integer_rows(rows) -> tuple:
    """Integer rows over one denominator for rows of (column, rational) pairs,
    zeros dropped; canonical, as each entry is in lowest terms."""
    rows = [{j: y for j, x in row if (y := x if isinstance(x, (int, Fraction)) else Fraction(x))}
            for row in rows]
    d = lcm(*{x.denominator for row in rows for x in row.values()})
    return [{j: x.numerator * (d // x.denominator) for j, x in row.items()}
            for row in rows], d


def _reduced(nums: list, d: int) -> tuple:
    """Zero-free integer rows ``nums`` over ``d`` > 0, divided by gcd(d, nums)."""
    g = d
    for row in nums:
        if g == 1:
            break
        g = gcd(g, *row.values())
    return (nums, d) if g == 1 else ([{j: x // g for j, x in row.items()} for row in nums], d // g)


def _canonical(rows: int, cols: int, nums: list, d: int) -> "Matrix":
    out = Matrix.zeros(rows, cols)
    out._nums, out._den = _reduced(nums, d)
    return out


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
        m = self._m
        row, d = m._nums[self._i], m._den
        return (Fraction(x, d) if x else ZERO for x in map(row.get, range(m.cols), repeat(0)))

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
    if any(row.get(i, 0) <= 0 for i, row in enumerate(g._nums)):
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
    # with G_source = s_x / ds, G_target = t_y / dt and a = n / da, entry
    # (x, y) is n_yx t_y ds / (s_x da dt), over the lcm of the s_x
    s = [row[x] for x, row in enumerate(gram_source._nums)]
    d = lcm(*s)
    f = [gram_source._den * (d // sx) for sx in s]
    nums = [{} for _ in range(a.cols)]
    for y, (row, t) in enumerate(zip(a._nums, gram_target._nums)):
        for x, v in row.items():
            nums[x][y] = v * t[y] * f[x]
    return _canonical(a.cols, a.rows, nums, d * a._den * gram_target._den)


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
    and each c an int or a Fraction: one pass over each A's numerators, over
    the one lcm of c's denominator times A's.  Zero coefficients are skipped.
    """
    parts = []
    for c, a in terms:
        if a.rows != rows or a.cols != cols:
            raise ValueError(
                f"dimension mismatch: {a.rows}x{a.cols} term in a {rows}x{cols} sum"
            )
        cn, cd = c.as_integer_ratio()
        if cn:
            parts.append((cn, cd * a._den, a._nums))
    d = lcm(*{den for _, den, _ in parts})
    parts = [(cn * (d // den), data) for cn, den, data in parts]
    nums = []
    for r in range(rows):
        acc = {}
        for f, data in parts:
            for j, x in data[r].items():
                acc[j] = acc.get(j, 0) + f * x
        nums.append({j: x for j, x in acc.items() if x} if 0 in acc.values() else acc)
    return _canonical(rows, cols, nums, d)
