"""Exact integer linear algebra on arbitrary-precision matrices.

Provides the kernels the chain layer runs: Smith diagonals, integer
kernels and column lattices, and finitely generated abelian groups in
canonical form (free rank plus a divisor chain).  Every form comes from
one row echelon elimination, _echelon, and none carries a unimodular
transform: lattice_hnf is one row Hermite form, and smith_diagonal
alternates row and column Hermite forms until the matrix is diagonal.
A canonical kernel basis, and the image and kernel lattices of a
homomorphism of presented groups, each come from one _echelon over all
the columns of a block matrix, split by _split_echelon.  Divisor chains
are built by gcd/lcm insertion, with no matrix.  Everything is exact:
entries are Python ints, so no overflow is possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import index, mul
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix with explicit row and column counts.

    Zero-dimensional shapes (0 x n, n x 0) are legal and behave like the
    corresponding linear maps between trivial groups.  The constructor
    takes every entry through operator.index, so floats and strings
    raise TypeError; matrices built here from ints go through _of,
    which checks nothing.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Iterable[Iterable[int]], cols: int | None = None):
        rows = tuple(tuple(map(index, row)) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            raise ValueError("cols is required for a matrix with no rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_e", rows)

    @classmethod
    def _of(cls, rows: Sequence[Sequence[int]], cols: int) -> "IntMatrix":
        """Trusted build from rows of ints of length cols; nothing is checked."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_e", tuple(map(tuple, rows)))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of([[0] * cols for _ in range(rows)], cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        """Matrix with the given columns, entries checked like the constructor."""
        for col in columns:
            if len(col) != rows:
                raise ValueError("column length does not match row count")
        return cls._of([tuple(map(index, col)) for col in columns], rows).transpose()

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._e[i][j]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.cols == other.cols
                and self._e == other._e)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self._e]!r}, cols={self.cols})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        cols = other.columns()
        return IntMatrix._of([[sum(map(mul, row, col)) for col in cols]
                              for row in self._e], other.cols)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of([[-x for x in row] for row in self._e], self.cols)

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(mul, row, vector)) for row in self._e)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(self.columns(), self.rows)

    def row(self, i: int) -> tuple[int, ...]:
        return self._e[i]

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self._e)) or [()] * self.cols

    def to_rows(self) -> list[list[int]]:
        return [list(r) for r in self._e]


def _eye(n: int) -> list[list[int]]:
    """Identity rows, the block that kernel_basis and GroupHom.lattices
    set beside a form and eliminate over with it."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ValueError("row counts differ")
    return IntMatrix._of([ra + rb for ra, rb in zip(a._e, b._e)], a.cols + b.cols)


def vstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.cols:
        raise ValueError("column counts differ")
    return IntMatrix._of(a._e + b._e, a.cols)


def block_diag(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    top = [r + (0,) * b.cols for r in a._e]
    bottom = [(0,) * a.cols + r for r in b._e]
    return IntMatrix._of(top + bottom, a.cols + b.cols)


def _addmul_row(m: list[list[int]], dst: int, src: int, factor: int) -> None:
    if factor:
        m[dst] = [x + factor * y for x, y in zip(m[dst], m[src])]


def _transpose(rows: list[list[int]], cols: int) -> list[list[int]]:
    """Rows of the transpose of rows, which have cols entries each."""
    return [list(c) for c in zip(*rows)] or [[] for _ in range(cols)]


def _echelon(rows: list[list[int]], n: int) -> None:
    """Row Hermite form of the first n columns of rows, in place; the
    rest of each row is carried along by the same row operations.
    Each pivot column is scanned once, for the rows live in it: the
    first of least absolute value is the pivot, and only live rows are
    reduced by it, below it and above it."""
    m, r = len(rows), 0
    for c in range(n):
        live = [i for i in range(r, m) if rows[i][c]]
        if not live:
            continue
        while True:
            i0 = min(live, key=lambda i: abs(rows[i][c]))
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
                if live[0] != r:
                    live = [r] + [i for i in live if i != i0]
            for i in live[1:]:
                _addmul_row(rows, i, r, -(rows[i][c] // rows[r][c]))
            live = [r] + [i for i in live[1:] if rows[i][c]]
            if len(live) == 1:
                break
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        pivot = rows[r][c]
        for i in range(r):
            if rows[i][c]:
                _addmul_row(rows, i, r, -(rows[i][c] // pivot))
        r += 1


def smith_diagonal(a: IntMatrix) -> list[int]:
    """Diagonal of the Smith form of a, carrying no transform.

    Row Hermite forms of S and of S^T alternate until S is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8(4), 1979), positive entries
    first, then zeros; the positive ones are then written back as their
    divisor chain.
    """
    m, n = a.rows, a.cols
    s = a.to_rows()
    while True:
        _echelon(s, n)
        st = _transpose(s, n)
        _echelon(st, m)
        s = _transpose(st, m)
        if not any(x for i, row in enumerate(s) for j, x in enumerate(row)
                   if i != j):
            break
    d = [x for x in (s[i][i] for i in range(min(m, n))) if x]
    chain = invariant_factors(d)
    return ([1] * (len(d) - len(chain)) + list(chain)
            + [0] * (min(m, n) - len(d)))


def rational_rank(a: IntMatrix) -> int:
    """Rank over the rationals, by integer cross-multiplication elimination.

    Deliberately independent of the Smith form, so each checks the other.
    """
    m = a.to_rows()
    rank = 0
    for c in range(a.cols):
        piv = next((i for i in range(rank, a.rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, a.rows):
            if m[i][c]:
                f_r, f_i = m[rank][c], m[i][c]
                m[i] = [f_r * m[i][j] - f_i * m[rank][j] for j in range(a.cols)]
        rank += 1
        if rank == a.rows:
            break
    return rank


def _is_hnf(rows: Sequence[Sequence[int]]) -> bool:
    """Whether rows are a row Hermite form with no zero row: pivots
    positive and moving right, the entries above each in [0, pivot)."""
    p = -1
    for k, row in enumerate(rows):
        j = next((j for j, x in enumerate(row) if x), None)
        if (j is None or j <= p or row[j] < 0
                or any(not 0 <= above[j] < row[j] for above in rows[:k])):
            return False
        p = j
    return True


def lattice_hnf(a: IntMatrix) -> IntMatrix:
    """Canonical basis of the column lattice of a.

    Rows of the result are an echelon basis; two matrices span the same
    column lattice iff their lattice_hnf values are equal.  Columns
    already in that form, as a reduced presentation's relators are, are
    returned as rows with no elimination.
    """
    t = a.transpose()
    if _is_hnf(t._e):
        return t
    rows = t.to_rows()
    _echelon(rows, a.rows)
    return IntMatrix._of([row for row in rows if any(row)], a.rows)


def _split_echelon(rows: list[list[int]], t: int):
    """Row Hermite form of rows over all their columns, split at column
    t: the canonical bases of the row lattice L projected to its first
    t coordinates, and of L meet (0 + Z^rest), without those t zeros.
    Pivots past column t never change the first t entries of a row."""
    _echelon(rows, len(rows[0]) if rows else 0)
    r = next((i for i, row in enumerate(rows) if not any(row[:t])), len(rows))
    return [row[:t] for row in rows[:r]], [row[t:] for row in rows[r:] if any(row)]


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Canonical basis of the integer kernel of a, as columns, from one
    elimination of the rows [a^T | I]: those whose first block is zero.
    Equal kernels give equal bases."""
    _, basis = _split_echelon(
        [list(col) + e for col, e in zip(a.columns(), _eye(a.cols))], a.rows)
    return IntMatrix._of(basis, a.cols).transpose()


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group in canonical form.

    rank counts the free summands; torsion is the divisor chain
    d1 | d2 | ... with every di >= 2.  Two values are isomorphic as
    groups iff they are equal as dataclasses.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rank", index(self.rank))
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        object.__setattr__(self, "torsion", tuple(map(index, self.torsion)))
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion divisors must be at least 2")
            if i and self.torsion[i] % self.torsion[i - 1]:
                raise ValueError("torsion must form a divisor chain")

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup(self.rank + other.rank,
                         invariant_factors(self.torsion + other.torsion))

    def tensor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Tensor product over the integers, in closed form."""
        parts = list(self.torsion) * other.rank
        parts += list(other.torsion) * self.rank
        parts += [gcd(d, e) for d in self.torsion for e in other.torsion]
        return FgAbGroup(self.rank * other.rank,
                         invariant_factors(p for p in parts if p > 1))

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def invariant_factors(values: Iterable[int]) -> tuple[int, ...]:
    """Canonical divisor chain of a direct sum of cyclic groups.

    values are finite cyclic orders (>= 1); factors equal to 1 vanish.
    Each order v goes into the chain from the top: Z/d + Z/v is
    Z/lcm(d, v) + Z/gcd(d, v), so d becomes the lcm and the gcd moves
    on down as the next v.
    """
    chain: list[int] = []
    for v in map(index, values):
        if v < 1:
            raise ValueError("cyclic orders must be positive")
        for i in reversed(range(len(chain))):
            if v == 1:
                break
            g = gcd(chain[i], v)
            chain[i], v = chain[i] // g * v, g
        if v > 1:
            chain.insert(0, v)
    return tuple(chain)


def cokernel_group(a: IntMatrix) -> FgAbGroup:
    """Z^rows modulo the column span of a, in canonical form."""
    nonzero = [d for d in smith_diagonal(a) if d]
    return FgAbGroup(a.rows - len(nonzero),
                     tuple(d for d in nonzero if d >= 2))


@dataclass(frozen=True)
class AbPresentation:
    """Abelian group presented by generators and relator columns."""

    gens: int
    rels: IntMatrix

    def __post_init__(self):
        if self.rels.rows != self.gens:
            raise ValueError("relator rows must match generator count")

    @classmethod
    def free(cls, gens: int) -> "AbPresentation":
        return cls(gens, IntMatrix.zeros(gens, 0))


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between presented abelian groups.

    matrix sends source generator coordinates to target generator
    coordinates; well-definedness means every source relator lands in
    the target relator lattice.
    """

    source: AbPresentation
    target: AbPresentation
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.gens or self.matrix.cols != self.source.gens:
            raise ValueError("matrix shape does not match presentations")

    @cached_property
    def lattices(self) -> tuple[IntMatrix, IntMatrix]:
        """lattice_hnf rows of the preimages of the image and of the
        kernel in the free covers of target and source, from one
        elimination of [matrix^T | I], [target rels^T | 0] and
        [0 | source rels^T]; computed on first read."""
        t, s = self.matrix.rows, self.matrix.cols
        image, kernel = _split_echelon(
            [list(col) + e for col, e in zip(self.matrix.columns(), _eye(s))]
            + [list(col) + [0] * s for col in self.target.rels.columns()]
            + [[0] * t + list(col) for col in self.source.rels.columns()], t)
        return IntMatrix._of(image, t), IntMatrix._of(kernel, s)
