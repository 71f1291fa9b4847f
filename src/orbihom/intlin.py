"""Exact integer linear algebra on sparse columns.

Provides the kernels the chain layer runs: Smith diagonals, integer
kernels and column lattices of maps given as sparse columns (Column),
and finitely generated abelian groups in canonical form (free rank plus
a divisor chain).  Every form reads one kernel, _echelon: the row
Hermite form of sparse rows with no zero entry, unique for the lattice
they span, so relators in any basis or order, with zero or repeated
ones, give the same form; no unimodular transform is carried.  Each
row is inserted into a table of pivots by leading column, then the
pivots are back-reduced once, so the work follows the fill of the
rows, not the square of their count.  lattice_hnf is one
form; smith_diagonal alternates row and column forms until the matrix
is diagonal, but reads a monomial map as it stands; and a kernel
basis, or the image and kernel lattices of a map of presented groups,
is one form split at a column by _split_echelon.  The dense IntMatrix
serves one dense read, a degree's cycle basis (DegreeHomology.kernel).
Entries are exact Python ints.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
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

    def row(self, i: int) -> tuple[int, ...]:
        return self._e[i]

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self._e)) or [()] * self.cols


# A sparse column: (row, coefficient) pairs, rows ascending, no zero
# coefficients.  A map is a tuple of them, a lattice basis a list.
Column = tuple[tuple[int, int], ...]


def _column(pairs: Iterable[tuple[int, int]]) -> Column:
    """(row, coefficient) pairs merged by row, sorted, zeros dropped."""
    merged: dict[int, int] = {}
    for i, value in pairs:
        merged[index(i)] = merged.get(index(i), 0) + index(value)
    return tuple(sorted((i, value) for i, value in merged.items() if value))


def _columns(columns: Iterable[Iterable[tuple[int, int]]], rows: int,
             cols: int | None, error: str) -> tuple[Column, ...]:
    """Sparse columns of a rows x cols map, of any number of columns if
    cols is None; ValueError(error) if misshapen."""
    if isinstance(columns, IntMatrix):
        raise TypeError("maps are given as sparse columns, not an IntMatrix")
    columns = tuple(_column(col) for col in columns)
    if ((cols is not None and len(columns) != cols)
            or any(not 0 <= i < rows for col in columns for i, _ in col)):
        raise ValueError(error)
    return columns


def _trusted(cls, **fields):
    """The dataclass cls with these fields, built with no check."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _transposed(lines: Iterable[dict[int, int]], width: int) -> list[dict[int, int]]:
    """The width {index: entry} lines of the transpose of such lines."""
    out: list[dict[int, int]] = [{} for _ in range(width)]
    for i, line in enumerate(lines):
        for j, x in line.items():
            out[j][i] = x
    return out


def _addmul(dst: dict[int, int], src: dict[int, int], factor: int) -> None:
    """dst += factor * src in place, zeros dropped; factor is nonzero."""
    for j, x in src.items():
        new = dst.get(j, 0) + factor * x
        if new:
            dst[j] = new
        else:
            del dst[j]


def _echelon(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """The nonzero rows of the row Hermite form of the sparse rows
    ({column: entry}, no zero entry), reduced in place, in pivot order.

    Each row is inserted into a table of pivot rows keyed by leading
    column: the pivot there subtracts a multiple of itself when it
    divides the row's entry; otherwise one extended-gcd step, a 2 x 2
    unimodular combination, leaves the gcd row as the pivot, and the
    remainder goes on being inserted.  The pivots are then made
    positive and back-reduced once, from the last up, each row only at
    the pivot columns it holds, popped from a heap: the work follows
    the fill, not the square of the pivot count.  The Hermite form is
    unique for the row lattice (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4.3), so neither the order of the rows
    nor the pivoting can change it."""
    table: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            top = table.setdefault(c, row)
            if top is row:
                break
            a, b = top[c], row[c]
            if b % a == 0:
                _addmul(row, top, -(b // a))
                continue
            g, r, x, u = a, b, 1, 0
            while r:
                q = g // r
                g, r, x, u = r, g - q * r, u, x - q * u
            y = (g - x * a) // b
            # x*a + y*b = g: [[x, y], [b/g, -a/g]] has determinant -1.
            pivot = {j: x * v for j, v in top.items()} if x else {}
            _addmul(pivot, row, y)
            rest = {j: b // g * v for j, v in top.items()}
            _addmul(rest, row, -(a // g))
            table[c], row = pivot, rest
    cols = sorted(table)
    for c in reversed(cols):
        row = table[c]
        if row[c] < 0:
            for j in row:
                row[j] = -row[j]
        heap = [j for j in row if j > c and j in table]
        heapify(heap)
        while heap:
            j = heappop(heap)
            top = table[j]
            q = row.get(j, 0) // top[j]
            if q:
                _addmul(row, top, -q)
                for k in top:
                    if k > j and k in table:
                        heappush(heap, k)
    return [table[c] for c in cols]


def smith_diagonal(columns: Sequence[Column], rows: int) -> list[int]:
    """Diagonal of the Smith form of the rows x len(columns) map with
    these sparse columns, carrying no transform.

    A monomial map, each column of at most one entry and no row hit
    twice, is diagonal up to order: its entries' absolute values are
    the diagonal.  Otherwise row Hermite forms of S and of S^T
    alternate until S is diagonal (Kannan and Bachem, SIAM J. Comput.
    8(4), 1979).  The nonzero entries are written back as their
    divisor chain, then the zeros.
    """
    m, n = rows, len(columns)
    hit = [i for col in columns for i, _ in col]
    if all(len(col) < 2 for col in columns) and len(set(hit)) == len(hit):
        d = [abs(x) for col in columns for _, x in col]
    else:
        s = _transposed(map(dict, columns), m)
        while True:
            s = _transposed(_echelon(_transposed(_echelon(s), n)), m)
            if not any(j != i for i, row in enumerate(s) for j in row):
                break
        d = [x for x in (s[i].get(i, 0) for i in range(min(m, n))) if x]
    chain = invariant_factors(d)
    return ([1] * (len(d) - len(chain)) + list(chain)
            + [0] * (min(m, n) - len(d)))


def lattice_hnf(columns: Sequence[Column], rows: int) -> list[Column]:
    """Canonical basis of the column lattice of the rows-row map with
    these sparse columns, as sparse rows in echelon form: two maps span
    the same column lattice iff their lattice_hnf values are equal."""
    return _split_echelon([dict(col) for col in columns], rows)[0]


def _split_echelon(lines: list[dict[int, int]], t: int):
    """Row Hermite form of the sparse rows lines, split at column t:
    the canonical bases, as sparse rows, of the row lattice L projected
    to its first t coordinates, and of the vectors of L whose first t
    coordinates are zero, without those t zeros.  Pivots past column t
    never change the first t entries of a row."""
    rows = _echelon(lines)
    r = sum(min(row) < t for row in rows)
    return ([tuple(sorted((j, x) for j, x in row.items() if j < t))
             for row in rows[:r]],
            [tuple(sorted((j - t, x) for j, x in row.items()))
             for row in rows[r:]])


def kernel_basis(columns: Sequence[Column], rows: int) -> list[Column]:
    """Canonical basis of the integer kernel of the rows x len(columns)
    map a with these sparse columns, as sparse vectors in Hermite order,
    from one elimination of the rows [a^T | I]: those whose first block
    is zero.  Equal kernels give equal bases."""
    return _split_echelon([{**dict(col), rows + j: 1}
                           for j, col in enumerate(columns)], rows)[1]


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
        object.__setattr__(self, "torsion", tuple([index(d) for d in self.torsion]))
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
    Each order v goes into the chain, kept top first, from the top:
    Z/d + Z/v is Z/lcm(d, v) + Z/gcd(d, v), so d becomes the lcm and
    the gcd moves on down as the next v.  Where v divides d, nothing
    changes, and the entries v divides are a prefix of what is left of
    the chain, so a bisection skips them.
    """
    chain: list[int] = []
    for v in map(index, values):
        if v < 1:
            raise ValueError("cyclic orders must be positive")
        i = 0
        while (i := bisect_left(chain, True, i, key=lambda d: d % v != 0)) < len(chain):
            g = gcd(chain[i], v)
            chain[i], v = chain[i] // g * v, g
            i += 1
        if v > 1:
            chain.append(v)
    return tuple(chain[::-1])


def cokernel_group(columns: Sequence[Column], rows: int) -> FgAbGroup:
    """Z^rows modulo the span of these sparse columns, in canonical form."""
    nonzero = [d for d in smith_diagonal(columns, rows) if d]
    return FgAbGroup(rows - len(nonzero), tuple(d for d in nonzero if d >= 2))


@dataclass(frozen=True)
class AbPresentation:
    """Abelian group presented by generators and relators, the relators
    sparse columns on the generators."""

    gens: int
    rels: tuple[Column, ...]

    def __post_init__(self):
        object.__setattr__(self, "rels", _columns(
            self.rels, self.gens, None, "relator rows must match generator count"))

    @classmethod
    def free(cls, gens: int) -> "AbPresentation":
        return cls(gens, ())


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between presented abelian groups.

    matrix holds, as a sparse column, the target generator coordinates
    of each source generator; well-definedness means every source
    relator lands in the target relator lattice.
    """

    source: AbPresentation
    target: AbPresentation
    matrix: tuple[Column, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _columns(
            self.matrix, self.target.gens, self.source.gens,
            "matrix shape does not match presentations"))

    @cached_property
    def lattices(self) -> tuple[list[Column], list[Column]]:
        """lattice_hnf rows of the preimages of the image and of the
        kernel in the free covers of target and source, from one
        elimination of the sparse rows [matrix^T | I], [target rels^T |
        0] and [0 | source rels^T]; computed on first read."""
        t, s = self.target.gens, self.source.gens
        return _split_echelon(
            [{**dict(col), t + j: 1} for j, col in enumerate(self.matrix)]
            + [dict(col) for col in self.target.rels]
            + [{t + i: x for i, x in col} for col in self.source.rels], t)
