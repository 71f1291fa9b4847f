"""Chain complexes of free abelian groups, with exact homology.

The homology groups come from each sparse boundary's rank and invariant
factors, found by unit-pivot elimination without transforms.  The
representatives are computed on first request, from one unit-pivot
reduction of the whole complex C to a smaller complex D with the same
homology, kept with its projection f: C -> D and lift g: D -> C: each
degree's cycle lattice is g of the canonical (Hermite) basis of the
cycles of D, with the coordinates of D's boundaries in it as relators.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from typing import Iterable, Sequence

from .intlin import (
    AbPresentation,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    _echelon_solver,
    invariant_factors,
    kernel_basis,
    rational_rank,
    smith_diagonal,
)

# A sparse boundary column: (row, coefficient) pairs, rows ascending,
# no zero coefficients.
Column = tuple[tuple[int, int], ...]


class ChainComplex:
    """Finite chain complex with labeled bases and sparse boundaries.

    basis[q] lists the degree-q cell labels; boundaries[q-1][j] is the
    boundary of basis[q][j] as (row, coefficient) pairs, rows indexing
    basis[q-1], sorted by row with zeros dropped; columns are the only
    form taken.  Labels must be unique within each degree.  validate(c)
    is worked out once per complex and kept.
    """

    __slots__ = ("top_dim", "basis", "boundaries", "_index", "_problems")

    def __init__(self, basis: Sequence[Sequence[str]],
                 boundaries: Sequence[Sequence[Column]]):
        basis = tuple(tuple(labels) for labels in basis)
        boundaries = tuple(boundaries)
        if not basis:
            raise ValueError("a complex needs at least degree 0")
        if len(boundaries) != len(basis) - 1:
            raise ValueError("need exactly one boundary matrix per degree pair")
        sparse = tuple(
            _columns(columns, len(basis[q - 1]), len(basis[q]),
                     f"boundary shape mismatch at degree {q}")
            for q, columns in enumerate(boundaries, start=1))
        index = _label_index(basis)
        for q, (labels, pos) in enumerate(zip(basis, index)):
            if len(pos) != len(labels):
                raise ValueError(f"duplicate label in degree {q}")
        self._set(basis, sparse, index)

    @classmethod
    def _of(cls, basis: Sequence[Sequence[str]],
            boundaries: Sequence[Sequence[Column]]) -> "ChainComplex":
        """Trusted build from unique labels per degree and one Column
        per cell, each merged, sorted, nonzero and in range; nothing is
        checked."""
        c = object.__new__(cls)
        basis = tuple(map(tuple, basis))
        c._set(basis, tuple(tuple(map(tuple, columns)) for columns in boundaries),
               _label_index(basis))
        return c

    def _set(self, basis, boundaries, index) -> None:
        object.__setattr__(self, "top_dim", len(basis) - 1)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_problems", None)

    def __setattr__(self, name, value):
        raise AttributeError("ChainComplex is immutable")

    def dim(self, q: int) -> int:
        if 0 <= q <= self.top_dim:
            return len(self.basis[q])
        return 0

    def d(self, q: int) -> IntMatrix:
        """Dense boundary matrix from degree q to q-1, zero outside the range."""
        columns = self.boundaries[q - 1] if 1 <= q <= self.top_dim else ()
        return _dense(columns, self.dim(q - 1), self.dim(q))

    def position(self, q: int, label: str) -> int:
        return self._index[q][label]

    def labels(self) -> set[str]:
        return {label for labels in self.basis for label in labels}


def _label_index(basis: tuple[tuple[str, ...], ...]) -> tuple[dict[str, int], ...]:
    return tuple(dict(zip(labels, range(len(labels)))) for labels in basis)


def _column(pairs: Iterable[tuple[int, int]]) -> Column:
    """(row, coefficient) pairs merged by row, sorted, zeros dropped."""
    merged: dict[int, int] = {}
    for i, value in pairs:
        merged[i] = merged.get(i, 0) + index(value)
    return tuple(sorted((i, value) for i, value in merged.items() if value))


def _columns(columns: Sequence[Iterable[tuple[int, int]]],
             rows: int, cols: int, error: str) -> tuple[Column, ...]:
    """Sparse columns of a rows x cols map; ValueError(error) if misshapen."""
    if isinstance(columns, IntMatrix):
        raise TypeError("maps are given as sparse columns, not an IntMatrix")
    columns = tuple(_column(col) for col in columns)
    if (len(columns) != cols
            or any(not 0 <= i < rows for col in columns for i, _ in col)):
        raise ValueError(error)
    return columns


def _dense(columns: Sequence[Column], rows: int, cols: int) -> IntMatrix:
    """Dense rows x cols view of sparse columns; missing columns are zero."""
    mat = [[0] * cols for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, value in col:
            mat[i][j] = value
    return IntMatrix._of(mat, cols)


def _vector(col: Column, rows: int) -> list[int]:
    """Dense vector of length rows of a sparse column."""
    vec = [0] * rows
    for i, value in col:
        vec[i] = value
    return vec


def _sparse(vec: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero (row, coefficient) pairs of a dense vector."""
    return [(i, value) for i, value in enumerate(vec) if value]


def _compose(outer: Sequence[Column], col: Column) -> Column:
    """outer @ col, as a merged, sorted Column."""
    composite: dict[int, int] = {}
    for k, x in col:
        for i, y in outer[k]:
            composite[i] = composite.get(i, 0) + x * y
    if not any(composite.values()):  # the common case: d∘d columns vanish
        return ()
    return tuple(sorted([(i, value) for i, value in composite.items() if value]))


def validate(c: ChainComplex) -> list[str]:
    """Check that consecutive boundaries compose to zero.

    Returns a list of violation descriptions, empty when the complex is
    valid.  Each entry names the degree and the offending basis pair;
    entries go column by column, rows ascending.  The work is
    proportional to the nonzero incidences composed, and is done once
    per complex: the result is kept on c.
    """
    if c._problems is None:
        object.__setattr__(c, "_problems", tuple(
            f"degree {q}: boundary of boundary of {c.basis[q][j]} hits "
            f"{c.basis[q - 2][i]} with coefficient {value}"
            for q in range(2, c.top_dim + 1)
            for j, col in enumerate(c.boundaries[q - 1])
            for i, value in _compose(c.boundaries[q - 2], col)))
    return list(c._problems)


@dataclass(frozen=True)
class DegreeHomology:
    """Homology of one degree, with cycle lattice and coordinates.

    Over Z, the data come from the reduction of the complex (see
    _Reduction), read on first use: presentation has as generators the
    Hermite basis of the degree-q cycles of D (intlin.kernel_basis),
    and as relators the coordinates in that basis of D's boundaries out
    of degree q + 1; kernel holds the lifts by g of that basis, cycles
    of C, as columns.  Over Q only the group is set.
    """

    group: FgAbGroup
    _reduction: "_Reduction | None" = field(default=None, compare=False,
                                            repr=False)
    _q: int = 0

    @cached_property
    def _basis(self) -> list[tuple[int, ...]]:
        """Rows of the Hermite basis of the degree-q cycles of D."""
        return kernel_basis(self._reduction.d.d(self._q)).columns()

    @cached_property
    def _solve(self):
        return _echelon_solver(self._basis)

    @cached_property
    def _lifts(self) -> list[Column]:
        """g of each Hermite basis vector, a cycle of C, as a sparse column."""
        lifts = self._reduction.lifts[self._q]
        return [_compose(lifts, _sparse(y)) for y in self._basis]

    @cached_property
    def kernel(self) -> IntMatrix | None:
        r = self._reduction
        if r is None:
            return None
        return _dense(self._lifts, r.source.dim(self._q), len(self._basis))

    @cached_property
    def presentation(self) -> AbPresentation | None:
        if self._reduction is None:
            return None
        d, q, gens = self._reduction.d, self._q, len(self._basis)
        relators = [self._solve(_vector(b, d.dim(q)))
                    for b in (d.boundaries[q] if q < d.top_dim else ())]
        return AbPresentation(gens, IntMatrix._of(relators, gens).transpose())

    def kernel_coords(self, cycle: Sequence[int]) -> tuple[int, ...]:
        """Coordinates in the kernel lattice basis of the class of a
        cycle: those of its projection f(cycle), a cycle of D."""
        r, q = self._reduction, self._q
        if r is None:
            raise ValueError("no integral cycle data (rational coefficients)")
        if len(cycle) != r.source.dim(q):
            raise ValueError("vector length does not match the cell count")
        z = _sparse(cycle)
        if q and _compose(r.source.boundaries[q - 1], z):
            raise ValueError("vector is not a cycle")
        return self._coords(z)

    def _coords(self, z: Column) -> tuple[int, ...]:
        """kernel_coords of a cycle z of C given as a sparse column, unchecked."""
        return tuple(self._solve(self._reduction.project(self._q, z)))


@dataclass(frozen=True)
class HomologyResult:
    """Per-degree homology of a chain complex.

    The groups are known from the start.  degree(q) computes that
    degree's representatives on first use and keeps them; over Z the
    first call reduces the whole complex once (_Reduction), and groups()
    never does.
    """

    coeff: str
    _complex: ChainComplex = field(compare=False, repr=False)
    _groups: tuple[FgAbGroup, ...]
    _degrees: dict[int, DegreeHomology] = field(
        default_factory=dict, compare=False, repr=False)

    @property
    def top_dim(self) -> int:
        return len(self._groups) - 1

    def degree(self, q: int) -> DegreeHomology:
        if not 0 <= q <= self.top_dim:
            raise IndexError(f"no degree {q} in a complex of top degree "
                             f"{self.top_dim}")
        if q not in self._degrees:
            group = self._groups[q]
            self._degrees[q] = (DegreeHomology(group) if self.coeff == "Q"
                                else DegreeHomology(group, self._reduction, q))
        return self._degrees[q]

    @cached_property
    def _reduction(self) -> "_Reduction":
        return _Reduction(self._complex)

    def group(self, q: int) -> FgAbGroup:
        if 0 <= q <= self.top_dim:
            return self._groups[q]
        return FgAbGroup.trivial()

    def groups(self) -> tuple[FgAbGroup, ...]:
        return self._groups


def homology(c: ChainComplex, coeff: str = "Z") -> HomologyResult:
    """Homology of a valid complex, over Z (default) or Q.

    Each boundary is ranked once.  Over Z, H_q is free of rank
    dim C_q - rank d_q - rank d_(q+1), plus the invariant factors
    above 1 of d_(q+1).
    """
    problems = validate(c)
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    if coeff not in ("Z", "Q"):
        raise ValueError("coefficients must be 'Z' or 'Q'")
    if coeff == "Q":
        factored = [(rational_rank(c.d(q)), ())
                    for q in range(1, c.top_dim + 1)]
    else:
        factored = [_boundary_factors(columns, c.dim(q - 1))
                    for q, columns in enumerate(c.boundaries, start=1)]
    # Boundaries out of degree 0 and into the top degree are zero.
    factored = [(0, ())] + factored + [(0, ())]
    groups = tuple(
        FgAbGroup(c.dim(q) - factored[q][0] - factored[q + 1][0],
                  factored[q + 1][1])
        for q in range(c.top_dim + 1))
    return HomologyResult(coeff, c, groups)


def _eliminate(cols: dict[int, dict[int, int]], rows: int,
               trans: dict[int, dict[int, int]] | None = None):
    """Unit-pivot elimination, in place, of the sparse columns cols of a
    map with the given number of rows.

    While a +-1 entry is left, one with the fewest (row count - 1) x
    (column count - 1), the most fill-in it can make, is the pivot:
    column operations clear its row, after which its column is dropped.
    Returns the pivots (column, row, unit, rest of the column) in order,
    and the live columns of each row.  With trans, the transform of
    each column ({cell: coefficient}; a column missing from it is its
    own cell) follows its column operations.
    """
    in_row: list[set[int]] = [set() for _ in range(rows)]
    for j, col in cols.items():
        for i in col:
            in_row[i].add(j)

    def cost(i: int, j: int) -> int:
        return (len(in_row[i]) - 1) * (len(cols[j]) - 1)

    # Candidate pivots (cost, column, row), possibly stale: each is
    # checked and its cost refreshed when it is popped.
    heap = [(cost(i, j), j, i) for j, col in cols.items()
            for i, value in col.items() if value in (1, -1)]
    heapq.heapify(heap)
    pivots = []
    while heap:
        stale, c, r = heapq.heappop(heap)
        if cols.get(c, {}).get(r) not in (1, -1):
            continue
        now = cost(r, c)
        if now > stale:
            heapq.heappush(heap, (now, c, r))
            continue
        pivot = cols.pop(c)
        unit = pivot.pop(r)
        for i in pivot:
            in_row[i].discard(c)
        if trans is not None:
            lift = trans.pop(c, {c: 1})
        for j in in_row[r] - {c}:
            col = cols[j]
            factor = col.pop(r) * unit
            for i, value in pivot.items():
                new = col.get(i, 0) - factor * value
                if new:
                    if i not in col:
                        in_row[i].add(j)
                    col[i] = new
                    if new in (1, -1):
                        heapq.heappush(heap, (cost(i, j), j, i))
                elif i in col:
                    del col[i]
                    in_row[i].discard(j)
            if not col:
                del cols[j]
            if trans is not None:
                t = trans.setdefault(j, {j: 1})
                for k, value in lift.items():
                    new = t.get(k, 0) - factor * value
                    if new:
                        t[k] = new
                    else:
                        del t[k]
        in_row[r].clear()
        pivots.append((c, r, unit, pivot))
    return pivots, in_row


def _boundary_factors(columns: Sequence[Column],
                      rows: int) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors above 1 of a sparse boundary.

    Each unit pivot of _eliminate splits off a unit invariant factor;
    no transform is kept.  The residual with no unit entry is split
    into components.
    """
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    pivots, in_row = _eliminate(cols, rows)
    rank = len(pivots)

    # The residual, with no unit entry, splits into the connected
    # components of its row/column graph: a component of one entry is a
    # diagonal entry as it stands, any other a small dense Smith form.
    diagonal, seen = [], set()
    for start in cols:
        if start in seen:
            continue
        seen.add(start)
        part, part_rows = [start], {}
        for j in part:
            for i in cols[j]:
                if i not in part_rows:
                    part_rows[i] = len(part_rows)
                    fresh = in_row[i] - seen
                    seen |= fresh
                    part += fresh
        if len(part_rows) == len(part) == 1:
            diagonal += map(abs, cols[start].values())
            continue
        block = IntMatrix._of([[cols[j].get(i, 0) for j in part]
                               for i in part_rows], len(part))
        diagonal += filter(None, smith_diagonal(block))
    return rank + len(diagonal), invariant_factors(diagonal)


class _Reduction:
    """A reduction of a complex C to a smaller complex d with the same
    homology, by unit pivots (Kaczynski, Mischaikow and Mrozek,
    Computational Homology, 2004, elementary reductions).

    The boundaries are eliminated from the top degree down by
    _eliminate: a cell b paired as a row of d_(q+1) leaves the columns
    of d_q, and each pivot pairs a cell a with the row b of its unit.
    d keeps the unpaired cells (cells[q], positions in C), each with its
    column as the elimination left it, read on d's rows.  The lift g:
    d -> C sends a cell to its column transform, lifts[q]; the
    projection f: C -> d (project) replaces each paired b by -unit times
    the rest of a's column, in pairing order (pairs[q]), and then keeps
    the unpaired cells.  f and g are chain maps, and f g is the identity.
    """

    __slots__ = ("source", "d", "cells", "lifts", "pairs")

    def __init__(self, c: ChainComplex):
        top = c.top_dim
        paired: list[set[int]] = [set() for _ in range(top + 1)]
        pairs: list[list] = [[] for _ in range(top + 1)]
        left = [{} for _ in range(top + 1)]
        trans = [{} for _ in range(top + 1)]
        for q in range(top, 0, -1):
            left[q] = {j: dict(col) for j, col in enumerate(c.boundaries[q - 1])
                       if col and j not in paired[q]}
            for a, b, unit, rest in _eliminate(left[q], c.dim(q - 1), trans[q])[0]:
                paired[q].add(a)
                paired[q - 1].add(b)
                pairs[q - 1].append((b, unit, tuple(rest.items())))
        cells = [[j for j in range(c.dim(q)) if j not in paired[q]]
                 for q in range(top + 1)]
        position = [dict(zip(kept, range(len(kept)))) for kept in cells]
        self.source, self.cells, self.pairs = c, cells, pairs
        self.d = ChainComplex._of(
            [[c.basis[q][j] for j in kept] for q, kept in enumerate(cells)],
            [[tuple(sorted((position[q - 1][i], value)
                           for i, value in left[q].get(j, {}).items()
                           if i in position[q - 1])) for j in cells[q]]
             for q in range(1, top + 1)])
        self.lifts = [[tuple(sorted(trans[q].get(j, {j: 1}).items()))
                       for j in kept] for q, kept in enumerate(cells)]

    def project(self, q: int, z: Column) -> list[int]:
        """f(z) on d's cells, dense, for a degree-q chain z of C."""
        z = dict(z)
        for b, unit, rest in self.pairs[q]:
            if z.get(b):
                x = unit * z[b]
                for i, value in rest:
                    z[i] = z.get(i, 0) - x * value
        return [z.get(j, 0) for j in self.cells[q]]


def _closed_cells(c: ChainComplex, cells: Iterable[str], role: str) -> set[str]:
    """cells as a set, checked to be cells of c closed under faces."""
    cells = set(cells)
    unknown = cells - c.labels()
    if unknown:
        raise ValueError(f"unknown cells: {sorted(unknown)}")
    for q in range(1, c.top_dim + 1):
        for label, col in zip(c.basis[q], c.boundaries[q - 1]):
            if label not in cells:
                continue
            for i, _ in col:
                if c.basis[q - 1][i] not in cells:
                    raise ValueError(
                        f"{role} is not boundary closed: cell {label} has "
                        f"face {c.basis[q - 1][i]} outside it")
    return cells


def relative(c: ChainComplex, sub: Iterable[str]) -> ChainComplex:
    """Quotient complex killing a boundary-closed set of cells."""
    sub = _closed_cells(c, sub, "relative subcomplex")
    return _restrict(c, lambda label: label not in sub)


def subcomplex(c: ChainComplex, cells: Iterable[str]) -> ChainComplex:
    """Subcomplex spanned by a boundary-closed set of cells."""
    cells = _closed_cells(c, cells, "subcomplex")
    return _restrict(c, lambda label: label in cells)


def _restrict(c: ChainComplex, keep) -> ChainComplex:
    basis = [[label for label in labels if keep(label)] for labels in c.basis]
    boundaries = []
    for q in range(1, c.top_dim + 1):
        kept_rows = (i for i, label in enumerate(c.basis[q - 1]) if keep(label))
        row = {i: n for n, i in enumerate(kept_rows)}
        # row is monotone, so the kept pairs stay sorted.
        boundaries.append([[(row[i], value) for i, value in col if i in row]
                           for label, col in zip(c.basis[q], c.boundaries[q - 1])
                           if keep(label)])
    out = ChainComplex._of(basis, boundaries)
    if c._problems == ():
        # A closed subcomplex of a valid complex, and the quotient by
        # one, are valid: d∘d of a kept cell is zero in c already.
        object.__setattr__(out, "_problems", ())
    return out


@dataclass(frozen=True)
class ChainMap:
    """Degreewise linear map between chain complexes.

    matrices[q][j] is the image of source.basis[q][j] as (row,
    coefficient) pairs, rows indexing target.basis[q], in the sparse
    form of ChainComplex boundaries, the only form taken.
    """

    source: ChainComplex
    target: ChainComplex
    matrices: tuple[tuple[Column, ...], ...]

    def __post_init__(self):
        if len(self.matrices) != self.source.top_dim + 1:
            raise ValueError("need one matrix per source degree")
        object.__setattr__(self, "matrices", tuple(
            _columns(columns, self.target.dim(q), self.source.dim(q),
                     f"matrix shape mismatch at degree {q}")
            for q, columns in enumerate(self.matrices)))

    @classmethod
    def _of(cls, source, target, matrices) -> "ChainMap":
        """Trusted build from merged, sorted, in-range columns; unchecked."""
        f = object.__new__(cls)
        f.__dict__.update(source=source, target=target, matrices=matrices)
        return f

    def commutes(self) -> bool:
        """d f == f d, composed column by column on the sparse forms."""
        s, t = self.source, self.target
        for q in range(1, s.top_dim + 1):
            outer = t.boundaries[q - 1] if q <= t.top_dim else ()
            for col, s_col in zip(self.matrices[q], s.boundaries[q - 1]):
                if _compose(outer, col) != _compose(self.matrices[q - 1], s_col):
                    return False
        return True


def _check_subcomplex(c: ChainComplex, sub: ChainComplex, role: str) -> None:
    """ValueError unless sub is subcomplex(c, its cells), up to the order
    of the cells within each degree.

    Equal columns make sub's cells cells of c, closed under faces, so
    _closed_cells runs only once a column differs, to word the error.
    """
    below: list[int] = []  # positions in c of sub's cells one degree down
    for q, labels in enumerate(sub.basis):  # lower degrees are checked first
        index = c._index[q] if q <= c.top_dim else {}
        here = [index.get(label) for label in labels]
        for j, (label, i) in enumerate(zip(labels, here)):
            # sub's columns are merged and its rows distinct: just sort.
            if i is None or q and c.boundaries[q - 1][i] != tuple(sorted(
                    (below[r], value) for r, value in sub.boundaries[q - 1][j])):
                _closed_cells(c, sub.labels(), role)
                raise ValueError(f"{role} cell {label} in degree {q} is not "
                                 "that of the whole complex")
        below = here


def inclusion_map(c: ChainComplex, sub: ChainComplex) -> ChainMap:
    """Inclusion into c of sub, a subcomplex built by subcomplex(c, cells)."""
    _check_subcomplex(c, sub, "subcomplex")
    return ChainMap._of(sub, c, tuple(
        tuple(((c.position(q, label), 1),) for label in labels)
        for q, labels in enumerate(sub.basis)))


def _check_homology(h: HomologyResult, c: ChainComplex, role: str) -> None:
    """ValueError unless h is the integral homology of c (same basis and boundaries)."""
    if h.coeff != "Z":
        raise ValueError(f"{role} homology must be over Z, not {h.coeff}")
    if (h._complex.basis, h._complex.boundaries) != (c.basis, c.boundaries):
        raise ValueError(f"{role} homology is not that of the {role} complex")


def _cycle_hom(src: DegreeHomology, dst: DegreeHomology, columns) -> GroupHom:
    """Map of presentations sending each cycle-lattice generator of src, as
    its sparse lift z, to dst's kernel coordinates of columns @ z; unchecked."""
    coords = [dst._coords(_compose(columns, z)) for z in src._lifts]
    return GroupHom(src.presentation, dst.presentation,
                    IntMatrix._of(coords, dst.presentation.gens).transpose())


def induced_map(f: ChainMap, hc: HomologyResult, hd: HomologyResult) -> tuple[GroupHom, ...]:
    """Induced homomorphisms on homology, one per source degree.

    hc and hd must be the integral homology of f.source and f.target.
    """
    _check_homology(hc, f.source, "source")
    _check_homology(hd, f.target, "target")
    if not f.commutes():
        raise ValueError("chain map does not commute with boundaries")
    return _induced(f, hc, hd)


def _induced(f: ChainMap, hc: HomologyResult, hd: HomologyResult) -> tuple[GroupHom, ...]:
    """induced_map, unchecked."""
    return tuple(_cycle_hom(hc.degree(q), hd.degree(q), f.matrices[q])
                 for q in range(f.source.top_dim + 1))


def connecting_hom(a: ChainComplex, b: ChainComplex, m: ChainComplex,
                   h_inter: HomologyResult | None = None,
                   h_m: HomologyResult | None = None) -> tuple[GroupHom, ...]:
    """Connecting homomorphisms of a two-piece cover, degree q to q-1.

    a and b must be subcomplexes of m (matched by label) that jointly
    contain every cell.  The short exact sequence sends a chain c of the
    intersection to (c, -c) and a pair (x, y) to x + y; the connecting
    map lifts a cycle of m to the pair whose x keeps its coefficients on
    a's cells, takes the boundary of x in a, and reads it in the
    intersection.  h_inter, if given, must be the homology of
    subcomplex(m, a ∩ b); its complex is then not rebuilt.
    """
    a_cells, b_cells = a.labels(), b.labels()
    missing = m.labels() - (a_cells | b_cells)
    if missing:
        raise ValueError(f"cells not covered by the two pieces: {sorted(missing)}")
    _check_subcomplex(m, a, "subcomplex")
    _check_subcomplex(m, b, "subcomplex")
    if h_inter is None:
        h_inter = homology(subcomplex(m, a_cells & b_cells))
    inter = h_inter._complex
    if inter.labels() != a_cells & b_cells:
        raise ValueError("intersection homology is not that of the intersection complex")
    _check_subcomplex(m, inter, "intersection")
    h_m = homology(m) if h_m is None else h_m
    _check_homology(h_inter, inter, "intersection")
    _check_homology(h_m, m, "whole")
    return _connecting(a, m, h_inter, h_m)


def _connecting(a: ChainComplex, m: ChainComplex, h_inter: HomologyResult,
                h_m: HomologyResult) -> tuple[GroupHom, ...]:
    """connecting_hom, unchecked: a cell of a maps to its boundary read on
    the intersection's rows, where that of a cycle's part on a lies."""
    inter = h_inter._complex
    pres_0 = h_m.degree(0).presentation
    homs = [GroupHom(pres_0, AbPresentation.free(0), IntMatrix.zeros(0, pres_0.gens))]
    for q in range(1, m.top_dim + 1):
        in_a = a._index[q] if q <= a.top_dim else {}
        row = [inter._index[q - 1].get(label) for label in m.basis[q - 1]]
        columns = [[(row[i], value) for i, value in col if row[i] is not None]
                   if label in in_a else ()
                   for label, col in zip(m.basis[q], m.boundaries[q - 1])]
        homs.append(_cycle_hom(h_m.degree(q), h_inter.degree(q - 1), columns))
    return tuple(homs)
