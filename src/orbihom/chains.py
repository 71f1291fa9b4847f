"""Chain complexes of free abelian groups, with exact homology.

Over Z, homology reduces the whole complex C once, by unit-pivot
elimination from the top degree down (_Reduction).  Each boundary's rank
and invariant factors are its unit pivots and one Smith diagonal of what
the elimination leaves.  The same reduction gives a smaller complex D
with the same homology, read in place on C's unpaired cells, with its
projection f: C -> D and lift g: D -> C: each degree's cycle lattice is
g of the canonical (Hermite) basis of the cycles of D, with the
coordinates of D's boundaries in it as relators.  f and the coordinates
in that basis run one sparse substitution (_substitute).  Over Q, the
groups come from each boundary's rank alone, by the same elimination on
any nonzero pivot.  Presentations and maps are sparse columns (Column).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from .intlin import (
    AbPresentation,
    Column,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    _addmul,
    _column,
    _columns,
    _trusted,
    kernel_basis,
    smith_diagonal,
)


class ChainComplex:
    """Finite chain complex with labeled bases and sparse boundaries.

    basis[q] lists the degree-q cell labels; boundaries[q-1][j] is the
    boundary of basis[q][j] as (row, coefficient) pairs, rows indexing
    basis[q-1], sorted by row with zeros dropped; columns are the only
    form taken.  Labels must be unique across all degrees, so that a
    set of labels, as subcomplex and relative take, names a set of
    cells.  A complex is valid once it exists: the constructor composes
    d∘d once, by validate, and raises ValueError if it is nonzero.
    """

    __slots__ = ("top_dim", "basis", "boundaries", "_index")

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
        seen: dict[str, int] = {}
        for q, labels in enumerate(basis):
            for label in labels:
                if label in seen:
                    raise ValueError(f"label {label!r} is used twice: in degree "
                                     f"{seen[label]} and in degree {q}")
                seen[label] = q
        self._set(basis, sparse)
        if problems := validate(self):
            raise ValueError("invalid complex: " + "; ".join(problems))

    @classmethod
    def _of(cls, basis: Sequence[Sequence[str]],
            boundaries: Sequence[Sequence[Column]]) -> "ChainComplex":
        """Trusted build from labels unique across degrees and one Column
        per cell, each merged, sorted, nonzero and in range, whose caller
        vouches for d∘d = 0; nothing is checked.  Every tuple is built
        from a list of its exact length: CPython keeps freed tuples of up
        to 20 items for reuse, and one built from an iterator is resized,
        so it would leave one more there each time, pinning memory until
        a full collection."""
        c = object.__new__(cls)
        basis = tuple([tuple(labels) for labels in basis])
        c._set(basis, tuple([tuple([tuple(col) for col in columns])
                             for columns in boundaries]))
        return c

    def _set(self, basis, boundaries) -> None:
        object.__setattr__(self, "top_dim", len(basis) - 1)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "_index", tuple([
            dict(zip(labels, range(len(labels)))) for labels in basis]))

    def __setattr__(self, name, value):
        raise AttributeError("ChainComplex is immutable")

    def dim(self, q: int) -> int:
        if 0 <= q <= self.top_dim:
            return len(self.basis[q])
        return 0

    def position(self, q: int, label: str) -> int:
        return self._index[q][label]

    def labels(self) -> set[str]:
        return {label for labels in self.basis for label in labels}


def _dense(columns: Sequence[Column], rows: int, cols: int) -> IntMatrix:
    """Dense rows x cols view of sparse columns; missing columns are zero."""
    mat = [[0] * cols for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, value in col:
            mat[i][j] = value
    return IntMatrix._of(mat, cols)


def _compose(outer: Sequence[Column], col: Column) -> Column:
    """outer @ col, as a merged, sorted Column."""
    composite: dict[int, int] = {}
    for k, x in col:
        for i, y in outer[k]:
            composite[i] = composite.get(i, 0) + x * y
    if not any(composite.values()):  # the common case: d∘d columns vanish
        return ()
    return tuple(sorted([(i, value) for i, value in composite.items() if value]))


def _substitute(z: dict[int, int], rows: dict) -> list[tuple[int, int]] | None:
    """Substitute away from the dict z, in place, each cell i that has a
    row rows[i] = (rank, pivot, rest), rest naming cells of higher rank:
    x = z.pop(i) / pivot, then z -= x rest.  Only the rows z reaches are
    read, by rank, with a heap.  Returns the (rank, x) with x nonzero, in
    rank order, or None if a pivot does not divide."""
    heap = [(rows[i][0], i) for i in z if i in rows]
    heapq.heapify(heap)
    y = []
    while heap:
        i = heapq.heappop(heap)[1]
        k, pivot, rest = rows[i]
        x, r = divmod(z.pop(i), pivot)
        if r:
            return None
        if x:
            y.append((k, x))
            for j, value in rest:
                if j not in z and j in rows:
                    heapq.heappush(heap, (rows[j][0], j))
                z[j] = z.get(j, 0) - x * value
    return y


def _sparse_solver(rows: Sequence[Column]):
    """solve(b): the sparse y with sum(y[k] * rows[k]) == b, or None, for b
    as pairs or a dict, by _substitute on echelon rows sorted by pivot."""
    at = {row[0][0]: (k, row[0][1], row[1:]) for k, row in enumerate(rows)}

    def solve(b) -> Column | None:
        y = _substitute(residual := dict(b), at)
        return None if y is None or any(residual.values()) else tuple(y)

    return solve


def _dd_entries(c: ChainComplex):
    """(q, j, i, value), lazily, of each nonzero entry of d∘d: the boundary
    of boundary of basis[q][j] hits basis[q-2][i] with value."""
    return ((q, j, i, value) for q in range(2, c.top_dim + 1)
            for j, col in enumerate(c.boundaries[q - 1])
            for i, value in _compose(c.boundaries[q - 2], col))


def validate(c: ChainComplex) -> list[str]:
    """Compose consecutive boundaries, on each call: one description per
    _dd_entries item, column by column, rows ascending, so the list is
    empty when d∘d = 0.  The work is proportional to the nonzero
    incidences composed."""
    return [f"degree {q}: boundary of boundary of {c.basis[q][j]} hits "
            f"{c.basis[q - 2][i]} with coefficient {value}"
            for q, j, i, value in _dd_entries(c)]


@dataclass(frozen=True)
class DegreeHomology:
    """Homology of one degree, with cycle lattice and coordinates.

    Over Z, the data come from the reduction of the complex (see
    _Reduction), read on first use on C's cells: presentation has as
    generators the Hermite basis of Z_q(D), and as relators the
    coordinates in it of D's boundaries out of degree q + 1; kernel
    holds that basis lifted by g, cycles of C.  The basis is unit vectors
    for D's zero columns beside kernel_basis of the others less, pass by
    pass, each alone on a row (zero on every cycle): on disjoint
    supports, the two are in Hermite form, so are kernel_basis(D's d_q).
    Over Q only the group is set.
    """

    group: FgAbGroup
    _reduction: "_Reduction | None" = field(default=None, compare=False,
                                            repr=False)
    _q: int = 0

    @cached_property
    def _basis(self) -> list[Column]:
        """Hermite basis of Z_q(D), as sparse rows on C's cells, by pivot."""
        r, q = self._reduction, self._q
        live = dict(r.columns[q])
        basis = [((j, 1),) for j in r.unpaired[q] if j not in live]
        hits = Counter(i for col in live.values() for i in col)
        while lone := [j for j, col in live.items() if any(hits[i] == 1 for i in col)]:
            for j in lone:  # alone on a row, so zero in every cycle
                hits.subtract(live.pop(j).keys())
        if live:
            keep = list(live)
            basis += [tuple((keep[k], x) for k, x in y) for y in kernel_basis(
                list(live.values()), r.source.dim(q - 1))]
        return sorted(basis)

    @cached_property
    def _solve(self):
        return _sparse_solver(self._basis)

    @cached_property
    def _lifts(self) -> list[Column]:
        """g of each Hermite basis vector, a cycle of C, as a sparse column;
        cycles are saturated, so a vector of one entry is a unit vector."""
        trans = self._reduction.trans[self._q]
        g = {j: tuple(sorted(trans[j].items())) if j in trans else ((j, 1),)
             for y in self._basis for j, _ in y}
        return [g[y[0][0]] if len(y) == 1 else _compose(g, y) for y in self._basis]

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
        r, q, gens = self._reduction, self._q, len(self._basis)
        up = r.unpaired[q + 1] if q < r.source.top_dim else ()
        return _trusted(AbPresentation, gens=gens, rels=tuple(
            self._solve(b) if (b := r.columns[q + 1].get(j)) else () for j in up))

    def kernel_coords(self, cycle: Sequence[int]) -> tuple[int, ...]:
        """Coordinates in the kernel lattice basis of the class of a
        cycle: those of its projection f(cycle), a cycle of D."""
        r, q = self._reduction, self._q
        if r is None:
            raise ValueError("no integral cycle data (rational coefficients)")
        if len(cycle) != r.source.dim(q):
            raise ValueError("vector length does not match the cell count")
        z = _column(enumerate(cycle))
        if q and _compose(r.source.boundaries[q - 1], z):
            raise ValueError("vector is not a cycle")
        coords = dict(self._coords(z))
        return tuple(coords.get(k, 0) for k in range(len(self._basis)))

    def _coords(self, z: Column) -> Column:
        """kernel_coords, sparse and unchecked, of a sparse cycle z of C."""
        return self._solve(self._reduction.project(self._q, z))


@dataclass(frozen=True)
class HomologyResult:
    """Per-degree homology of a chain complex.

    The groups are known from the start.  Over Z they were read off the
    reduction of the complex (_Reduction), which is kept: degree(q)
    computes that degree's representatives from it on first use, and
    keeps them, without eliminating again.
    """

    coeff: str
    _complex: ChainComplex = field(compare=False, repr=False)
    _groups: tuple[FgAbGroup, ...]
    _reduction: "_Reduction | None" = field(default=None, compare=False, repr=False)
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

    def group(self, q: int) -> FgAbGroup:
        if 0 <= q <= self.top_dim:
            return self._groups[q]
        return FgAbGroup.trivial()

    def groups(self) -> tuple[FgAbGroup, ...]:
        return self._groups


def homology(c: ChainComplex, coeff: str = "Z") -> HomologyResult:
    """Homology of a complex, over Z (default) or Q.

    Nothing is checked: every complex is valid once built.  H_q is free
    of rank dim C_q - rank d_q - rank d_(q+1), plus, over Z, the
    invariant factors above 1 of d_(q+1).  Over Z, the ranks and factors
    come from one _Reduction of the whole complex (_Reduction.factors),
    kept for the representatives.  Over Q, each boundary is ranked by
    _eliminate on any nonzero pivot: no Smith form is taken and no dense
    matrix is built.
    """
    if coeff not in ("Z", "Q"):
        raise ValueError("coefficients must be 'Z' or 'Q'")
    reduction = _Reduction(c) if coeff == "Z" else None
    factored = [reduction.factors(q) if reduction else
                (len(_eliminate({j: dict(col) for j, col in enumerate(columns) if col},
                                c.dim(q - 1), rational=True)), ())
                for q, columns in enumerate(c.boundaries, start=1)]
    # Boundaries out of degree 0 and into the top degree are zero.
    factored = [(0, ())] + factored + [(0, ())]
    groups = tuple([
        FgAbGroup(c.dim(q) - factored[q][0] - factored[q + 1][0],
                  factored[q + 1][1])
        for q in range(c.top_dim + 1)])
    return HomologyResult(coeff, c, groups, reduction)


def _eliminate(cols: dict[int, dict[int, int]], rows: int,
               trans: dict[int, dict[int, int]] | None = None,
               rational: bool = False):
    """Pivot elimination, in place, of the sparse columns cols of a map
    with the given number of rows.

    The candidate pivots are the +-1 entries, or with rational (over Q)
    every nonzero entry.  While one is left, one with the fewest (row
    count - 1) x (column count - 1), the most fill-in it can make
    (Markowitz, Management Science 3, 1957), is the pivot: column
    operations clear its row, after which its column is dropped.  A
    pivot alone in its column only drops its row from the others (over
    Q, col - (x/p) (p e_r) is col without row r).  Any other pivot p
    that is no unit turns a column col with x in its row into p col -
    x pivot, with p and x over their gcd.  With rational, each column a
    pivot with a rest changes is then divided by the gcd of its
    entries: it is primitive and, by Cramer's rule, proportional to a
    vector of minors of the input, so its entries stay within
    Hadamard's bound, which dropping an entry keeps.  Returns the pivots
    (column, row, entry, rest of the column) in order.  With trans,
    which needs unit pivots, the transform of each column ({cell:
    coefficient}; a column missing from it is its own cell) follows its
    column operations.
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
            for i, value in col.items() if rational or value in (1, -1)]
    heapq.heapify(heap)
    pivots = []
    while heap:
        stale, c, r = heapq.heappop(heap)
        p = cols.get(c, {}).get(r)
        if p is None or not rational and p not in (1, -1):
            continue
        now = cost(r, c)
        if now > stale:
            heapq.heappush(heap, (now, c, r))
            continue
        pivot = cols.pop(c)
        del pivot[r]
        for i in pivot:
            in_row[i].discard(c)
        if trans is not None and len(in_row[r]) > 1:  # c changes other columns
            lift = trans.pop(c, None) or {c: 1}
        for j in in_row[r] - {c}:
            col = cols[j]
            x = col.pop(r)
            factor = x * p
            if pivot:
                if p not in (1, -1):
                    g = gcd(p, x)
                    factor = x // g
                    for i in col:
                        col[i] *= p // g
                for i, value in pivot.items():
                    new = col.get(i, 0) - factor * value
                    if new:
                        fresh = i not in col
                        if fresh:
                            in_row[i].add(j)
                        col[i] = new
                        if (fresh if rational else new in (1, -1)):
                            heapq.heappush(heap, (cost(i, j), j, i))
                    elif i in col:
                        del col[i]
                        in_row[i].discard(j)
                if rational and (g := gcd(*col.values())) > 1:
                    for i in col:
                        col[i] //= g
            if not col:
                del cols[j]
            if trans is not None:
                _addmul(trans.get(j) or trans.setdefault(j, {j: 1}), lift, -factor)
        in_row[r].clear()
        pivots.append((c, r, p, pivot))
    return pivots


class _Reduction:
    """A reduction of a complex C to a smaller complex D with the same
    homology, by unit pivots (Kaczynski, Mischaikow and Mrozek,
    Computational Homology, 2004, elementary reductions).

    The constructor only eliminates, from the top degree down, by
    _eliminate with transforms: a cell b paired as a row of d_(q+1)
    leaves the columns of d_q, and each pivot pairs a cell a with the
    row b of its unit.  It keeps d_q's pivots (pivots[q]), the columns
    the elimination left (left[q], on C's rows) and their transforms
    (trans[q]); the groups read these (factors), the rest is built on
    first read.  D is read in place: its cells are C's unpaired cells,
    in C order (the keys of unpaired[q]), and its d_q is left[q] on the
    unpaired rows (columns).  The lift g: D -> C sends a cell to its
    column transform.  pairs[q] maps each paired b to the row (place in
    pairing order, unit, rest of a's column) that _substitute reads; the
    projection f: C -> D (project) substitutes them and keeps the
    unpaired cells.  f and g are chain maps, and f g is the identity.
    D is a complex because elementary reductions keep d∘d = 0.
    """

    def __init__(self, c: ChainComplex):
        self.source = c
        self.pivots = [[] for _ in range(c.top_dim + 1)]
        self.left = [{} for _ in range(c.top_dim + 1)]
        self.trans = [{} for _ in range(c.top_dim + 1)]
        pivots = []
        for q in range(c.top_dim, 0, -1):
            left = self.left[q] = {j: dict(col) for j, col in enumerate(
                c.boundaries[q - 1]) if col}
            for _, b, _, _ in pivots:  # the rows of d_(q+1)'s pivots
                left.pop(b, None)
            pivots = self.pivots[q] = (_eliminate(left, c.dim(q - 1), self.trans[q])
                                       if left else [])

    def factors(self, q: int) -> tuple[int, tuple[int, ...]]:
        """Rank and invariant factors above 1 of d_q: the columns left out
        are integer combinations of the others, each unit pivot splits off
        a factor 1, and the residual takes one smith_diagonal."""
        diagonal = [x for x in smith_diagonal(
            [tuple(col.items()) for col in self.left[q].values()],
            self.source.dim(q - 1)) if x]
        return len(self.pivots[q]) + len(diagonal), tuple(x for x in diagonal if x > 1)

    @cached_property
    def pairs(self) -> list[dict]:
        pairs = [{} for _ in self.pivots]
        for q in range(1, len(pairs)):
            for n, (_, b, unit, rest) in enumerate(self.pivots[q]):
                pairs[q - 1][b] = (n, unit, tuple(rest.items()))
        return pairs

    @cached_property
    def unpaired(self) -> list[dict[int, None]]:
        paired = [self.pairs[q].keys() | {a for a, _, _, _ in pivots}
                  for q, pivots in enumerate(self.pivots)]
        return [dict.fromkeys(j for j in range(self.source.dim(q)) if j not in p)
                for q, p in enumerate(paired)]

    @cached_property
    def columns(self) -> list[dict[int, dict[int, int]]]:
        """D's d_q at q, its nonzero columns on C's rows by cell in C
        order: left[q], whose cells are unpaired, on the unpaired rows."""
        return [{}] + [{j: col for j, full in self.left[q].items()
                        if (col := {i: x for i, x in full.items() if i in kept})}
                       for q, kept in enumerate(self.unpaired[:-1], start=1)]

    def project(self, q: int, z: Column) -> dict[int, int]:
        """f(z), for a degree-q chain z of C: each paired b is -unit times
        the rest of a's column, in pairing order, and each paired a is
        zero."""
        z, kept = dict(z), self.unpaired[q]
        _substitute(z, self.pairs[q])
        return {j: value for j, value in z.items() if value and j in kept}


def _closed_cells(c: ChainComplex, cells: Iterable[str], role: str) -> set[str]:
    """cells as a set, checked to be cells of c closed under faces."""
    cells = set(cells)
    if unknown := cells - c.labels():
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
    """c on the cells that keep accepts, a closed set or the complement
    of one: d∘d of a kept cell is zero in c already, so it is valid."""
    basis = [[label for label in labels if keep(label)] for labels in c.basis]
    boundaries = []
    for q in range(1, c.top_dim + 1):
        kept_rows = (i for i, label in enumerate(c.basis[q - 1]) if keep(label))
        row = {i: n for n, i in enumerate(kept_rows)}
        # row is monotone, so the kept pairs stay sorted.
        boundaries.append([[(row[i], value) for i, value in col if i in row]
                           for label, col in zip(c.basis[q], c.boundaries[q - 1])
                           if keep(label)])
    return ChainComplex._of(basis, boundaries)


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

    def commutes(self) -> bool:
        """d f == f d, composed column by column on the sparse forms."""
        s, t = self.source, self.target
        for q in range(1, s.top_dim + 1):
            outer = t.boundaries[q - 1] if q <= t.top_dim else ()
            for col, s_col in zip(self.matrices[q], s.boundaries[q - 1]):
                if _compose(outer, col) != _compose(self.matrices[q - 1], s_col):
                    return False
        return True


def inclusion_map(c: ChainComplex, cells: Iterable[str]) -> ChainMap:
    """Inclusion into c of subcomplex(c, cells)."""
    return _inclusion(c, subcomplex(c, cells))


def _inclusion(c: ChainComplex, sub: ChainComplex) -> ChainMap:
    """inclusion_map of sub, c on a closed set, whose unit columns commute."""
    return _trusted(ChainMap, source=sub, target=c, matrices=tuple(
        tuple(((c.position(q, label), 1),) for label in labels)
        for q, labels in enumerate(sub.basis)))


def _to_zero(source: AbPresentation) -> GroupHom:
    """The zero map of source onto the trivial group."""
    return _trusted(GroupHom, source=source, target=AbPresentation.free(0),
                    matrix=((),) * source.gens)


def _cycle_hom(src: DegreeHomology, dst: DegreeHomology, columns) -> GroupHom:
    """Map of presentations sending each cycle-lattice generator of src, as
    its sparse lift z, to dst's kernel coordinates of columns @ z; unchecked."""
    return _trusted(GroupHom, source=src.presentation, target=dst.presentation,
                    matrix=tuple(dst._coords(_compose(columns, z))
                                 for z in src._lifts))


def induced_map(f: ChainMap) -> tuple[GroupHom, ...]:
    """Induced homomorphisms on integral homology, one per source degree,
    in the cycle bases of homology(f.source) and homology(f.target)."""
    if not f.commutes():
        raise ValueError("chain map does not commute with boundaries")
    return _induced(f, homology(f.source), homology(f.target))


def _induced(f: ChainMap, hc: HomologyResult, hd: HomologyResult) -> tuple[GroupHom, ...]:
    """induced_map, unchecked, on hc and hd, the homology of its ends."""
    return tuple(_cycle_hom(hc.degree(q), hd.degree(q), f.matrices[q])
                 if q <= hd.top_dim else _to_zero(hc.degree(q).presentation)
                 for q in range(f.source.top_dim + 1))


def connecting_hom(m: ChainComplex, cells_a: Iterable[str],
                   cells_b: Iterable[str]) -> tuple[GroupHom, ...]:
    """Connecting homomorphisms of a two-piece cover, degree q to q-1.

    cells_a and cells_b must be closed sets of cells of m that together
    cover it.  The short exact sequence sends a chain c of the
    intersection to (c, -c) and a pair (x, y) to x + y; the connecting
    map lifts a cycle of m to the pair whose x keeps its coefficients on
    a's cells, takes the boundary of x in a, and reads it in the
    intersection.
    """
    cells_a = _closed_cells(m, cells_a, "subcomplex")
    cells_b = _closed_cells(m, cells_b, "subcomplex")
    if missing := m.labels() - (cells_a | cells_b):
        raise ValueError(f"cells not covered by the two pieces: {sorted(missing)}")
    return _connecting(cells_a, m, homology(subcomplex(m, cells_a & cells_b)),
                       homology(m))


def _connecting(cells_a: set[str], m: ChainComplex, h_inter: HomologyResult,
                h_m: HomologyResult) -> tuple[GroupHom, ...]:
    """connecting_hom, unchecked: a cell of cells_a maps to its boundary
    read on the intersection's rows, where that of a cycle's part on
    cells_a lies."""
    inter, homs = h_inter._complex, [_to_zero(h_m.degree(0).presentation)]
    for q in range(1, m.top_dim + 1):
        row = [inter._index[q - 1].get(label) for label in m.basis[q - 1]]
        columns = [[(row[i], value) for i, value in col if row[i] is not None]
                   if label in cells_a else ()
                   for label, col in zip(m.basis[q], m.boundaries[q - 1])]
        homs.append(_cycle_hom(h_m.degree(q), h_inter.degree(q - 1), columns))
    return tuple(homs)
