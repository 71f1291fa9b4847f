"""Test-only oracles, kept independent of the routes they check.

Exact determinants, lattice containment and homomorphism
well-definedness back the Smith form and induced-map tests.  The
presentation groups read each degree's group off its representatives,
a second route to the groups that homology() finds by elimination.  The dense
boundary builds walk each cell's incidence list into full matrix rows,
as the chain complexes did before they stored sparse columns, and serve
as the reference for `boundary_matrix` and `ws_complex`;
`boundary_matrix` is the dense boundary that `ChainComplex.d` gave, and
`rational_rank` the dense rank over Q that homology() took before it
eliminated sparse columns on any nonzero pivot; `to_rows` lists a dense
matrix's rows, as `IntMatrix.to_rows` did.  The chain-map
references multiply dense matrices and lift cycles by an HNF solve, as
`ChainMap.commutes` and `connecting_hom` did before they worked on
sparse columns.  The product and chain-complex references build every
cell, model and complex through the public, checking constructors, as
the product models were built before they used trusted cells.  The
unreduced exactness route takes every Mayer-Vietoris lattice over the
full relators of the homology presentations and the canonical kernel,
as `check_mv` does, on dense matrices.
`ids`, `cell` and `cells_of_dim` read a model's cells view, as the
methods of that name did before a model held its chain complex and
weights; no code of the package looks a cell up by its id.  The
two-step lattice route takes a kernel in any basis and then a Hermite
pass over it, for the image and kernel lattices of a map and for the
cycle basis, as `exactness_assertion` and `kernel_basis` did before
each came from one elimination.  The cell-level maps take each
degree's cycle lattice as the Hermite basis of the cycles of the
complex itself, `ref_kernel_basis(boundary_matrix(c, q))`, push its
vectors through dense matrices and solve the images there, as `induced_map` and
`connecting_hom` did before they read the cycles off the reduced
complex and ran on sparse lifts; `cell_vector` writes a formal sum of
cells as a dense vector, as `ChainComplex.vector` did.  dense_echelon
is the row Hermite elimination on dense rows, as intlin._echelon was
before it ran on sparse rows with a column-to-rows index, and the
dense Smith diagonal, lattice form and kernel basis built on it
(ref_smith_diagonal, ref_lattice_hnf, ref_kernel_basis) are the
package's forms as they were on dense matrices; the dense matrix
helpers (zeros, transpose, from_columns, hstack, vstack, block_diag)
are those the package dropped with them.  project_by_walk walks every
pair of a degree, as _Reduction.project did before it read only the
pairs its chain reaches.  reduced_complex builds the reduced complex D
of a reduction as its own ChainComplex, with the positions of its cells
in C, the lift g and the projection f on D's indices, as _Reduction did
before it read D in place on C's cells.  boundary_factors ranks and factors each
boundary on its own, by unit-pivot elimination of all its columns
without transforms and one Smith diagonal of the residual, as homology()
did over Z before it read the groups off one reduction of the whole
complex; boundary_factor_groups assembles the groups from it.
walk_invariant_factors inserts each order into the divisor chain by
walking every entry from the top, as invariant_factors did before it
bisected past the entries an order divides.

The rest are references that no code of the package runs.  The
Hermite and Smith forms with their unimodular transforms, the inverse
of a unimodular matrix and an integer solver carry the transforms that
the package never does; they run dense_echelon, read through this
module, so a test that swaps oracles.dense_echelon swaps theirs.
echelon_solver back-substitutes on dense echelon rows, as a degree's
coordinates were solved before they were read on sparse rows.
generators and express read a degree's cycles in the canonical
summands of its group through the Smith form of its relators, on the
dense matrix kernel_matrix of its sparse cycle basis.  The matrix,
group and affine-chain helpers (identity, diagonal, column, apply,
is_zero, cyclic, presented_group, zero_chain, terms, chain_degree,
ambient) are the methods of those classes that no code of the package
reads.  Then
the row echelon step as it was before each pivot column was scanned
once; the tensor product of chain complexes and the point and circle
complexes;
dense views of chain maps, group maps and sparse columns, sparse
columns and rows of dense matrices, and the package's sparse forms read
on dense matrices (smith_of, lattice_of, kernel_of, sparse_echelon); the
parser of group text, a captured CLI run, and the inverse of a group
word; a seeded random two-cover of a model by downward-closed cell
sets; the check of a marked face, and the refinement and prism of one
simplex built on it and on the private operators of affops; and the
affops self-test as five public operator calls and two boundaries of c
per trial.
"""

import contextlib
import io
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Sequence

from orbihom import affops, chains, intlin
from orbihom.affops import (
    AffineChain,
    AffineSimplex,
    _laid,
    _marked,
    _prism,
    _refine,
    prism_operator,
    sd_operator,
)
from orbihom.chains import (
    ChainComplex,
    connecting_hom,
    homology,
    inclusion_map,
    induced_map,
    subcomplex,
)
from orbihom.cli import main
from orbihom.intlin import (
    AbPresentation,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    cokernel_group,
    invariant_factors,
    kernel_basis,
    lattice_hnf,
    smith_diagonal,
)
from orbihom.orbmodel import Cell, WeightedCellComplex
from orbihom.report import Assertion, VerdictReport


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix._of([[0] * cols for _ in range(rows)], cols)


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix._of(m.columns(), m.rows)


def from_columns(columns, rows: int) -> IntMatrix:
    """Matrix with the given columns, entries checked like the constructor."""
    for col in columns:
        if len(col) != rows:
            raise ValueError("column length does not match row count")
    return transpose(IntMatrix([tuple(col) for col in columns], cols=rows))


def _eye(n: int) -> list[list[int]]:
    """Identity rows, the transform that hermite and smith seed."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ValueError("row counts differ")
    return IntMatrix._of([ra + rb for ra, rb in zip(to_rows(a), to_rows(b))],
                         a.cols + b.cols)


def vstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.cols:
        raise ValueError("column counts differ")
    return IntMatrix._of(to_rows(a) + to_rows(b), a.cols)


def block_diag(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    top = [r + [0] * b.cols for r in to_rows(a)]
    bottom = [[0] * a.cols + r for r in to_rows(b)]
    return IntMatrix._of(top + bottom, a.cols + b.cols)


def _addmul_row(m: list[list[int]], dst: int, src: int, factor: int) -> None:
    if factor:
        m[dst] = [x + factor * y for x, y in zip(m[dst], m[src])]


def _transpose(rows: list[list[int]], cols: int) -> list[list[int]]:
    """Rows of the transpose of rows, which have cols entries each."""
    return [list(c) for c in zip(*rows)] or [[] for _ in range(cols)]


def dense_echelon(rows: list[list[int]], n: int) -> None:
    """Dense reference for intlin._echelon, which takes n as the full
    width: the row Hermite form of the first n columns of rows, in
    place, the rest of each row carried along.  Each pivot column is
    scanned once, for the rows live in it: the first of least absolute
    value is the pivot, and only live rows are reduced by it, below it
    and above it."""
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


def sparse_echelon(rows: list[list[int]]) -> list[list[int]]:
    """intlin._echelon run on the sparse rows of the dense rows: the
    nonzero rows of their row Hermite form, read back densely."""
    width = len(rows[0]) if rows else 0
    lines = [{j: x for j, x in enumerate(row) if x} for row in rows]
    return [[line.get(j, 0) for j in range(width)]
            for line in intlin._echelon(lines)]


def ref_smith_diagonal(a: IntMatrix) -> list[int]:
    """smith_diagonal of a by the dense reference (see smith)."""
    s, _, _ = smith(a)
    return [s[i][i] for i in range(min(a.rows, a.cols))]


def ref_lattice_hnf(a: IntMatrix) -> IntMatrix:
    """lattice_hnf of a by the dense reference: the nonzero rows of the
    row Hermite form of a^T."""
    h, _ = hermite(transpose(a), left=False)
    return IntMatrix._of([row for row in h if any(row)], a.rows)


def ref_kernel_basis(a: IntMatrix) -> IntMatrix:
    """kernel_basis of a by the dense reference: the rows of the row
    Hermite form of [a^T | I] whose first block is zero, as columns."""
    h, _ = _carried_echelon([list(col) + e for col, e in
                             zip(a.columns(), _eye(a.cols))], [[]] * a.cols,
                            a.rows + a.cols)
    return transpose(IntMatrix._of([row[a.rows:] for row in h
                                    if any(row) and not any(row[:a.rows])], a.cols))


def smith_of(a: IntMatrix) -> list[int]:
    """The package's smith_diagonal of the sparse columns of a."""
    return smith_diagonal(sparse_columns(a), a.rows)


def lattice_of(a: IntMatrix) -> IntMatrix:
    """The package's lattice_hnf of the sparse columns of a, as the
    dense rows of a matrix."""
    return transpose(dense(lattice_hnf(sparse_columns(a), a.rows), a.rows))


def kernel_of(a: IntMatrix) -> IntMatrix:
    """The package's kernel_basis of the sparse columns of a, as the
    dense columns of a matrix."""
    return dense(kernel_basis(sparse_columns(a), a.rows), a.cols)


def _carried_echelon(form: list[list[int]], carried: list[list[int]], n: int):
    """Rows of the row Hermite form of the n-column rows form, and the
    rows of carried after the same row operations (dense_echelon, read
    through this module)."""
    rows = [f + t for f, t in zip(form, carried)]
    dense_echelon(rows, n)
    return [r[:n] for r in rows], [r[n:] for r in rows]


def hermite(a: IntMatrix, left: bool):
    """Rows of the row Hermite form of a, and of U only if left (else None)."""
    h, u = _carried_echelon(to_rows(a),
                            _eye(a.rows) if left else [[]] * a.rows, a.cols)
    return h, u if left else None


def smith(a: IntMatrix, left: bool = False, right: bool = False):
    """Rows of the Smith form S of a, of U only if left and of V only
    if right (else None).

    Row Hermite forms of the rows [S | U] alternate with row Hermite
    forms of [S^T | V^T] until S is diagonal (Kannan and Bachem, SIAM
    J. Comput. 8(4), 1979).  Without transforms the diagonal is then
    written back as its divisor chain; with them, a diagonal entry that
    does not divide the next gets the next column added to its column,
    and the alternation goes on.  No operation on S reads U or V, so S
    is the same whichever transforms are carried.
    """
    m, n = a.rows, a.cols
    s, u = to_rows(a), _eye(m) if left else [[]] * m
    vt = _eye(n) if right else [[]] * n
    while True:
        s, u = _carried_echelon(s, u, n)
        st, vt = _carried_echelon(_transpose(s, n), vt, m)
        s = _transpose(st, m)
        if any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
            continue
        # S is diagonal, positive entries first, then zeros.
        d = [x for x in (s[i][i] for i in range(min(m, n))) if x]
        if not (left or right):
            chain = invariant_factors(d)
            for i, x in enumerate((1,) * (len(d) - len(chain)) + chain):
                s[i][i] = x
            break
        i = next((i for i in range(len(d) - 1) if d[i + 1] % d[i]), None)
        if i is None:
            break
        s[i + 1][i] = d[i + 1]
        vt[i] = [x + y for x, y in zip(vt[i], vt[i + 1])]
    return s, u if left else None, _transpose(vt, n) if right else None


def unimodular_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix."""
    h, u = hermite(a, left=True)
    if h != _eye(a.rows) or a.rows != a.cols:
        raise ValueError("matrix is not unimodular")
    return IntMatrix._of(u, a.rows)


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U @ a == H, where H is in row
    echelon form with positive pivots and every entry above a pivot
    reduced into [0, pivot).
    """
    h, u = hermite(a, left=True)
    return IntMatrix._of(h, a.cols), IntMatrix._of(u, a.rows)


def snf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns (S, U, V) with U, V unimodular and U @ a @ V == S diagonal,
    non-negative, each diagonal entry dividing the next.  S is unique;
    U and V depend on the elimination (see smith).
    """
    s, u, v = smith(a, left=True, right=True)
    return (IntMatrix._of(s, a.cols), IntMatrix._of(u, a.rows),
            IntMatrix._of(v, a.cols))


def _summands(deg):
    """U of the Smith form U @ rels @ V of the relators of the degree
    deg, and the row and divisor of each summand: free ones (divisor
    0), then torsion."""
    rels = dense(deg.presentation.rels, deg.presentation.gens)
    s, u, _ = smith(rels, left=True)
    diag = [s[i][i] if i < rels.cols else 0 for i in range(rels.rows)]
    free = [(i, 0) for i, d in enumerate(diag) if d == 0]
    return IntMatrix._of(u, rels.rows), free + [
        (i, d) for i, d in enumerate(diag) if d > 1]


def kernel_matrix(deg) -> IntMatrix:
    """The dense matrix of deg.kernel, the sparse cycle basis of a Z
    degree, on the cells of that degree of its complex."""
    return dense(deg.kernel, deg._reduction.source.dim(deg._q))


def generators(deg) -> tuple[tuple[int, ...], ...]:
    """Cycles of the canonical summands of the degree deg as dense
    vectors, free ones first, then torsion ones in divisor order; ()
    over Q."""
    if deg.kernel is None:
        return ()
    u, summands = _summands(deg)
    basis = kernel_matrix(deg) @ unimodular_inverse(u)
    return tuple(column(basis, i) for i, _ in summands)


def express(deg, cycle) -> tuple[int, ...]:
    """Canonical coordinates of a cycle class of the degree deg, for the
    cycle as a dense vector.

    Free coordinates come first and are exact integers; torsion
    coordinates follow, reduced modulo their divisors.
    """
    coords = deg.kernel_coords(enumerate(cycle))  # over Q this raises first
    u, summands = _summands(deg)
    y = apply(u, coords)
    return tuple(y[i] % d if d else y[i] for i, d in summands)


def identity(n: int) -> IntMatrix:
    return IntMatrix._of(_eye(n), n)


def diagonal(values, rows: int | None = None, cols: int | None = None) -> IntMatrix:
    """rows x cols matrix (square by default) with values on its diagonal."""
    values = list(values)
    r = len(values) if rows is None else rows
    c = len(values) if cols is None else cols
    if len(values) > min(r, c):
        raise ValueError("too many diagonal values")
    return IntMatrix([[values[i] if i == j and i < len(values) else 0
                       for j in range(c)] for i in range(r)], cols=c)


def column(m: IntMatrix, j: int) -> tuple[int, ...]:
    return tuple(m[i, j] for i in range(m.rows))


def apply(m: IntMatrix, vector) -> tuple[int, ...]:
    """The matrix-vector product m @ vector."""
    if len(vector) != m.cols:
        raise ValueError("vector length does not match column count")
    return tuple(sum(map(mul, m.row(i), vector)) for i in range(m.rows))


def is_zero(m: IntMatrix) -> bool:
    return not any(map(any, to_rows(m)))


def cyclic(n: int) -> FgAbGroup:
    """Z/n, trivial for n = 1."""
    if n < 1:
        raise ValueError("cyclic order must be positive")
    return FgAbGroup(0, ()) if n == 1 else FgAbGroup(0, (n,))


def presented_group(p: AbPresentation) -> FgAbGroup:
    """The group that p presents, from the Smith diagonal of its relators."""
    return cokernel_group(p.rels, p.gens)


def zero_chain() -> AffineChain:
    return AffineChain()


def terms(chain: AffineChain) -> dict:
    """The nonzero terms of chain as a simplex -> coefficient mapping."""
    return {AffineSimplex._of(key): c for key, c in chain._terms.items()}


def chain_degree(chain: AffineChain) -> int:
    """Common dimension of all terms (error if mixed or zero)."""
    dims = {len(key) - 1 for key in chain._terms}
    if len(dims) != 1:
        raise ValueError("chain is zero or mixes dimensions")
    return dims.pop()


def ambient(s: AffineSimplex) -> int:
    """The number of coordinates of each vertex of s."""
    return len(s.vertices[0])


def echelon(rows: list[list[int]], n: int) -> None:
    """Reference for dense_echelon: every pass rescans all the rows
    below the pivot for the first entry of least absolute value, and
    reduces every one of them that is nonzero in the pivot column."""
    m, r = len(rows), 0
    for c in range(n):
        if all(rows[i][c] == 0 for i in range(r, m)):
            continue
        while True:
            sizes = [abs(rows[i][c]) for i in range(r, m)]
            i0 = r + sizes.index(min(filter(None, sizes)))
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
            clean = True
            for i in range(r + 1, m):
                if rows[i][c]:
                    _addmul_row(rows, i, r, -(rows[i][c] // rows[r][c]))
                    if rows[i][c]:
                        clean = False
            if clean:
                break
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            _addmul_row(rows, i, r, -(rows[i][c] // rows[r][c]))
        r += 1


def echelon_solver(rows: Sequence[Sequence[int]]):
    """solve(b): the y with sum(y[k] * rows[k]) == b, or None if there
    is none, by back-substitution on the pivots of rows, which are in
    row echelon form (zero rows last, where y is 0)."""
    pivots = []
    p = 0
    for k, row in enumerate(rows):
        p = next((j for j in range(p, len(row)) if row[j]), None)
        if p is None:
            break
        pivots.append((k, p, row[p]))

    def solve(b: Sequence[int]) -> list[int] | None:
        residual = list(b)
        y = [0] * len(rows)
        for k, p, pivot in pivots:
            if residual[p]:
                q, r = divmod(residual[p], pivot)
                if r:
                    return None
                y[k] = q
                residual[p:] = [x - q * e
                                for x, e in zip(residual[p:], rows[k][p:])]
        return None if any(residual) else y

    return solve


def solve_linear(a: IntMatrix, b) -> tuple[int, ...] | None:
    """Deterministic integer solution of a @ x == b, or None.

    The solution is the unique one supported on the pivot columns of the
    column Hermite form of a (HNF back-substitution).
    """
    if len(b) != a.rows:
        raise ValueError("right hand side length does not match row count")
    h, u = hermite(transpose(a), left=True)
    y = echelon_solver(h)(b)
    return None if y is None else tuple(sum(map(mul, col, y)) for col in zip(*u))


def kernel_rows(a: IntMatrix) -> list[list[int]]:
    """A basis of the integer kernel of a, as rows: the rows of U, in
    U @ transpose(a) == H, whose rows of H are zero.  It depends on
    the elimination, not only on the kernel."""
    h, u = hermite(transpose(a), left=True)
    return [row for row, form in zip(u, h) if not any(form)]


def two_pass_kernel_basis(a: IntMatrix) -> IntMatrix:
    """kernel_basis(a) in two eliminations: kernel_rows(a), then the
    Hermite form of those rows."""
    span = transpose(IntMatrix._of(kernel_rows(a), a.cols))
    return transpose(ref_lattice_hnf(span))


def two_step_lattices(hom: GroupHom) -> tuple[list, list]:
    """hom.lattices in three dense eliminations: the lattice_hnf of
    [matrix | target rels], and that of the source coordinates of
    kernel_rows([matrix | target rels]) beside the source rels, as
    sparse rows."""
    stacked = hstack(dense_map(hom), dense(hom.target.rels, hom.target.gens))
    gens = hom.source.gens
    proj = IntMatrix._of([row[:gens] for row in kernel_rows(stacked)], gens)
    return (sparse_rows(ref_lattice_hnf(stacked)), sparse_rows(ref_lattice_hnf(
        hstack(transpose(proj), dense(hom.source.rels, gens)))))


def tensor(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """Tensor product complex, with the usual alternating sign.

    The boundary of a product cell is (boundary x) * y plus
    (-1)^(deg x) * x * (boundary y); labels are joined with '_x_'.
    """
    top = c.top_dim + d.top_dim
    layout: list[list[tuple[int, int, int, int]]] = []
    labels: list[list[str]] = []
    position: list[dict[tuple[int, int, int, int], int]] = []
    for k in range(top + 1):
        cells = []
        names = []
        for qc in range(min(k, c.top_dim) + 1):
            qd = k - qc
            if qd > d.top_dim:
                continue
            for i, la in enumerate(c.basis[qc]):
                for j, lb in enumerate(d.basis[qd]):
                    cells.append((qc, i, qd, j))
                    names.append(f"{la}_x_{lb}")
        layout.append(cells)
        labels.append(names)
        position.append({cell: n for n, cell in enumerate(cells)})

    boundaries = []
    for k in range(1, top + 1):
        below = position[k - 1]
        columns = []
        for qc, i, qd, j in layout[k]:
            sign = -1 if qc % 2 else 1
            col = [(below[qc - 1, r, qd, j], value)
                   for r, value in (c.boundaries[qc - 1][i] if qc else ())]
            col += [(below[qc, i, qd - 1, r], sign * value)
                    for r, value in (d.boundaries[qd - 1][j] if qd else ())]
            columns.append(col)
        boundaries.append(columns)
    return ChainComplex(labels, boundaries)


def point_complex(label: str = "pt") -> ChainComplex:
    return ChainComplex([[label]], [])


def circle_complex(vertex: str = "v", edge: str = "t") -> ChainComplex:
    return ChainComplex([[vertex], [edge]], [[()]])


def sparse_columns(mat: IntMatrix) -> list[tuple[tuple[int, int], ...]]:
    """The (row, coefficient) columns of a dense matrix, in the Column
    form of the package."""
    return [tuple((i, x) for i, x in enumerate(col) if x) for col in mat.columns()]


def sparse_rows(mat: IntMatrix) -> list[tuple[tuple[int, int], ...]]:
    """The (column, entry) rows of a dense matrix."""
    return sparse_columns(transpose(mat))


def vector(column, n: int) -> tuple[int, ...]:
    """The dense vector of length n of a sparse column."""
    out = [0] * n
    for i, value in column:
        out[i] = value
    return tuple(out)


def dense(columns, rows: int) -> IntMatrix:
    """The dense matrix of sparse columns on the given number of rows."""
    mat = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, value in col:
            mat[i][j] = value
    return IntMatrix(mat, cols=len(columns))


def to_rows(m: IntMatrix) -> list[list[int]]:
    """The rows of m as lists."""
    return [list(m.row(i)) for i in range(m.rows)]


def boundary_matrix(c: ChainComplex, q: int) -> IntMatrix:
    """Dense boundary matrix of c from degree q to q-1, zero outside the
    range, as ChainComplex.d gave it."""
    columns = c.boundaries[q - 1] if 1 <= q <= c.top_dim else ((),) * c.dim(q)
    return dense(columns, c.dim(q - 1))


def rational_rank(a: IntMatrix) -> int:
    """Rank over the rationals, by dense integer cross-multiplication
    elimination, as homology() found its ranks over Q before it ran the
    sparse elimination on any nonzero pivot."""
    m = to_rows(a)
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


def dense_map(f, q: int | None = None) -> IntMatrix:
    """Dense matrix of the group map f, with q None, or of the chain
    map f in degree q, zero outside the source's degrees."""
    if q is None:
        return dense(f.matrix, f.target.gens)
    return dense(f.matrices[q] if 0 <= q <= f.source.top_dim else (),
                 f.target.dim(q))


_GROUP_TERM = re.compile(r"^(Z(\^(\d+))?|Z/(\d+))$")


def parse_group(text: str) -> FgAbGroup:
    """Parse the textual rendering of a finitely generated abelian
    group: `0`, or ` + `-joined terms `Z`, `Z^r`, `Z/d`."""
    text = text.strip()
    if text == "0":
        return FgAbGroup.trivial()
    rank = 0
    torsion: list[int] = []
    for term in text.split(" + "):
        m = _GROUP_TERM.match(term.strip())
        if not m:
            raise ValueError(f"cannot parse group term {term!r}")
        if m.group(4):
            torsion.append(int(m.group(4)))
        elif m.group(3):
            rank += int(m.group(3))
        else:
            rank += 1
    return FgAbGroup(rank, tuple(torsion))


def run(argv) -> tuple[int, str]:
    """Run the CLI with captured output; returns (exit_code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, buf.getvalue()


def inverse(word) -> tuple:
    """Inverse of a group word: letters reversed, exponents negated."""
    return tuple((gen, -exp) for gen, exp in reversed(word))


def _close_down(wcc: WeightedCellComplex, ids) -> frozenset:
    out = set(ids)
    for cell in sorted(wcc.cells, key=lambda c: -c.dim):
        if cell.id in out:
            out.update(ref for ref, _ in cell.boundary)
    return frozenset(out)


def random_two_cover(wcc: WeightedCellComplex,
                     rng: random.Random) -> tuple[frozenset, frozenset]:
    """Random pair of downward-closed cell sets covering the complex."""
    a: set[str] = set()
    b: set[str] = set()
    for cell in wcc.cells:
        roll = rng.choice(("left", "right", "both"))
        if roll in ("left", "both"):
            a.add(cell.id)
        if roll in ("right", "both"):
            b.add(cell.id)
    return _close_down(wcc, a), _close_down(wcc, b)


def check_face(s: AffineSimplex, face) -> tuple[int, ...]:
    """The vertex indices face of s of a marked face, checked: strictly
    increasing, in range, and at least two of them."""
    idx = tuple(face)
    if list(idx) != sorted(set(idx)):
        raise ValueError("face indices must be strictly increasing")
    if len(idx) < 2:
        raise ValueError("the marked face must have dimension at least 1")
    if idx[0] < 0 or idx[-1] > s.dim:
        raise ValueError(f"face indices {idx} out of range for dim {s.dim}")
    return idx


def refine(s: AffineSimplex, face, a) -> AffineChain:
    """Fan of s through the interior point of the marked face.

    face is a strictly increasing tuple of vertex indices of s of
    length at least 2, and a gives barycentric coordinates of a
    strictly interior point of that face.  The result has one term per
    face vertex.
    """
    idx = check_face(s, face)
    return AffineChain._of(
        _laid(_refine(s.dim, idx), s._key, _marked(s.restrict(idx), a), 1))


def prism(s: AffineSimplex, face, a) -> AffineChain:
    """Degree +1 homotopy term for one simplex, with the marked face
    given by checked vertex indices and barycentric coordinates a of
    its interior point, or the plain vertex-doubling prism with face
    None."""
    if face is None:
        return AffineChain._of(_laid(_prism(s.dim, None), s._key, None, 1))
    idx = check_face(s, face)
    return AffineChain._of(
        _laid(_prism(s.dim, idx), s._key, _marked(s.restrict(idx), a), 1))


# Label, statement and the two sides on (phi, a, c) of each identity, on
# the public operators.  boundary is read from affops at call time, so a
# patched one is checked.
PUBLIC_IDENTITIES = (
    ("i", "boundary commutes with refinement",
     lambda phi, a, c: (affops.boundary(sd_operator(phi, a, c)),
                        sd_operator(phi, a, affops.boundary(c)))),
    ("ii", "prism homotopy matches identity minus refinement",
     lambda phi, a, c: (affops.boundary(prism_operator(phi, a, c)),
                        c - sd_operator(phi, a, c)
                        - prism_operator(phi, a, affops.boundary(c)))),
)


def public_selftest(trials: int, seed: int) -> VerdictReport:
    """Reference for affops.selftest: the same seeded draws, with each
    identity's sides from the public operators, so every trial places
    the marked point five times and takes the boundary of c twice."""
    rng = random.Random(seed)
    failures = [0] * len(PUBLIC_IDENTITIES)
    notes: list[str] = []
    for trial in range(trials):
        q = rng.randint(1, 4)
        ambient = rng.randint(q, q + 2)
        while True:
            verts = tuple(
                tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                      for _ in range(ambient))
                for _ in range(q + 1))
            if len(set(verts)) == q + 1:
                s = AffineSimplex(verts)
                break
        p = rng.randint(1, q)
        face = tuple(sorted(rng.sample(range(q + 1), p + 1)))
        weights = [rng.randint(1, 4) for _ in range(p + 1)]
        total = sum(weights)
        a = tuple(Fraction(w, total) for w in weights)
        phi, c = s.restrict(face), AffineChain.of(s)
        for k, (label, _, sides) in enumerate(PUBLIC_IDENTITIES):
            lhs, rhs = sides(phi, a, c)
            if lhs != rhs:
                failures[k] += 1
                if len(notes) < 6:
                    notes.append(f"trial {trial} identity ({label}) failed "
                                 f"on {s!r} face {face}: difference "
                                 f"{(lhs - rhs)!r}")
    return VerdictReport(
        check="affops-selftest",
        subject=f"trials={trials} seed={seed}",
        assertions=[
            Assertion(statement=f"{statement} on {trials} random chains",
                      left=f"{n} failures", right="0 failures",
                      passed=n == 0)
            for (_, statement, _), n in zip(PUBLIC_IDENTITIES, failures)
        ],
        notes=notes,
    )


def det(a: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = to_rows(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def subgroup_contains(gens_a: IntMatrix, gens_b: IntMatrix) -> bool:
    """True iff the column lattice of gens_b lies inside that of gens_a."""
    if gens_a.rows != gens_b.rows:
        raise ValueError("ambient ranks differ")
    return all(solve_linear(gens_a, col) is not None
               for col in gens_b.columns())


def is_well_defined(hom: GroupHom) -> bool:
    """True iff every source relator lands in the target relator lattice."""
    return subgroup_contains(dense(hom.target.rels, hom.target.gens),
                             dense_map(hom) @ dense(hom.source.rels, hom.source.gens))


def presentation_groups(h) -> tuple:
    """Each degree's group from the Smith form of its presentation."""
    return tuple(presented_group(h.degree(q).presentation)
                 for q in range(h.top_dim + 1))


def ids(wcc) -> list[str]:
    """The cell ids of wcc, in cell order."""
    return [cell.id for cell in wcc.cells]


def cell(wcc, cell_id: str) -> Cell:
    """The cell of wcc with this id."""
    return next(c for c in wcc.cells if c.id == cell_id)


def cells_of_dim(wcc, q: int) -> list[Cell]:
    """The q-cells of wcc, in cell order."""
    return [cell for cell in wcc.cells if cell.dim == q]


def _incidence_rows(faces, cofaces, entry) -> list[list[int]]:
    """One dense row per coface: entry(coface, face id, coefficient)
    summed over its boundary list; faces missing from faces are skipped."""
    position = {cell.id: j for j, cell in enumerate(faces)}
    rows = []
    for coface in cofaces:
        row = [0] * len(faces)
        for ref, coefficient in coface.boundary:
            if ref in position:
                row[position[ref]] += entry(coface, ref, coefficient)
        rows.append(row)
    return rows


def dense_boundary(wcc, q: int) -> IntMatrix:
    """Boundary matrix of wcc from degree q to q-1."""
    faces, cofaces = cells_of_dim(wcc, q - 1), cells_of_dim(wcc, q)
    rows = _incidence_rows(faces, cofaces, lambda coface, ref, k: k)
    return from_columns(rows, rows=len(faces))


def dense_ws_boundary(wcc, k: int, rel: str | None = None) -> IntMatrix:
    """Degree-k boundary of the scaled dual of wcc: the transpose of the
    boundary onto (n-k)-cells, each entry times the face weight over
    the coface weight, with the cells of sub rel dropped."""
    dropped = wcc.sub_cells(rel) if rel is not None else frozenset()

    def kept(q):
        return [cell for cell in cells_of_dim(wcc, q) if cell.id not in dropped]

    def scaled(coface, ref, coefficient):
        value, remainder = divmod(coefficient * cell(wcc, ref).weight,
                                  coface.weight)
        assert remainder == 0, (coface.id, ref)
        return value

    q = wcc.dim - k
    return IntMatrix(_incidence_rows(kept(q), kept(q + 1), scaled),
                     cols=len(kept(q)))


def dense_commutes(f) -> bool:
    """d f == f d, checked by dense matrix products in every degree."""
    return all(boundary_matrix(f.target, q) @ dense_map(f, q)
               == dense_map(f, q - 1) @ boundary_matrix(f.source, q)
               for q in range(1, f.source.top_dim + 1))


def hnf_connecting_matrices(m, cells_a, cells_b) -> list[IntMatrix]:
    """Matrices of the connecting maps of the cover of m by the closed
    cell sets cells_a and cells_b, degree q to q-1 for q >= 1: each
    cycle of m is split as x + y over [incl_a | incl_b] by solve_linear,
    and the boundary of x is read in the intersection."""
    inter = subcomplex(m, cells_a & cells_b)
    h_inter, h_m = homology(inter), homology(m)
    incl_a, incl_b = inclusion_map(m, cells_a), inclusion_map(m, cells_b)
    a = incl_a.source
    matrices = []
    for q in range(1, m.top_dim + 1):
        src, dst = h_m.degree(q), h_inter.degree(q - 1)
        stacked = hstack(dense_map(incl_a, q), dense_map(incl_b, q))
        columns = []
        for z in src.kernel:
            sol = solve_linear(stacked, vector(z, m.dim(q)))
            boundary = apply(boundary_matrix(a, q), sol[:a.dim(q)])
            coeffs = {a.basis[q - 1][r]: value
                      for r, value in enumerate(boundary) if value}
            columns.append(dst.kernel_coords(
                enumerate(cell_vector(inter, q - 1, coeffs))))
        matrices.append(from_columns(
            columns, rows=dst.presentation.gens))
    return matrices


def public_tensor(a, b, name: str) -> WeightedCellComplex:
    """tensor_weighted(a, b, name), with each cell built by the public
    Cell: a x b is labelled a_x_b, weights multiply, and its boundary
    is (boundary a) x b, then (-1)^(dim a) a x (boundary b); cells are
    stably sorted by dimension, and a's subs are crossed with all of b."""
    cells = [Cell(f"{ca.id}_x_{cb.id}", ca.dim + cb.dim, ca.weight * cb.weight,
                  tuple((f"{ref}_x_{cb.id}", k) for ref, k in ca.boundary)
                  + tuple((f"{ca.id}_x_{ref}", (-1) ** ca.dim * k)
                          for ref, k in cb.boundary))
             for ca in a.cells for cb in b.cells]
    subs = {sub: [f"{x}_x_{cb.id}" for x in members for cb in b.cells]
            for sub, members in a.subs.items()}
    return WeightedCellComplex(name, a.dim + b.dim,
                               sorted(cells, key=lambda cell: cell.dim), subs)


def public_chain_complex(wcc, kept=None) -> ChainComplex:
    """The public ChainComplex of wcc's cells, or of those with ids in
    kept, from their incidence lists in cell order; faces outside kept
    are dropped, so a closed kept set gives the subcomplex and the
    complement of one the relative complex."""
    by_dim = [[cell for cell in cells_of_dim(wcc, q)
               if kept is None or cell.id in kept] for q in range(wcc.dim + 1)]
    position = {cell.id: j for cells in by_dim for j, cell in enumerate(cells)}
    return ChainComplex(
        [[cell.id for cell in cells] for cells in by_dim],
        [[[(position[ref], k) for ref, k in cell.boundary if ref in position]
          for cell in cells] for cells in by_dim[1:]])


def cell_vector(c: ChainComplex, q: int, coefficients: dict) -> tuple:
    """Coordinate vector on c's degree-q cells of a formal sum of them,
    given as {label: coefficient}."""
    vec = [0] * c.dim(q)
    for label, coefficient in coefficients.items():
        vec[c.position(q, label)] += coefficient
    return tuple(vec)


@dataclass(frozen=True)
class CellLevelDegree:
    """One degree's cycle lattice on the cells of the complex itself, in
    the form a degree of the package takes: matrix is
    kernel_basis(boundary_matrix(c, q)), kernel its sparse columns, and
    kernel_coords solves a cycle, given as (cell, coefficient) pairs, in
    it exactly, with no boundary to spare."""

    matrix: IntMatrix

    @cached_property
    def kernel(self) -> list:
        return sparse_columns(self.matrix)

    @cached_property
    def _solve(self):
        return echelon_solver(self.matrix.columns())

    def kernel_coords(self, cycle) -> tuple[int, ...]:
        coords = self._solve(vector(cycle, self.matrix.rows))
        if coords is None:
            raise ValueError("vector is not a cycle")
        return tuple(coords)


def cell_level_degree(c: ChainComplex, q: int) -> CellLevelDegree:
    return CellLevelDegree(ref_kernel_basis(boundary_matrix(c, q)))


def cell_level_induced(f, q: int) -> IntMatrix:
    """Matrix in degree q of the map that the chain map f induces, from
    the cell-level cycle basis of f.source to that of f.target: each
    basis cycle goes through the dense matrix of f and is solved in the
    target's basis."""
    src, dst = cell_level_degree(f.source, q), cell_level_degree(f.target, q)
    mat = dense_map(f, q)
    return from_columns(
        [dst.kernel_coords(enumerate(apply(mat, z))) for z in src.matrix.columns()],
        rows=dst.matrix.cols)


def cell_level_connecting(a, m, inter, q: int) -> IntMatrix:
    """Matrix of the connecting map, degree q to q-1, of a cover of m
    by a and another piece meeting in inter, between cell-level cycle
    bases: each basis cycle of m keeps its coefficients on a's cells,
    its boundary by the dense boundary_matrix(a, q) is read on inter's
    cells, and that is solved in inter's basis."""
    src, dst = cell_level_degree(m, q), cell_level_degree(inter, q - 1)
    columns = []
    for z in src.matrix.columns():
        boundary = apply(boundary_matrix(a, q),
                         [z[m.position(q, label)] for label in a.basis[q]])
        columns.append(dst.kernel_coords(enumerate(cell_vector(
            inter, q - 1, {a.basis[q - 1][r]: value
                           for r, value in enumerate(boundary) if value}))))
    return from_columns(columns, rows=dst.matrix.cols)


def _top_rows(m: IntMatrix, k: int) -> IntMatrix:
    return IntMatrix._of([m.row(i) for i in range(k)], m.cols)


def unreduced_mv_assertions(wcc, cells_a, cells_b) -> list[tuple]:
    """(statement, left, right, passed) of each check_mv assertion on
    the cover of wcc by the closed cell sets cells_a and cells_b, on
    dense matrices.  Each image lattice is [matrix | rels] and each
    kernel lattice the top rows of the kernel basis of [matrix | target
    rels] beside rels, where rels are the full relators of the homology
    presentations.  A lattice prints as the {column: entry} dicts of
    its dense rows, and the kernel as bare `kernel` when it is the
    image."""
    m = wcc.chain_complex()
    cells_i = cells_a & cells_b
    comp_a, comp_b = subcomplex(m, cells_a), subcomplex(m, cells_b)
    comp_i = subcomplex(m, cells_i)
    h_i, h_a, h_b, h_m = map(homology, (comp_i, comp_a, comp_b, m))
    i_a = induced_map(inclusion_map(comp_a, cells_i))
    i_b = induced_map(inclusion_map(comp_b, cells_i))
    j_a = induced_map(inclusion_map(m, cells_a))
    j_b = induced_map(inclusion_map(m, cells_b))
    k = connecting_hom(m, cells_a, cells_b)

    def rels(p):
        return dense(p.rels, p.gens)

    def image(into, at):
        return at if into is None else hstack(into[0], at)

    def kernel(out_of, at):
        matrix, target = out_of
        ker = ref_kernel_basis(hstack(matrix, target))
        return hstack(_top_rows(ker, at.rows), at)

    def text(lattice):
        return str([{j: x for j, x in enumerate(row) if x}
                    for row in to_rows(lattice)])

    out = []
    for q in range(m.top_dim + 1):
        pres_i, pres_m = h_i.degree(q).presentation, h_m.degree(q).presentation
        pa, pb = h_a.degree(q).presentation, h_b.degree(q).presentation
        rels_sum = block_diag(rels(pa), rels(pb))
        i_comb = (vstack(dense_map(i_a[q]), -dense_map(i_b[q])), rels_sum)
        j_comb = (hstack(dense_map(j_a[q]), dense_map(j_b[q])), rels(pres_m))
        k_next = ((dense_map(k[q + 1]), rels(pres_i)) if q < m.top_dim
                  else None)
        k_q = (dense_map(k[q]), rels(k[q].target))
        for where, into, out_of, at in (
                (f"H_{q}(intersection)", k_next, i_comb, rels(pres_i)),
                (f"H_{q}(A)+H_{q}(B)", i_comb, j_comb, rels_sum),
                (f"H_{q}(whole)", j_comb, k_q, rels(pres_m))):
            im = ref_lattice_hnf(image(into, at))
            ker = ref_lattice_hnf(kernel(out_of, at))
            out.append((f"exactness at {where}", f"image {text(im)} in Z^{at.rows}",
                        "kernel" if im == ker else f"kernel {text(ker)}", im == ker))
    return out


def project_by_walk(r, q: int, z) -> dict[int, int]:
    """_Reduction.project by a walk over every pair of degree q in
    pairing order, as it was before the pairs were read by cell."""
    z = dict(z)
    for b, (_, unit, rest) in r.pairs[q].items():
        if z.get(b):
            x = unit * z[b]
            for i, value in rest:
                z[i] = z.get(i, 0) - x * value
    paired = r.pairs[q].keys() | {a for a, _, _, _ in r.pivots[q]}
    return {j: value for j, value in z.items() if value and j not in paired}


@dataclass(frozen=True)
class ReducedComplex:
    """The reduced complex D of a chains._Reduction, as its own complex:
    position[q] maps each unpaired degree-q cell's index in C to its
    index in D, and d keeps each unpaired cell with its column as the
    elimination left it, read on D's rows."""

    reduction: object
    position: list
    d: ChainComplex

    def lifts(self, q: int) -> list:
        """g on degree q: each cell of D to its column transform in C."""
        trans = self.reduction.trans[q]
        return [tuple(sorted(trans[j].items())) if j in trans else ((j, 1),)
                for j in self.position[q]]

    def project(self, q: int, z) -> dict[int, int]:
        """f(z) on D's positions, for a degree-q chain z of C."""
        z, at = dict(z), self.position[q]
        chains._substitute(z, self.reduction.pairs[q])
        return {at[j]: value for j, value in z.items() if value and j in at}


def reduced_complex(r) -> ReducedComplex:
    """D of the reduction r built as a ChainComplex, with its positions,
    as _Reduction.d, position, lifts and project were before D was read
    in place on C's cells."""
    paired = [r.pairs[q].keys() | {a for a, _, _, _ in pivots}
              for q, pivots in enumerate(r.pivots)]
    position = [{j: n for n, j in enumerate(
        j for j in range(r.source.dim(q)) if j not in p)} for q, p in enumerate(paired)]
    d = ChainComplex._of(
        [[r.source.basis[q][j] for j in kept] for q, kept in enumerate(position)],
        [[tuple(sorted((position[q - 1][i], value)
                       for i, value in r.left[q].get(j, {}).items()
                       if i in position[q - 1])) for j in position[q]]
         for q in range(1, r.source.top_dim + 1)])
    return ReducedComplex(r, position, d)


def boundary_factors(columns, rows: int) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors above 1 of one sparse boundary: each
    unit pivot of chains._eliminate splits off a unit invariant factor,
    and the residual takes one smith_diagonal on the boundary's rows."""
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rank = len(chains._eliminate(cols, rows))
    diagonal = [x for x in smith_diagonal(
        [tuple(col.items()) for col in cols.values()], rows) if x]
    return rank + len(diagonal), tuple(x for x in diagonal if x > 1)


def boundary_factor_groups(c: ChainComplex) -> tuple[FgAbGroup, ...]:
    """The integral homology groups of c from boundary_factors of each
    boundary: H_q is free of rank dim C_q - rank d_q - rank d_(q+1),
    plus the invariant factors above 1 of d_(q+1)."""
    factored = ([(0, ())] + [boundary_factors(columns, c.dim(q - 1))
                             for q, columns in enumerate(c.boundaries, start=1)]
                + [(0, ())])
    return tuple(FgAbGroup(c.dim(q) - factored[q][0] - factored[q + 1][0],
                           factored[q + 1][1]) for q in range(c.top_dim + 1))


def walk_invariant_factors(values) -> tuple[int, ...]:
    """invariant_factors by walking the chain, kept bottom first, from
    the top for each order v: d becomes lcm(d, v), and gcd(d, v) moves
    on down as the next v until it is 1."""
    chain: list[int] = []
    for v in values:
        for i in reversed(range(len(chain))):
            if v == 1:
                break
            g = gcd(chain[i], v)
            chain[i], v = chain[i] // g * v, g
        if v > 1:
            chain.insert(0, v)
    return tuple(chain)
