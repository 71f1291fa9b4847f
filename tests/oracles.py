"""Test-only oracles, kept independent of the routes they check.

Exact determinants, lattice containment and homomorphism
well-definedness back the Smith form and induced-map tests.  The
presentation groups read each degree's group off its representatives,
a second route to the groups that homology() finds by elimination.  The dense
boundary builds walk each cell's incidence list into full matrix rows,
as the chain complexes did before they stored sparse columns, and serve
as the reference for `ChainComplex.d` and `ws_complex`.  The chain-map
references multiply dense matrices and lift cycles by an HNF solve, as
`ChainMap.commutes` and `connecting_hom` did before they worked on
sparse columns.  The product and chain-complex references build every
cell, model and complex through the public, checking constructors, as
the product models were built before they used trusted cells.  The
unreduced exactness route takes every Mayer-Vietoris lattice over the
full relators of the homology presentations and the canonical kernel,
as `check_mv` did before it reduced each presentation's relators.  The
two-step lattice route takes a kernel in any basis and then a Hermite
pass over it, for the image and kernel lattices of a map and for the
cycle basis, as `exactness_assertion` and `kernel_basis` did before
each came from one elimination.  The cell-level maps take each
degree's cycle lattice as the Hermite basis of the cycles of the
complex itself, `kernel_basis(c.d(q))`, push its vectors through dense
matrices and solve the images there, as `induced_map` and
`connecting_hom` did before they read the cycles off the reduced
complex and ran on sparse lifts; `cell_vector` writes a formal sum of
cells as a dense vector, as `ChainComplex.vector` did.

The rest are references that no code of the package runs.  The
Hermite and Smith forms with their unimodular transforms, the inverse
of a unimodular matrix and an integer solver carry the transforms that
the package never does; they run intlin's private elimination, read
through the module, so a test that swaps intlin._echelon swaps theirs.
generators and express read a degree's cycles in the canonical
summands of its group through the Smith form of its relators.  The
matrix, group and affine-chain helpers (identity, diagonal, column,
is_zero, cyclic, presented_group, zero_chain, terms) are the methods
of those classes that no code of the package reads.  Then the row
echelon step as it was before each pivot column was scanned once; the
tensor product of chain complexes and the point and circle complexes;
dense views of chain maps and sparse columns of dense matrices; the
parser of group text, a captured CLI run, and the inverse of a group
word; a seeded random two-cover of a model by downward-closed cell
sets; and the refinement and prism of one simplex, built on the
private checks and operators of affops.
"""

import contextlib
import io
import random
import re
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from orbihom import intlin
from orbihom.affops import (
    AffineChain,
    AffineSimplex,
    _check_face,
    _interior_point,
    _prism,
    _refine,
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
    _echelon_solver,
    _addmul_row,
    block_diag,
    cokernel_group,
    hstack,
    invariant_factors,
    kernel_basis,
    lattice_hnf,
    vstack,
)
from orbihom.orbmodel import Cell, WeightedCellComplex


def _carried_echelon(form: list[list[int]], carried: list[list[int]], n: int):
    """Rows of the row Hermite form of the n-column rows form, and the
    rows of carried after the same row operations (intlin._echelon,
    read through the module)."""
    rows = [f + t for f, t in zip(form, carried)]
    intlin._echelon(rows, n)
    return [r[:n] for r in rows], [r[n:] for r in rows]


def hermite(a: IntMatrix, left: bool):
    """Rows of the row Hermite form of a, and of U only if left (else None)."""
    h, u = _carried_echelon(a.to_rows(),
                            intlin._eye(a.rows) if left else [[]] * a.rows, a.cols)
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
    s, u = a.to_rows(), intlin._eye(m) if left else [[]] * m
    vt = intlin._eye(n) if right else [[]] * n
    while True:
        s, u = _carried_echelon(s, u, n)
        st, vt = _carried_echelon(intlin._transpose(s, n), vt, m)
        s = intlin._transpose(st, m)
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
    return s, u if left else None, intlin._transpose(vt, n) if right else None


def unimodular_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix."""
    h, u = hermite(a, left=True)
    if h != intlin._eye(a.rows) or a.rows != a.cols:
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
    rels = deg.presentation.rels
    s, u, _ = smith(rels, left=True)
    diag = [s[i][i] if i < rels.cols else 0 for i in range(rels.rows)]
    free = [(i, 0) for i, d in enumerate(diag) if d == 0]
    return IntMatrix._of(u, rels.rows), free + [
        (i, d) for i, d in enumerate(diag) if d > 1]


def generators(deg) -> tuple[tuple[int, ...], ...]:
    """Cycles of the canonical summands of the degree deg, free ones
    first, then torsion ones in divisor order; () over Q."""
    if deg.kernel is None:
        return ()
    u, summands = _summands(deg)
    basis = deg.kernel @ unimodular_inverse(u)
    return tuple(column(basis, i) for i, _ in summands)


def express(deg, cycle) -> tuple[int, ...]:
    """Canonical coordinates of a cycle class of the degree deg.

    Free coordinates come first and are exact integers; torsion
    coordinates follow, reduced modulo their divisors.
    """
    coords = deg.kernel_coords(cycle)  # over Q this raises first
    u, summands = _summands(deg)
    y = u.apply(coords)
    return tuple(y[i] % d if d else y[i] for i, d in summands)


def identity(n: int) -> IntMatrix:
    return IntMatrix._of(intlin._eye(n), n)


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


def is_zero(m: IntMatrix) -> bool:
    return not any(map(any, m.to_rows()))


def cyclic(n: int) -> FgAbGroup:
    """Z/n, trivial for n = 1."""
    if n < 1:
        raise ValueError("cyclic order must be positive")
    return FgAbGroup(0, ()) if n == 1 else FgAbGroup(0, (n,))


def presented_group(p: AbPresentation) -> FgAbGroup:
    """The group that p presents, from the Smith diagonal of its relators."""
    return cokernel_group(p.rels)


def zero_chain() -> AffineChain:
    return AffineChain()


def terms(chain: AffineChain) -> dict:
    """The nonzero terms of chain as a simplex -> coefficient mapping."""
    return dict(chain._terms)


def echelon(rows: list[list[int]], n: int) -> None:
    """Reference for intlin._echelon: every pass rescans all the rows
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


def solve_linear(a: IntMatrix, b) -> tuple[int, ...] | None:
    """Deterministic integer solution of a @ x == b, or None.

    The solution is the unique one supported on the pivot columns of the
    column Hermite form of a (HNF back-substitution).
    """
    if len(b) != a.rows:
        raise ValueError("right hand side length does not match row count")
    h, u = hermite(a.transpose(), left=True)
    y = _echelon_solver(h)(b)
    return None if y is None else tuple(sum(map(mul, col, y)) for col in zip(*u))


def kernel_rows(a: IntMatrix) -> list[list[int]]:
    """A basis of the integer kernel of a, as rows: the rows of U, in
    U @ a.transpose() == H, whose rows of H are zero.  It depends on
    the elimination, not only on the kernel."""
    h, u = hermite(a.transpose(), left=True)
    return [row for row, form in zip(u, h) if not any(form)]


def two_pass_kernel_basis(a: IntMatrix) -> IntMatrix:
    """kernel_basis(a) in two eliminations: kernel_rows(a), then the
    Hermite form of those rows."""
    span = IntMatrix._of(kernel_rows(a), a.cols).transpose()
    return lattice_hnf(span).transpose()


def two_step_lattices(hom: GroupHom) -> tuple[IntMatrix, IntMatrix]:
    """hom.lattices in three eliminations: lattice_hnf of [matrix |
    target rels], and lattice_hnf of the source coordinates of
    kernel_rows([matrix | target rels]) beside the source rels."""
    stacked = hstack(hom.matrix, hom.target.rels)
    gens = hom.source.gens
    proj = IntMatrix._of([row[:gens] for row in kernel_rows(stacked)], gens)
    return (lattice_hnf(stacked),
            lattice_hnf(hstack(proj.transpose(), hom.source.rels)))


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


def sparse_columns(mat: IntMatrix) -> list[list[tuple[int, int]]]:
    """The (row, coefficient) columns of a dense matrix."""
    return [[(i, x) for i, x in enumerate(col) if x] for col in mat.columns()]


def dense_map(f, q: int) -> IntMatrix:
    """Dense matrix of the chain map f in degree q, zero outside the
    source's degrees."""
    rows, cols = f.target.dim(q), f.source.dim(q)
    mat = [[0] * cols for _ in range(rows)]
    for j, col in enumerate(f.matrices[q] if 0 <= q <= f.source.top_dim else ()):
        for i, value in col:
            mat[i][j] = value
    return IntMatrix(mat, cols=cols)


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


def refine(s: AffineSimplex, face, a) -> AffineChain:
    """Fan of s through the interior point of the marked face.

    face is a strictly increasing tuple of vertex indices of s of
    length at least 2, and a gives barycentric coordinates of a
    strictly interior point of that face.  The result has one term per
    face vertex.
    """
    idx = _check_face(s, face)
    return _refine(s, idx, _interior_point([s.vertices[i] for i in idx], a))


def prism(s: AffineSimplex, face, a) -> AffineChain:
    """Degree +1 homotopy term for one simplex, with the marked face
    given by checked vertex indices and barycentric coordinates a of
    its interior point, or the plain vertex-doubling prism with face
    None."""
    if face is None:
        return _prism(s, None, None)
    idx = _check_face(s, face)
    return _prism(s, idx, _interior_point([s.vertices[i] for i in idx], a))


def det(a: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
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
    return subgroup_contains(hom.target.rels, hom.matrix @ hom.source.rels)


def presentation_groups(h) -> tuple:
    """Each degree's group from the Smith form of its presentation."""
    return tuple(presented_group(h.degree(q).presentation)
                 for q in range(h.top_dim + 1))


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
    faces, cofaces = wcc.cells_of_dim(q - 1), wcc.cells_of_dim(q)
    rows = _incidence_rows(faces, cofaces, lambda coface, ref, k: k)
    return IntMatrix.from_columns(rows, rows=len(faces))


def dense_ws_boundary(wcc, k: int, rel: str | None = None) -> IntMatrix:
    """Degree-k boundary of the scaled dual of wcc: the transpose of the
    boundary onto (n-k)-cells, each entry times the face weight over
    the coface weight, with the cells of sub rel dropped."""
    dropped = wcc.sub_cells(rel) if rel is not None else frozenset()

    def kept(q):
        return [cell for cell in wcc.cells_of_dim(q) if cell.id not in dropped]

    def scaled(coface, ref, coefficient):
        value, remainder = divmod(coefficient * wcc.cell(ref).weight,
                                  coface.weight)
        assert remainder == 0, (coface.id, ref)
        return value

    q = wcc.dim - k
    return IntMatrix(_incidence_rows(kept(q), kept(q + 1), scaled),
                     cols=len(kept(q)))


def dense_commutes(f) -> bool:
    """d f == f d, checked by dense matrix products in every degree."""
    return all(f.target.d(q) @ dense_map(f, q) == dense_map(f, q - 1) @ f.source.d(q)
               for q in range(1, f.source.top_dim + 1))


def hnf_connecting_matrices(a, b, m) -> list[IntMatrix]:
    """Matrices of the connecting maps of the cover (a, b) of m, degree
    q to q-1 for q >= 1: each cycle of m is split as x + y over
    [incl_a | incl_b] by solve_linear, and the boundary of x is read in
    the intersection."""
    cells_a, cells_b = a.labels(), b.labels()
    inter = subcomplex(m, cells_a & cells_b)
    h_inter, h_m = homology(inter), homology(m)
    incl_a, incl_b = inclusion_map(m, a), inclusion_map(m, b)
    matrices = []
    for q in range(1, m.top_dim + 1):
        src, dst = h_m.degree(q), h_inter.degree(q - 1)
        stacked = hstack(dense_map(incl_a, q), dense_map(incl_b, q))
        columns = []
        for z in src.kernel.columns():
            sol = solve_linear(stacked, z)
            boundary = a.d(q).apply(sol[:a.dim(q)])
            coeffs = {a.basis[q - 1][r]: value
                      for r, value in enumerate(boundary) if value}
            columns.append(dst.kernel_coords(cell_vector(inter, q - 1, coeffs)))
        matrices.append(IntMatrix.from_columns(
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
    by_dim = [[cell for cell in wcc.cells_of_dim(q)
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
    """One degree's cycle lattice on the cells of the complex itself:
    kernel is kernel_basis(c.d(q)), and kernel_coords solves a cycle in
    it exactly, with no boundary to spare."""

    kernel: IntMatrix

    @cached_property
    def _solve(self):
        return _echelon_solver(self.kernel.columns())

    def kernel_coords(self, cycle) -> tuple[int, ...]:
        if len(cycle) != self.kernel.rows:
            raise ValueError("vector length does not match the cell count")
        coords = self._solve(cycle)
        if coords is None:
            raise ValueError("vector is not a cycle")
        return tuple(coords)


def cell_level_degree(c: ChainComplex, q: int) -> CellLevelDegree:
    return CellLevelDegree(kernel_basis(c.d(q)))


def cell_level_induced(f, q: int) -> IntMatrix:
    """Matrix in degree q of the map that the chain map f induces, from
    the cell-level cycle basis of f.source to that of f.target: each
    basis cycle goes through the dense matrix of f and is solved in the
    target's basis."""
    src, dst = cell_level_degree(f.source, q), cell_level_degree(f.target, q)
    mat = dense_map(f, q)
    return IntMatrix.from_columns(
        [dst.kernel_coords(mat.apply(z)) for z in src.kernel.columns()],
        rows=dst.kernel.cols)


def cell_level_connecting(a, m, inter, q: int) -> IntMatrix:
    """Matrix of the connecting map, degree q to q-1, of a cover of m
    by a and another piece meeting in inter, between cell-level cycle
    bases: each basis cycle of m keeps its coefficients on a's cells,
    its boundary by the dense a.d(q) is read on inter's cells, and that
    is solved in inter's basis."""
    src, dst = cell_level_degree(m, q), cell_level_degree(inter, q - 1)
    columns = []
    for z in src.kernel.columns():
        boundary = a.d(q).apply([z[m.position(q, label)] for label in a.basis[q]])
        columns.append(dst.kernel_coords(cell_vector(
            inter, q - 1, {a.basis[q - 1][r]: value
                           for r, value in enumerate(boundary) if value})))
    return IntMatrix.from_columns(columns, rows=dst.kernel.cols)


def _top_rows(m: IntMatrix, k: int) -> IntMatrix:
    return IntMatrix._of([m.row(i) for i in range(k)], m.cols)


def unreduced_mv_assertions(wcc, cells_a, cells_b) -> list[tuple]:
    """(statement, left, right, passed) of each check_mv assertion on
    the cover of wcc by the closed cell sets cells_a and cells_b.  Each
    image lattice is [matrix | rels] and each kernel lattice the top
    rows of kernel_basis([matrix | target rels]) beside rels, where rels
    are the full relators of the homology presentations."""
    m = wcc.chain_complex()
    comp_a, comp_b = subcomplex(m, cells_a), subcomplex(m, cells_b)
    comp_i = subcomplex(m, cells_a & cells_b)
    h_i, h_a, h_b, h_m = map(homology, (comp_i, comp_a, comp_b, m))
    i_a = induced_map(inclusion_map(comp_a, comp_i), h_i, h_a)
    i_b = induced_map(inclusion_map(comp_b, comp_i), h_i, h_b)
    j_a = induced_map(inclusion_map(m, comp_a), h_a, h_m)
    j_b = induced_map(inclusion_map(m, comp_b), h_b, h_m)
    k = connecting_hom(comp_a, comp_b, m, h_inter=h_i, h_m=h_m)

    def image(hom, at):
        return at.rels if hom is None else hstack(hom.matrix, at.rels)

    def kernel(hom, at):
        if hom is None:
            return identity(at.gens)
        ker = kernel_basis(hstack(hom.matrix, hom.target.rels))
        return hstack(_top_rows(ker, at.gens), at.rels)

    def text(lattice):
        return "{0}" if lattice.rows == 0 else str(lattice.to_rows())

    out = []
    for q in range(m.top_dim + 1):
        pres_i, pres_m = h_i.degree(q).presentation, h_m.degree(q).presentation
        pa, pb = h_a.degree(q).presentation, h_b.degree(q).presentation
        pres_sum = AbPresentation(pa.gens + pb.gens, block_diag(pa.rels, pb.rels))
        i_comb = GroupHom(pres_i, pres_sum, vstack(i_a[q].matrix, -i_b[q].matrix))
        j_comb = GroupHom(pres_sum, pres_m, hstack(j_a[q].matrix, j_b[q].matrix))
        k_next = k[q + 1] if q < m.top_dim else None
        for where, into, out_of, at in (
                (f"H_{q}(intersection)", k_next, i_comb, pres_i),
                (f"H_{q}(A)+H_{q}(B)", i_comb, j_comb, pres_sum),
                (f"H_{q}(whole)", j_comb, k[q], pres_m)):
            im = lattice_hnf(image(into, at))
            ker = lattice_hnf(kernel(out_of, at))
            out.append((f"exactness at {where}", f"image {text(im)}",
                        f"kernel {text(ker)}", im == ker))
    return out
