"""Exact integer linear algebra: normal forms, lattices, groups."""

import random
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_factors
from sympy.matrices.normalforms import smith_normal_form

import oracles
from orbihom import chains, intlin
from orbihom.chains import homology
from orbihom.intlin import (
    AbPresentation,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    cokernel_group,
    invariant_factors,
    lattice_hnf,
    smith_diagonal,
)
from orbihom.orbmodel import Ball3, Ball3Cyclic, ProductTorus, Surface, t_model

from oracles import (
    block_diag,
    boundary_matrix,
    column,
    cyclic,
    dense,
    dense_echelon,
    dense_map,
    det,
    diagonal,
    echelon,
    from_columns,
    hermite,
    hnf,
    hstack,
    identity,
    is_well_defined,
    is_zero,
    kernel_of,
    kernel_rows,
    lattice_of,
    presented_group,
    rational_rank,
    ref_kernel_basis,
    ref_lattice_hnf,
    ref_smith_diagonal,
    smith,
    smith_of,
    snf,
    solve_linear,
    sparse_columns,
    sparse_echelon,
    subgroup_contains,
    to_rows,
    transpose,
    two_pass_kernel_basis,
    two_step_lattices,
    unimodular_inverse,
    vstack,
    zeros,
)


def random_matrix(rng, max_dim=5, max_entry=9):
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return IntMatrix(
        [[rng.randint(-max_entry, max_entry) for _ in range(cols)]
         for _ in range(rows)],
        cols=cols,
    )


def random_unimodular(rng, n):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 2):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        factor = rng.randint(-3, 3)
        rows[i] = [a + factor * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix(rows, cols=n)


# ---------------------------------------------------------------- matrices


def test_matrix_basics():
    m = IntMatrix([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[0, 1] == 2
    assert m.row(1) == (3, 4)
    assert column(m, 0) == (1, 3)
    assert transpose(m) == IntMatrix([[1, 3], [2, 4]])
    assert m.apply((1, 1)) == (3, 7)
    assert (m @ identity(2)) == m
    assert (-m)[1, 1] == -4
    assert is_zero(zeros(2, 3))
    assert diagonal([2, 3]) == IntMatrix([[2, 0], [0, 3]])
    assert from_columns([(1, 2), (3, 4)], rows=2) == \
        IntMatrix([[1, 3], [2, 4]])


def test_matrix_zero_dimensional_shapes():
    empty = IntMatrix([], cols=3)
    assert (empty.rows, empty.cols) == (0, 3)
    tall = IntMatrix([[], []], cols=0)
    assert (tall.rows, tall.cols) == (2, 0)
    assert (empty @ zeros(3, 2)) == IntMatrix([], cols=2)
    assert hstack(tall, zeros(2, 1)).cols == 1
    assert vstack(empty, empty).rows == 0
    assert block_diag(empty, tall) == zeros(2, 3)


def test_matrix_immutable():
    m = IntMatrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 5


def test_matrix_entries_must_be_integers():
    with pytest.raises(TypeError):
        IntMatrix([[2.7, "3"]])
    with pytest.raises(TypeError):
        IntMatrix([[1, 2.0]])
    with pytest.raises(TypeError):
        IntMatrix([["3"]])
    with pytest.raises(TypeError):
        from_columns([[1.5]], rows=1)
    with pytest.raises(TypeError):
        from_columns([[1], ["2"]], rows=1)
    assert IntMatrix([[True, -2]]) == IntMatrix([[1, -2]])


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1]]) @ IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]).apply((1, 2, 3))


# ---------------------------------------------------------------- hnf


def test_hnf_small_frozen():
    h, u = hnf(IntMatrix([[2, 4], [6, 8]]))
    assert h == IntMatrix([[2, 0], [0, 4]])
    assert u @ IntMatrix([[2, 4], [6, 8]]) == h
    assert det(u) in (1, -1)


def test_hnf_shape_and_reduction():
    rng = random.Random(20240)
    for _ in range(120):
        a = random_matrix(rng)
        h, u = hnf(a)
        assert u @ a == h
        assert det(u) in (1, -1)
        # echelon shape with positive, fully reduced pivots
        last_pivot = -1
        seen_zero_row = False
        for i in range(h.rows):
            row = h.row(i)
            nz = [j for j, v in enumerate(row) if v]
            if not nz:
                seen_zero_row = True
                continue
            assert not seen_zero_row, "zero row above a nonzero row"
            j = nz[0]
            assert j > last_pivot
            last_pivot = j
            assert h[i, j] > 0
            for i2 in range(i):
                assert 0 <= h[i2, j] < h[i, j]
        # canonical: already-reduced input is a fixed point
        h2, _ = hnf(h)
        assert h2 == h


# ---------------------------------------------------------------- snf


def test_snf_frozen_values():
    cases = [
        ([[2, 4], [6, 8]], [2, 4]),
        ([[2, 0, 0, 1], [0, 3, 0, 1], [0, 0, 3, 1]], [1, 1, 3]),
        ([[2, 0, 0, 1], [0, 3, 0, 1], [0, 0, 5, 1]], [1, 1, 1]),
        ([[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 6, 1]], [1, 2, 2]),
        ([[6, 10, 15], [10, 15, 6]], [1, 1]),
        ([[4, 6], [0, 0], [2, 2]], [2, 2]),
        ([[2, 7, 17], [3, 11, 19], [5, 13, 23], [0, 0, 4]], [1, 1, 2]),
    ]
    for entries, expect in cases:
        a = IntMatrix(entries)
        s, u, v = snf(a)
        diag = [s[i, i] for i in range(min(s.rows, s.cols)) if s[i, i]]
        assert diag == expect, entries
        assert u @ a @ v == s


def test_snf_properties_random():
    rng = random.Random(77)
    for _ in range(250):
        a = random_matrix(rng)
        s, u, v = snf(a)
        assert u @ a @ v == s
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        diag = []
        for i in range(s.rows):
            for j in range(s.cols):
                if i != j:
                    assert s[i, j] == 0
            if i < s.cols:
                diag.append(s[i, i])
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert len(nonzero) == rational_rank(a)
        assert smith_of(a) == [s[i, i] for i in range(min(s.rows, s.cols))]


def transform_cases(rng, count=300):
    """Seeded matrices, with every degenerate shape and entry kind:
    0 x n, n x 0, all zero, no unit entry, sparse with units."""
    fixed = [IntMatrix([], cols=3), IntMatrix([[], []], cols=0),
             IntMatrix([], cols=0), zeros(3, 4),
             IntMatrix([[2, 4], [6, 8]]), IntMatrix([[0, 6], [4, 0], [0, 0]])]
    kinds = [range(-9, 10), [0] * 6 + [1, -1, 2, -2],
             [0, 0, 2, -2, 3, 4, 6, -9], [0]]
    out = list(fixed)
    while len(out) < count:
        values = kinds[len(out) % len(kinds)]
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        out.append(IntMatrix([[rng.choice(values) for _ in range(cols)]
                              for _ in range(rows)], cols=cols))
    return out


def test_transform_skipping_eliminations_match_full_forms():
    """The package's transform-free Smith diagonal, kernel basis and
    lattice form equal those read off the oracle's transform-carrying
    forms, and the oracle's S and H are the same whichever transforms
    it carries."""
    for a in transform_cases(random.Random(606)):
        s, u, v = snf(a)
        for left in (False, True):
            for right in (False, True):
                s_rows, u_rows, v_rows = smith(a, left, right)
                assert s_rows == to_rows(s)
                assert u_rows == (to_rows(u) if left else None)
                assert v_rows == (to_rows(v) if right else None)
        h, w = hnf(a)
        assert hermite(a, left=True) == (to_rows(h), to_rows(w))
        assert hermite(a, left=False) == (to_rows(h), None)
        k = min(a.rows, a.cols)
        assert smith_of(a) == [s[i, i] for i in range(k)]
        free = [j for j in range(a.cols) if j >= k or s[j, j] == 0]
        kernel = kernel_of(a)
        assert kernel == transpose(lattice_of(from_columns(
            [column(v, j) for j in free], rows=a.cols)))
        assert is_zero(a @ kernel)
        ht, _ = hnf(transpose(a))
        assert lattice_of(a) == IntMatrix(
            [r for r in to_rows(ht) if any(r)], cols=a.rows)


def test_no_transform_where_none_is_read(monkeypatch):
    rng = random.Random(607)
    cases = transform_cases(rng, 60)
    complexes = [t_model(ProductTorus(Surface(2, 1, (2, 3)), 2)).chain_complex(),
                 t_model(ProductTorus(Ball3((2, 3, 5)), 1)).chain_complex()]
    expect = ([smith_of(a) for a in cases], [lattice_of(a) for a in cases],
              [homology(c).groups() for c in complexes])

    def refuse(_):
        raise AssertionError("a transform was seeded")

    # The package seeds no transform: only the oracle's forms can.
    assert not hasattr(intlin, "_eye")
    monkeypatch.setattr(oracles, "_eye", refuse)
    assert ([smith_of(a) for a in cases], [lattice_of(a) for a in cases],
            [homology(c).groups() for c in complexes]) == expect
    with pytest.raises(AssertionError):
        snf(IntMatrix([[2]]))
    with pytest.raises(AssertionError):
        hnf(IntMatrix([[2]]))


ENTRY_POOLS = (range(-9, 10), (0, 2, 3, 4, 6, 9), (0, 1, -1, 2, 5))


@st.composite
def pooled_matrices(draw):
    """Matrices up to 8 x 8 (empty shapes included), entries from one
    pool: all small values, no unit entry, or sparse with units."""
    pool = draw(st.sampled_from(ENTRY_POOLS))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entries = draw(st.lists(st.lists(st.sampled_from(pool), min_size=cols,
                                     max_size=cols),
                            min_size=rows, max_size=rows))
    return IntMatrix(entries, cols=cols)


def sympy_matrix(a):
    return Matrix(a.rows, a.cols, [a[i, j] for i in range(a.rows)
                                   for j in range(a.cols)])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(pooled_matrices())
def test_snf_property_against_sympy(a):
    s, u, v = snf(a)
    assert u @ a @ v == s
    assert det(u) in (1, -1) and det(v) in (1, -1)
    k = min(a.rows, a.cols)
    assert all(s[i, j] == 0 for i in range(s.rows) for j in range(s.cols)
               if i != j)
    diag = [s[i, i] for i in range(k)]
    rank = len([x for x in diag if x])
    assert all(x > 0 for x in diag[:rank]) and not any(diag[rank:])
    assert all(y % x == 0 for x, y in zip(diag[:rank], diag[1:rank]))
    reference = smith_normal_form(sympy_matrix(a), domain=ZZ)
    assert smith_of(a) == diag
    assert smith_of(a) == [abs(int(reference[i, i])) for i in range(k)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(pooled_matrices())
def test_echelon_matches_the_rescanning_reference(a):
    """Scanning each pivot column once does the same row operations in
    the same order: Hermite and Smith forms and both transforms agree
    row for row with the reference that rescans every row each pass,
    and so do the transform-free forms of the package's sparse
    elimination."""

    def forms():
        return (hermite(a, left=True), smith(a, left=True, right=True),
                ref_smith_diagonal(a), ref_lattice_hnf(a), ref_kernel_basis(a))

    got = forms()
    scanned = oracles.dense_echelon
    oracles.dense_echelon = echelon
    try:
        want = forms()
    finally:
        oracles.dense_echelon = scanned
    assert got == want
    assert (smith_of(a), lattice_of(a), kernel_of(a)) == want[2:]


@st.composite
def shuffled_monomial_maps(draw):
    """Maps up to 6 x 6 with at most one entry, from +-1 to +-9, in
    each row and column, some rows and columns left zero; then maybe
    one more column, coupled: two entries, or one in a row already
    hit; then shuffled.  Returns the map and whether it is monomial."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    nonzero = st.integers(1, 9).flatmap(lambda x: st.sampled_from((x, -x)))
    entries = [[0] * cols for _ in range(rows)]
    k = draw(st.integers(0, min(rows, cols)))
    for i in range(k):
        entries[i][i] = draw(nonzero)
    coupled = []
    if rows > 1 and draw(st.booleans()):
        coupled = draw(st.lists(st.integers(0, rows - 1), min_size=2,
                                max_size=2, unique=True))
    elif k and draw(st.booleans()):
        coupled = [draw(st.integers(0, k - 1))]
    if coupled:
        for i, row in enumerate(entries):
            row.append(draw(nonzero) if i in coupled else 0)
        cols += 1
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(cols)))
    return IntMatrix([[entries[i][j] for j in col_order] for i in row_order],
                     cols=cols), not coupled


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(shuffled_monomial_maps())
@example((IntMatrix([[0, 2], [0, 2]], cols=2), False))
def test_monomial_maps_take_their_entries_as_the_diagonal(case):
    """A monomial map's Smith diagonal is its entries' absolute values
    in a divisor chain, read with no row echelon.  A map with a row hit
    twice, or a column of two entries beside empty or single-entry
    columns, is eliminated: [(), ((0, 2), (1, 2))] has as many rows hit
    as entries and columns, but is not monomial."""
    a, monomial = case
    echelon, calls = intlin._echelon, []
    intlin._echelon = lambda rows: calls.append(rows) or echelon(rows)
    try:
        got = smith_of(a)
    finally:
        intlin._echelon = echelon
    assert got == ref_smith_diagonal(a)
    assert not calls if monomial else calls


EDGE_MATRICES = (
    IntMatrix([], cols=0), IntMatrix([], cols=4),
    IntMatrix([[], [], []], cols=0), zeros(3, 5), zeros(1, 1),
    # Leading entries that do not divide each other take a gcd step.
    IntMatrix([[4, 1, 0], [6, 0, 1]]),
    IntMatrix([[6, 1, 0, 0], [10, 0, 1, 0], [15, 0, 0, 1]]),
    IntMatrix([[0, 6, 10], [0, 10, 15], [0, 15, 6]]),
    # Negative leading entries.
    IntMatrix([[-4, 2, 1], [-6, -3, 0], [0, -5, 7]]),
    IntMatrix([[-1, 0], [0, -3]]),
    # Zero rows, repeated rows, and rows that reduce to zero.
    IntMatrix([[0, 0, 0], [2, 4, 6], [2, 4, 6], [0, 0, 0], [1, 2, 3],
               [-3, -6, -9]]),
    IntMatrix([[4, 6], [6, 9], [2, 3], [0, 0]]),
)


@st.composite
def lattice_rows(draw):
    """The rows [matrix^T | I], [target rels^T | 0] and [0 | source
    rels^T] of a map of presentations, as GroupHom.lattices lays them
    out."""
    hom = draw(presented_maps())
    s = hom.source.gens
    rels = block_diag(transpose(dense(hom.target.rels, hom.target.gens)),
                      transpose(dense(hom.source.rels, s)))
    return vstack(hstack(transpose(dense_map(hom)), identity(s)), rels)


@st.composite
def dense_square_matrices(draw):
    """12 x 12 matrices with entries from range(-9, 10)."""
    entries = st.lists(st.integers(-9, 9), min_size=12, max_size=12)
    return IntMatrix(draw(st.lists(entries, min_size=12, max_size=12)))


ECHELON_INPUTS = st.one_of(st.sampled_from(EDGE_MATRICES), pooled_matrices(),
                           lattice_rows(), dense_square_matrices())


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(ECHELON_INPUTS)
def test_sparse_echelon_matches_the_dense_reference(a):
    """On 0 x n, n x 0, all-zero, unit-free and sparse matrices, on
    leading entries that do not divide each other or are negative, on
    zero, repeated and dependent rows, on the identity-augmented rows of
    a map's lattices and on dense 12 x 12 matrices, the sparse
    elimination gives the dense reference's form: its rows, read back
    densely, are the reference's nonzero rows over the full width; and
    so the package's Smith diagonal, lattice form and kernel basis are
    the dense reference's."""
    want = to_rows(a)
    dense_echelon(want, a.cols)
    assert sparse_echelon(to_rows(a)) == [row for row in want if any(row)]
    assert smith_of(a) == ref_smith_diagonal(a)
    assert lattice_of(a) == ref_lattice_hnf(a)
    assert kernel_of(a) == ref_kernel_basis(a)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(ECHELON_INPUTS, st.data())
def test_echelon_reads_only_the_row_lattice(a, data):
    """The form depends on the lattice the rows span, not on the rows:
    permuting them, or adding to one a multiple of another, leaves it
    unchanged."""
    rows = to_rows(a)
    want = sparse_echelon(rows)
    assert sparse_echelon(data.draw(st.permutations(rows))) == want
    if len(rows) >= 2:
        i, j = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                                  max_size=2, unique=True))
        k = data.draw(st.integers(-5, 5))
        moved = [list(row) for row in rows]
        moved[i] = [x + k * y for x, y in zip(moved[i], moved[j])]
        assert sparse_echelon(moved) == want


@st.composite
def small_matrices(draw):
    """Matrices up to 6 x 8 (empty shapes included), entries in -6..6."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    entries = draw(st.lists(st.lists(st.integers(-6, 6), min_size=cols,
                                     max_size=cols),
                            min_size=rows, max_size=rows))
    return IntMatrix(entries, cols=cols)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_matrices())
def test_kernel_rows_span_the_canonical_kernel(a):
    rows = kernel_rows(a)
    assert all(not any(a.apply(row)) for row in rows)
    assert len(rows) == a.cols - rational_rank(a)
    span = transpose(IntMatrix._of(rows, a.cols))
    assert transpose(lattice_of(span)) == kernel_of(a)


@st.composite
def presented_maps(draw):
    """Maps of presentations up to 5 generators and 4 relators each,
    well defined or not, entries from one pool of ENTRY_POOLS."""
    pool = st.sampled_from(draw(st.sampled_from(ENTRY_POOLS)))

    def matrix(rows, cols):
        return IntMatrix(draw(st.lists(st.lists(pool, min_size=cols, max_size=cols),
                                       min_size=rows, max_size=rows)), cols=cols)

    s, t = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    source = AbPresentation(s, sparse_columns(matrix(s, draw(st.integers(0, 4)))))
    target = AbPresentation(t, sparse_columns(matrix(t, draw(st.integers(0, 4)))))
    return GroupHom(source, target, sparse_columns(matrix(t, s)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(presented_maps())
def test_one_elimination_matches_the_two_step_lattices(hom):
    """The image and kernel lattices of one elimination equal those of
    a kernel in any basis followed by a Hermite pass, and the one-pass
    cycle basis equals the two-pass one, for the map and for
    [matrix | target rels]."""
    assert hom.lattices == two_step_lattices(hom)
    assert hom.lattices is hom.lattices
    stacked = hstack(dense_map(hom), dense(hom.target.rels, hom.target.gens))
    for a in (dense_map(hom), stacked):
        assert kernel_of(a) == two_pass_kernel_basis(a)


def test_ballic_products_match_sympy_factors_of_each_boundary(monkeypatch):
    """Z groups of two ballic products against sympy's invariant factors
    of every dense boundary; some residuals left after unit-pivot
    elimination are not diagonal, so the Smith alternation is exercised."""
    residuals = []
    diagonal = chains.smith_diagonal
    monkeypatch.setattr(chains, "smith_diagonal", lambda columns, rows:
                        residuals.append(columns) or diagonal(columns, rows))
    for d in (Ball3((2, 3, 5)), Ball3Cyclic(4)):
        c = t_model(ProductTorus(d, 3)).chain_complex()
        factors = [()] + [
            [abs(int(x)) for x in sympy_factors(sympy_matrix(boundary_matrix(c, q)),
                                                 domain=ZZ) if x]
            for q in range(1, c.top_dim + 1)] + [()]
        expect = tuple(FgAbGroup(
            c.dim(q) - len(factors[q]) - len(factors[q + 1]),
            tuple(x for x in factors[q + 1] if x > 1))
            for q in range(c.top_dim + 1))
        assert homology(c).groups() == expect
    assert any(len(col) > 1 for columns in residuals for col in columns)


# ---------------------------------------------------------------- det, rank


def test_det_frozen():
    assert det(identity(3)) == 1
    assert det(IntMatrix([[2, 4], [6, 8]])) == -8
    assert det(IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0
    assert det(IntMatrix([], cols=0)) == 1
    with pytest.raises(ValueError):
        det(IntMatrix([[1, 2]]))


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-5, 5) for _ in range(n)]
                       for _ in range(n)], cols=n)
        b = IntMatrix([[rng.randint(-5, 5) for _ in range(n)]
                       for _ in range(n)], cols=n)
        assert det(a @ b) == det(a) * det(b)


def test_rational_rank_frozen():
    assert rational_rank(IntMatrix([[1, 2], [2, 4]])) == 1
    assert rational_rank(IntMatrix([[1, 2], [2, 5]])) == 2
    assert rational_rank(zeros(3, 2)) == 0
    assert rational_rank(IntMatrix([], cols=4)) == 0


# ---------------------------------------------------------------- solve


def test_solve_linear_frozen():
    assert solve_linear(IntMatrix([[2, 3]]), (1,)) == (-1, 1)
    assert solve_linear(IntMatrix([[2]]), (1,)) is None
    assert solve_linear(IntMatrix([[2, 0], [0, 3]]), (4, 9)) == (2, 3)
    assert solve_linear(zeros(2, 3), (0, 0)) == (0, 0, 0)
    assert solve_linear(zeros(2, 3), (1, 0)) is None


def test_solve_linear_random():
    rng = random.Random(31)
    for _ in range(150):
        a = random_matrix(rng)
        x = tuple(rng.randint(-4, 4) for _ in range(a.cols))
        b = a.apply(x)
        sol = solve_linear(a, b)
        assert sol is not None
        assert a.apply(sol) == b


def test_solve_linear_unsolvable():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = diagonal([2] * n)
        b = tuple(2 * rng.randint(-3, 3) + 1 for _ in range(n))
        assert solve_linear(a, b) is None


# ---------------------------------------------------------------- lattices


def test_kernel_basis_frozen():
    k = kernel_of(IntMatrix([[2, -1]]))
    assert k.cols == 1
    col = column(k, 0)
    assert col in ((1, 2), (-1, -2))
    assert kernel_of(identity(3)).cols == 0
    assert kernel_of(zeros(2, 3)).cols == 3


def test_kernel_basis_random():
    rng = random.Random(13)
    for _ in range(120):
        a = random_matrix(rng)
        k = kernel_of(a)
        assert k.rows == a.cols
        assert k.cols == a.cols - rational_rank(a)
        if k.cols:
            assert is_zero(a @ k)
        # the kernel lattice is saturated: a random kernel vector over
        # the rationals scaled to integers must already be reachable
        if k.cols:
            coeffs = [rng.randint(-3, 3) for _ in range(k.cols)]
            vec = k.apply(coeffs)
            assert solve_linear(k, vec) is not None


def test_lattice_hnf_invariance():
    rng = random.Random(8)
    for _ in range(80):
        a = random_matrix(rng, max_dim=4)
        if a.cols < 2:
            continue
        u = random_unimodular(rng, a.cols)
        assert lattice_of(a) == lattice_of(a @ u)


def test_lattice_hnf_takes_a_hermite_input_as_it_stands():
    """Columns already in the canonical form come back as the same rows;
    columns that only look like it (a zero column, a negative pivot, an
    entry above a pivot out of range) come back in canonical form."""
    rng = random.Random(12)
    forms = [(lattice_hnf(sparse_columns(a), a.rows), a.rows)
             for a in (random_matrix(rng, max_dim=4) for _ in range(80))]
    near = [transpose(IntMatrix(rows)) for rows in (
        [[1, 0], [0, 0]], [[-2]], [[2, 5], [0, 3]], [[2, -1], [0, 3]])]
    for h, n in forms:
        assert lattice_hnf(h, n) == h
    assert [lattice_of(a) for a in near] == [
        IntMatrix([[1, 0]]), IntMatrix([[2]]),
        IntMatrix([[2, 2], [0, 3]]), IntMatrix([[2, 2], [0, 3]])]


def test_subgroup_contains():
    eye = identity(2)
    two = diagonal([2, 2])
    assert subgroup_contains(eye, two)
    assert not subgroup_contains(two, eye)
    rng = random.Random(21)
    for _ in range(60):
        a = random_matrix(rng, max_dim=4)
        if a.cols == 0:
            continue
        t = IntMatrix([[rng.randint(-3, 3) for _ in range(3)]
                       for _ in range(a.cols)], cols=3)
        assert subgroup_contains(a, a @ t)


def test_mutual_containment_iff_same_canonical_form():
    rng = random.Random(4)
    for _ in range(60):
        a = random_matrix(rng, max_dim=4)
        b = random_matrix(rng, max_dim=4)
        if a.rows != b.rows:
            continue
        same = subgroup_contains(a, b) and subgroup_contains(b, a)
        assert same == (lattice_of(a) == lattice_of(b))


def test_unimodular_inverse():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 5)
        u = random_unimodular(rng, n)
        w = unimodular_inverse(u)
        assert w @ u == identity(n)
        assert u @ w == identity(n)
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix([[2]]))


# ---------------------------------------------------------------- groups


def test_fgabgroup_rendering():
    assert str(FgAbGroup.trivial()) == "0"
    assert str(FgAbGroup.free(1)) == "Z"
    assert str(FgAbGroup.free(2)) == "Z^2"
    assert str(FgAbGroup(1, (3,))) == "Z + Z/3"
    assert str(FgAbGroup(0, (2, 4))) == "Z/2 + Z/4"


def test_fgabgroup_validation():
    assert cyclic(1) == FgAbGroup.trivial()
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(-1)


def test_fgabgroup_direct_sum_canonicalizes():
    a = cyclic(2)
    b = cyclic(3)
    assert a.direct_sum(b) == cyclic(6)
    s = FgAbGroup(1, (2,)).direct_sum(FgAbGroup(0, (4,)))
    assert s == FgAbGroup(1, (2, 4))
    assert cyclic(4).direct_sum(cyclic(6)) == \
        FgAbGroup(0, (2, 12))


def test_fgabgroup_tensor():
    z = FgAbGroup.free(1)
    assert cyclic(4).tensor(cyclic(6)) == \
        cyclic(2)
    assert FgAbGroup.free(2).tensor(cyclic(3)) == \
        FgAbGroup(0, (3, 3))
    assert z.tensor(z) == z
    assert FgAbGroup.trivial().tensor(FgAbGroup.free(5)) == \
        FgAbGroup.trivial()
    # (Z + Z/2) x (Z + Z/3) = Z + Z/3 + Z/2 + Z/gcd(2,3) = Z + Z/6
    assert FgAbGroup(1, (2,)).tensor(FgAbGroup(1, (3,))) == FgAbGroup(1, (6,))


def test_invariant_factors():
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([1, 1, 5]) == (5,)
    assert invariant_factors([]) == ()
    with pytest.raises(ValueError):
        invariant_factors([0])


def test_invariant_factors_match_sympy():
    rng = random.Random(808)
    orders = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 27, 30, 210)
    for _ in range(200):
        values = [rng.choice(orders) for _ in range(rng.randint(0, 9))]
        expect = [abs(int(x)) for x in sympy_factors(
            Matrix.diag(*values), domain=ZZ)] if values else []
        assert invariant_factors(values) == tuple(x for x in expect if x > 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.sampled_from((1, 1, 2, 3, 4, 6, 8, 9, 12, 30, 210, 2 ** 31 - 1,
                                 2 * (2 ** 31 - 1), 2 ** 61 - 1)), max_size=40))
@example([])
@example([1, 1, 1])
@example([2 ** 61 - 1] * 3 + [2 ** 31 - 1, 1])
def test_invariant_factors_match_the_chain_walk(values):
    """The bisection skips only the entries the walk leaves alone: on
    empty input, 1s, repeated values and large primes the chains agree."""
    assert invariant_factors(values) == oracles.walk_invariant_factors(values)


def test_invariant_factors_take_few_gcds(monkeypatch):
    """Each gcd folds an order into the first chain entry it does not
    divide, and the entries it divides are bisected past: on 32,000
    orders, at most 2 gcd calls per order, where the walk makes one per
    chain entry (quadratic in the orders)."""
    calls = []
    monkeypatch.setattr(intlin, "gcd", lambda *args: calls.append(1) or gcd(*args))
    rng = random.Random(36)
    for orders in ([2] * 32000, [2, 3, 4, 6, 5, 10] * 5333 + [2, 3],
                   [rng.choice((2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 30, 210))
                    for _ in range(32000)]):
        calls.clear()
        chain = invariant_factors(orders)
        assert len(calls) <= 2 * len(orders), len(calls)
        assert all(big % small == 0 for big, small in zip(chain[1:], chain))


def test_divisor_chains_take_no_smith_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Smith form was taken")

    monkeypatch.setattr(intlin, "smith_diagonal", refuse)
    monkeypatch.setattr(intlin, "_echelon", refuse)
    assert invariant_factors([4, 6, 10]) == (2, 2, 60)
    assert FgAbGroup(1, (2,)).direct_sum(FgAbGroup(0, (3, 9))) == \
        FgAbGroup(1, (3, 18))
    assert FgAbGroup(1, (4,)).tensor(FgAbGroup(2, (6,))) == \
        FgAbGroup(2, (2, 2, 4, 12))


def test_groups_take_integers_only():
    """Ranks, torsion entries and cyclic orders go through
    operator.index: a float or a string is refused, never truncated."""
    for build in (lambda: FgAbGroup(1.5, (2,)), lambda: FgAbGroup(1, (2.9,)),
                  lambda: FgAbGroup(0, ("2",)), lambda: FgAbGroup.free(2.0),
                  lambda: cyclic(2.0),
                  lambda: invariant_factors([2.7, 3])):
        with pytest.raises(TypeError):
            build()


def test_cokernel_group():
    def cokernel_group_of(a):
        return cokernel_group(sparse_columns(a), a.rows)

    assert cokernel_group_of(diagonal([2, 3])) == cyclic(6)
    assert cokernel_group_of(IntMatrix([[2, 4], [6, 8]])) == \
        FgAbGroup(0, (2, 4))
    assert cokernel_group_of(zeros(2, 0)) == FgAbGroup.free(2)
    assert cokernel_group_of(IntMatrix([[2, 0, 0, 1],
                                     [0, 3, 0, 1],
                                     [0, 0, 3, 1]])) == cyclic(3)


def test_presentation_and_hom():
    free2 = AbPresentation.free(2)
    assert presented_group(free2) == FgAbGroup.free(2)
    p = AbPresentation(1, sparse_columns(IntMatrix([[2]])))
    q = AbPresentation(1, sparse_columns(IntMatrix([[4]])))
    doubling = GroupHom(p, q, sparse_columns(IntMatrix([[2]])))
    assert is_well_defined(doubling)
    bad = GroupHom(p, q, sparse_columns(IntMatrix([[1]])))
    assert not is_well_defined(bad)
    with pytest.raises(ValueError):
        GroupHom(p, q, sparse_columns(IntMatrix([[1, 2]])))


def test_presentations_and_maps_take_checked_sparse_columns():
    """AbPresentation and GroupHom take sparse columns, merged, sorted
    and with zeros dropped; a row out of range, a column count that
    does not match, a float or string entry or index, or a dense
    IntMatrix is refused."""
    p = AbPresentation(2, [[(1, 2), (0, 3), (1, -2)], iter([(1, True)])])
    assert p.rels == (((0, 3),), ((1, 1),))
    for rels in ([[(2, 1)]], [[(-1, 1)]], [[(0, 1)], [(5, 1)]]):
        with pytest.raises(ValueError, match="relator rows must match "
                                             "generator count"):
            AbPresentation(2, rels)
    f = GroupHom(p, AbPresentation.free(1), [[(0, 1), (0, -1)], [(0, 4)]])
    assert f.matrix == ((), ((0, 4),))
    for matrix in ([[(0, 1)]], [[(1, 1)], []], [[], [], []]):
        with pytest.raises(ValueError, match="matrix shape does not match "
                                             "presentations"):
            GroupHom(p, AbPresentation.free(1), matrix)
    for build in (lambda: AbPresentation(1, [[(0, 2.0)]]),
                  lambda: AbPresentation(1, [[(0.0, 2)]]),
                  lambda: AbPresentation(1, [[(0, "2")]]),
                  lambda: GroupHom(p, p, [[(0, 1.5)], []])):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(TypeError, match="sparse columns, not an IntMatrix"):
        AbPresentation(1, IntMatrix([[2]]))
    with pytest.raises(TypeError, match="sparse columns, not an IntMatrix"):
        GroupHom(p, p, identity(2))
