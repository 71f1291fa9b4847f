"""Chain complexes: homology, products, quotients, induced maps."""

import heapq
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from orbihom import chains, intlin, verify
from orbihom.chains import (
    ChainComplex,
    ChainMap,
    _connecting,
    _induced,
    connecting_hom,
    homology,
    inclusion_map,
    induced_map,
    relative,
    subcomplex,
    validate,
)
from orbihom.intlin import (
    FgAbGroup,
    IntMatrix,
    kernel_basis,
)
from orbihom.orbmodel import (
    Ball3,
    Ball3Cyclic,
    Disc2,
    ProductTorus,
    Surface,
    adapted_model,
    t_model,
    underlying_model,
    ws_complex,
)

from orbihom.verify import _torus_kunneth, check_mv, check_rational
from oracles import (
    boundary_factor_groups,
    boundary_matrix,
    cell_level_connecting,
    cell_level_degree,
    cell_level_induced,
    cell_vector,
    circle_complex,
    column,
    cyclic,
    dense,
    dense_commutes,
    dense_map,
    diagonal,
    echelon_solver,
    express,
    from_columns,
    generators,
    hnf_connecting_matrices,
    hstack,
    identity,
    is_zero,
    kernel_of,
    lattice_of,
    point_complex,
    presentation_groups,
    presented_group,
    project_by_walk,
    public_tensor,
    random_two_cover,
    rational_rank,
    reduced_complex,
    ref_kernel_basis,
    smith_of,
    snf,
    solve_linear,
    sparse_columns,
    subgroup_contains,
    tensor,
    to_rows,
    transpose,
    vector,
    zeros,
)
from test_acceptance import GRID_1_TO_3

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.trivial()


def groups_of(c, coeff="Z"):
    return homology(c, coeff=coeff).groups()


def half_disk():
    """A disk split along a chord: vertices p,q; arcs t,m,b from p to q;
    upper face U between t and m, lower face L between m and b."""
    return ChainComplex(
        basis=(("p", "q"), ("t", "m", "b"), ("U", "L")),
        boundaries=(
            sparse_columns(IntMatrix([[-1, -1, -1], [1, 1, 1]])),
            sparse_columns(IntMatrix([[1, 0], [-1, 1], [0, -1]])),
        ),
    )


# ---------------------------------------------------------------- basics


def test_point_and_circle():
    assert groups_of(point_complex()) == (Z,)
    assert groups_of(circle_complex()) == (Z, Z)


def test_half_disk_contractible():
    c = half_disk()
    assert validate(c) == []
    assert groups_of(c) == (Z, ZERO, ZERO)


def test_validate_reports_broken_boundary():
    """The constructor refuses d∘d != 0, naming every problem that
    validate finds on the same columns."""
    basis = (("v", "w"), ("e",), ("f",))
    boundaries = (sparse_columns(IntMatrix([[-1], [1]])),
                  sparse_columns(IntMatrix([[1]])))
    problems = validate(ChainComplex._of(basis, boundaries))
    assert problems == [
        "degree 2: boundary of boundary of f hits v with coefficient -1",
        "degree 2: boundary of boundary of f hits w with coefficient 1"]
    with pytest.raises(ValueError) as refused:
        ChainComplex(basis, boundaries)
    assert str(refused.value) == "invalid complex: " + "; ".join(problems)


def test_constructor_errors():
    with pytest.raises(ValueError):
        ChainComplex(basis=(), boundaries=())
    with pytest.raises(ValueError):
        ChainComplex(basis=(("v", "v"),), boundaries=())
    with pytest.raises(ValueError):
        ChainComplex(basis=(("v",), ("e",)), boundaries=([[(1, 1)]],))


def test_sparse_columns_match_the_matrix_form():
    c = half_disk()
    assert c.boundaries == (
        (((0, -1), (1, 1)),) * 3,
        (((0, 1), (1, -1)), ((1, 1), (2, -1))),
    )
    assert boundary_matrix(c, 1) == IntMatrix([[-1, -1, -1], [1, 1, 1]])
    assert boundary_matrix(c, 2) == IntMatrix([[1, 0], [-1, 1], [0, -1]])
    assert boundary_matrix(c, 0) == zeros(0, 2)
    assert boundary_matrix(c, 3) == zeros(2, 0)
    again = ChainComplex(c.basis, c.boundaries)
    assert again.boundaries == c.boundaries
    # columns are merged by row, sorted, and stripped of zeros
    messy = ChainComplex((("v", "w"), ("e",)),
                         [[((1, 2), (0, -1), (1, -1), (0, 0))]])
    assert messy.boundaries == ((((0, -1), (1, 1)),),)


def test_d_gives_back_the_matrix_built_from():
    rng = random.Random(7)
    for _ in range(200):
        dims = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
        mats = [IntMatrix([[rng.choice((0, 0, 0, 1, -1, 2))
                            for _ in range(dims[q])]
                           for _ in range(dims[q - 1])], cols=dims[q])
                for q in range(1, len(dims))]
        basis = [[f"c{q}_{i}" for i in range(n)] for q, n in enumerate(dims)]
        if not all(is_zero(mats[q - 2] @ mats[q - 1])
                   for q in range(2, len(mats) + 1)):
            with pytest.raises(ValueError, match="invalid complex: "):
                ChainComplex(basis, [sparse_columns(mat) for mat in mats])
            continue
        c = ChainComplex(basis, [sparse_columns(mat) for mat in mats])
        for q, mat in enumerate(mats, start=1):
            assert boundary_matrix(c, q) == mat
            assert boundary_matrix(ChainComplex(basis, c.boundaries), q) == mat


def test_sparse_constructor_rejects_bad_shapes():
    basis = (("v", "w"), ("e",))
    for columns in ([((2, 1),)],          # row past the last face
                    [((-1, 1),)],         # negative row
                    [(), ()],             # one column too many
                    []):                  # one column too few
        with pytest.raises(ValueError,
                           match="boundary shape mismatch at degree 1"):
            ChainComplex(basis, [columns])
    # a dense matrix is refused, even of the right shape
    with pytest.raises(TypeError, match="sparse columns, not an IntMatrix"):
        ChainComplex(basis, [zeros(2, 1)])


def test_labels_are_unique_across_degrees():
    """A label used twice is refused, in two degrees or in one, so the
    label sets that subcomplex, relative and inclusion_map read each
    name one set of cells."""
    with pytest.raises(ValueError, match="label 'x' is used twice: "
                                         "in degree 0 and in degree 1"):
        ChainComplex([["x", "y"], ["x"]], [[[(0, -1), (1, 1)]]])
    with pytest.raises(ValueError, match="label 'v' is used twice: "
                                         "in degree 0 and in degree 0"):
        ChainComplex([["v", "v"]], [])
    c = ChainComplex([["x", "y"], ["e"]], [[[(0, -1), (1, 1)]]])
    assert subcomplex(c, {"x"}).basis == (("x",), ())
    assert inclusion_map(c, {"x"}).matrices == ((((0, 1),),), ())
    assert relative(c, {"x"}).basis == (("y",), ("e",))


def test_homology_bad_coeff():
    with pytest.raises(ValueError):
        homology(point_complex(), coeff="F2")


# ---------------------------------------------------------------- tensor


def test_torus_powers_by_tensor():
    circle = circle_complex()
    torus = tensor(circle, circle)
    assert groups_of(torus) == (Z, FgAbGroup.free(2), Z)
    cube = tensor(torus, circle_complex(vertex="w", edge="s"))
    assert groups_of(cube) == (Z, FgAbGroup.free(3), FgAbGroup.free(3), Z)


def test_tensor_with_point_is_identity():
    c = t_model(Disc2(3)).chain_complex()
    p = tensor(c, point_complex())
    assert groups_of(p) == groups_of(c)


def test_tensor_disc2_with_circle():
    c = t_model(Disc2(3)).chain_complex()
    prod = tensor(c, circle_complex())
    assert validate(prod) == []
    assert groups_of(prod) == (
        Z, FgAbGroup(1, (3,)), cyclic(3), ZERO,
    )


# ---------------------------------------------------------------- relative


def test_relative_disc2_rel_boundary():
    wcc = t_model(Disc2(3))
    rel = relative(wcc.chain_complex(), wcc.sub_cells("boundary"))
    h = homology(rel)
    assert h.groups() == (ZERO, ZERO, Z)
    # the degree-2 generator is (order. A-cell) + (weighted face), i.e.
    # 3*A + sighat in the quotient basis
    deg = h.degree(2)
    gen = generators(deg)[0]
    labels = [lab for lab in rel.basis[2]]
    coeffs = dict(zip(labels, gen))
    assert abs(coeffs["sighat"]) == 1
    assert coeffs["A"] == 3 * coeffs["sighat"]


def test_relative_requires_closed_sub():
    wcc = t_model(Disc2(2))
    with pytest.raises(ValueError):
        relative(wcc.chain_complex(), {"A"})
    with pytest.raises(ValueError):
        relative(wcc.chain_complex(), {"nope"})


def test_subcomplex_checks():
    c = half_disk()
    sub = subcomplex(c, {"p", "q", "t", "m", "U"})
    assert groups_of(sub) == (Z, ZERO, ZERO)
    with pytest.raises(ValueError):
        subcomplex(c, {"U", "t"})
    with pytest.raises(ValueError):
        subcomplex(c, {"ghost"})


# ------------------------------------------------------------- invariance


def _shuffled_copy(c, rng):
    perms = []
    for q in range(c.top_dim + 1):
        perm = list(range(c.dim(q)))
        rng.shuffle(perm)
        perms.append(perm)
    basis = tuple(
        tuple(c.basis[q][i] for i in perms[q])
        for q in range(c.top_dim + 1)
    )
    boundaries = []
    for q in range(1, c.top_dim + 1):
        mat = [[boundary_matrix(c, q)[perms[q - 1][i], perms[q][j]]
                for j in range(c.dim(q))]
               for i in range(c.dim(q - 1))]
        boundaries.append(sparse_columns(IntMatrix(mat, cols=c.dim(q))))
    return ChainComplex(basis, boundaries)


def test_homology_invariant_under_basis_permutation():
    rng = random.Random(42)
    models = [
        t_model(Disc2(4)).chain_complex(),
        t_model(Surface(1, 1, (2,))).chain_complex(),
        t_model(Ball3Cyclic(3)).chain_complex(),
    ]
    for c in models:
        expect = groups_of(c)
        for _ in range(5):
            assert groups_of(_shuffled_copy(c, rng)) == expect


def test_euler_characteristic_matches_ranks():
    models = [
        t_model(Disc2(2)),
        t_model(Surface(0, 0, (2, 3))),
        t_model(Surface(2, 1)),
        t_model(Ball3((2, 3, 4))),
        t_model(ProductTorus(Disc2(2), 1)),
    ]
    for wcc in models:
        c = wcc.chain_complex()
        chi_cells = sum((-1) ** q * c.dim(q) for q in range(c.top_dim + 1))
        h = homology(c)
        chi_ranks = sum((-1) ** q * h.group(q).rank
                        for q in range(c.top_dim + 1))
        assert chi_cells == chi_ranks


# ------------------------------------------------------------ cycle coords


def test_kernel_coords_rejects_non_cycles():
    c = t_model(Disc2(2)).chain_complex()
    h = homology(c)
    non_cycle = cell_vector(c, 1, {"r": 1})
    with pytest.raises(ValueError):
        h.degree(1).kernel_coords(non_cycle)


def test_kernel_coords_takes_integer_entries_only():
    """A float entry is refused, as intlin._columns refuses one, even
    where a failed division would have dropped it (1.5) or it would
    have come back as a float coordinate (1.0)."""
    deg = homology(ChainComplex([["v", "w"], ["e"]],
                                [[((0, 1), (1, -1))]])).degree(0)
    for bad in ([1.5, 0], [1.0, 0], [0, 2.0]):
        with pytest.raises(TypeError):
            deg.kernel_coords(bad)
    assert deg.kernel_coords([1, 0]) == (1,)
    assert deg.kernel_coords([True, 0]) == (1,)


def test_kernel_coords_round_trip_on_random_cycles():
    """Coordinates come back from the cycles they give (f g is the
    identity on D), and cycles built from the V columns of snf, an
    independent route to the kernel, come back from kernel_coords up to
    a boundary of C; non-cycles and wrong lengths are refused."""
    rng = random.Random(77)
    models = [t_model(d) for d in GRID_1_TO_3]
    models.append(t_model(ProductTorus(Ball3((2, 3, 5)), 2)))
    rejected = 0
    for wcc in models:
        c = wcc.chain_complex()
        h = homology(c)
        for q in range(c.top_dim + 1):
            deg = h.degree(q)
            dq, up = boundary_matrix(c, q), boundary_matrix(c, q + 1)
            s, _, v = snf(dq)
            free = [j for j in range(dq.cols)
                    if j >= min(dq.rows, dq.cols) or s[j, j] == 0]
            for _ in range(3):
                y = tuple(rng.randint(-3, 3) for _ in range(deg.kernel.cols))
                assert deg.kernel_coords(deg.kernel.apply(y)) == y
                z = [0] * c.dim(q)
                for j in free:
                    t = rng.randint(-3, 3)
                    z = [x + t * y for x, y in zip(z, column(v, j))]
                back = deg.kernel.apply(deg.kernel_coords(z))
                assert solve_linear(up, [x - y for x, y in zip(z, back)]) \
                    is not None
                cell = rng.randrange(c.dim(q))
                if any(column(dq, cell)):
                    z[cell] += 1
                    with pytest.raises(ValueError, match="not a cycle"):
                        deg.kernel_coords(z)
                    rejected += 1
            with pytest.raises(ValueError):
                deg.kernel_coords([0] * (c.dim(q) + 1))
    assert rejected > 50


def test_one_degree_builds_one_cycle_solver(monkeypatch):
    """kernel_coords and the relators of presentation share one
    back-substitution solver per degree, however often they are read."""
    built = []
    solver = chains._sparse_solver
    monkeypatch.setattr(chains, "_sparse_solver",
                        lambda rows: built.append(rows) or solver(rows))
    c = t_model(ProductTorus(Surface(1, 1, (2,)), 1)).chain_complex()
    deg = homology(c).degree(1)
    cycles = deg.kernel.columns()
    gens = generators(deg)
    for _ in range(3):
        for z in cycles:
            assert deg.kernel.apply(deg.kernel_coords(z)) == tuple(z)
        for i, g in enumerate(gens):
            assert express(deg, g) == tuple(int(i == j) for j in
                                            range(len(gens)))
    assert presented_group(deg.presentation) == deg.group
    assert len(built) == 1


def test_express_reduces_torsion():
    c = t_model(Disc2(3)).chain_complex()
    h = homology(c)
    deg = h.degree(1)
    gen = generators(deg)[0]
    one = express(deg, gen)
    tripled = express(deg, tuple(3 * x for x in gen))
    assert one != (0,)
    assert tripled == (0,)


def test_rational_degrees_have_no_cycle_data():
    c = t_model(Disc2(3)).chain_complex()
    deg = homology(c, coeff="Q").degree(1)
    assert generators(deg) == ()
    cycle = generators(homology(c).degree(1))[0]
    for read in (deg.kernel_coords, lambda z: express(deg, z)):
        with pytest.raises(ValueError, match="no integral cycle data"):
            read(cycle)


# ------------------------------------------------------ group routes agree

ENTRIES = (0, 0, 0, 0, 1, -1, 2, 3, -4, 6)


def _random_matrix(rng, rows, cols):
    return IntMatrix([[rng.choice(ENTRIES) for _ in range(cols)]
                      for _ in range(rows)], cols=cols)


def _random_complex(rng):
    """A one-step complex with random entries, or a two-step one whose
    upper boundary is random combinations of the lower one's cycles."""
    dims = [rng.randint(0, 6) for _ in range(rng.choice((2, 3)))]
    lower = _random_matrix(rng, dims[0], dims[1])
    boundaries = [lower]
    if len(dims) == 3:
        cycles = kernel_of(lower)
        boundaries.append(cycles @ _random_matrix(rng, cycles.cols, dims[2]))
    basis = [[f"c{q}_{i}" for i in range(n)] for q, n in enumerate(dims)]
    return ChainComplex(basis, [sparse_columns(mat) for mat in boundaries])


def test_elimination_groups_match_presentation_groups_on_random_complexes():
    rng = random.Random(2024)
    torsion_seen = 0
    for _ in range(300):
        h = homology(_random_complex(rng))
        assert h.groups() == presentation_groups(h)
        torsion_seen += any(g.torsion for g in h.groups())
    assert torsion_seen > 30


def test_elimination_matches_sympy_invariant_factors():
    rng = random.Random(7)
    for _ in range(150):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        a = _random_matrix(rng, rows, cols)
        factors = [abs(int(x)) for x in invariant_factors(
            Matrix(rows, cols, [a[i, j] for i in range(rows)
                                for j in range(cols)]), domain=ZZ)]
        nonzero = [x for x in factors if x]
        expect = FgAbGroup(rows - len(nonzero),
                           tuple(x for x in nonzero if x > 1))
        c = ChainComplex([[f"v{i}" for i in range(rows)],
                          [f"e{j}" for j in range(cols)]], [sparse_columns(a)])
        assert homology(c).group(0) == expect, a
        assert homology(c).group(1) == FgAbGroup.free(cols - len(nonzero))
        diagonal = smith_of(a)
        assert diagonal == factors + [0] * (len(diagonal) - len(factors)), a


def test_reduction_groups_match_the_boundary_reference():
    """On the reduction complexes and on ball3(2,3,5) x torus(1-3), whose
    residuals are coupled, the groups read off one reduction of the
    whole complex are those of each boundary eliminated on its own."""
    coupled = 0
    for c in _reduction_complexes() + [
            t_model(ProductTorus(Ball3((2, 3, 5)), k)).chain_complex()
            for k in (1, 2, 3)]:
        h = homology(c)
        assert h.groups() == boundary_factor_groups(c), c.basis
        coupled += any(len(col) > 1 for left in h._reduction.left
                       for col in left.values())
    assert coupled >= 3


@st.composite
def cone_spheres_or_random_complexes(draw):
    """A sphere with 2-60 cone points of orders 2-12, whose residual is
    one coupled block with no unit, or a seeded random complex."""
    if draw(st.booleans()):
        orders = draw(st.lists(st.integers(2, 12), min_size=2, max_size=60))
        return t_model(Surface(0, 0, tuple(orders))).chain_complex()
    return _random_complex(random.Random(draw(st.integers(0, 2 ** 32))))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(cone_spheres_or_random_complexes())
def test_reduction_groups_match_the_boundary_reference_on_drawn_complexes(c):
    assert homology(c).groups() == boundary_factor_groups(c)


@st.composite
def shuffled_block_diagonals(draw):
    """Block-diagonal matrices of up to four blocks up to 4 x 4, entries
    from (0, 2, 3, 4, 6, 9), with rows and columns shuffled."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                           min_size=1, max_size=4))
    rows, cols = sum(b[0] for b in blocks), sum(b[1] for b in blocks)
    entries = [[0] * cols for _ in range(rows)]
    top = left = 0
    for height, width in blocks:
        for i in range(top, top + height):
            for j in range(left, left + width):
                entries[i][j] = draw(st.sampled_from((0, 2, 3, 4, 6, 9)))
        top, left = top + height, left + width
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(cols)))
    return IntMatrix([[entries[i][j] for j in col_order] for i in row_order],
                     cols=cols)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(shuffled_block_diagonals())
def test_residual_components_match_the_smith_form(a):
    """No entry is a unit, so the whole matrix is residual: in the
    two-term complex with that boundary, its one Smith diagonal gives
    the rank and the factors of the full Smith form, read off H_0 and
    H_1."""
    s, _, _ = snf(a)
    diagonal = [s[i, i] for i in range(min(a.rows, a.cols)) if s[i, i]]
    c = ChainComplex([[f"r{i}" for i in range(a.rows)],
                      [f"c{j}" for j in range(a.cols)]], [sparse_columns(a)])
    h = homology(c)
    assert h.group(0) == FgAbGroup(a.rows - len(diagonal),
                                   tuple(x for x in diagonal if x > 1))
    assert h.group(1) == FgAbGroup.free(a.cols - len(diagonal))


def test_monomial_residuals_build_no_dense_block(monkeypatch):
    """The residuals of surface products have one entry per row and
    column, so smith_diagonal reads them as they stand and no row
    echelon runs."""
    base = groups_of(t_model(Surface(4, 3, (2, 3, 5, 7))).chain_complex())

    def refuse(*_):
        raise AssertionError("a residual was eliminated")

    monkeypatch.setattr(intlin, "_echelon", refuse)
    for k in range(2, 7):
        d = ProductTorus(Surface(4, 3, (2, 3, 5, 7)), k)
        assert groups_of(t_model(d).chain_complex()) == \
            _torus_kunneth(base, k), k


def test_rational_route_builds_no_dense_matrix(monkeypatch):
    """Over Q, homology() and check_rational rank each boundary by the
    sparse elimination alone: no IntMatrix is built, and neither the Z
    route's _Reduction nor a Smith diagonal runs.  check_rational
    takes the groups over Z too, so those two are refused only while a
    homology over Q runs, and they are seen to run outside it."""
    def refuse(*_):
        raise AssertionError("the Q route left the sparse elimination")

    over_q, z_calls = [False], []

    def gated(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: refuse() if over_q[0]
                            else z_calls.append(name) or fn(*args))

    def homology_over(c, coeff="Z"):
        over_q[0] = coeff == "Q"
        try:
            return homology(c, coeff)
        finally:
            over_q[0] = False

    monkeypatch.setattr(IntMatrix, "_of", refuse)
    monkeypatch.setattr(IntMatrix, "__init__", refuse)
    gated(chains, "_Reduction")
    gated(chains, "smith_diagonal")
    gated(intlin, "smith_diagonal")
    monkeypatch.setattr(verify, "homology", homology_over)
    descs = GRID_1_TO_3 + [ProductTorus(Ball3((2, 3, 5)), 1),
                           ProductTorus(Surface(1, 1, (2,)), 1)]
    for d in descs:
        assert check_rational(d).passed, d
    assert {"_Reduction", "smith_diagonal"} <= set(z_calls)
    c = t_model(ProductTorus(Surface(1, 1, (2,)), 1)).chain_complex()
    assert [g.rank for g in homology_over(c, "Q").groups()] == [1, 3, 2, 0]


def test_degree_representatives_are_kept():
    h = homology(t_model(Disc2(3)).chain_complex())
    assert h.degree(1) is h.degree(1)
    with pytest.raises(IndexError):
        h.degree(3)


def _nonzero_boundary_rows(c):
    """The row count of each nonzero boundary of c, sorted."""
    return sorted(c.dim(q - 1) for q, columns in enumerate(c.boundaries, start=1)
                  if any(columns))


def test_one_elimination_per_nonzero_boundary(monkeypatch):
    """Over Z, homology() runs _eliminate once per nonzero boundary, and
    its groups build neither the pairs, the unpaired cells nor any
    degree's lift.  Every degree's presentation, kernel and coordinates
    are then read off that one reduction: no elimination runs again.
    One check_mv eliminates each nonzero boundary of its four complexes
    once."""
    calls = []
    eliminate = chains._eliminate
    monkeypatch.setattr(chains, "_eliminate", lambda cols, rows, *args, **kw:
                        calls.append(rows) or eliminate(cols, rows, *args, **kw))
    for c in (t_model(ProductTorus(Surface(2, 1, (2, 3)), 2)).chain_complex(),
              t_model(Surface(0, 0, (2, 3, 4, 6, 5))).chain_complex(),
              half_disk()):
        calls.clear()
        h = homology(c)
        assert h.groups() == tuple(h.group(q) for q in range(c.top_dim + 1))
        assert sorted(calls) == _nonzero_boundary_rows(c)
        assert not {"pairs", "unpaired"} & vars(h._reduction).keys()
        assert h._degrees == {}
        for q in range(c.top_dim + 1):
            deg = h.degree(q)
            deg.presentation
            for z in deg.kernel.columns():
                deg._coords([(i, x) for i, x in enumerate(z) if x])
        assert sorted(calls) == _nonzero_boundary_rows(c)
        assert all("_lifts" in vars(h.degree(q)) for q in range(c.top_dim + 1))
    rng = random.Random(35)
    for wcc in (t_model(ProductTorus(Surface(1, 2, (3, 5)), 2)),
                t_model(Ball3((2, 3, 5)))):
        a, b = random_two_cover(wcc, rng)
        m = wcc.chain_complex()
        calls.clear()
        assert check_mv(wcc, a, b).passed
        assert sorted(calls) == sorted(
            rows for cells in (m.labels(), a, b, a & b)
            for rows in _nonzero_boundary_rows(subcomplex(m, cells)))


def _reduction_complexes():
    rng = random.Random(31)
    descs = list(GRID_1_TO_3) + [ProductTorus(d, k) for d in GRID_1_TO_3
                                 for k in (1, 2)]
    return ([t_model(d).chain_complex() for d in descs]
            + [_random_complex(rng) for _ in range(200)])


def test_reduction_is_a_chain_equivalence_onto_a_smaller_complex():
    """D, built as its own complex by the reference reduced_complex,
    satisfies d∘d = 0, the projection f and the lift g are chain maps,
    f g is the identity of D, and D keeps the groups.  The reduction
    reads the same D in place: its unpaired cells are D's, in C order,
    its columns are D's on C's rows, and its projection is f on C's
    cells."""
    dropped = 0
    for c in _reduction_complexes():
        r = chains._Reduction(c)
        ref = reduced_complex(r)
        d = ref.d
        assert validate(d) == []
        f = ChainMap(c, d, [
            [ref.project(q, ((j, 1),)).items() for j in range(c.dim(q))]
            for q in range(c.top_dim + 1)])
        g = ChainMap(d, c, [ref.lifts(q) for q in range(c.top_dim + 1)])
        assert f.commutes() and g.commutes()
        for q in range(c.top_dim + 1):
            at = ref.position[q]
            for k, lift in enumerate(ref.lifts(q)):
                assert ref.project(q, lift) == {k: 1}
            assert d.basis[q] == tuple(c.basis[q][j] for j in ref.position[q])
            assert list(r.unpaired[q]) == list(at)
            for j in range(c.dim(q)):
                assert {at[i]: x for i, x in r.project(q, ((j, 1),)).items()} == \
                    ref.project(q, ((j, 1),))
            if q:
                assert [tuple(sorted((ref.position[q - 1][i], x)
                                     for i, x in r.columns[q].get(j, {}).items()))
                        for j in r.unpaired[q]] == list(d.boundaries[q - 1])
        assert homology(d).groups() == homology(c).groups()
        dropped += sum(c.dim(q) - d.dim(q) for q in range(c.top_dim + 1))
    assert dropped > 1000


def test_project_reads_the_pairs_it_reaches_as_the_full_walk_does():
    """project, which reads only the pairs its chain reaches, in pairing
    order, gives the dict of the walk over every pair of the degree, for
    each cell and for seeded random chains."""
    rng = random.Random(17)
    read = 0
    for c in _reduction_complexes():
        r = chains._Reduction(c)
        for q in range(c.top_dim + 1):
            n = c.dim(q)
            chains_q = [((j, 1),) for j in range(n)] + [
                tuple(sorted({rng.randrange(n): rng.choice((1, -1, 2, -3))
                              for _ in range(rng.randint(1, 4))}.items()))
                for _ in range(3 if n else 0)]
            for z in chains_q:
                assert r.project(q, z) == project_by_walk(r, q, z)
                read += 1
    assert read > 3000


def _cycle_basis_complexes():
    """The t and adapted models of the grid and of its torus(1-2)
    products, their scaled duals (absolute and rel boundary), the two
    pieces and the intersection of a seeded cover of each t model, and
    200 seeded random complexes."""
    rng = random.Random(43)
    complexes = []
    for base in GRID_1_TO_3:
        for d in (base, ProductTorus(base, 1), ProductTorus(base, 2)):
            tm, am = t_model(d), adapted_model(d)
            m = tm.chain_complex()
            a, b = random_two_cover(tm, rng)
            complexes += [m, am.chain_complex(), ws_complex(am)]
            if "boundary" in am.subs:
                complexes.append(ws_complex(am, rel="boundary"))
            complexes += [subcomplex(m, cells) for cells in (a, b, a & b)]
    return complexes + [_random_complex(rng) for _ in range(200)]


def test_sparse_cycle_basis_is_the_dense_kernel_basis():
    """Each degree's sparse cycle basis of D, on C's cells (unit vectors
    of D's zero columns beside the kernel of its other columns), read on
    D's positions and densified, is the Hermite basis kernel_basis of the
    whole dense boundary of D as reduced_complex builds it."""
    blocks = 0
    for c in _cycle_basis_complexes():
        h = homology(c)
        ref = reduced_complex(h._reduction)
        d = ref.d
        for q in range(c.top_dim + 1):
            basis = h.degree(q)._basis
            at = ref.position[q]
            on_d = [tuple((at[j], x) for j, x in row) for row in basis]
            assert chains._dense(on_d, d.dim(q), len(basis)) == \
                ref_kernel_basis(boundary_matrix(d, q))
            blocks += any(len(row) > 1 or row[0][1] != 1 for row in basis)
    assert blocks > 200


@st.composite
def peelable_blocks(draw):
    """Sparse columns with no unit entry, so that no pivot pairs a cell:
    a random core, chains of columns each alone on a row of its own and
    sharing one with the link before it (or with the core), and zero
    columns, rows and columns shuffled.  Returns (rows, columns)."""
    entries = st.sampled_from((2, -2, 3, -3, 4, 6))
    rows = draw(st.integers(0, 4))
    columns = [{i: draw(entries) for i in draw(st.sets(st.integers(0, rows - 1)))}
               for _ in range(draw(st.integers(0, 4) if rows else st.just(0)))]
    for _ in range(draw(st.integers(0, 3))):
        before = draw(st.none() | st.integers(0, rows - 1)) if rows else None
        for _ in range(draw(st.integers(1, 4))):
            link = {rows: draw(entries)}
            if before is not None:
                link[before] = draw(entries)
            columns.append(link)
            before, rows = rows, rows + 1
    columns += [{} for _ in range(draw(st.integers(0, 2)))]
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(len(columns))))
    return rows, [tuple(sorted((row_order[i], x) for i, x in columns[j].items()))
                  for j in col_order]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(peelable_blocks())
def test_peeled_cycle_basis_is_the_kernel_basis_of_the_whole_block(block):
    """In the two-term complex with this boundary, which no unit pivot
    reduces, the degree-1 cycle basis, which drops each column alone on
    a row before kernel_basis runs, is the unit vectors of the zero
    columns beside kernel_basis of every other column; kernel_basis runs
    once, on the columns left when those alone on a row are dropped
    until none is, and not at all when none is left."""
    rows, columns = block
    c = ChainComplex([[f"r{i}" for i in range(rows)],
                      [f"c{j}" for j in range(len(columns))]], [columns])
    live = [j for j, col in enumerate(columns) if col]
    expect = sorted([((j, 1),) for j, col in enumerate(columns) if not col]
                    + [tuple((live[k], x) for k, x in y) for y in kernel_basis(
                        [columns[j] for j in live], rows)])
    widths = []
    original = chains.kernel_basis
    chains.kernel_basis = lambda cols, n: widths.append(len(cols)) or original(cols, n)
    try:
        assert homology(c).degree(1)._basis == expect
    finally:
        chains.kernel_basis = original
    left = set(live)
    while lone := {j for j in left if any(
            sum(i in dict(columns[k]) for k in left) == 1 for i, _ in columns[j])}:
        left -= lone
    assert widths == ([len(left)] if left else [])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_solver_matches_the_dense_oracle(data):
    """On random Hermite bases, the sparse back-substitution finds what
    the dense one finds, a solution or None, for members of the lattice
    and for arbitrary vectors."""
    n = data.draw(st.integers(1, 7))
    vectors = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n,
                                          max_size=n), max_size=5))
    rows = to_rows(lattice_of(transpose(IntMatrix(vectors, n))))
    if data.draw(st.booleans()):
        y = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                               max_size=len(rows)))
        b = [sum(x * row[j] for x, row in zip(y, rows)) for j in range(n)]
    else:
        b = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    sparse = [tuple((j, x) for j, x in enumerate(row) if x) for row in rows]
    residual = {j: x for j, x in enumerate(b) if x}
    y = chains._sparse_solver(sparse)(residual)
    assert (None if y is None else list(vector(y, len(rows)))) == \
        echelon_solver(rows)(b)


def _monomial(columns) -> bool:
    """True when no row and no column of these sparse columns holds two
    entries."""
    hit = [i for col in columns for i, _ in col]
    return all(len(col) <= 1 for col in columns) and len(hit) == len(set(hit))


def test_degree_reads_no_dense_boundary(monkeypatch):
    """presentation, kernel and kernel_coords, and so check_mv, read no
    dense boundary and build no complex: a ChainComplex has no dense
    boundary to give, and no ChainComplex._of runs while a degree is
    read.  kernel_basis runs at most once per degree, on no more columns
    than D has nonzero ones there, and not at all when D's boundary
    there is monomial or zero.  check_mv builds its four complexes and
    no other."""
    assert not hasattr(ChainComplex, "d")
    widths, built = [], []
    monkeypatch.setattr(chains, "kernel_basis", lambda columns, rows:
                        widths.append(len(columns)) or kernel_basis(columns, rows))
    build = ChainComplex._of.__func__
    monkeypatch.setattr(ChainComplex, "_of", classmethod(
        lambda cls, *args: built.append(cls) or build(cls, *args)))
    rng = random.Random(8)
    monomial = skipped = 0
    for c in _reduction_complexes()[::4]:
        h = homology(c)
        d = reduced_complex(h._reduction).d
        built.clear()
        for q in range(c.top_dim + 1):
            columns = d.boundaries[q - 1] if q else ()
            live = sum(map(bool, columns))
            widths.clear()
            deg = h.degree(q)
            deg.presentation
            for z in deg.kernel.columns():
                assert deg.kernel.apply(deg.kernel_coords(z)) == z
            assert len(widths) <= 1 and all(0 < w <= live for w in widths)
            if live and _monomial(columns):
                assert widths == []
                monomial += 1
            skipped += live and not widths
        assert built == []
    assert monomial > 25 and skipped > monomial
    wcc = t_model(ProductTorus(Surface(1, 2, (3, 5)), 2))
    cover = random_two_cover(wcc, rng)
    m = wcc.chain_complex()
    built.clear()
    assert check_mv(wcc, *cover).passed
    assert len(built) == 3


def test_rational_homology_ranks():
    c = t_model(Surface(1, 2, (3,))).chain_complex()
    hq = homology(c, coeff="Q")
    assert [g.rank for g in hq.groups()] == [1, 3, 0]
    assert all(not g.torsion for g in hq.groups())


def _rank_over_q(columns, rows):
    """Rank of sparse columns by the elimination homology() runs over Q."""
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    return len(chains._eliminate(cols, rows, rational=True))


def _oracle_complexes():
    """The t, adapted and underlying models of the grid and their
    torus(1) and torus(2) products, each with its quotients by its subs
    and its scaled duals, absolute and rel boundary."""
    for d in GRID_1_TO_3:
        for desc in (d, ProductTorus(d, 1), ProductTorus(d, 2)):
            for wcc in (t_model(desc), adapted_model(desc), underlying_model(desc)):
                c = wcc.chain_complex()
                yield c
                yield from (relative(c, wcc.sub_cells(sub)) for sub in wcc.subs)
                yield ws_complex(wcc)
                if "boundary" in wcc.subs:
                    yield ws_complex(wcc, rel="boundary")


def test_rational_ranks_match_the_dense_oracle():
    """Every boundary's rank over Q, and so every group over Q, is the
    dense rank of oracles.rational_rank."""
    count = 0
    for c in _oracle_complexes():
        ranks = [rational_rank(boundary_matrix(c, q)) for q in range(c.top_dim + 2)]
        for q, columns in enumerate(c.boundaries, start=1):
            assert _rank_over_q(columns, c.dim(q - 1)) == ranks[q]
        assert [g.rank for g in groups_of(c, "Q")] == [
            c.dim(q) - ranks[q] - ranks[q + 1] for q in range(c.top_dim + 1)]
        count += 1
    assert count > 27 * 3 * 3 * 3


@st.composite
def _maps(draw, entries):
    """Dense maps up to 7 x 7, either side possibly empty, drawn from
    entries, so some are zero."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    return IntMatrix([[draw(entries) for _ in range(cols)] for _ in range(rows)],
                     cols=cols)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_maps(st.integers(-9, 9)) | _maps(st.sampled_from((0, 0, 0, 1, -1, 2))))
def test_rational_rank_of_sparse_columns_matches_the_oracle(a):
    assert _rank_over_q(sparse_columns(a), a.rows) == rational_rank(a)


def _within_hadamard(a):
    """Eliminate a over Q, check its rank, and check that every entry of
    every pivot column is within Hadamard's bound (k 9^2)^(k/2) on the
    k x k minors of a, k = min(rows, cols), for entries up to 9: 32 bits
    at 7 x 7."""
    k = min(a.rows, a.cols)
    cols = {j: dict(col) for j, col in enumerate(sparse_columns(a)) if col}
    pivots = chains._eliminate(cols, a.rows, rational=True)
    assert len(pivots) == rational_rank(a)
    assert cols == {}
    entries = [x for _, _, p, rest in pivots for x in (p, *rest.values())]
    assert all(x * x <= (k * 9 ** 2) ** k for x in entries)
    assert all(abs(x).bit_length() <= 32 for x in entries)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_maps(st.sampled_from((0, 0, 2, 3, 4, 5, 6, 7, 8, 9))))
def test_non_unit_pivots_keep_entries_within_hadamard(a):
    """With no unit entry the first pivot is no unit.  Each column a
    pivot changes is divided by its content, so every entry the
    elimination reaches is a minor of a over a common factor."""
    _within_hadamard(a)


def test_non_unit_pivots_keep_dense_entries_within_hadamard():
    """The same on full 7 x 7 maps, entries 2..9, where entries would
    reach over 50 bits if columns kept their content."""
    rng = random.Random(5)
    for _ in range(100):
        _within_hadamard(IntMatrix([[rng.randint(2, 9) for _ in range(7)]
                                    for _ in range(7)]))


@st.composite
def _lone_pivot_shapes(draw):
    """Arrow (a full first row and column beside the diagonal), star (a
    full last column beside the diagonal) and bidiagonal maps up to
    7 x 8, entries from (0, +-2, 3, 4, -6, 9), rows and columns shuffled:
    the single-entry columns, and those that zeros or earlier pivots
    leave so, are lone pivots with no unit."""
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(("arrow", "star", "bidiagonal")))
    cols = n + 1 if shape == "star" else n
    hits = {(i, i) for i in range(n)} | {
        "arrow": {(0, j) for j in range(n)} | {(i, 0) for i in range(n)},
        "star": {(i, n) for i in range(n)},
        "bidiagonal": {(i, i + 1) for i in range(n - 1)}}[shape]
    entry = st.sampled_from((0, 2, -2, 3, 4, -6, 9))
    entries = [[draw(entry) if (i, j) in hits else 0 for j in range(cols)]
               for i in range(n)]
    row_order = draw(st.permutations(range(n)))
    col_order = draw(st.permutations(range(cols)))
    return IntMatrix([[entries[i][j] for j in col_order] for i in row_order],
                     cols=cols)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_lone_pivot_shapes())
def test_lone_pivots_keep_ranks_and_entries(a):
    """A lone pivot only drops its row from the other columns; the rank
    is oracles.rational_rank's, and entries stay within Hadamard's bound."""
    _within_hadamard(a)


def test_rational_cone_spheres_push_no_fill(monkeypatch):
    """Over Q the 1,000-cone sphere's spokes are lone pivots of least
    fill, taken first: sigma0 only loses rows and no entry is pushed to
    the heap again, where taking sigma0's units first pushes 999,000."""
    pushes = []
    monkeypatch.setattr(chains, "heapq", SimpleNamespace(
        heapify=heapq.heapify, heappop=heapq.heappop,
        heappush=lambda heap, item: pushes.append(item) or heapq.heappush(heap, item)))
    for orders in ([2] * 1000, ([2, 3, 4, 6, 5, 10] * 167)[:1000]):
        pushes.clear()
        c = t_model(Surface(0, 0, tuple(orders))).chain_complex()
        assert [g.rank for g in homology(c, "Q").groups()] == [1, 0, 1]
        assert len(pushes) <= 1000, len(pushes)


def test_rational_rank_of_empty_and_zero_maps():
    for rows, cols in ((0, 0), (0, 3), (3, 0), (4, 5)):
        assert _rank_over_q([()] * cols, rows) == 0


# ------------------------------------------------------------ chain maps


def test_chain_map_commutes_and_induced():
    circle = circle_complex()
    double = ChainMap(
        source=circle, target=circle,
        matrices=(sparse_columns(identity(1)),
                  sparse_columns(IntMatrix([[2]]))),
    )
    assert double.commutes()
    induced = induced_map(double)
    assert dense_map(induced[1]) == IntMatrix([[2]])
    assert dense_map(induced[0]) == IntMatrix([[1]])


def test_induced_map_above_the_target_top_degree_is_zero():
    """A commuting map whose source has a higher top degree than its
    target induces the zero map, onto no generator, in those degrees."""
    interval = ChainComplex([["v", "w"], ["e"]], [[((0, -1), (1, 1))]])
    circle = circle_complex()
    for target in (point_complex(), ChainComplex([["a", "b"]], [])):
        f = ChainMap(circle, target, [[((0, 1),)], [()]])
        induced = induced_map(f)
        assert [hom.target.gens for hom in induced] == [target.dim(0), 0]
        assert induced[0].matrix == (((0, 1),),)
        assert induced[1].source.gens == 1 and induced[1].matrix == ((),)
    f = ChainMap(interval, point_complex(), [[((0, 1),), ((0, 1),)], [()]])
    assert [hom.matrix for hom in induced_map(f)] == [(((0, 1),),), ()]


def test_non_commuting_map_rejected():
    interval = ChainComplex(
        basis=(("v", "w"), ("e",)),
        boundaries=(sparse_columns(IntMatrix([[-1], [1]])),),
    )
    skew = ChainMap(
        source=interval, target=interval,
        matrices=(sparse_columns(diagonal([2, 2])),
                  sparse_columns(IntMatrix([[1]]))),
    )
    assert not skew.commutes()
    with pytest.raises(ValueError, match="does not commute"):
        induced_map(skew)


def test_inclusion_map_unit_columns():
    c = half_disk()
    inc = inclusion_map(c, {"p", "q", "m"})
    assert inc.commutes()
    assert dense_map(inc, 0).cols == 2
    assert dense_map(inc, 1) == IntMatrix([[0], [1], [0]])


def test_inclusion_map_checks_the_subcomplex():
    c = half_disk()
    sub = inclusion_map(c, ["q", "m", "p"]).source
    # the cells keep c's order, whatever order they are named in
    assert sub.basis == (("p", "q"), ("m",), ())
    assert sub.boundaries == ((((0, -1), (1, 1)),), ())
    assert inclusion_map(c, sub.labels()).commutes()
    with pytest.raises(ValueError, match=r"unknown cells: \['zz'\]"):
        inclusion_map(c, {"p", "zz"})
    with pytest.raises(ValueError, match="subcomplex is not boundary closed: "
                                         "cell t has face q outside it"):
        inclusion_map(c, {"p", "t"})


def test_chain_complex_coefficients_must_be_integers():
    with pytest.raises(TypeError):
        ChainComplex([["p", "q"], ["e"]], [[[(0, -1), (1, 1.9)]]])
    with pytest.raises(TypeError):
        ChainComplex([["p", "q"], ["e"]], [[[(0, "-1"), (1, 1)]]])
    ok = ChainComplex([["p", "q"], ["e"]], [[[(0, -1), (1, True)]]])
    assert ok.boundaries == (((((0, -1), (1, 1)),),))


def _random_chain_map(rng, source, target, kind):
    """A chain map d h + h d for a random h of degree +1 ("chain"), the
    same with one entry changed ("perturbed"), or random matrices, handed
    over as sparse columns."""
    def h(q):
        return _random_matrix(rng, target.dim(q + 1), source.dim(q))

    homotopy = {q: h(q) for q in range(-1, source.top_dim + 1)}
    rows = []
    for q in range(source.top_dim + 1):
        if kind == "random":
            rows.append(to_rows(_random_matrix(rng, target.dim(q), source.dim(q))))
            continue
        left = to_rows(boundary_matrix(target, q + 1) @ homotopy[q])
        right = to_rows(homotopy[q - 1] @ boundary_matrix(source, q))
        rows.append([[x + y for x, y in zip(r1, r2)]
                     for r1, r2 in zip(left, right)])
    if kind == "perturbed":
        cells = [(q, i, j) for q, mat in enumerate(rows)
                 for i, row in enumerate(mat) for j in range(len(row))]
        if cells:
            q, i, j = rng.choice(cells)
            rows[q][i][j] += rng.choice((1, -1, 2))
    return ChainMap(source, target, tuple(
        sparse_columns(IntMatrix(mat, cols=source.dim(q)))
        for q, mat in enumerate(rows)))


def test_sparse_commutes_matches_dense_reference():
    rng = random.Random(31)
    verdicts = {True: 0, False: 0}
    for n in range(600):
        source, target = _random_complex(rng), _random_complex(rng)
        kind = ("chain", "perturbed", "random")[n % 3]
        f = _random_chain_map(rng, source, target, kind)
        assert f.commutes() == dense_commutes(f), kind
        assert f.commutes() or kind != "chain"
        verdicts[f.commutes()] += 1
    assert verdicts[False] > 200


def test_chain_map_sparse_and_dense_forms_agree():
    c = half_disk()
    dense = ChainMap(c, c, tuple(sparse_columns(diagonal([3] * c.dim(q)))
                                 for q in range(3)))
    sparse = ChainMap(c, c, tuple([[(j, 3)] for j in range(c.dim(q))]
                                  for q in range(3)))
    assert dense == sparse
    assert sparse.matrices[1] == (((0, 3),), ((1, 3),), ((2, 3),))
    assert dense_map(sparse, 1) == diagonal([3, 3, 3])
    assert dense_map(sparse, 3) == zeros(0, 0)
    assert sparse.commutes()
    assert not hasattr(sparse, "matrix")
    with pytest.raises(TypeError, match="sparse columns, not an IntMatrix"):
        ChainMap(c, c, tuple(diagonal([3] * c.dim(q)) for q in range(3)))


def test_chain_map_rejects_bad_shapes():
    c = half_disk()
    good = [[[(j, 1)] for j in range(c.dim(q))] for q in range(3)]
    out_of_range = [list(cols) for cols in good]
    out_of_range[1] = [[(0, 1)], [(3, 1)], [(2, 1)]]
    with pytest.raises(ValueError, match="matrix shape mismatch at degree 1"):
        ChainMap(c, c, tuple(out_of_range))
    negative = [list(cols) for cols in good]
    negative[2] = [[(-1, 1)], [(1, 1)]]
    with pytest.raises(ValueError, match="matrix shape mismatch at degree 2"):
        ChainMap(c, c, tuple(negative))
    too_few = [list(cols) for cols in good]
    too_few[0] = [[(0, 1)]]
    with pytest.raises(ValueError, match="matrix shape mismatch at degree 0"):
        ChainMap(c, c, tuple(too_few))
    wrong_dense = [identity(2), identity(2), identity(2)]
    with pytest.raises(ValueError, match="matrix shape mismatch at degree 1"):
        ChainMap(c, c, tuple(sparse_columns(mat) for mat in wrong_dense))


# -------------------------------------------------------- connecting map


def test_connecting_hom_rejects_unknown_and_open_pieces():
    c = half_disk()
    b = {"p", "q", "m", "b", "L"}
    with pytest.raises(ValueError, match=r"unknown cells: \['zz'\]"):
        connecting_hom(c, {"p", "q", "zz", "t", "m", "U"}, b)
    # U's face m is left out of the first piece; the intersection {p, q}
    # is closed
    open_piece = {"p", "q", "t", "U"}
    with pytest.raises(ValueError, match="subcomplex is not boundary closed: "
                                         "cell U has face m outside it"):
        connecting_hom(c, open_piece, b)
    with pytest.raises(ValueError, match="subcomplex is not boundary closed"):
        connecting_hom(c, b, open_piece)


def test_chain_map_layer_builds_no_dense_matrix(monkeypatch):
    # commutes, inclusion_map, the induced and connecting maps and the
    # presentations (on homology whose cycle lattices are known, shared
    # through the unchecked bodies as check_mv shares them) work on the
    # sparse columns alone
    wcc = t_model(Surface(1, 1, (2, 3)))
    m = wcc.chain_complex()
    cells_a, cells_b = wcc.sub_cells("conedisks"), wcc.sub_cells("complement")
    a, b = subcomplex(m, cells_a), subcomplex(m, cells_b)
    inter = subcomplex(m, cells_a & cells_b)

    def homologies():
        return homology(a), homology(inter), homology(m)

    def maps(h_a, h_inter, h_m):
        return (_induced(inclusion_map(m, cells_a), h_a, h_m),
                _connecting(cells_a, m, h_inter, h_m),
                [[h.degree(q).presentation for q in range(h.top_dim + 1)]
                 for h in (h_a, h_inter, h_m)])

    expected = maps(*homologies())
    fresh = homologies()
    for h in fresh:
        for q in range(h.top_dim + 1):
            h.degree(q).kernel

    def forbidden(*args, **kwargs):
        raise AssertionError("dense matrix algebra in the chain-map layer")

    monkeypatch.setattr(chains, "_dense", forbidden)
    monkeypatch.setattr(IntMatrix, "apply", forbidden)
    monkeypatch.setattr(IntMatrix, "__matmul__", forbidden)
    monkeypatch.setattr(intlin, "_echelon", forbidden)
    assert inclusion_map(m, cells_a).commutes()
    assert maps(*fresh) == expected


def test_connecting_hom_matches_hnf_lift_on_random_covers():
    rng = random.Random(1234)
    cycles = 0
    for d in GRID_1_TO_3:
        wcc = t_model(d)
        m = wcc.chain_complex()
        for _ in range(3):
            cells_a, cells_b = random_two_cover(wcc, rng)
            got = [dense_map(hom) for hom in connecting_hom(m, cells_a, cells_b)[1:]]
            assert got == hnf_connecting_matrices(m, cells_a, cells_b), (d, cells_a)
            cycles += sum(mat.cols for mat in got)
    assert cycles > 200



def _coords(into, out_of):
    """Matrix of into's kernel coordinates of out_of's kernel columns,
    for two cycle lattices of one degree: the change of basis between
    two routes."""
    return from_columns([into.kernel_coords(z)
                                   for z in out_of.kernel.columns()],
                                  rows=into.kernel.cols)


def test_reduced_maps_match_the_cell_level_route():
    """On seeded covers, each induced and connecting map read through
    the reduction equals the map the cell-level oracle finds on the
    cycles of the complex itself by dense matrices, after the change of
    basis between the two cycle lattices."""
    maps = 0
    for seed, desc in enumerate(GRID_1_TO_3):
        wcc = t_model(desc)
        m = wcc.chain_complex()
        cells_a, cells_b = random_two_cover(wcc, random.Random(seed))
        a, b = subcomplex(m, cells_a), subcomplex(m, cells_b)
        inter = subcomplex(m, cells_a & cells_b)
        new = {id(x): homology(x) for x in (a, b, inter, m)}

        def change(x, q):
            """(cell level -> reduced, reduced -> cell level) bases of x."""
            reduced, cell = new[id(x)].degree(q), cell_level_degree(x, q)
            return _coords(reduced, cell), _coords(cell, reduced)

        for s, t in ((inter, a), (inter, b), (a, m), (b, m)):
            f = inclusion_map(t, s.labels())
            got = _induced(f, new[id(s)], new[id(t)])
            for q in range(s.top_dim + 1):
                assert dense_map(got[q]) == (change(t, q)[0] @ cell_level_induced(f, q)
                                         @ change(s, q)[1]), (desc, q)
                maps += 1
        got = _connecting(cells_a, m, new[id(inter)], new[id(m)])
        for q in range(1, m.top_dim + 1):
            assert dense_map(got[q]) == (
                change(inter, q - 1)[0] @ cell_level_connecting(a, m, inter, q)
                @ change(m, q)[1]), (desc, q)
            maps += 1
    assert maps > 300


def test_trusted_cycle_reads_match_the_public_ones():
    """On the grid models, their torus(1-2) products and seeded random
    complexes, the sparse lifts each degree keeps, densified, are the
    columns of kernel and g of the Hermite basis of Z_q(D) by dense
    products; and the unchecked coordinates of random cycles, read from
    their sparse columns, are what kernel_coords reads from their dense
    vectors, and give them back up to a boundary."""
    rng = random.Random(5)
    cycles = 0
    for c in _reduction_complexes():
        h = homology(c)
        ref = reduced_complex(h._reduction)
        g = ChainMap(ref.d, c, [ref.lifts(q) for q in range(c.top_dim + 1)])
        for q in range(c.top_dim + 1):
            deg, up = h.degree(q), boundary_matrix(c, q + 1)
            lifts = chains._dense(deg._lifts, c.dim(q), len(deg._lifts))
            assert lifts == deg.kernel == \
                dense_map(g, q) @ ref_kernel_basis(boundary_matrix(ref.d, q))
            for _ in range(2):
                y = [rng.randint(-3, 3) for _ in range(deg.kernel.cols)]
                w = [rng.randint(-2, 2) for _ in range(up.cols)]
                z = [s + t for s, t in zip(deg.kernel.apply(y), up.apply(w))]
                coords = vector(deg._coords([(i, x) for i, x in enumerate(z) if x]),
                                deg.kernel.cols)
                assert coords == deg.kernel_coords(z)
                back = deg.kernel.apply(coords)
                assert solve_linear(up, [s - t for s, t in zip(z, back)]) is not None
                cycles += 1
    assert cycles > 1000


def _is_zero_hom(hom):
    """True when every generator image lies in the target relations."""
    return subgroup_contains(dense(hom.target.rels, hom.target.gens), dense_map(hom))


def test_connecting_hom_half_disk_all_zero():
    c = half_disk()
    k = connecting_hom(c, {"p", "q", "t", "m", "U"}, {"p", "q", "m", "b", "L"})
    assert len(k) == c.top_dim + 1
    for hom in k:
        assert _is_zero_hom(hom)


def test_connecting_hom_torus_from_two_annuli():
    # two-vertex circle (P,Q with arcs E1,E2) crossed with a circle;
    # the annuli over E1 and over E2 meet in two disjoint circles
    from orbihom.orbmodel import Cell, WeightedCellComplex

    base = WeightedCellComplex(
        name="twocircle", dim=1,
        cells=(
            Cell("P", 0, 1), Cell("Q", 0, 1),
            Cell("E1", 1, 1, (("P", -1), ("Q", 1))),
            Cell("E2", 1, 1, (("Q", -1), ("P", 1))),
        ),
        subs={"left": ("P", "Q", "E1"), "right": ("P", "Q", "E2")},
    )
    fiber = WeightedCellComplex(
        name="circle", dim=1,
        cells=(Cell("z", 0, 1), Cell("t", 1, 1)),
    )
    torus = public_tensor(base, fiber, "torus")
    m = torus.chain_complex()
    assert groups_of(m) == (Z, FgAbGroup.free(2), Z)
    k = connecting_hom(m, torus.sub_cells("left"), torus.sub_cells("right"))
    assert rational_rank(dense_map(k[1])) == 1
    assert rational_rank(dense_map(k[2])) == 1


def test_connecting_hom_cone_cover_of_weighted_sphere():
    wcc = t_model(Surface(0, 0, (2, 2)))
    m = wcc.chain_complex()
    k = connecting_hom(m, wcc.sub_cells("conedisks"), wcc.sub_cells("complement"))
    # degree 2: the weighted fundamental class maps to a cycle wrapping
    # both cone circles twice
    mat = dense_map(k[2])
    assert mat.cols == 1
    assert lattice_of(mat) == IntMatrix([[2, 2]])


def test_connecting_hom_class_ignores_preimage_choice():
    # perturbing the solved preimage by a chain of the intersection
    # must not change the resulting class
    from orbihom.orbmodel import Cell, WeightedCellComplex

    base = WeightedCellComplex(
        name="twocircle", dim=1,
        cells=(
            Cell("P", 0, 1), Cell("Q", 0, 1),
            Cell("E1", 1, 1, (("P", -1), ("Q", 1))),
            Cell("E2", 1, 1, (("Q", -1), ("P", 1))),
        ),
        subs={"left": ("P", "Q", "E1"), "right": ("P", "Q", "E2")},
    )
    fiber = WeightedCellComplex(
        name="circle", dim=1,
        cells=(Cell("z", 0, 1), Cell("t", 1, 1)),
    )
    torus = public_tensor(base, fiber, "torus")
    m = torus.chain_complex()
    inter = subcomplex(m, torus.sub_cells("left") & torus.sub_cells("right"))
    h_i = homology(inter)

    q = 1
    incl_a = inclusion_map(m, torus.sub_cells("left"))
    incl_b = inclusion_map(m, torus.sub_cells("right"))
    a = incl_a.source
    h_m = homology(m)
    z = column(h_m.degree(q).kernel, 0)
    stacked = hstack(dense_map(incl_a, q), dense_map(incl_b, q))
    sol = solve_linear(stacked, z)
    assert sol is not None
    xa = list(sol[: a.dim(q)])

    def push_class(xa_vec):
        bd = boundary_matrix(a, q).apply(xa_vec)
        coeffs = {}
        for i, lab in enumerate(a.basis[q - 1]):
            if bd[i]:
                coeffs[lab] = bd[i]
        vec = cell_vector(inter, q - 1, coeffs)
        return express(h_i.degree(q - 1), vec)

    first = push_class(tuple(xa))
    # add the boundary contribution of an intersection 1-cell: the new
    # preimage pair is (xa + w, xb - w), still mapping onto z
    w_label = inter.basis[q][0]
    xa2 = list(xa)
    xa2[a.position(q, w_label)] += 1
    second = push_class(tuple(xa2))
    assert first == second


def test_connecting_hom_cover_must_cover():
    c = half_disk()
    with pytest.raises(ValueError, match=r"not covered by the two pieces: \['L', 'b'\]"):
        connecting_hom(c, {"p", "q", "t", "m", "U"}, {"p", "q", "m"})
