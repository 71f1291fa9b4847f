"""Chain complexes: homology, products, quotients, induced maps."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from orbihom import chains, intlin
from orbihom.chains import (
    ChainComplex,
    ChainMap,
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
    lattice_hnf,
    rational_rank,
    smith_diagonal,
)
from orbihom.orbmodel import (
    Ball3,
    Ball3Cyclic,
    Disc2,
    ProductTorus,
    Surface,
    t_model,
)

from orbihom.verify import _torus_kunneth
from oracles import (
    cell_level_connecting,
    cell_level_degree,
    cell_level_induced,
    cell_vector,
    circle_complex,
    column,
    cyclic,
    dense_commutes,
    dense_map,
    diagonal,
    express,
    generators,
    hnf_connecting_matrices,
    identity,
    point_complex,
    presentation_groups,
    presented_group,
    public_tensor,
    random_two_cover,
    snf,
    solve_linear,
    sparse_columns,
    subgroup_contains,
    tensor,
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
    broken = ChainComplex(
        basis=(("v", "w"), ("e",), ("f",)),
        boundaries=(sparse_columns(IntMatrix([[-1], [1]])),
                    sparse_columns(IntMatrix([[1]]))),
    )
    problems = validate(broken)
    assert len(problems) == 2
    assert all("boundary of boundary of f" in p for p in problems)
    with pytest.raises(ValueError):
        homology(broken)


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
    assert c.d(1) == IntMatrix([[-1, -1, -1], [1, 1, 1]])
    assert c.d(2) == IntMatrix([[1, 0], [-1, 1], [0, -1]])
    assert c.d(0) == IntMatrix.zeros(0, 2)
    assert c.d(3) == IntMatrix.zeros(2, 0)
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
        c = ChainComplex(basis, [sparse_columns(mat) for mat in mats])
        for q, mat in enumerate(mats, start=1):
            assert c.d(q) == mat
            assert ChainComplex(basis, c.boundaries).d(q) == mat


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
        ChainComplex(basis, [IntMatrix.zeros(2, 1)])


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
        mat = [[c.d(q)[perms[q - 1][i], perms[q][j]]
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
            deg, dq, up = h.degree(q), c.d(q), c.d(q + 1)
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
    solver = chains._echelon_solver
    monkeypatch.setattr(chains, "_echelon_solver",
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
        cycles = kernel_basis(lower)
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
        diagonal = smith_diagonal(a)
        assert diagonal == factors + [0] * (len(diagonal) - len(factors)), a


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
    """No entry is a unit, so the whole matrix is residual: its
    components give the rank and the factors of the full Smith form."""
    s, _, _ = snf(a)
    diagonal = [s[i, i] for i in range(min(a.rows, a.cols)) if s[i, i]]
    assert chains._boundary_factors(sparse_columns(a), a.rows) == \
        (len(diagonal), tuple(x for x in diagonal if x > 1))


def test_monomial_residuals_build_no_dense_block(monkeypatch):
    """The residuals of surface products have one entry per row and
    column, so each component is a single entry and no dense Smith
    form is taken."""
    base = groups_of(t_model(Surface(4, 3, (2, 3, 5, 7))).chain_complex())

    def refuse(_):
        raise AssertionError("a dense residual was built")

    monkeypatch.setattr(chains, "smith_diagonal", refuse)
    for k in range(2, 7):
        d = ProductTorus(Surface(4, 3, (2, 3, 5, 7)), k)
        assert groups_of(t_model(d).chain_complex()) == \
            _torus_kunneth(base, k), k


def test_rational_route_builds_each_boundary_once(monkeypatch):
    c = t_model(ProductTorus(Surface(1, 1, (2,)), 1)).chain_complex()
    built = []
    dense = ChainComplex.d
    monkeypatch.setattr(ChainComplex, "d",
                        lambda self, q: built.append(q) or dense(self, q))
    assert [g.rank for g in groups_of(c, "Q")] == [1, 3, 2, 0]
    assert sorted(built) == [1, 2, 3]


def test_degree_representatives_are_kept():
    h = homology(t_model(Disc2(3)).chain_complex())
    assert h.degree(1) is h.degree(1)
    with pytest.raises(IndexError):
        h.degree(3)


def test_groups_build_no_reduction(monkeypatch):
    """homology() and its groups take the transform-free elimination
    alone; the reduction is built on the first degree(q), once."""
    built = []
    reduction = chains._Reduction
    monkeypatch.setattr(chains, "_Reduction",
                        lambda c: built.append(c) or reduction(c))
    c = t_model(ProductTorus(Surface(2, 1, (2, 3)), 2)).chain_complex()
    h = homology(c)
    assert h.groups() == tuple(h.group(q) for q in range(c.top_dim + 1))
    assert built == []
    for q in range(c.top_dim + 1):
        h.degree(q).presentation
    assert built == [c]


def _reduction_complexes():
    rng = random.Random(31)
    descs = list(GRID_1_TO_3) + [ProductTorus(d, k) for d in GRID_1_TO_3
                                 for k in (1, 2)]
    return ([t_model(d).chain_complex() for d in descs]
            + [_random_complex(rng) for _ in range(200)])


def test_reduction_is_a_chain_equivalence_onto_a_smaller_complex():
    """D satisfies d∘d = 0, the projection f and the lift g are chain
    maps, f g is the identity of D, and D keeps the groups."""
    dropped = 0
    for c in _reduction_complexes():
        r = chains._Reduction(c)
        d = r.d
        assert validate(d) == []
        f = ChainMap(c, d, [
            [chains._sparse(r.project(q, ((j, 1),))) for j in range(c.dim(q))]
            for q in range(c.top_dim + 1)])
        g = ChainMap(d, c, r.lifts)
        assert f.commutes() and g.commutes()
        for q in range(c.top_dim + 1):
            for k, lift in enumerate(r.lifts[q]):
                assert r.project(q, lift) == [int(i == k) for i in range(d.dim(q))]
            assert d.basis[q] == tuple(c.basis[q][j] for j in r.cells[q])
        assert homology(d).groups() == homology(c).groups()
        dropped += sum(c.dim(q) - d.dim(q) for q in range(c.top_dim + 1))
    assert dropped > 1000


def test_rational_homology_ranks():
    c = t_model(Surface(1, 2, (3,))).chain_complex()
    hq = homology(c, coeff="Q")
    assert [g.rank for g in hq.groups()] == [1, 3, 0]
    assert all(not g.torsion for g in hq.groups())


# ------------------------------------------------------------ chain maps


def test_chain_map_commutes_and_induced():
    circle = circle_complex()
    double = ChainMap(
        source=circle, target=circle,
        matrices=(sparse_columns(identity(1)),
                  sparse_columns(IntMatrix([[2]]))),
    )
    assert double.commutes()
    h = homology(circle)
    induced = induced_map(double, h, h)
    assert induced[1].matrix == IntMatrix([[2]])
    assert induced[0].matrix == IntMatrix([[1]])


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
    h = homology(interval)
    with pytest.raises(ValueError):
        induced_map(skew, h, h)


def test_inclusion_map_unit_columns():
    c = half_disk()
    inc = inclusion_map(c, subcomplex(c, {"p", "q", "m"}))
    assert inc.commutes()
    assert dense_map(inc, 0).cols == 2
    assert dense_map(inc, 1) == IntMatrix([[0], [1], [0]])


def test_inclusion_map_checks_the_subcomplex():
    c = half_disk()
    sub = subcomplex(c, {"p", "q", "m"})
    assert inclusion_map(c, sub).source is sub
    # the same cells in another order are the same subcomplex
    flipped = ChainComplex([["q", "p"], ["m"]], [[[(0, 1), (1, -1)]]])
    assert inclusion_map(c, flipped).commutes()
    with pytest.raises(ValueError, match=r"unknown cells: \['zz'\]"):
        inclusion_map(c, ChainComplex([["p", "zz"]], []))
    with pytest.raises(ValueError, match="not boundary closed"):
        inclusion_map(c, ChainComplex([["p"], ["t"]], [[[(0, -1)]]]))
    with pytest.raises(ValueError, match="subcomplex cell m in degree 0 is not"):
        inclusion_map(c, ChainComplex([["p", "q", "m"]], []))
    with pytest.raises(ValueError, match="subcomplex cell m in degree 1 is not"):
        inclusion_map(c, ChainComplex([["p", "q"], ["m"]], [[[(0, 1), (1, -1)]]]))


def test_subcomplex_check_scans_no_face_of_the_whole_complex(monkeypatch):
    """Columns equal to the whole complex's decide a subcomplex: no
    label set of c is built and no face of c is scanned, unless a
    column differs and the error is worded."""
    wcc = t_model(ProductTorus(Surface(1, 2, (3, 5)), 1))
    m = wcc.chain_complex()
    a, b = random_two_cover(wcc, random.Random(9))
    pieces = [subcomplex(m, cells) for cells in (a, b, a & b)]

    def refuse(*args):
        raise AssertionError("the faces of the whole complex were scanned")

    monkeypatch.setattr(chains, "_closed_cells", refuse)
    monkeypatch.setattr(ChainComplex, "labels", refuse)
    for sub in pieces:
        assert inclusion_map(m, sub).source is sub
    with pytest.raises(AssertionError, match="scanned"):
        inclusion_map(m, ChainComplex([["zz"]], []))


def test_connecting_hom_checks_the_intersection_of_given_homology():
    c = half_disk()
    a = subcomplex(c, {"p", "q", "t", "m", "U"})
    b = subcomplex(c, {"p", "q", "m", "b", "L"})
    inter = subcomplex(c, {"p", "q", "m"})
    assert connecting_hom(a, b, c, h_inter=homology(inter)) == connecting_hom(a, b, c)
    # right cells, but m's boundary is reversed
    wrong = ChainComplex([["p", "q"], ["m"]], [[[(0, 1), (1, -1)]]])
    with pytest.raises(ValueError, match="intersection cell m in degree 1"):
        connecting_hom(a, b, c, h_inter=homology(wrong))
    # t's boundary is reversed in the first piece
    twisted = ChainComplex([["p", "q"], ["t", "m"], ["U"]],
                           [[[(0, 1), (1, -1)], [(0, -1), (1, 1)]],
                            [[(0, 1), (1, -1)]]])
    with pytest.raises(ValueError, match="subcomplex cell t in degree 1"):
        connecting_hom(twisted, b, c)


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
            rows.append(_random_matrix(rng, target.dim(q), source.dim(q)).to_rows())
            continue
        left = (target.d(q + 1) @ homotopy[q]).to_rows()
        right = (homotopy[q - 1] @ source.d(q)).to_rows()
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
    assert dense_map(sparse, 3) == IntMatrix.zeros(0, 0)
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


def _disc_pieces():
    wcc = t_model(Disc2(3))
    c = wcc.chain_complex()
    return c, subcomplex(c, wcc.sub_cells("annulus"))


def test_induced_map_rejects_rational_homology():
    c, _ = _disc_pieces()
    f = inclusion_map(c, c)
    with pytest.raises(ValueError, match="source homology must be over Z"):
        induced_map(f, homology(c, "Q"), homology(c))
    with pytest.raises(ValueError, match="target homology must be over Z"):
        induced_map(f, homology(c), homology(c, "Q"))


def test_induced_map_rejects_homology_of_another_complex():
    c, annulus = _disc_pieces()
    f = inclusion_map(c, c)
    with pytest.raises(ValueError, match="not that of the source complex"):
        induced_map(f, homology(annulus), homology(c))
    with pytest.raises(ValueError, match="not that of the target complex"):
        induced_map(f, homology(c), homology(annulus))
    # an equal complex built separately is accepted
    again = homology(subcomplex(c, c.labels()))
    assert induced_map(f, again, homology(c)) == \
        induced_map(f, homology(c), homology(c))


# -------------------------------------------------------- connecting map


def test_connecting_hom_rejects_wrong_homology():
    c = half_disk()
    a = subcomplex(c, {"p", "q", "t", "m", "U"})
    b = subcomplex(c, {"p", "q", "m", "b", "L"})
    inter = subcomplex(c, {"p", "q", "m"})
    with pytest.raises(ValueError, match="whole homology must be over Z"):
        connecting_hom(a, b, c, h_m=homology(c, "Q"))
    with pytest.raises(ValueError,
                       match="intersection homology must be over Z"):
        connecting_hom(a, b, c, h_inter=homology(inter, "Q"))
    with pytest.raises(ValueError, match="not that of the whole complex"):
        connecting_hom(a, b, c, h_m=homology(a))
    with pytest.raises(ValueError,
                       match="not that of the intersection complex"):
        connecting_hom(a, b, c, h_inter=homology(a))


def test_connecting_hom_rejects_unknown_and_open_pieces():
    c = half_disk()
    b = subcomplex(c, {"p", "q", "m", "b", "L"})
    unknown = ChainComplex(
        basis=(("p", "q", "zz"), ("t", "m"), ("U",)),
        boundaries=([[(0, -1), (1, 1)], [(0, -1), (1, 1)]], [[(0, 1), (1, -1)]]),
    )
    with pytest.raises(ValueError, match=r"unknown cells: \['zz'\]"):
        connecting_hom(unknown, b, c)
    # U's face m is left out of the first piece; the intersection {p, q}
    # is closed
    open_piece = ChainComplex(
        basis=(("p", "q"), ("t",), ("U",)),
        boundaries=([[(0, -1), (1, 1)]], [[]]),
    )
    with pytest.raises(ValueError, match="subcomplex is not boundary closed: "
                                         "cell U has face m outside it"):
        connecting_hom(open_piece, b, c)
    with pytest.raises(ValueError, match="subcomplex is not boundary closed"):
        connecting_hom(b, open_piece, c)


def test_chain_map_layer_builds_no_dense_matrix(monkeypatch):
    # commutes, inclusion_map, induced_map, connecting_hom and the
    # presentations (on homology whose cycle lattices are known) work on
    # the sparse columns alone
    wcc = t_model(Surface(1, 1, (2, 3)))
    m = wcc.chain_complex()
    cells_a, cells_b = wcc.sub_cells("conedisks"), wcc.sub_cells("complement")
    a, b = subcomplex(m, cells_a), subcomplex(m, cells_b)
    inter = subcomplex(m, cells_a & cells_b)

    def homologies():
        return homology(a), homology(inter), homology(m)

    def maps(h_a, h_inter, h_m):
        return (induced_map(inclusion_map(m, a), h_a, h_m),
                connecting_hom(a, b, m, h_inter=h_inter, h_m=h_m),
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
    assert inclusion_map(m, a).commutes()
    assert maps(*fresh) == expected


def test_connecting_hom_matches_hnf_lift_on_random_covers():
    rng = random.Random(1234)
    cycles = 0
    for d in GRID_1_TO_3:
        wcc = t_model(d)
        m = wcc.chain_complex()
        for _ in range(3):
            cells_a, cells_b = random_two_cover(wcc, rng)
            a, b = subcomplex(m, cells_a), subcomplex(m, cells_b)
            got = [hom.matrix for hom in connecting_hom(a, b, m)[1:]]
            assert got == hnf_connecting_matrices(a, b, m), (d, cells_a)
            cycles += sum(mat.cols for mat in got)
    assert cycles > 200



def _coords(into, out_of):
    """Matrix of into's kernel coordinates of out_of's kernel columns,
    for two cycle lattices of one degree: the change of basis between
    two routes."""
    return IntMatrix.from_columns([into.kernel_coords(z)
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
            f = inclusion_map(t, s)
            got = induced_map(f, new[id(s)], new[id(t)])
            for q in range(s.top_dim + 1):
                assert got[q].matrix == (change(t, q)[0] @ cell_level_induced(f, q)
                                         @ change(s, q)[1]), (desc, q)
                maps += 1
        got = connecting_hom(a, b, m, h_inter=new[id(inter)], h_m=new[id(m)])
        for q in range(1, m.top_dim + 1):
            assert got[q].matrix == (
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
        r = h._reduction
        g = ChainMap(r.d, c, r.lifts)
        for q in range(c.top_dim + 1):
            deg, up = h.degree(q), c.d(q + 1)
            lifts = chains._dense(deg._lifts, c.dim(q), len(deg._lifts))
            assert lifts == deg.kernel == dense_map(g, q) @ kernel_basis(r.d.d(q))
            for _ in range(2):
                y = [rng.randint(-3, 3) for _ in range(deg.kernel.cols)]
                w = [rng.randint(-2, 2) for _ in range(up.cols)]
                z = [s + t for s, t in zip(deg.kernel.apply(y), up.apply(w))]
                coords = deg._coords(chains._sparse(z))
                assert coords == deg.kernel_coords(z)
                back = deg.kernel.apply(coords)
                assert solve_linear(up, [s - t for s, t in zip(z, back)]) is not None
                cycles += 1
    assert cycles > 1000


def _is_zero_hom(hom):
    """True when every generator image lies in the target relations."""
    return subgroup_contains(hom.target.rels, hom.matrix)


def test_connecting_hom_half_disk_all_zero():
    c = half_disk()
    a = subcomplex(c, {"p", "q", "t", "m", "U"})
    b = subcomplex(c, {"p", "q", "m", "b", "L"})
    k = connecting_hom(a, b, c)
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
    cells_a = torus.sub_cells("left")
    cells_b = torus.sub_cells("right")
    a = subcomplex(m, cells_a)
    b = subcomplex(m, cells_b)
    k = connecting_hom(a, b, m)
    assert rational_rank(k[1].matrix) == 1
    assert rational_rank(k[2].matrix) == 1


def test_connecting_hom_cone_cover_of_weighted_sphere():
    wcc = t_model(Surface(0, 0, (2, 2)))
    m = wcc.chain_complex()
    a = subcomplex(m, wcc.sub_cells("conedisks"))
    b = subcomplex(m, wcc.sub_cells("complement"))
    h_m = homology(m)
    k = connecting_hom(a, b, m)
    # degree 2: the weighted fundamental class maps to a cycle wrapping
    # both cone circles twice
    mat = k[2].matrix
    assert mat.cols == 1
    assert lattice_hnf(mat) == IntMatrix([[2, 2]])


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
    a = subcomplex(m, torus.sub_cells("left"))
    b = subcomplex(m, torus.sub_cells("right"))
    inter = subcomplex(m, torus.sub_cells("left") & torus.sub_cells("right"))
    h_i = homology(inter)

    from orbihom.intlin import hstack

    q = 1
    incl_a, incl_b = inclusion_map(m, a), inclusion_map(m, b)
    h_m = homology(m)
    z = column(h_m.degree(q).kernel, 0)
    stacked = hstack(dense_map(incl_a, q), dense_map(incl_b, q))
    sol = solve_linear(stacked, z)
    assert sol is not None
    xa = list(sol[: a.dim(q)])

    def push_class(xa_vec):
        bd = a.d(q).apply(xa_vec)
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
    a = subcomplex(c, {"p", "q", "t", "m", "U"})
    b = subcomplex(c, {"p", "q", "m"})
    with pytest.raises(ValueError):
        connecting_hom(a, b, c)
