"""Verification checks: exact sequences, products, degenerations, duality."""

import ast
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from orbihom import intlin, verify
from orbihom.cli import parse_descriptor
from orbihom.intlin import AbPresentation, FgAbGroup, GroupHom, IntMatrix, lattice_hnf
from orbihom.orbmodel import (
    Ball3,
    Ball3Cyclic,
    Cell,
    Disc2,
    ProductTorus,
    Surface,
    WeightedCellComplex,
    describe,
    t_model,
)
from orbihom.verify import (
    check_bhomotopy_pair,
    check_duality,
    check_hurewicz,
    check_kunneth,
    check_mv,
    check_rational,
    check_underlying,
    classical_reference,
    compare_graded,
    exactness_assertion,
)

from oracles import (
    cell,
    cyclic,
    dense,
    identity,
    ids,
    public_tensor,
    random_two_cover,
    ref_lattice_hnf,
    sparse_columns,
    sparse_rows,
    two_step_lattices,
    unreduced_mv_assertions,
)
from test_acceptance import GRID_1_TO_3

GRID = [
    Disc2(2), Disc2(3), Disc2(5), Disc2(12),
    Ball3Cyclic(2), Ball3Cyclic(3), Ball3Cyclic(5),
    Ball3((2, 2, 4)), Ball3((2, 2, 5)), Ball3((2, 3, 3)), Ball3((2, 3, 5)),
    Surface(0, 1), Surface(1, 1, (2, 3)), Surface(1, 2, (3, 3, 3)),
    Surface(2, 0), Surface(0, 0, (2, 2, 2)),
]


def torus_of_two_annuli():
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
    return public_tensor(base, fiber, "torus")


# ------------------------------------------------------------- mv covers


def test_mv_disc2_cone_and_annulus():
    report = check_mv(t_model(Disc2(3)), "cone", "annulus")
    assert report.passed
    assert len(report.assertions) == 9


def test_mv_weighted_sphere_cone_disks_vs_complement():
    report = check_mv(t_model(Surface(0, 0, (2, 2))),
                      "conedisks", "complement")
    assert report.passed
    # the degree-1 groups recorded for the pieces frame the zig-zag
    assert "H_1: intersection Z^2" in "\n".join(report.notes)


def test_mv_sphere_235_j_star_kills_degree_one():
    report = check_mv(t_model(Surface(0, 0, (2, 3, 5))),
                      "conedisks", "complement")
    assert report.passed
    assert "H_1: intersection Z^3" in "\n".join(report.notes)
    # H_1 of the whole model is trivial for the (2,3,5) triple
    assert any("whole 0" in note and note.startswith("H_1")
               for note in report.notes)


def test_mv_half_disk_cover_by_cell_sets():
    disk = WeightedCellComplex(
        name="disk", dim=2,
        cells=(
            Cell("p", 0, 1), Cell("q", 0, 1),
            Cell("t", 1, 1, (("p", -1), ("q", 1))),
            Cell("m", 1, 1, (("p", -1), ("q", 1))),
            Cell("b", 1, 1, (("p", -1), ("q", 1))),
            Cell("U", 2, 1, (("t", 1), ("m", -1))),
            Cell("L", 2, 1, (("m", 1), ("b", -1))),
        ),
    )
    report = check_mv(disk, {"p", "q", "t", "m", "U"},
                      {"p", "q", "m", "b", "L"})
    assert report.passed
    assert "H_0: intersection Z, A Z, B Z, whole Z" in report.notes


def test_mv_torus_as_two_annuli():
    report = check_mv(torus_of_two_annuli(), "left", "right")
    assert report.passed


def test_mv_random_covers():
    rng = random.Random(2718)
    models = [t_model(Surface(0, 0, (2, 3))), t_model(Disc2(4)),
              t_model(Ball3Cyclic(2))]
    for wcc in models:
        for _ in range(4):
            a, b = random_two_cover(wcc, rng)
            report = check_mv(wcc, a, b)
            assert report.passed, report.render()


def test_mv_matches_the_unreduced_route():
    """The sparse lattices give every assertion, lattice text included,
    exactly as the dense route on the full relators does."""
    models = [t_model(d) for d in GRID_1_TO_3] + [
        t_model(ProductTorus(d, 1))
        for d in (Disc2(3), Ball3((2, 3, 5)), Surface(1, 1, (2, 5)))]
    for wcc in models:
        for seed in range(4):
            a, b = random_two_cover(wcc, random.Random(seed))
            got = [(row.statement, row.left, row.right, row.passed)
                   for row in check_mv(wcc, a, b).assertions]
            assert got == unreduced_mv_assertions(wcc, a, b), (wcc.name, seed)


def test_mv_lattices_carry_a_relator_basis(monkeypatch):
    """check_mv passes the homology presentations with their raw
    relators, and every lattice its report prints, read back, is
    ref_lattice_hnf of those relators beside the map's columns, by the
    dense two-step route; each kernel side is bare, as the kernel
    lattice is that image."""
    seen = []
    original = verify.exactness_assertion

    def spy(statement, image_of, kernel_of, at):
        row = original(statement, image_of, kernel_of, at)
        seen.append((image_of, kernel_of, at, row))
        return row

    monkeypatch.setattr(verify, "exactness_assertion", spy)
    wcc = t_model(ProductTorus(Surface(1, 2, (3, 5)), 3))
    a, b = random_two_cover(wcc, random.Random(9))
    assert check_mv(wcc, a, b).passed
    assert len(seen) == 3 * (wcc.dim + 1)
    for image_of, kernel_of, at, row in seen:
        image = (sparse_rows(ref_lattice_hnf(dense(at.rels, at.gens)))
                 if image_of is None else two_step_lattices(image_of)[0])
        kernel = two_step_lattices(kernel_of)[1]
        rows, width = row.left.removeprefix("image ").split(" in Z^")
        assert ast.literal_eval(rows) == [dict(r) for r in image]
        assert int(width) == at.gens
        assert row.right == "kernel" and row.passed and image == kernel
    assert any(len(lattice_hnf(at.rels, at.gens)) < len(at.rels)
               for _, _, at, _ in seen)


def test_mv_takes_each_lattice_from_one_elimination(monkeypatch):
    """Each map's image and kernel lattices come from one elimination,
    kept on the map for both positions that read it, each cycle basis
    of the reduced complex from one, and the relators of the top
    degree's zero map from one: 32 on this cover, where reducing each
    presentation's relators first took 47 and the two-step route 126."""
    calls = []
    original = intlin._echelon

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(intlin, "_echelon", counted)
    wcc = t_model(ProductTorus(Surface(1, 2, (3, 5)), 3))
    a, b = random_two_cover(wcc, random.Random(9))
    assert check_mv(wcc, a, b).passed
    assert len(calls) <= 32


def test_mv_catches_a_zero_connecting_map(monkeypatch):
    homs = []
    original = verify._connecting

    def zeroed(*args, **kwargs):
        homs.extend(original(*args, **kwargs))
        return tuple(GroupHom(h.source, h.target, [()] * h.source.gens)
                     for h in homs)

    monkeypatch.setattr(verify, "_connecting", zeroed)
    report = check_mv(torus_of_two_annuli(), "left", "right")
    assert any(any(h.matrix) for h in homs)
    assert not report.passed


def test_mv_builds_no_dense_matrix(monkeypatch):
    """check_mv builds no IntMatrix, by the checking constructor or the
    trusted one: on seeded covers of a ball3 product, whose residual
    blocks are not monomial, so that smith_diagonal runs, and of a
    surface product, the reports are those of an unpatched run."""
    from orbihom import chains

    def reports():
        out = []
        for desc in (ProductTorus(Ball3((2, 3, 5)), 1),
                     ProductTorus(Surface(1, 2, (3, 5)), 2)):
            wcc = t_model(desc)
            report = check_mv(wcc, *random_two_cover(wcc, random.Random(9)))
            assert report.passed
            out.append(report.render())
        return out

    expected = reports()

    def refuse(*args, **kwargs):
        raise AssertionError("a dense matrix was built")

    monkeypatch.setattr(IntMatrix, "_of", refuse)
    monkeypatch.setattr(IntMatrix, "__init__", refuse)
    residuals = []
    diagonal = chains.smith_diagonal
    monkeypatch.setattr(chains, "smith_diagonal", lambda columns, rows:
                        residuals.append(columns) or diagonal(columns, rows))
    assert reports() == expected
    assert any(len(columns) > 1 for columns in residuals)
    with pytest.raises(AssertionError, match="a dense matrix was built"):
        IntMatrix([[1]])


def test_mv_checks_no_map_it_built(monkeypatch):
    """check_mv checks the closure of its three pieces where it builds
    them, and then reads the maps on trusted sparse lifts: no public
    inclusion_map (4 calls when each inclusion was checked once), no
    commuting check, no checked chain map and no public kernel_coords
    (7, 4 and 218 calls on this cover when every map went through the
    public entry points)."""
    from orbihom import chains
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("inclusion_map", "_closed_cells"):
        monkeypatch.setattr(chains, name, counted(name, getattr(chains, name)))
    monkeypatch.setattr(verify, "inclusion_map",
                        counted("inclusion_map", chains.inclusion_map),
                        raising=False)
    for cls, name in ((chains.ChainMap, "commutes"),
                      (chains.ChainMap, "__post_init__"),
                      (chains.DegreeHomology, "kernel_coords")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    wcc = t_model(ProductTorus(Surface(1, 2, (3, 5)), 3))
    a, b = random_two_cover(wcc, random.Random(9))
    assert check_mv(wcc, a, b).passed
    assert calls["inclusion_map"] == 0
    assert calls["_closed_cells"] == 3
    assert calls["commutes"] == calls["__post_init__"] == 0
    assert calls["kernel_coords"] == 0


def test_mv_builds_each_subcomplex_once(monkeypatch):
    from orbihom import chains, verify
    built = []
    original = chains.subcomplex

    def counting(c, cells):
        built.append(frozenset(cells))
        return original(c, cells)

    monkeypatch.setattr(chains, "subcomplex", counting)
    monkeypatch.setattr(verify, "subcomplex", counting)
    report = check_mv(t_model(Surface(0, 0, (2, 2))), "conedisks", "complement")
    assert report.passed
    assert len(built) == 3 and len(set(built)) == 3


def test_mv_precondition_errors():
    wcc = t_model(Disc2(2))
    with pytest.raises(ValueError):
        check_mv(wcc, "cone", "cone")  # does not cover
    with pytest.raises(ValueError):
        check_mv(wcc, {"A"}, "all")  # not boundary-closed
    with pytest.raises(ValueError):
        check_mv(wcc, {"ghost"}, "all")  # unknown cell


def test_random_two_cover_is_closed_and_covering():
    rng = random.Random(5)
    wcc = t_model(Ball3((2, 3, 4)))
    for _ in range(10):
        a, b = random_two_cover(wcc, rng)
        assert a | b == set(ids(wcc))
        for cells in (a, b):
            for cid in cells:
                for ref, _ in cell(wcc, cid).boundary:
                    assert ref in cells


# ------------------------------------------------------------- kunneth


def test_kunneth_disc2_against_closed_formula():
    for k in (1, 2):
        report = check_kunneth(Disc2(3), k)
        assert report.passed, report.render()


def test_kunneth_more_bases():
    for d in (Ball3Cyclic(2), Surface(0, 0, (2, 2)), Surface(1, 1)):
        report = check_kunneth(d, 1)
        assert report.passed, report.render()


def test_kunneth_rejects_bad_factor_count():
    with pytest.raises(ValueError):
        check_kunneth(Disc2(2), 0)


# ------------------------------------------------------------- rational


def test_rational_grid():
    for d in GRID:
        report = check_rational(d)
        assert report.passed, report.render()


def test_rational_products():
    report = check_rational(ProductTorus(Surface(1, 0, (3,)), 1))
    assert report.passed


# ----------------------------------------------------------- underlying


def test_underlying_grid():
    for d in GRID:
        report = check_underlying(d)
        assert report.passed, report.render()


def test_underlying_product():
    report = check_underlying(ProductTorus(Disc2(2), 2))
    assert report.passed


def test_classical_reference_values():
    assert classical_reference(Surface(2, 0)) == (
        FgAbGroup.free(1), FgAbGroup.free(4), FgAbGroup.free(1))
    assert classical_reference(Surface(0, 3)) == (
        FgAbGroup.free(1), FgAbGroup.free(2), FgAbGroup.trivial())
    assert classical_reference(ProductTorus(Surface(0, 0), 1)) == (
        FgAbGroup.free(1), FgAbGroup.free(1),
        FgAbGroup.free(1), FgAbGroup.free(1))
    assert classical_reference(ProductTorus(Disc2(3), 2)) == (
        FgAbGroup.free(1), FgAbGroup.free(2), FgAbGroup.free(1),
        FgAbGroup.trivial(), FgAbGroup.trivial())


# ------------------------------------------------------------- hurewicz


def test_hurewicz_grid():
    for d in GRID:
        report = check_hurewicz(d)
        assert report.passed, report.render()


def test_a_torus_product_of_a_torus_product_is_one_product():
    """A product base folds into the torus count: the nested descriptor
    equals the flat one, reads back from its text, and its fundamental
    group names each torus generator once."""
    nested = ProductTorus(ProductTorus(Disc2(3), 1), 1)
    assert nested == ProductTorus(Disc2(3), 2)
    assert describe(nested) == "disc2(3) x torus(2)"
    assert parse_descriptor(describe(nested)) == nested
    report = check_hurewicz(nested)
    assert report.passed, report.render()


# ------------------------------------------------------------ bhomotopy


def test_bhomotopy_distinguishes_different_orders():
    report = check_bhomotopy_pair(Disc2(2), Disc2(3))
    assert not report.passed
    assert any("distinguished" in note for note in report.notes)


def test_bhomotopy_same_model_agrees():
    report = check_bhomotopy_pair(Ball3((2, 3, 4)), Ball3((2, 3, 4)))
    assert report.passed
    assert any("does not distinguish" in note for note in report.notes)


def test_bhomotopy_pads_degrees():
    report = check_bhomotopy_pair(Disc2(2), Ball3Cyclic(2))
    assert report.passed  # same groups once padded: (Z, Z/2, 0, 0)


# -------------------------------------------------------------- duality


def test_duality_disc2_has_six_assertions():
    for n in (2, 3, 5):
        report = check_duality(Disc2(n))
        assert len(report.assertions) == 6
        assert report.passed, report.render()


def test_duality_closed_surfaces():
    for cones in ((2, 2, 4), (2, 2, 5), (2, 3, 3), (2, 3, 5)):
        report = check_duality(Surface(0, 0, cones))
        assert report.passed, report.render()
        assert len(report.assertions) == 3


def test_duality_ball3cyclic():
    report = check_duality(Ball3Cyclic(4))
    assert report.passed, report.render()


def test_duality_ball3_report_renders():
    # the 3-dimensional interior-arc model is an extension of the
    # 2-dimensional construction, so its verdict is recorded rather
    # than required
    report = check_duality(Ball3((2, 3, 4)))
    text = report.render()
    assert "RESULT" in text
    assert len(report.assertions) == 8


# ---------------------------------------------------------- comparators


def test_compare_graded_pads_and_flags():
    left = (FgAbGroup.free(1),)
    right = (FgAbGroup.free(1), cyclic(2))
    rows = compare_graded("check", left, right)
    assert len(rows) == 2
    assert rows[0].passed
    assert not rows[1].passed
    assert rows[1].left == "0"
    assert rows[1].right == "Z/2"


def test_exactness_assertion_detects_failure():
    # map 0 -> Z followed by the zero map Z -> 0 is not exact at Z
    free1 = AbPresentation.free(1)
    to_zero = GroupHom(free1, AbPresentation.free(0), [()])
    row = exactness_assertion("not exact", None, to_zero, free1)
    assert not row.passed
    assert (row.left, row.right) == ("image [] in Z^1", "kernel [{0: 1}]")
    # image of identity Z -> Z equals kernel of map to 0
    ident = GroupHom(free1, free1, sparse_columns(identity(1)))
    row = exactness_assertion("exact", ident, to_zero, free1)
    assert row.passed
    assert (row.left, row.right) == ("image [{0: 1}] in Z^1", "kernel")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_exactness_reads_only_the_relator_lattices(data):
    """exactness_assertion and GroupHom.lattices read a presentation
    only through the lattice its relators span: on random presentations
    and maps, replacing every relator list by its lattice_hnf basis,
    giving it empty columns, duplicating it or reordering it changes
    neither the Assertion nor the lattices."""
    def columns(rows: int, count: int | None = None):
        """count sparse columns (up to 4 if None), entries in [-4, 4]."""
        col = st.lists(st.integers(-4, 4), min_size=rows, max_size=rows)
        drawn = data.draw(st.lists(col, min_size=count or 0,
                                   max_size=4 if count is None else count))
        return [tuple((i, x) for i, x in enumerate(c) if x) for c in drawn]

    gens = [data.draw(st.integers(0, 4)) for _ in range(3)]
    rels = [columns(n) for n in gens]
    f_cols, g_cols = columns(gens[1], gens[0]), columns(gens[2], gens[1])

    def run(rels):
        p0, p1, p2 = (AbPresentation(n, r) for n, r in zip(gens, rels))
        f, g = GroupHom(p0, p1, f_cols), GroupHom(p1, p2, g_cols)
        return (exactness_assertion("at p1", f, g, p1),
                exactness_assertion("at p1", None, g, p1),
                f.lattices, g.lattices)

    expected = run(rels)
    for changed in (
            [tuple(lattice_hnf(r, n)) for n, r in zip(gens, rels)],
            [r + [()] * 2 for r in rels],
            [r + r for r in rels],
            [data.draw(st.permutations(r)) for r in rels]):
        assert run(changed) == expected


def test_exactness_assertion_checks_presentation_match():
    free1 = AbPresentation.free(1)
    free2 = AbPresentation.free(2)
    hom = GroupHom(free1, free2, sparse_columns(IntMatrix([[1], [0]])))
    to_zero = GroupHom(free1, AbPresentation.free(0), [()])
    with pytest.raises(ValueError):
        exactness_assertion("bad", hom, to_zero, free1)
    with pytest.raises(ValueError):
        exactness_assertion("bad", None, hom, free2)
