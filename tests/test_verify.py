"""Verification checks: exact sequences, products, degenerations, duality."""

import random
from collections import Counter

import pytest

from orbihom import intlin, verify
from orbihom.intlin import (
    AbPresentation,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    lattice_hnf,
)
from orbihom.orbmodel import (
    Ball3,
    Ball3Cyclic,
    Cell,
    Disc2,
    ProductTorus,
    Surface,
    WeightedCellComplex,
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
    cyclic,
    identity,
    is_zero,
    public_tensor,
    random_two_cover,
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
    """Reduced relators give every assertion, lattice text included,
    exactly as the full relators and canonical kernels do."""
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
    seen = []
    original = verify.exactness_assertion

    def spy(statement, image_of, kernel_of, at):
        seen.append(at)
        return original(statement, image_of, kernel_of, at)

    monkeypatch.setattr(verify, "exactness_assertion", spy)
    wcc = t_model(ProductTorus(Surface(1, 2, (3, 5)), 3))
    a, b = random_two_cover(wcc, random.Random(9))
    assert check_mv(wcc, a, b).passed
    assert len(seen) == 3 * (wcc.dim + 1)
    for at in seen:
        assert lattice_hnf(at.rels).rows == at.rels.cols <= at.gens


def test_mv_takes_each_lattice_from_one_elimination(monkeypatch):
    """Each map's image and kernel lattices come from one elimination,
    kept on the map for both positions that read it, each cycle basis
    of the reduced complex from one, and relators already in Hermite
    form from none; the two-step route took 126 on this cover."""
    calls = []
    original = intlin._echelon

    def counted(rows, n):
        calls.append(n)
        return original(rows, n)

    monkeypatch.setattr(intlin, "_echelon", counted)
    wcc = t_model(ProductTorus(Surface(1, 2, (3, 5)), 3))
    a, b = random_two_cover(wcc, random.Random(9))
    assert check_mv(wcc, a, b).passed
    assert len(calls) <= 58


def test_mv_catches_a_zero_connecting_map(monkeypatch):
    homs = []
    original = verify._connecting

    def zeroed(*args, **kwargs):
        homs.extend(original(*args, **kwargs))
        return tuple(GroupHom(h.source, h.target,
                              IntMatrix.zeros(h.matrix.rows, h.matrix.cols))
                     for h in homs)

    monkeypatch.setattr(verify, "_connecting", zeroed)
    report = check_mv(torus_of_two_annuli(), "left", "right")
    assert any(not is_zero(h.matrix) for h in homs)
    assert not report.passed


def test_mv_checks_each_inclusion_once(monkeypatch):
    """check_mv checks each of its four inclusions once, and then reads
    the maps on trusted sparse lifts: no commuting check, no checked
    chain map and no public kernel_coords (7, 4, 4 and 218 calls on
    this cover when every map went through the public entry points)."""
    from orbihom import chains
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(chains, "_check_subcomplex",
                        counted("subcomplex", chains._check_subcomplex))
    for cls, name in ((chains.ChainMap, "commutes"),
                      (chains.ChainMap, "__post_init__"),
                      (chains.DegreeHomology, "kernel_coords")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    wcc = t_model(ProductTorus(Surface(1, 2, (3, 5)), 3))
    a, b = random_two_cover(wcc, random.Random(9))
    assert check_mv(wcc, a, b).passed
    assert calls["subcomplex"] <= 4
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
        assert a | b == set(wcc.ids())
        for cells in (a, b):
            for cid in cells:
                for ref, _ in wcc.cell(cid).boundary:
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
    to_zero = GroupHom(free1, AbPresentation.free(0), IntMatrix.zeros(0, 1))
    row = exactness_assertion("not exact", None, to_zero, free1)
    assert not row.passed
    # image of identity Z -> Z equals kernel of map to 0
    ident = GroupHom(free1, free1, identity(1))
    row = exactness_assertion("exact", ident, to_zero, free1)
    assert row.passed


def test_exactness_assertion_checks_presentation_match():
    free1 = AbPresentation.free(1)
    free2 = AbPresentation.free(2)
    hom = GroupHom(free1, free2, IntMatrix([[1], [0]]))
    to_zero = GroupHom(free1, AbPresentation.free(0), IntMatrix.zeros(0, 1))
    with pytest.raises(ValueError):
        exactness_assertion("bad", hom, to_zero, free1)
    with pytest.raises(ValueError):
        exactness_assertion("bad", None, hom, free2)
