"""Weighted cellular models: builders, file format, degenerations."""

import gc
import pathlib
import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from orbihom import chains, intlin, orbmodel
from orbihom.chains import ChainComplex, homology, relative, subcomplex, validate
from orbihom.intlin import FgAbGroup
from orbihom.orbmodel import (
    MAX_CELLS,
    MAX_DIM,
    Ball3,
    Ball3Cyclic,
    Cell,
    ComplexError,
    Custom,
    Disc2,
    OwcError,
    ProductTorus,
    Surface,
    WeightedCellComplex,
    adapted_model,
    cone_point_index,
    degenerate_weights,
    describe,
    parse_owc,
    serialize_owc,
    t_model,
    underlying_model,
    ws_complex,
)
from orbihom.verify import check_kunneth

from oracles import (
    boundary_matrix,
    cell,
    cyclic,
    dense_boundary,
    dense_ws_boundary,
    generators,
    ids,
    presentation_groups,
    public_chain_complex,
    public_tensor,
    run,
)
from test_acceptance import GRID_1_TO_3

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.trivial()
CIRCLE = WeightedCellComplex("circle", 1, (Cell("z", 0, 1), Cell("t", 1, 1)))
PRODUCTS = (ProductTorus(Disc2(3), 1), ProductTorus(Ball3((2, 3, 5)), 2),
            ProductTorus(Surface(1, 2, (2, 3)), 2),
            ProductTorus(Surface(4, 3, (2, 3, 5, 7)), 3),
            ProductTorus(Ball3Cyclic(4), 4), ProductTorus(Surface(1, 2, (2, 3)), 5))


def t_groups(d):
    return homology(t_model(d).chain_complex()).groups()


def ws_groups(d, rel=None):
    am = adapted_model(d)
    h = homology(ws_complex(am, rel=rel))
    return tuple(h.group(am.dim - q) for q in range(am.dim + 1))


# ------------------------------------------------------------- descriptors


def test_describe_strings():
    assert describe(Disc2(3)) == "disc2(3)"
    assert describe(Ball3((2, 3, 4))) == "ball3(2,3,4)"
    assert describe(Ball3Cyclic(5)) == "ball3cyclic(5)"
    assert describe(Surface(1, 2)) == "surface(1,2)"
    assert describe(Surface(1, 2, (3,))) == "surface(1,2;3)"
    assert describe(ProductTorus(Disc2(2), 2)) == "disc2(2) x torus(2)"


def test_descriptor_validation():
    with pytest.raises(ValueError):
        Disc2(1)
    with pytest.raises(ValueError):
        Ball3Cyclic(0)
    with pytest.raises(ValueError):
        Ball3((2, 3))
    with pytest.raises(ValueError):
        Ball3((2, 3, 1))
    with pytest.raises(ValueError):
        Surface(-1, 0)
    with pytest.raises(ValueError):
        Surface(0, 0, (1,))
    with pytest.raises(ValueError):
        ProductTorus(Disc2(2), 0)
    # integer fields go through operator.index: no truncation, no strings
    for build in (lambda: Ball3((2.7, 3, 5)), lambda: Ball3(("2", "3", "5")),
                  lambda: Surface(0, 0, (2.9, 3)), lambda: Surface(1.5, 0),
                  lambda: Surface(0, 1.0), lambda: Disc2(2.5),
                  lambda: Ball3Cyclic(3.5),
                  lambda: ProductTorus(Disc2(3), 1.5)):
        with pytest.raises(TypeError):
            build()
    assert Ball3([2, 3, 5]).orders == (2, 3, 5)
    assert Surface(True, 0, [2, 3]) == Surface(1, 0, (2, 3))


def test_cone_point_index_values():
    assert cone_point_index(2, 2, 5) == 10
    assert cone_point_index(2, 2, 4) == 8
    assert cone_point_index(2, 2, 2) == 4
    assert cone_point_index(2, 3, 3) == 12
    assert cone_point_index(2, 3, 4) == 24
    assert cone_point_index(2, 3, 5) == 60
    # order of arguments is irrelevant
    assert cone_point_index(5, 2, 2) == 10
    for bad in ((3, 3, 3), (2, 3, 6), (2, 4, 4), (3, 4, 5)):
        with pytest.raises(ValueError):
            cone_point_index(*bad)


# ---------------------------------------------------------------- weights


def test_cell_validation():
    for bad_id in ("bad id", "v\n", ""):
        with pytest.raises(ValueError, match="bad cell id"):
            Cell(bad_id, 0, 1)
    with pytest.raises(ValueError):
        Cell("v", 0, 0)
    merged = Cell("e", 1, 1, (("v", 1), ("v", 2), ("w", 0)))
    assert merged.boundary == (("v", 3),)
    for bad in (lambda: Cell("e", 1, 1, (("p", 1.9),)),
                lambda: Cell("e", 1.5, 2.5),
                lambda: Cell("e", 1, "2"),
                lambda: Cell("e", 1, 1, (("p", "1"),))):
        with pytest.raises(TypeError):
            bad()


def test_weighted_complex_validation():
    v = Cell("v", 0, 1)
    with pytest.raises(ValueError):
        WeightedCellComplex("x", 0, (v, v))
    with pytest.raises(ValueError):
        WeightedCellComplex("x", 0, (Cell("e", 1, 1),))
    with pytest.raises(ValueError):
        WeightedCellComplex("x", 1, (v, Cell("e", 1, 1, (("w", 1),))))
    with pytest.raises(ValueError):
        WeightedCellComplex("x", 0, (v,), subs={"s": ("ghost",)})
    with pytest.raises(ValueError, match="'all' is reserved"):
        WeightedCellComplex("x", 0, (v,), subs={"all": ("v",)})


def test_sub_cells_all_and_unknown():
    wcc = t_model(Disc2(2))
    assert wcc.sub_cells("all") == frozenset(ids(wcc))
    assert wcc.sub_cells("boundary") == {"v0", "c_out"}
    with pytest.raises(ValueError):
        wcc.sub_cells("nope")


def test_tensor_weighted_multiplies_weights():
    """The product with the circle, built by the oracle and by t_model."""
    a = t_model(Disc2(3))
    for prod in (public_tensor(a, CIRCLE, "p"),
                 t_model(ProductTorus(Disc2(3), 1))):
        assert prod.dim == 3
        assert len(prod.cells) == len(a.cells) * 2
        assert cell(prod, "sighat_x_z").weight == 3
        assert cell(prod, "sighat_x_t").weight == 3
        assert validate(prod.chain_complex()) == []
        # subs of the first factor survive as products
        bd = prod.sub_cells("boundary")
        assert "v0_x_z" in bd and "v0_x_t" in bd and "c_out_x_t" in bd


# A disc2(3) file whose cells are not sorted by dimension.
UNORDERED_OWC = ("orbifold unordered\ndim 2\n"
                 "cell sighat dim=2 weight=3 boundary=c_in:3\n"
                 "cell A dim=2 weight=1 boundary=c_out:1,c_in:-1\n"
                 "cell c_out dim=1 weight=1\n"
                 "cell r dim=1 weight=1 boundary=v0:1,u:-1\n"
                 "cell v0 dim=0 weight=1\n"
                 "cell c_in dim=1 weight=1\n"
                 "cell u dim=0 weight=1\n"
                 "sub boundary = v0,c_out\n")


def _by_dim(wcc: WeightedCellComplex) -> WeightedCellComplex:
    """wcc rebuilt with its cells stably sorted by dimension."""
    return WeightedCellComplex(wcc.name, wcc.dim,
                               sorted(wcc.cells, key=lambda cell: cell.dim), wcc.subs)


def _model_data(wcc: WeightedCellComplex) -> tuple:
    """Everything a model holds: dim, basis, boundaries, weights, subs."""
    c = wcc.chain_complex()
    return wcc.dim, c.basis, c.boundaries, wcc._weights, wcc.subs


def _in_face_order(wcc: WeightedCellComplex) -> tuple:
    """wcc's cells, each boundary sorted by face position."""
    c = wcc.chain_complex()
    return tuple(Cell(cell.id, cell.dim, cell.weight, tuple(sorted(
        cell.boundary, key=lambda entry: c.position(cell.dim - 1, entry[0]))))
        for cell in wcc.cells)


def test_product_of_an_unordered_file_base_matches_iterated_tensor(tmp_path):
    """parse_owc keeps file order, but a 2-cell listed before its edges
    and vertices lands in its degree's basis like any other: a product
    orders each dimension as the products of the base with its cells
    stably sorted by dimension do."""
    path = tmp_path / "unordered.owc"
    path.write_text(UNORDERED_OWC)
    d = ProductTorus(Custom(str(path)), 3)
    model = parse_owc(path.read_text())
    assert [cell.dim for cell in model.cells] == [2, 2, 1, 1, 0, 1, 0]
    model = _by_dim(model)
    for _ in range(3):
        model = public_tensor(model, CIRCLE, describe(d))
    assert _model_data(t_model(d)) == _model_data(model)


def test_file_product_reads_the_file_once(tmp_path, monkeypatch):
    path = tmp_path / "disc.owc"
    path.write_text(serialize_owc(t_model(Disc2(3))))
    calls = []

    def counted(text):
        calls.append(text)
        return parse_owc(text)

    monkeypatch.setattr(orbmodel, "parse_owc", counted)
    d = ProductTorus(Custom(str(path)), 2)
    for build in (t_model, adapted_model, underlying_model):
        calls.clear()
        assert len(build(d).cells) == 28
        assert len(calls) == 1, build.__name__


def _same_complex(c: ChainComplex, other: ChainComplex) -> bool:
    return (c.basis, c.boundaries) == (other.basis, other.boundaries)


def test_product_models_match_public_builds(tmp_path):
    """Product models, their chain complexes, restrictions and scaled
    duals equal rebuilds through the public, checking constructors:
    iterated products with the circle, each one a valid complex.  The
    file base lists its cells out of dimension order, so its products
    are matched against those of the base sorted by dimension.  A
    product's cells list each boundary by face position, and its .owc
    text reads back to the same model.  The second file base is itself
    a product, so its labels already end in '_x_t' or '_x_z'."""
    path = tmp_path / "unordered.owc"
    path.write_text(UNORDERED_OWC)
    suffixed = tmp_path / "suffixed.owc"
    suffixed.write_text(serialize_owc(t_model(ProductTorus(Disc2(3), 1))))
    for d in PRODUCTS + (ProductTorus(Custom(str(path)), 3),
                         ProductTorus(Custom(str(suffixed)), 2)):
        for build in (t_model, adapted_model):
            model, ref = build(d), _by_dim(build(d.base))
            for _ in range(d.torus_factors):
                ref = public_tensor(ref, CIRCLE, describe(d))
                assert validate(ref.chain_complex()) == []
            assert model.cells == _in_face_order(ref), (d, build.__name__)
            assert _model_data(parse_owc(serialize_owc(model))) == \
                _model_data(ref)
            assert model.subs == ref.subs
            c = model.chain_complex()
            assert _same_complex(c, ref.chain_complex())
            assert _same_complex(c, public_chain_complex(model))
            for sub in model.subs:
                cells = model.sub_cells(sub)
                for got, kept in ((subcomplex(c, cells), cells),
                                  (relative(c, cells), set(ids(model)) - cells)):
                    want = public_chain_complex(model, kept)
                    assert _same_complex(got, want), (d, sub)
                    assert validate(got) == validate(want) == []
        am = adapted_model(d)
        for rel in (None, *am.subs):
            ws = ws_complex(am, rel=rel)
            assert _same_complex(ws, ChainComplex(ws.basis, ws.boundaries))
            for k in range(am.dim + 2):
                assert boundary_matrix(ws, k) == \
                    dense_ws_boundary(am, k, rel), (d, rel, k)


def test_product_subs_are_derived_on_first_read(monkeypatch):
    """Z and Q homology and check_kunneth read no sub of a product, so
    its subs stay underived, and the weight-one degeneration passes them
    on as they are.  The first read of subs or sub_cells derives them
    once; every later read returns the same dict."""
    built, torus = [], orbmodel._torus

    def recorded(*args):
        built.append(torus(*args))
        return built[-1]

    monkeypatch.setattr(orbmodel, "_torus", recorded)
    desc = "surface(4,3;2,3,5,7) x torus(3)"
    assert run(["homology", "--desc", desc])[0] == 0
    assert run(["homology", "--desc", desc, "--coeff", "q"])[0] == 0
    assert check_kunneth(Surface(4, 3, (2, 3, 5, 7)), 3).passed
    assert run(["verify", "rational", "--desc", desc])[0] == 0
    # verify rational builds the product once, and degenerates that model.
    assert len(built) == 4 and all(callable(model._subs) for model in built)
    for d in PRODUCTS:
        for read in (lambda m: m.subs, lambda m: m.sub_cells("boundary")):
            model, calls = t_model(d), []
            derive = model._subs
            object.__setattr__(model, "_subs", lambda: calls.append(1) or derive())
            under = degenerate_weights(model)
            assert under._subs is model._subs
            read(model)
            subs = model.subs
            assert model.subs is subs and calls == [1]
            assert all(model.sub_cells(name) is subs[name] for name in subs)
            assert under.subs == subs and calls == [1, 1]
            assert underlying_model(d).subs == subs


def test_nested_products_build_as_one_product():
    """ProductTorus(ProductTorus(X, j), k) is X x torus(j + k): the
    same descriptor, so the same models under the same name."""
    for d in PRODUCTS:
        for j in (1, 2):
            nested = ProductTorus(ProductTorus(d.base, j), d.torus_factors)
            flat = ProductTorus(d.base, j + d.torus_factors)
            assert nested == flat and describe(nested) == describe(flat)
            for build in (t_model, adapted_model, underlying_model):
                assert serialize_owc(build(nested)) == serialize_owc(build(flat))


def test_product_build_checks_only_the_base_cells(monkeypatch):
    """A product is built from its checked base by index arithmetic: the
    build checks each of the 27 base rows once, builds no Cell, and
    composes only the base's d∘d.  The product is valid by construction,
    so no homology() of it composes d∘d, and its cells view is built
    once, on first read."""
    base = t_model(Surface(4, 3, (2, 3, 5, 7))).chain_complex()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Cell, "__post_init__",
                        counted("cell", Cell.__post_init__))
    monkeypatch.setattr(Cell, "_of", staticmethod(counted("view", Cell._of)))
    monkeypatch.setattr(orbmodel, "_row", counted("row", orbmodel._row))
    monkeypatch.setattr(intlin, "_column", counted("column", intlin._column))
    monkeypatch.setattr(chains, "_compose", counted("compose", chains._compose))
    model = t_model(ProductTorus(Surface(4, 3, (2, 3, 5, 7)), 3))
    assert (calls["cell"], calls["view"], calls["column"]) == (0, 0, 0)
    assert calls["row"] == 27
    assert calls["compose"] == sum(map(len, base.boundaries[1:])) == 5
    calls.clear()
    c = model.chain_complex()
    homology(c)
    assert calls["compose"] == 0
    homology(c)
    homology(subcomplex(c, model.sub_cells("boundary")))
    homology(relative(c, model.sub_cells("boundary")))
    assert calls["compose"] == 0
    assert len(model.cells) == 216 and calls["view"] == 216
    assert model.cells is model.cells
    # The order of face positions, not the base cell's boundary order.
    assert cell(model, "r1_x_t_x_z_x_t").boundary == (
        ("v_x_t_x_z_x_t", -1), ("w1_x_t_x_z_x_t", 1))
    assert (calls["cell"], calls["view"], calls["row"]) == (0, 216, 0)


def test_homology_of_derived_complexes_composes_nothing(monkeypatch):
    """Each complex the product-homology ops take homology of is built
    trusted from a checked base: homology() composes no d∘d column."""
    d = ProductTorus(Surface(4, 3, (2, 3, 5, 7)), 3)
    t = t_model(d).chain_complex()
    derived = [ws_complex(adapted_model(d), "boundary"),
               underlying_model(d).chain_complex()]
    calls, original = Counter(), chains._compose

    def compose(*args):
        calls["compose"] += 1
        return original(*args)

    monkeypatch.setattr(chains, "_compose", compose)
    homology(t)
    homology(t, "Q")
    for c in derived:
        homology(c)
    assert calls["compose"] == 0


def test_product_ops_leave_no_cyclic_garbage():
    """Models, their cells views and their homology are freed by
    reference counting: a view holds only cells read off its own
    complex's columns, never a complex, so a product-homology op leaves
    nothing for the cycle collector, which is off while the ops run."""
    desc = "surface(4,3;2,3,5,7) x torus(3)"
    argvs = (["homology", "--desc", desc],
             ["homology", "--desc", desc, "--coeff", "q"],
             ["ws-cohomology", "--desc", desc, "--rel", "boundary"])

    def ops():
        for argv in argvs:
            assert run(argv)[0] == 0, argv
        assert len(t_model(ProductTorus(Surface(4, 3, (2, 3, 5, 7)), 3)).cells) == 216

    ops()  # first calls fill module-level caches
    gc.collect()
    gc.disable()
    try:
        ops()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tensor_weighted_rejects_colliding_product_ids():
    """Factor ids with '_x_' can give two product cells one id, and the
    product is refused by that id."""
    a = WeightedCellComplex("a", 1, (Cell("V", 0, 1),
                                     Cell("V_x_y", 1, 1, (("V", 1),))))
    b = WeightedCellComplex("b", 1, (Cell("Z", 0, 1),
                                     Cell("y_x_Z", 1, 1, (("Z", 1),))))
    with pytest.raises(ComplexError,
                       match="^duplicate cell id V_x_y_x_Z$") as info:
        public_tensor(a, b, "ab")
    assert info.value.cell == "V_x_y_x_Z"


def test_cell_count_matches_built_models(monkeypatch):
    """The size guard's estimate, read off its message with the limit
    at 0, is the cell count of the model built under the real limit."""
    for d in GRID_1_TO_3 + list(PRODUCTS):
        for build in (t_model, adapted_model):
            cells = len(build(d).cells)
            with monkeypatch.context() as patch:
                patch.setattr(orbmodel, "MAX_CELLS", 0)
                with pytest.raises(ValueError, match="limit of 0") as info:
                    build(d)
            n, k = re.search(r"would have (\d+)(?: x 2\^(\d+))? cells",
                             str(info.value)).groups()
            assert int(n) << int(k or 0) == cells, (d, build.__name__)


def test_size_guard_refuses_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("the model was built")

    for family, (_, _, count) in list(orbmodel._FAMILIES.items()):
        monkeypatch.setitem(orbmodel._FAMILIES, family, (build, build, count))
    monkeypatch.setattr(orbmodel, "_torus", build)
    for d, estimate in ((ProductTorus(Disc2(3), 40), "7 x 2^40"),
                        (ProductTorus(Disc2(3), 10 ** 30), f"7 x 2^{10 ** 30}"),
                        (Surface(60_000, 0), "120002"),
                        (ProductTorus(ProductTorus(Disc2(3), 9), 7),
                         "7 x 2^16")):
        for model in (t_model, adapted_model, underlying_model):
            with pytest.raises(ValueError, match="limit of 100000") as info:
                model(d)
            if model is not adapted_model:
                assert f"would have {estimate} cells" in str(info.value)
    assert MAX_CELLS == 100_000
    # The largest model measured, 55,296 cells, is let through.
    with pytest.raises(AssertionError, match="was built"):
        t_model(ProductTorus(Surface(4, 3, (2, 3, 5, 7)), 11))


# ------------------------------------------------------- homology tables


def test_disc2_and_ball3cyclic_tables():
    for n in (2, 3, 5, 12):
        assert t_groups(Disc2(n)) == (Z, cyclic(n), ZERO)
        assert t_groups(Ball3Cyclic(n)) == \
            (Z, cyclic(n), ZERO, ZERO)


def test_surface_table_with_boundary():
    for g, b in ((0, 1), (1, 1), (1, 2)):
        for cones in ((), (2, 3), (3, 3, 3)):
            got = t_groups(Surface(g, b, cones))
            acc = FgAbGroup.free(2 * g + b - 1)
            for m in cones:
                acc = acc.direct_sum(cyclic(m))
            assert got[0] == Z
            assert got[1] == acc
            assert got[2] == ZERO


def test_surface_closed_table():
    got = t_groups(Surface(2, 0))
    assert got == (Z, FgAbGroup.free(4), Z)
    got = t_groups(Surface(2, 0, (2, 3)))
    assert got[0] == Z
    assert got[2] == Z


def test_ball3_table():
    z2 = cyclic(2)
    z2z2 = FgAbGroup(0, (2, 2))
    expect = {
        (2, 2, 4): (Z, z2z2, z2, ZERO),
        (2, 2, 5): (Z, z2, ZERO, ZERO),
        (2, 2, 6): (Z, z2z2, z2, ZERO),
        (2, 2, 7): (Z, z2, ZERO, ZERO),
        (2, 3, 3): (Z, cyclic(3), z2, ZERO),
        (2, 3, 4): (Z, z2, z2, ZERO),
        (2, 3, 5): (Z, ZERO, z2, ZERO),
    }
    for triple, groups in expect.items():
        assert t_groups(Ball3(triple)) == groups, triple


def test_ball3_interior_face_coefficients():
    wcc = t_model(Ball3((2, 2, 5)))
    tau = cell(wcc, "tauhat")
    assert tau.weight == 10
    assert dict(tau.boundary) == {
        "sigma0": 10, "sighat1": 5, "sighat2": 5, "sighat3": 2,
    }


def test_ball3_rejects_non_spherical():
    with pytest.raises(ValueError):
        t_model(Ball3((3, 3, 3)))
    with pytest.raises(ValueError):
        adapted_model(Ball3((2, 3, 6)))


def test_product_torus_vanishing_top_degrees():
    for n in (2, 3, 4):
        h1 = homology(t_model(ProductTorus(Disc2(n), 1)).chain_complex())
        assert h1.group(3) == ZERO
        h2 = homology(t_model(ProductTorus(Disc2(n), 2)).chain_complex())
        assert h2.group(4) == ZERO


def test_relative_disc2_table():
    wcc = t_model(Disc2(4))
    rel = relative(wcc.chain_complex(), wcc.sub_cells("boundary"))
    assert homology(rel).groups() == (ZERO, ZERO, Z)


# -------------------------------------------------------- underlying space


def test_underlying_models():
    assert homology(underlying_model(Disc2(7)).chain_complex()).groups() == \
        (Z, ZERO, ZERO)
    assert homology(
        underlying_model(Ball3((2, 3, 5))).chain_complex()).groups() == \
        (Z, ZERO, ZERO, ZERO)
    assert homology(
        underlying_model(Surface(2, 0, (3, 3))).chain_complex()).groups() == \
        (Z, FgAbGroup.free(4), Z)
    assert homology(
        underlying_model(Surface(0, 3)).chain_complex()).groups() == \
        (Z, FgAbGroup.free(2), ZERO)


def test_underlying_cells_view_rebuilds_the_model(tmp_path):
    """The cells view of a weight degeneration, of a product of a built
    or file base, flat or nested, gives the same model when rebuilt by
    the public constructor and when read back from its .owc text, and
    lists every boundary by face position."""
    path = tmp_path / "unordered.owc"
    path.write_text(UNORDERED_OWC)
    descs = PRODUCTS + (ProductTorus(Custom(str(path)), 3),) + tuple(
        ProductTorus(ProductTorus(d.base, j), d.torus_factors)
        for d in PRODUCTS for j in (1, 2))
    for d in descs:
        m = underlying_model(d)
        assert _model_data(WeightedCellComplex(m.name, m.dim, m.cells, m.subs)) \
            == _model_data(m), d
        assert _model_data(parse_owc(serialize_owc(m))) == _model_data(m), d
        assert m.cells == _in_face_order(m), d
        assert {cell.weight for cell in m.cells} == {1}


def test_row_built_models_match_public_builds():
    """Every model built from rows (each family builder, and parse_owc,
    also on a file out of dimension order) and every torus(1-3) product
    of one equals its rebuild from its cells view by the public
    constructor: in its data, in its cells (order and boundary order),
    in its subs and in its .owc text."""
    models = [build(d) for d in GRID_1_TO_3 for build in (t_model, adapted_model)]
    models += [parse_owc(serialize_owc(m)) for m in models] + [parse_owc(UNORDERED_OWC)]
    models += [orbmodel._torus(m, k, f"{m.name} x torus({k})")
               for m in list(models) for k in (1, 2, 3)]
    for m in models:
        ref = WeightedCellComplex(m.name, m.dim, m.cells, m.subs)
        assert _model_data(ref) == _model_data(m), m.name
        assert ref.cells == m.cells and ref.subs == m.subs, m.name
        assert serialize_owc(ref) == serialize_owc(m), m.name
    unordered = parse_owc(UNORDERED_OWC)
    assert [(cell.id, cell.boundary) for cell in unordered.cells][:2] == [
        ("sighat", (("c_in", 3),)), ("A", (("c_out", 1), ("c_in", -1)))]


def test_degenerate_weights_requires_divisibility(tmp_path):
    """Each fault names the first bad incidence in degree, column and
    row order: face positions, not boundary order, and product cells in
    a product."""
    weight = (Cell("v", 0, 2), Cell("e", 1, 3, (("v", 1),)))
    incidence = (Cell("v", 0, 1), Cell("w", 0, 1),
                 Cell("e", 1, 2, (("w", 3), ("v", 3))))
    for cells, error in (
            (weight, "weight does not divide the weight of its face {}"),
            (incidence, "incidence on {} is not divisible by the weight ratio")):
        wcc = WeightedCellComplex("bad", 1, cells)
        with pytest.raises(ValueError, match=f"^cell e: {error.format('v')}$"):
            degenerate_weights(wcc)
        path = tmp_path / "bad.owc"
        path.write_text(serialize_owc(wcc))
        with pytest.raises(ValueError, match=f"^cell e_x_z_x_z: "
                                             f"{error.format('v_x_z_x_z')}$"):
            underlying_model(ProductTorus(Custom(str(path)), 2))


# ------------------------------------------------------------ ws complexes


def test_ws_disc2():
    n = 6
    assert ws_groups(Disc2(n)) == (Z, ZERO, ZERO)
    assert ws_groups(Disc2(n), rel="boundary") == \
        (ZERO, cyclic(n), Z)


def test_ws_ball3cyclic():
    assert ws_groups(Ball3Cyclic(4)) == (Z, ZERO, ZERO, ZERO)
    assert ws_groups(Ball3Cyclic(4), rel="boundary") == \
        (ZERO, ZERO, cyclic(4), Z)


def test_ws_closed_surface_scaled_generator():
    am = adapted_model(Surface(1, 0, (2, 3)))
    c = ws_complex(am)
    h = homology(c)
    n = am.dim
    assert h.group(n) == Z
    assert c.basis[n] == ("v", "p1", "p2")
    gen = generators(h.degree(n))[0]
    assert gen in ((6, 3, 2), (-6, -3, -2))
    assert h.group(n - 1) == FgAbGroup.free(2)
    assert h.group(0) == Z


def test_ws_integrality_error():
    """A non-integral entry names its coface and the first bad face by
    face position, not by the order the coface lists its boundary."""
    wcc = WeightedCellComplex(
        name="notadapted", dim=1,
        cells=(Cell("v", 0, 1), Cell("e", 1, 2, (("v", 3),))),
    )
    with pytest.raises(ValueError, match="^weights are not adapted: entry "
                                         "from e to v is not integral$"):
        ws_complex(wcc)
    wcc = WeightedCellComplex(
        name="notadapted", dim=1,
        cells=(Cell("v", 0, 1), Cell("w", 0, 1),
               Cell("e", 1, 2, (("w", 3), ("v", 1)))),
    )
    with pytest.raises(ValueError, match="^weights are not adapted: entry "
                                         "from e to v is not integral$"):
        ws_complex(wcc)


def test_adapted_models_are_valid_complexes():
    for d in (Disc2(5), Ball3((2, 3, 4)), Ball3Cyclic(3),
              Surface(1, 1, (2,)), Surface(0, 0, (2, 2, 2)),
              ProductTorus(Disc2(2), 1)):
        am = adapted_model(d)
        assert validate(am.chain_complex()) == []
        ws_complex(am)


# ------------------------------------------------------------- owc format


def test_owc_round_trip():
    for d in (Disc2(3), Ball3((2, 2, 4)), Surface(1, 1, (2,)),
              ProductTorus(Disc2(2), 1)):
        wcc = t_model(d)
        text = serialize_owc(wcc)
        back = parse_owc(text)
        assert serialize_owc(back) == text
        assert homology(back.chain_complex()).groups() == \
            homology(wcc.chain_complex()).groups()


def test_owc_faces_may_be_declared_after_their_cell():
    """A face is any cell declared anywhere in the file, before or after
    the cell whose boundary lists it; integers are ASCII -?[0-9]+,
    leading zeros included."""
    wcc = parse_owc("orbifold x\ndim 01\n"
                    "cell e dim=1 weight=1 boundary=v:1,w:-01\n"
                    "cell v dim=00 weight=1\ncell w dim=0 weight=01\n")
    assert [cell.id for cell in wcc.cells] == ["e", "v", "w"]
    assert wcc.cells[0].boundary == (("v", 1), ("w", -1))
    assert homology(wcc.chain_complex()).groups() == (Z, ZERO)


def test_owc_golden_adapted_ball3():
    golden = """orbifold ball3(2,3,4)
dim 3
cell p1 dim=0 weight=2
cell p2 dim=0 weight=3
cell p3 dim=0 weight=4
cell o dim=0 weight=24
cell E12 dim=1 weight=1 boundary=p2:1,p1:-1
cell E23 dim=1 weight=1 boundary=p3:1,p2:-1
cell E31 dim=1 weight=1 boundary=p1:1,p3:-1
cell g1 dim=1 weight=2 boundary=p1:1,o:-1
cell g2 dim=1 weight=3 boundary=p2:1,o:-1
cell g3 dim=1 weight=4 boundary=p3:1,o:-1
cell F_up dim=2 weight=1 boundary=E12:1,E23:1,E31:1
cell F_down dim=2 weight=1 boundary=E12:-1,E23:-1,E31:-1
cell D12 dim=2 weight=1 boundary=g1:1,E12:1,g2:-1
cell D23 dim=2 weight=1 boundary=g2:1,E23:1,g3:-1
cell D31 dim=2 weight=1 boundary=g3:1,E31:1,g1:-1
cell T_up dim=3 weight=1 boundary=F_up:1,D12:-1,D23:-1,D31:-1
cell T_down dim=3 weight=1 boundary=F_down:1,D12:1,D23:1,D31:1
sub boundary = p1,p2,p3,E12,E23,E31,F_up,F_down
"""
    assert serialize_owc(adapted_model(Ball3((2, 3, 4)))) == golden


def test_owc_parse_errors_cite_lines():
    cases = [
        ("orbifold x\ndim 1\ncell v dim=0 weight=1\ncell v dim=0 weight=1\n",
         4, "line 4: duplicate cell id v"),
        ("orbifold x\ndim 1\ncell v dim=0 weight=0\n",
         3, "line 3: cell v: weight must be at least 1"),
        ("orbifold x\ndim 1\ncell v dim=0 weight=1\n"
         "cell e dim=1 weight=1 boundary=w:1\n",
         4, "line 4: cell e: unknown boundary cell w"),
        ("orbifold x\ndim 2\ncell v dim=0 weight=1\ncell w dim=0 weight=1\n"
         "cell e dim=1 weight=1 boundary=v:1,w:-1\n"
         "cell f dim=2 weight=1 boundary=e:1\n",
         6, "line 6: boundary of boundary is nonzero: degree 2: boundary of "
            "boundary of f hits v with coefficient 1"),
        ("orbifold x\ndim 1\ncell v dim=zero weight=1\n",
         3, "line 3: dim and weight must be integers"),
        ("orbifold x\ndim 1\ncell v dim=2 weight=1\n",
         3, "line 3: cell v: dimension 2 exceeds declared dim 1"),
        ("orbifold x\ndim 0\ncell v dim=0 weight=1\nsub s = v,q\n",
         4, "line 4: subcomplex s: unknown cell q"),
        ("orbifold x\ncell v dim=0 weight=1\n",
         1, "line 1: missing 'dim <n>' line"),
        ("orbifold x\ndim 2\ncell v dim=0 weight=1\n"
         "cell f dim=2 weight=1 boundary=v:1\n",
         4, "line 4: cell f: boundary cell v has dimension 0, expected 1"),
        ("orbifold x\ndim 1\ncell v dim=0 weight=1\ncell w dim=0 weight=1\n"
         "cell e dim=1 weight=1 boundary=v:1,w:-1\nsub s = v\nsub s = e\n",
         7, "line 7: subcomplex s: cell e has face w outside it"),
        ("orbifold x\ndim --3\n", 2, "line 2: dim needs one integer"),
        ("orbifold x\ndim \u00b2\n", 2, "line 2: dim needs one integer"),
        ("orbifold c\ndim 1\ncell v dim=0 weight=1\ncell t dim=1 weight=1\n"
         "sub all = v\nsub pt = v\n",
         5, "line 5: subcomplex name 'all' is reserved"),
        ("orbifold a\ndim 1\ndim 0\ncell v dim=0 weight=1\n",
         3, "line 3: repeated dim line"),
        ("# header\norbifold a\ndim 0\ncell v dim=0 weight=1\norbifold b\n",
         5, "line 5: repeated orbifold line"),
    ]
    for text, line, message in cases:
        with pytest.raises(OwcError) as err:
            parse_owc(text)
        assert err.value.line == line, text
        assert str(err.value) == message


def test_owc_size_is_capped_at_its_line(monkeypatch):
    """A dim above MAX_DIM, or more than MAX_CELLS cell lines, is
    refused at its line; the cell limit is lowered so nothing large is
    built."""
    monkeypatch.setattr(orbmodel, "MAX_CELLS", 3)
    with pytest.raises(OwcError) as err:
        parse_owc(f"orbifold big\ndim {MAX_DIM + 1}\n")
    assert str(err.value) == (f"line 2: dim {MAX_DIM + 1} is more than the "
                              f"limit of {MAX_DIM}")
    with pytest.raises(OwcError) as err:  # more digits than int() converts
        parse_owc("orbifold big\ndim 1" + "0" * 5000 + "\n")
    assert err.value.line == 2
    cells = [f"cell v{i} dim=0 weight=1\n" for i in range(4)]
    with pytest.raises(OwcError) as err:
        parse_owc("orbifold big\ndim 0\n" + "".join(cells))
    assert str(err.value) == "line 6: more than the limit of 3 cells"
    # at the limit both are taken
    wcc = parse_owc(f"orbifold big\ndim {MAX_DIM}\n" + "".join(cells[:3]))
    assert (wcc.dim, len(wcc.cells)) == (MAX_DIM, 3)


# Texts of a few grid models and products, and of a file out of
# dimension order, for the parse_owc fuzzer.
FUZZ_TEXTS = [serialize_owc(build(d)) for d, build in (
    (Disc2(3), t_model), (Ball3((2, 3, 5)), adapted_model),
    (Surface(1, 1, (2, 3)), t_model), (Ball3Cyclic(4), underlying_model),
    (ProductTorus(Disc2(2), 2), t_model),
    (ProductTorus(Surface(0, 1, (3,)), 1), adapted_model))] + [UNORDERED_OWC]
FUZZ_LINES = sorted({line for text in FUZZ_TEXTS for line in text.splitlines()})
FUZZ_WORDS = ("", "0", "-1", "2", "65", "1.5", "x", "a-b", "v:", "v:1:2", ",", "=",
              "1" * 5000)


@st.composite
def mutated_owc(draw) -> str:
    """An .owc text with one or two lines inserted (from any text),
    deleted, truncated, spliced from the heads and tails of two, with
    one boundary coefficient changed, or with one word, or the value
    after its '=', replaced by one of FUZZ_WORDS.  The choices are
    uniform, from a drawn Random."""
    rng = draw(st.randoms(use_true_random=False))
    lines = rng.choice(FUZZ_TEXTS).splitlines()
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(lines) + 1)
        kind = rng.choice(("word", "word", "coefficient", "splice", "insert",
                           "delete", "truncate"))
        if kind == "insert":
            lines.insert(at, rng.choice(FUZZ_LINES))
        elif lines and at < len(lines):
            line = lines[at]
            cut = rng.randint(0, len(line))
            if kind == "delete":
                del lines[at]
            elif kind == "truncate":
                lines[at] = line[:cut]
            elif kind == "coefficient" and ":" in line:
                parts = line.split(":")
                i = rng.randrange(1, len(parts))
                kept = parts[i][re.match(r"-?\d*", parts[i]).end():]
                parts[i] = rng.choice(("0", "2", "-2", "3")) + kept
                lines[at] = ":".join(parts)
            elif kind == "splice":
                other = rng.choice(FUZZ_LINES)
                lines[at] = line[:cut] + other[rng.randint(0, len(other)):]
            else:
                words = line.split(" ")
                word = rng.randrange(len(words))
                key, eq, _ = words[word].rpartition("=")
                words[word] = key + eq + rng.choice(FUZZ_WORDS)
                lines[at] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(mutated_owc())
def test_parse_owc_raises_only_owc_errors(text):
    """Whatever the damage to a file, parse_owc gives a complex or an
    OwcError (exit code 2), never another exception."""
    try:
        parse_owc(text)
    except OwcError:
        pass


# Valid models whose rows the fault test below damages.
FAULT_BASES = [parse_owc(text) for text in FUZZ_TEXTS]


def _outcome(build):
    """The exception type and message build raises, or None."""
    try:
        build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def faulty_rows(draw) -> tuple:
    """(dim, rows, subs, kind) of a valid model with one fault put into
    its rows or subs: a bad id, weight 0, a float dim, an unknown face,
    a face of the wrong dimension, a duplicate id, an unclosed sub, or a
    face whose boundary makes d∘d nonzero."""
    rng = draw(st.randoms(use_true_random=False))
    model = rng.choice(FAULT_BASES)
    rows = [[cell.id, cell.dim, cell.weight, list(cell.boundary)] for cell in model.cells]
    subs = {name: sorted(members, key=ids(model).index)
            for name, members in sorted(model.subs.items())}
    kind = rng.choice(("id", "weight", "dim", "unknown", "face dim", "duplicate",
                       "sub", "dd"))
    at = rng.randrange(len(rows))
    row = rows[at]
    if kind == "id":
        row[0] = "bad-id"
    elif kind == "weight":
        row[2] = 0
    elif kind == "dim":
        row[1] = row[1] + 0.5
    elif kind == "unknown":
        row[3].insert(rng.randint(0, len(row[3])), ("ghost", 1))
    elif kind == "face dim":
        row[3].append((rng.choice([other for other in rows if other[1] != row[1] - 1])[0], 1))
    elif kind == "duplicate":
        rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
    elif kind == "sub":
        cell = rng.choice([other for other in rows if other[3]])
        subs["broken"] = [cell[0]]
    else:
        # A face with a nonzero boundary, added to a cell one dim up
        # that does not have it, gives that cell d∘d = d(face).
        pairs = [(cell, face) for cell in rows for face in rows
                 if face[1] == cell[1] - 1 and face[3]
                 and face[0] not in dict(cell[3])]
        assume(pairs)
        cell, face = rng.choice(pairs)
        cell[3].append((face[0], 1))
    return model.dim, [tuple(row[:3]) + (tuple(row[3]),) for row in rows], subs, kind


def _owc_text(dim, rows, subs) -> str:
    lines = ["orbifold faulty", f"dim {dim}"]
    for cell_id, cell_dim, weight, boundary in rows:
        line = f"cell {cell_id} dim={cell_dim} weight={weight}"
        if boundary:
            line += " boundary=" + ",".join(f"{ref}:{c}" for ref, c in boundary)
        lines.append(line)
    lines += [f"sub {name} = {','.join(members)}" for name, members in subs.items()]
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(faulty_rows())
def test_row_faults_match_public_cells(fault):
    """A fault in the rows fails the row build (_row, then the one
    structural check) with the exception type and message of public
    Cells and the constructor.  parse_owc refuses the text at the line
    of the faulty cell, of the later copy of a duplicate id, or of the
    sub line, with the same message, except where its own integer check
    refuses a float dim first."""
    dim, rows, subs, kind = fault
    public = _outcome(lambda: WeightedCellComplex(
        "faulty", dim, [Cell(*row) for row in rows], subs))
    assert public is not None, kind
    assert _outcome(lambda: WeightedCellComplex._of("faulty", *orbmodel._checked(
        dim, [orbmodel._row(*row) for row in rows], subs))) == public, kind
    bad_rows = [i for i, row in enumerate(rows) if _outcome(lambda: Cell(*row))]
    if bad_rows:
        line = 3 + bad_rows[0]
    else:
        with pytest.raises(ComplexError) as err:
            WeightedCellComplex("faulty", dim, [Cell(*row) for row in rows], subs)
        at = [i for i, row in enumerate(rows) if row[0] == err.value.cell]
        line = (3 + len(rows) + list(subs).index(err.value.sub) if err.value.sub
                else 3 + at[-1] if kind == "duplicate" else 3 + at[0])
    with pytest.raises(OwcError) as err:
        parse_owc(_owc_text(dim, rows, subs))
    assert err.value.line == line, (kind, public)
    if kind != "dim":
        assert str(err.value) == f"line {line}: {public[1]}", kind


def test_custom_file_loading(tmp_path: pathlib.Path):
    wcc = t_model(Disc2(5))
    path = tmp_path / "model.owc"
    path.write_text(serialize_owc(wcc))
    desc = Custom(str(path))
    assert describe(desc) == f"file:{path}"
    loaded = t_model(desc)
    assert homology(loaded.chain_complex()).groups() == \
        (Z, cyclic(5), ZERO)
    # a raw complex file is taken as already adapted for ws purposes
    again = adapted_model(desc)
    assert ids(again) == ids(loaded)


def test_sparse_boundaries_match_dense_oracle():
    """Dense rebuilds from the cells' incidence lists equal d(q) of the
    chain complex and of the scaled dual, with and without rel."""
    for d in GRID_1_TO_3 + [ProductTorus(Surface(1, 1, (2, 3)), 2)]:
        for wcc in (t_model(d), adapted_model(d)):
            c = wcc.chain_complex()
            for q in range(wcc.dim + 2):
                assert boundary_matrix(c, q) == dense_boundary(wcc, q), (d, q)
        am = adapted_model(d)
        for rel in (None, "boundary") if "boundary" in am.subs else (None,):
            ws = ws_complex(am, rel=rel)
            for k in range(am.dim + 2):
                assert boundary_matrix(ws, k) == \
                    dense_ws_boundary(am, k, rel), (d, rel, k)


def test_chain_complex_is_built_once():
    wcc = t_model(Surface(1, 1, (2,)))
    assert wcc.chain_complex() is wcc.chain_complex()


def test_elimination_groups_match_presentation_groups():
    """homology().groups() equals the groups read off each degree's
    presentation, on the t and adapted models and the scaled dual."""
    products = [ProductTorus(Surface(1, 1, (2, 3)), 2),
                ProductTorus(Ball3((2, 2, 3)), 1)]
    for d in GRID_1_TO_3 + products:
        complexes = [t_model(d).chain_complex(),
                     adapted_model(d).chain_complex()]
        am = adapted_model(d)
        for rel in (None, "boundary") if "boundary" in am.subs else (None,):
            complexes.append(ws_complex(am, rel=rel))
        for c in complexes:
            h = homology(c)
            assert h.groups() == presentation_groups(h), d


def test_all_builtin_models_have_valid_boundaries():
    descriptors = [
        Disc2(2), Disc2(9),
        Ball3Cyclic(2), Ball3Cyclic(7),
        Ball3((2, 2, 4)), Ball3((2, 3, 5)),
        Surface(0, 1), Surface(1, 2, (2, 3)), Surface(2, 0, (3, 3, 3)),
        ProductTorus(Disc2(3), 1), ProductTorus(Surface(0, 0, (2, 2)), 2),
    ]
    for d in descriptors:
        for build in (t_model, adapted_model, underlying_model):
            wcc = build(d)
            assert validate(wcc.chain_complex()) == [], (d, build.__name__)
