"""Weighted cellular models: builders, file format, degenerations."""

import pathlib
import re
from collections import Counter

import pytest

from orbihom import chains, orbmodel
from orbihom.chains import ChainComplex, homology, relative, subcomplex, validate
from orbihom.intlin import FgAbGroup
from orbihom.orbmodel import (
    MAX_CELLS,
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

from oracles import (
    cyclic,
    dense_boundary,
    dense_ws_boundary,
    generators,
    presentation_groups,
    public_chain_complex,
    public_tensor,
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
    assert wcc.sub_cells("all") == frozenset(wcc.ids())
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
        assert prod.cell("sighat_x_z").weight == 3
        assert prod.cell("sighat_x_t").weight == 3
        assert validate(prod.chain_complex()) == []
        # subs of the first factor survive as products
        bd = prod.sub_cells("boundary")
        assert "v0_x_z" in bd and "v0_x_t" in bd and "c_out_x_t" in bd


def test_product_of_an_unordered_file_base_matches_iterated_tensor(tmp_path):
    """parse_owc keeps file order, so a 2-cell listed before its edges
    and vertices makes base position, not dimension, order the cells
    of each product dimension."""
    path = tmp_path / "unordered.owc"
    path.write_text("orbifold unordered\ndim 2\n"
                    "cell sighat dim=2 weight=3 boundary=c_in:3\n"
                    "cell A dim=2 weight=1 boundary=c_out:1,c_in:-1\n"
                    "cell c_out dim=1 weight=1\n"
                    "cell r dim=1 weight=1 boundary=v0:1,u:-1\n"
                    "cell v0 dim=0 weight=1\n"
                    "cell c_in dim=1 weight=1\n"
                    "cell u dim=0 weight=1\n"
                    "sub boundary = v0,c_out\n")
    d = ProductTorus(Custom(str(path)), 3)
    model = parse_owc(path.read_text())
    assert [cell.dim for cell in model.cells] == [2, 2, 1, 1, 0, 1, 0]
    for _ in range(3):
        model = public_tensor(model, CIRCLE, describe(d))
    assert serialize_owc(t_model(d)) == serialize_owc(model)


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


def test_product_models_match_public_builds():
    """Product models, their chain complexes, restrictions and scaled
    duals equal rebuilds through the public, checking constructors:
    iterated products with the circle, each one a valid complex."""
    for d in PRODUCTS:
        for build in (t_model, adapted_model):
            model, ref = build(d), build(d.base)
            for _ in range(d.torus_factors):
                ref = public_tensor(ref, CIRCLE, describe(d))
                assert validate(ref.chain_complex()) == []
            assert model.cells == ref.cells, (d, build.__name__)
            assert serialize_owc(model) == serialize_owc(ref)
            assert model.subs == ref.subs
            c = model.chain_complex()
            assert _same_complex(c, ref.chain_complex())
            assert _same_complex(c, public_chain_complex(model))
            for sub in model.subs:
                cells = model.sub_cells(sub)
                for got, kept in ((subcomplex(c, cells), cells),
                                  (relative(c, cells), set(model.ids()) - cells)):
                    want = public_chain_complex(model, kept)
                    assert _same_complex(got, want), (d, sub)
                    assert validate(got) == validate(want) == []
        am = adapted_model(d)
        for rel in (None, *am.subs):
            ws = ws_complex(am, rel=rel)
            assert _same_complex(ws, ChainComplex(ws.basis, ws.boundaries))
            for k in range(am.dim + 2):
                assert ws.d(k) == dense_ws_boundary(am, k, rel), (d, rel, k)


def test_nested_products_build_as_one_product():
    """ProductTorus(ProductTorus(X, j), k) is X x torus(j + k) under
    its own name."""
    for d in PRODUCTS:
        for j in (1, 2):
            nested = ProductTorus(ProductTorus(d.base, j), d.torus_factors)
            flat = ProductTorus(d.base, j + d.torus_factors)
            for build in (t_model, adapted_model, underlying_model):
                assert serialize_owc(build(nested)) == serialize_owc(
                    build(flat)).replace(describe(flat), describe(nested), 1)


def test_product_build_checks_only_the_base_cells(monkeypatch):
    """Product cells and the model's chain complex are trusted builds,
    and homology reads the d∘d composed when the model was built."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Cell, "__post_init__",
                        counted("cell", Cell.__post_init__))
    monkeypatch.setattr(chains, "_column", counted("column", chains._column))
    monkeypatch.setattr(chains, "_compose", counted("compose", chains._compose))
    model = t_model(ProductTorus(Surface(4, 3, (2, 3, 5, 7)), 3))
    assert len(model.cells) == 216
    assert calls["cell"] == 27 and calls["column"] == 0
    assert calls["compose"] > 0
    calls.clear()
    homology(model.chain_complex())
    c = model.chain_complex()
    homology(subcomplex(c, model.sub_cells("boundary")))
    homology(relative(c, model.sub_cells("boundary")))
    assert calls["compose"] == 0


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
    monkeypatch.setattr(orbmodel, "_torus_parts", build)
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
    tau = wcc.cell("tauhat")
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


def test_degenerate_weights_requires_divisibility():
    wcc = WeightedCellComplex(
        name="bad", dim=1,
        cells=(Cell("v", 0, 1), Cell("e", 1, 2, (("v", 3),))),
    )
    with pytest.raises(ValueError):
        degenerate_weights(wcc)


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
    wcc = WeightedCellComplex(
        name="notadapted", dim=1,
        cells=(Cell("v", 0, 1), Cell("e", 1, 2, (("v", 3),))),
    )
    with pytest.raises(ValueError):
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
    ]
    for text, line, message in cases:
        with pytest.raises(OwcError) as err:
            parse_owc(text)
        assert err.value.line == line, text
        assert str(err.value) == message


def test_owc_size_is_capped_at_its_line(monkeypatch):
    """A dim above MAX_CELLS, or more than MAX_CELLS cell lines, is
    refused at its line; the limit is lowered so nothing large is built."""
    monkeypatch.setattr(orbmodel, "MAX_CELLS", 3)
    with pytest.raises(OwcError) as err:
        parse_owc("orbifold big\ndim 4\n")
    assert str(err.value) == "line 2: dim 4 is more than the limit of 3"
    with pytest.raises(OwcError) as err:  # more digits than int() converts
        parse_owc("orbifold big\ndim 1" + "0" * 5000 + "\n")
    assert err.value.line == 2
    cells = [f"cell v{i} dim=0 weight=1\n" for i in range(4)]
    with pytest.raises(OwcError) as err:
        parse_owc("orbifold big\ndim 0\n" + "".join(cells))
    assert str(err.value) == "line 6: more than the limit of 3 cells"
    # at the limit both are taken
    wcc = parse_owc("orbifold big\ndim 3\n" + "".join(cells[:3]))
    assert (wcc.dim, len(wcc.cells)) == (3, 3)


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
    assert again.ids() == loaded.ids()


def test_sparse_boundaries_match_dense_oracle():
    """Dense rebuilds from the cells' incidence lists equal d(q) of the
    chain complex and of the scaled dual, with and without rel."""
    for d in GRID_1_TO_3 + [ProductTorus(Surface(1, 1, (2, 3)), 2)]:
        for wcc in (t_model(d), adapted_model(d)):
            c = wcc.chain_complex()
            for q in range(wcc.dim + 2):
                assert c.d(q) == dense_boundary(wcc, q), (d, q)
        am = adapted_model(d)
        for rel in (None, "boundary") if "boundary" in am.subs else (None,):
            ws = ws_complex(am, rel=rel)
            for k in range(am.dim + 2):
                assert ws.d(k) == dense_ws_boundary(am, k, rel), (d, rel, k)


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
