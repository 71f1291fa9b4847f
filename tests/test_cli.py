"""Command-line interface: output grammar, exit codes, JSON."""

import gc
import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from orbihom import orbmodel
from orbihom.cli import _json, build_parser, main, parse_descriptor
from orbihom.intlin import FgAbGroup
from orbihom.orbmodel import (
    MAX_CELLS,
    MAX_DIM,
    Ball3,
    Ball3Cyclic,
    Disc2,
    ProductTorus,
    Surface,
    serialize_owc,
    t_model,
)

from oracles import cyclic, parse_group, run

GROUP_LINE = re.compile(r"^H[_^]\d+ = (0|(Z(\^\d+)?|Z/\d+)( \+ (Z(\^\d+)?|Z/\d+))*)$")


# ------------------------------------------------------------- descriptors


def test_parse_descriptor_atoms():
    assert parse_descriptor("disc2(4)") == Disc2(4)
    assert parse_descriptor("ball3(2,3,4)") == Ball3((2, 3, 4))
    assert parse_descriptor("ball3cyclic(6)") == Ball3Cyclic(6)
    assert parse_descriptor("surface(1,2)") == Surface(1, 2)
    assert parse_descriptor("surface(0,0;2,2,2)") == Surface(0, 0, (2, 2, 2))
    assert parse_descriptor(" disc2(2) x torus(1) ") == \
        ProductTorus(Disc2(2), 1)
    assert parse_descriptor("disc2(2) x torus(1) x torus(2)") == \
        ProductTorus(Disc2(2), 3)


def test_parse_descriptor_errors_name_position():
    cases = [
        ("disk(3)", "position 0"),
        ("disc2", "position 5"),
        ("disc2(", "unclosed"),
        ("disc2(a)", "expected an integer"),
        ("disc2(3) y torus(1)", "position 9"),
        ("disc2(3) x disc2(4)", "only torus"),
        ("torus(2)", "product factor"),
        ("surface(1)", "expected 2 integer"),
        ("disc2(1)", "at least 2"),
        # More digits than int() converts, in either place a count goes.
        ("disc2(3" + "0" * 5000 + ")", "descriptor error at position 0"),
        ("disc2(3) x torus(1" + "0" * 5000 + ")",
         "descriptor error at position 11"),
    ]
    for text, fragment in cases:
        with pytest.raises(ValueError) as err:
            parse_descriptor(text)
        assert fragment in str(err.value), text


def test_parse_group_round_trip():
    samples = [
        FgAbGroup.trivial(),
        FgAbGroup.free(1),
        FgAbGroup.free(3),
        cyclic(12),
        FgAbGroup(2, (2, 6)),
    ]
    for g in samples:
        assert parse_group(str(g)) == g
    with pytest.raises(ValueError):
        parse_group("Z/")
    with pytest.raises(ValueError):
        parse_group("G2")


# ------------------------------------------------------------ group lines


def test_homology_machine_lines():
    code, text = run(["homology", "--desc", "disc2(3)"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines == ["H_0 = Z", "H_1 = Z/3", "H_2 = 0"]
    for line in lines:
        assert GROUP_LINE.match(line), line


def test_every_emitted_group_reparses():
    commands = [
        ["homology", "--desc", "surface(1,2;3,3,3)"],
        ["homology", "--desc", "ball3(2,3,4)"],
        ["homology", "--desc", "disc2(2) x torus(2)"],
        ["ws-cohomology", "--desc", "ball3cyclic(5)"],
        ["ws-cohomology", "--desc", "disc2(4)", "--rel", "boundary"],
    ]
    for argv in commands:
        code, text = run(argv)
        assert code == 0, text
        for line in text.strip().splitlines():
            assert GROUP_LINE.match(line), (argv, line)
            parse_group(line.split(" = ", 1)[1])


def test_relative_homology_via_cli():
    code, text = run(["homology", "--desc", "disc2(3)",
                      "--rel", "boundary"])
    assert code == 0
    assert text.strip().splitlines() == ["H_0 = 0", "H_1 = 0", "H_2 = Z"]


def test_rational_coefficients_render_q():
    code, text = run(["homology", "--desc", "surface(1,2;3)",
                      "--coeff", "q"])
    assert code == 0
    assert text.strip().splitlines() == ["H_0 = Q", "H_1 = Q^3", "H_2 = 0"]


# -------------------------------------------------------------- verify


def test_verify_pass_and_result_line():
    code, text = run(["verify", "mv", "--desc", "disc2(3)",
                      "--sub", "cone", "--sub", "annulus"])
    assert code == 0
    assert text.strip().endswith("RESULT PASS")


def test_verify_mv_prints_each_lattice_once_and_sparsely():
    """On an 864-cell cover each lattice is printed once, as its sparse
    rows: under 32 KB, where the dense rows printed twice took 605 KB."""
    code, text = run(["verify", "mv", "--desc", "surface(4,3;2,3,5,7) x torus(5)",
                      "--sub", "conedisks", "--sub", "complement"])
    assert code == 0 and text.endswith("RESULT PASS\n")
    assert len(text.encode()) < 32_000


def test_verify_fail_exit_code_one():
    code, text = run(["verify", "bhomotopy",
                      "--a", "disc2(2)", "--b", "disc2(3)"])
    assert code == 1
    assert text.strip().endswith("RESULT FAIL")


def test_verify_duality_and_others():
    for argv in (
        ["verify", "duality", "--desc", "disc2(5)"],
        ["verify", "kunneth", "--desc", "disc2(3)", "--torus", "1"],
        ["verify", "rational", "--desc", "ball3cyclic(3)"],
        ["verify", "underlying", "--desc", "surface(2,0)"],
        ["verify", "hurewicz", "--desc", "ball3(2,3,5)"],
    ):
        code, text = run(argv)
        assert code == 0, (argv, text)
        assert "RESULT PASS" in text


def test_affops_selftest_cli():
    code, text = run(["affops", "selftest", "--trials", "10",
                      "--seed", "1"])
    assert code == 0
    assert "RESULT PASS" in text


# ----------------------------------------------------------- exit code 2


def test_input_errors_exit_two():
    for argv in (
        ["homology", "--desc", "ball3(3,3,3)"],
        ["homology", "--desc", "disk(3)"],
        ["homology", "--file", "/nonexistent/path.owc"],
        ["homology", "--desc", "disc2(3)", "--rel", "ghost"],
        ["verify", "mv", "--desc", "disc2(3)", "--sub", "cone"],
        ["verify", "duality", "--desc", "surface(1)"],
    ):
        code, text = run(argv)
        assert code == 2, (argv, text)
        assert "error" in text.lower()


def test_oversized_product_exits_two_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("the product was built")

    monkeypatch.setattr(orbmodel, "_torus", build)
    monkeypatch.setattr(orbmodel.Cell, "_of", build)
    for argv in (["homology", "--desc", "disc2(3) x torus(40)"],
                 ["verify", "kunneth", "--desc", "disc2(3)", "--torus", "40"]):
        code, text = run(argv)
        assert code == 2, (argv, text)
        assert "7 x 2^40 cells" in text and f"limit of {MAX_CELLS}" in text


def test_empty_rel_names_no_subcomplex():
    """An unknown --rel names the subs the command's model has: the t
    model's for homology, the adapted model's for ws-cohomology."""
    t_subs = "all, annulus, boundary, cone"
    for command, rel, subs in (("homology", "", t_subs),
                               ("ws-cohomology", "", "all, boundary"),
                               ("ws-cohomology", "cone", "all, boundary")):
        code, text = run([command, "--desc", "disc2(3)", "--rel", rel])
        assert (code, text) == (2, f"error: no subcomplex named {rel!r} "
                                   f"(subcomplexes: {subs})\n"), command
    assert run(["homology", "--desc", "disc2(3)", "--rel", "cone"])[0] == 0


def test_malformed_file_reports_line(tmp_path):
    path = tmp_path / "bad.owc"
    path.write_text("orbifold x\ndim 1\ncell v dim=0 weight=0\n")
    code, text = run(["homology", "--file", str(path)])
    assert code == 2
    assert "line 3" in text


_OWC = "orbifold x\ndim 1\ncell v dim=0 weight=1\n"


@pytest.mark.parametrize("source, text, message", [
    # int() also takes other digits, a + sign and underscores; the input
    # grammar takes ASCII -?[0-9]+ in .owc files, [0-9]+ in descriptors.
    ("file", "orbifold x\ndim \u0661\n", "line 2: dim needs one integer"),
    ("file", "orbifold x\ndim 1_0\n", "line 2: dim needs one integer"),
    ("file", "orbifold x\ndim +1\n", "line 2: dim needs one integer"),
    ("file", _OWC + "cell w dim=0 weight=+1\n",
     "line 4: dim and weight must be integers"),
    ("file", _OWC + "cell w dim=0 weight=1_0\n",
     "line 4: dim and weight must be integers"),
    ("file", _OWC + "cell w dim=\u0660 weight=1\n",
     "line 4: dim and weight must be integers"),
    ("file", _OWC + "cell e dim=1 weight=1 boundary=v:+0_0\n",
     "line 4: bad boundary coefficient in 'v:+0_0'"),
    ("file", _OWC + "cell e dim=1 weight=1 boundary=v:\uff11\n",
     "line 4: bad boundary coefficient in 'v:\uff11'"),
    ("desc", "disc2(\u0663)",
     "descriptor error at position 0: expected an integer, got '\u0663'"),
    ("desc", "disc2(3) x torus(\u00b9)",
     "descriptor error at position 11: expected an integer, got '\u00b9'"),
    ("desc", "surface(1,1;+3)",
     "descriptor error at position 0: expected an integer, got '+3'"),
    ("desc", "disc2(1_0)",
     "descriptor error at position 0: expected an integer, got '1_0'"),
], ids=["owc-dim-arabic-indic", "owc-dim-underscore", "owc-dim-plus",
        "owc-weight-plus", "owc-weight-underscore", "owc-cell-dim-arabic-indic",
        "owc-coefficient-plus-underscore", "owc-coefficient-fullwidth",
        "desc-arabic-indic", "desc-superscript", "desc-plus", "desc-underscore"])
def test_integers_are_ascii_digits(tmp_path, source, text, message):
    if source == "file":
        path = tmp_path / "x.owc"
        path.write_text(text, encoding="utf-8")
        text = str(path)
    assert run(["homology", f"--{source}", text]) == (2, f"error: {message}\n")


@pytest.mark.parametrize("cell, message", [
    ("cell e dim=1 weight=1 boundry=v:1,w:-1",
     "line 5: unknown cell field 'boundry'"),
    ("cell e dim=1 weight=1 boundary=v:1,w:-1,v:-1",
     "line 5: face 'v' is listed twice in the boundary"),
], ids=["misspelt-field", "repeated-face"])
def test_owc_refuses_a_cell_line_it_would_misread(tmp_path, cell, message):
    """A misspelt cell field would be dropped, and a face listed twice
    would have its terms summed (here to w:-1 alone): each is refused
    at its line, with exit code 2."""
    path = tmp_path / "x.owc"
    path.write_text("orbifold x\ndim 1\ncell v dim=0 weight=1\n"
                    f"cell w dim=0 weight=1\n{cell}\n")
    assert run(["homology", "--file", str(path)]) == (2, f"error: {message}\n")


def test_oversized_file_exits_two(tmp_path):
    path = tmp_path / "big.owc"
    path.write_text(f"orbifold big\ndim {MAX_DIM + 1}\n")
    assert run(["homology", "--file", str(path)]) == (
        2, f"error: line 2: dim {MAX_DIM + 1} is more than the limit of {MAX_DIM}\n")


def test_file_at_the_dim_limit_verifies_quickly(tmp_path):
    """A short file declaring the largest dim taken makes no long run:
    per-degree work is bounded by MAX_DIM, not by the cell limit."""
    path = tmp_path / "tall.owc"
    path.write_text(f"orbifold tall\ndim {MAX_DIM}\ncell v dim=0 weight=1\n")
    start = time.perf_counter()
    code, text = run(["verify", "mv", "--file", str(path),
                      "--sub", "all", "--sub", "all"])
    assert time.perf_counter() - start < 0.5
    assert code == 0 and f"H_{MAX_DIM}:" in text


def test_argparse_errors_exit_two():
    code, _ = run(["homology"])
    assert code == 2
    code, _ = run(["no-such-command"])
    assert code == 2
    code, _ = run(["homology", "--desc", "disc2(2)", "--file", "x.owc"])
    assert code == 2


def test_one_parser_serves_every_call():
    parser = build_parser()
    code, text = run(["verify", "mv", "--desc", "disc2(3)", "--sub", "cone"])
    assert (code, text) == (2, "error: verify mv needs exactly two --sub "
                                "arguments, got 1\n")
    assert run(["homology", "--desc"])[0] == 2
    assert run(["homology", "--desc", "disc2(3)"]) == (
        0, "H_0 = Z\nH_1 = Z/3\nH_2 = 0\n")
    # --sub appends: a parser that kept state would now see three subs
    for _ in range(2):
        code, text = run(["verify", "mv", "--desc", "disc2(3)",
                          "--sub", "cone", "--sub", "annulus"])
        assert code == 0 and text.endswith("RESULT PASS\n")
    assert build_parser() is parser


# ------------------------------------------------------------------ json


def test_homology_json_schema():
    code, text = run(["homology", "--desc", "disc2(2) x torus(1)",
                      "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["command"] == "homology"
    assert payload["subject"] == "disc2(2) x torus(1)"
    assert payload["coeff"] == "Z"
    assert payload["rel"] is None
    assert payload["groups"] == ["Z", "Z + Z/2", "Z/2", "0"]


def test_verify_json_schema():
    code, text = run(["verify", "duality", "--desc", "disc2(3)",
                      "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["check"] == "duality"
    assert payload["subject"] == "disc2(3)"
    assert payload["passed"] is True
    assert len(payload["assertions"]) == 6
    row = payload["assertions"][0]
    assert set(row) == {"statement", "left", "right", "passed"}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(), inner, max_size=4),
    max_leaves=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    """--json output is json.dumps(payload, indent=2), byte for byte,
    for any nesting of lists and str-keyed dicts, empty ones too, over
    strings (any code point), ints, bools and None."""
    assert _json(value) == json.dumps(value, indent=2)


def test_json_writer_leaves_no_cyclic_garbage():
    """The writer frees all it builds by reference counting, where
    json.dumps with indent leaves closures that only a collection frees;
    the mv report still reads as json.dumps writes it."""
    code, text = run(["verify", "mv", "--desc", "surface(0,0;2,3,5)", "--sub",
                      "conedisks", "--sub", "complement", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _json(payload)
        assert gc.collect() == 0
        json.dumps(payload, indent=2)
        assert gc.collect() > 0
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_failed_verify_json_still_exit_one():
    code, text = run(["verify", "bhomotopy", "--a", "disc2(2)",
                      "--b", "disc2(5)", "--json"])
    assert code == 1
    payload = json.loads(text)
    assert payload["passed"] is False


# ----------------------------------------------------------------- color


def test_no_ansi_when_color_disabled(monkeypatch):
    monkeypatch.setenv("ORBIHOM_COLOR", "0")
    code, text = run(["verify", "hurewicz", "--desc", "disc2(2)"])
    assert code == 0
    assert "\x1b[" not in text


def test_ansi_when_color_forced(monkeypatch):
    monkeypatch.setenv("ORBIHOM_COLOR", "1")
    code, text = run(["verify", "hurewicz", "--desc", "disc2(2)"])
    assert code == 0
    assert "\x1b[32m" in text


# ------------------------------------------------------------------ file


def test_file_input_matches_descriptor(tmp_path):
    wcc = t_model(Surface(1, 1, (2,)))
    path = tmp_path / "surf.owc"
    path.write_text(serialize_owc(wcc))
    code_a, text_a = run(["homology", "--file", str(path)])
    code_b, text_b = run(["homology", "--desc", "surface(1,1;2)"])
    assert code_a == code_b == 0
    assert text_a == text_b


def test_main_returns_int():
    assert main(["homology", "--desc", "disc2(2)"]) == 0
