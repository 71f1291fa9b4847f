"""Command-line interface: output grammar, exit codes, JSON."""

import json
import re

import pytest

from orbihom import orbmodel
from orbihom.cli import build_parser, main, parse_descriptor
from orbihom.intlin import FgAbGroup
from orbihom.orbmodel import (
    MAX_CELLS,
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

    monkeypatch.setattr(orbmodel, "_torus_parts", build)
    monkeypatch.setattr(orbmodel.Cell, "_of", build)
    for argv in (["homology", "--desc", "disc2(3) x torus(40)"],
                 ["verify", "kunneth", "--desc", "disc2(3)", "--torus", "40"]):
        code, text = run(argv)
        assert code == 2, (argv, text)
        assert "7 x 2^40 cells" in text and f"limit of {MAX_CELLS}" in text


def test_empty_rel_names_no_subcomplex():
    for command in ("homology", "ws-cohomology"):
        code, text = run([command, "--desc", "disc2(3)", "--rel", ""])
        assert (code, text) == (2, "error: no subcomplex named ''\n"), command


def test_malformed_file_reports_line(tmp_path):
    path = tmp_path / "bad.owc"
    path.write_text("orbifold x\ndim 1\ncell v dim=0 weight=0\n")
    code, text = run(["homology", "--file", str(path)])
    assert code == 2
    assert "line 3" in text


def test_oversized_file_exits_two(tmp_path, monkeypatch):
    monkeypatch.setattr(orbmodel, "MAX_CELLS", 3)
    path = tmp_path / "big.owc"
    path.write_text("orbifold big\ndim 4\n")
    assert run(["homology", "--file", str(path)]) == (
        2, "error: line 2: dim 4 is more than the limit of 3\n")


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
