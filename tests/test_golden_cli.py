"""CLI output pinned byte for byte.

tests/golden/cli_outputs.json holds the exit code and stdout of
cli.main for each argv list below, with ORBIHOM_COLOR=0: homology over
z and q with and without --rel, ws-cohomology with and without --rel,
every verify check, affops selftest, plain text and --json, and two
error exits.  A change that is meant to alter some of these outputs
rewrites the fixture on purpose:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import pathlib

from orbihom.cli import main

FIXTURE = pathlib.Path(__file__).parent / "golden" / "cli_outputs.json"

ARGVS = (
    ["homology", "--desc", "disc2(3)"],
    ["homology", "--desc", "disc2(3)", "--json"],
    ["homology", "--desc", "surface(1,1;2,3) x torus(2)"],
    ["homology", "--desc", "surface(1,1;2,3) x torus(2)", "--coeff", "q"],
    ["homology", "--desc", "ball3(2,3,5) x torus(1)", "--coeff", "q", "--json"],
    ["homology", "--desc", "disc2(4)", "--rel", "boundary"],
    ["homology", "--desc", "surface(1,2;3,5)", "--rel", "boundary", "--json"],
    ["homology", "--desc", "ball3cyclic(3)", "--coeff", "q", "--rel", "boundary"],
    ["ws-cohomology", "--desc", "disc2(3)"],
    ["ws-cohomology", "--desc", "surface(1,1;2,3) x torus(1)", "--json"],
    ["ws-cohomology", "--desc", "ball3(2,3,5)", "--rel", "boundary"],
    ["ws-cohomology", "--desc", "surface(0,2;2,2)", "--rel", "boundary", "--json"],
    ["verify", "mv", "--desc", "disc2(3)", "--sub", "cone", "--sub", "annulus"],
    ["verify", "mv", "--desc", "surface(0,0;2,3,5)", "--sub", "conedisks",
     "--sub", "complement", "--json"],
    ["verify", "mv", "--desc", "surface(1,1;2,4) x torus(1)", "--sub", "conedisks",
     "--sub", "complement"],
    ["verify", "kunneth", "--desc", "disc2(3)", "--torus", "2"],
    ["verify", "kunneth", "--desc", "ball3(2,2,3)", "--json"],
    ["verify", "rational", "--desc", "surface(1,1;2,3) x torus(1)"],
    ["verify", "rational", "--desc", "ball3cyclic(4)", "--json"],
    ["verify", "underlying", "--desc", "ball3(2,3,5)"],
    ["verify", "underlying", "--desc", "surface(2,1;3)", "--json"],
    ["verify", "hurewicz", "--desc", "surface(2,0;2,3)"],
    ["verify", "hurewicz", "--desc", "disc2(6) x torus(1)", "--json"],
    ["verify", "duality", "--desc", "disc2(5)"],
    ["verify", "duality", "--desc", "surface(1,1;2,3)", "--json"],
    ["verify", "bhomotopy", "--a", "disc2(3)", "--b", "disc2(3) x torus(1)"],
    ["verify", "bhomotopy", "--a", "disc2(3)", "--b", "disc2(4)", "--json"],
    ["affops", "selftest", "--trials", "5"],
    ["affops", "selftest", "--trials", "5", "--seed", "3", "--json"],
    ["homology", "--desc", "disk(3)"],
    ["verify", "mv", "--desc", "disc2(3)", "--sub", "cone"],
)


def outputs() -> list[dict]:
    out = []
    for argv in ARGVS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        out.append({"argv": argv, "code": code, "stdout": buf.getvalue()})
    return out


def _text(entries) -> str:
    return json.dumps(entries, indent=1) + "\n"


def test_cli_outputs_match_fixture(monkeypatch):
    monkeypatch.setenv("ORBIHOM_COLOR", "0")
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = outputs()
    assert [e["argv"] for e in actual] == [e["argv"] for e in expected]
    for got, want in zip(actual, expected):
        assert got == want, got["argv"]
    assert {e["code"] for e in actual} == {0, 1, 2}


if __name__ == "__main__":
    os.environ["ORBIHOM_COLOR"] = "0"
    FIXTURE.write_text(_text(outputs()), encoding="utf-8")
