"""verify mv reports pinned byte for byte.

tests/golden/mv_reports.json holds check_mv(...).to_json() for seeded
two-covers of the benchmark's cover-verify families, one of a 432-cell
product, and two named-sub covers.  A change that is meant to alter
these reports (a new cycle basis, say) rewrites the fixture on purpose:

    PYTHONPATH=src python tests/test_golden_mv.py
"""

import json
import pathlib
import random

from orbihom.cli import parse_descriptor
from orbihom.orbmodel import t_model
from orbihom.verify import check_mv

from oracles import random_two_cover

FIXTURE = pathlib.Path(__file__).parent / "golden" / "mv_reports.json"

RANDOM_COVERS = (
    "disc2(3) x torus(1)",
    "ball3(2,3,5) x torus(1)",
    "surface(1,1;2,5) x torus(1)",
    "disc2(4) x torus(2)",
    "ball3cyclic(3) x torus(2)",
    "ball3(2,2,3) x torus(2)",
    "surface(2,2;2,3,4) x torus(1)",
    "surface(1,1;3,3) x torus(2)",
    "surface(2,2;2,2,3) x torus(2)",
    "surface(1,2;3,5) x torus(3)",
    "surface(4,3;2,3,5,7) x torus(4)",
)
NAMED_COVERS = (
    ("disc2(3)", "cone", "annulus"),
    ("surface(0,0;2,3,5)", "conedisks", "complement"),
)


def reports() -> list[dict]:
    out = []
    for seed, desc in enumerate(RANDOM_COVERS):
        wcc = t_model(parse_descriptor(desc))
        a, b = random_two_cover(wcc, random.Random(seed))
        out.append({"desc": desc, "seed": seed,
                    "report": check_mv(wcc, a, b).to_json()})
    for desc, a, b in NAMED_COVERS:
        wcc = t_model(parse_descriptor(desc))
        out.append({"desc": desc, "subs": [a, b],
                    "report": check_mv(wcc, a, b).to_json()})
    return out


def _text(entries) -> str:
    return json.dumps(entries, indent=1) + "\n"


def test_mv_reports_match_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = reports()
    assert [e["desc"] for e in actual] == [e["desc"] for e in expected]
    for got, want in zip(actual, expected):
        assert _text(got) == _text(want), got["desc"]
    assert all(e["report"]["passed"] for e in actual)


if __name__ == "__main__":
    FIXTURE.write_text(_text(reports()), encoding="utf-8")
