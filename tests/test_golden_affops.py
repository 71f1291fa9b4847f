"""affops chains pinned term by term, in insertion order.

tests/golden/affops_chains.json holds, for seeded simplices of
dimension 1..4 in ambient dimension q..q+2, the (repr(simplex), coeff)
terms of boundary, refine, prism, sd_operator and prism_operator, one
"coeff*simplex" string each, in the order the chain stores them.  Every
third input marks a face phi that does not occur in the chain.  The
selftest report reads the same on any passing run, so it cannot guard
term order or values; this fixture does.  A change that is meant to
alter these chains rewrites the fixture on purpose:

    PYTHONPATH=src python tests/test_golden_affops.py
"""

import json
import pathlib
import random
from fractions import Fraction

from orbihom.affops import (
    AffineChain,
    AffineSimplex,
    boundary,
    prism_operator,
    sd_operator,
)

from oracles import prism, refine

FIXTURE = pathlib.Path(__file__).parent / "golden" / "affops_chains.json"
INPUTS = 30


def _simplex(rng: random.Random, q: int, ambient: int) -> AffineSimplex:
    while True:
        verts = tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(ambient))
            for _ in range(q + 1)
        )
        if len(set(verts)) == q + 1:
            return AffineSimplex(verts)


def _terms(c: AffineChain) -> list[str]:
    return [f"{n:+d}*{s!r}" for s, n in c.terms().items()]


def chains() -> list[dict]:
    out = []
    for seed in range(INPUTS):
        rng = random.Random(seed)
        q = 1 + seed % 4
        ambient = q + seed // 4 % 3
        s = _simplex(rng, q, ambient)
        p = rng.randint(1, q)
        face = tuple(sorted(rng.sample(range(q + 1), p + 1)))
        weights = [rng.randint(1, 3) for _ in range(p + 1)]
        a = tuple(Fraction(w, sum(weights)) for w in weights)
        occurs = seed % 3 != 2
        phi = s.restrict(face) if occurs else _simplex(rng, p, ambient)
        c = AffineChain([(s, rng.choice((-2, 1, 3))),
                         (_simplex(rng, q, ambient), rng.choice((-1, 2)))])
        bc = boundary(c)
        out.append({
            "seed": seed, "q": q, "ambient": ambient, "face": list(face),
            "phi_occurs": occurs,
            "chains": {
                "boundary(c)": _terms(bc),
                "refine(s)": _terms(refine(s, face, a)),
                "prism(s)": _terms(prism(s, face, a)),
                "prism(s, None)": _terms(prism(s, None, None)),
                "sd_operator(c)": _terms(sd_operator(phi, a, c)),
                "sd_operator(boundary(c))": _terms(sd_operator(phi, a, bc)),
                "prism_operator(c)": _terms(prism_operator(phi, a, c)),
                "prism_operator(boundary(c))":
                    _terms(prism_operator(phi, a, bc)),
            },
        })
    return out


def _text(entries) -> str:
    return json.dumps(entries, indent=1) + "\n"


def test_affops_chains_match_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = chains()
    assert [e["seed"] for e in actual] == [e["seed"] for e in expected]
    for got, want in zip(actual, expected):
        assert got["face"] == want["face"], got["seed"]
        for name, terms in want["chains"].items():
            assert got["chains"][name] == terms, (got["seed"], name)
        assert got == want, got["seed"]


if __name__ == "__main__":
    FIXTURE.write_text(_text(chains()), encoding="utf-8")
