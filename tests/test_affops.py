"""Affine chains: refinement, prism, and their boundary identities."""

import random
import time
from fractions import Fraction

import pytest

from orbihom import affops
from orbihom.affops import (
    AffineChain,
    AffineSimplex,
    boundary,
    find_face,
    prism,
    prism_operator,
    refine,
    sd_operator,
    selftest,
)

F = Fraction


def simplex(*verts):
    return AffineSimplex(tuple(tuple(F(x) for x in v) for v in verts))


def rand_simplex(rng, q, ambient):
    while True:
        verts = tuple(
            tuple(F(rng.randint(-8, 8), rng.randint(1, 8))
                  for _ in range(ambient))
            for _ in range(q + 1)
        )
        if len(set(verts)) == q + 1:
            return AffineSimplex(verts)


def rand_interior(rng, p):
    weights = [rng.randint(1, 4) for _ in range(p + 1)]
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


# ----------------------------------------------------------------- basics


def test_simplex_validation():
    with pytest.raises(ValueError):
        AffineSimplex(())
    with pytest.raises(ValueError):
        AffineSimplex(((F(0),), (F(0), F(1))))
    s = simplex((0, 0), (1, 0), (0, 1))
    assert s.dim == 2
    assert s.ambient == 2
    assert s.face(1) == simplex((0, 0), (0, 1))
    assert s.restrict((0, 2)) == simplex((0, 0), (0, 1))
    with pytest.raises(ValueError):
        s.face(3)
    with pytest.raises(ValueError):
        s.restrict((2, 0))


def test_chain_algebra():
    s = simplex((0,), (1,))
    t = simplex((1,), (2,))
    c = AffineChain.of(s) + AffineChain.of(t, 2)
    assert c.terms() == {s: 1, t: 2}
    assert (c - c) == AffineChain.zero()
    assert not AffineChain.zero()
    assert c.scale(3).terms()[t] == 6
    assert c.degree() == 1
    mixed = c + AffineChain.of(simplex((5,)))
    with pytest.raises(ValueError):
        mixed.degree()


def test_boundary_of_boundary_vanishes():
    rng = random.Random(11)
    for _ in range(40):
        q = rng.randint(1, 4)
        s = rand_simplex(rng, q, q + 1)
        assert boundary(boundary(s)) == AffineChain.zero()
    assert boundary(simplex((0, 0))) == AffineChain.zero()


# --------------------------------------------------------------- refine


def test_refine_segment_at_midpoint():
    s = simplex((0,), (1,))
    out = refine(s, (0, 1), (F(1, 2), F(1, 2)))
    assert out.terms() == {
        simplex((0,), (F(1, 2),)): 1,
        simplex((1,), (F(1, 2),)): -1,
    }
    assert boundary(out) == boundary(AffineChain.of(s))


def test_refine_validation():
    s = simplex((0,), (1,), (2,))
    with pytest.raises(ValueError):
        refine(s, (1,), (F(1),))  # a vertex is not an allowed face
    with pytest.raises(ValueError):
        refine(s, (0, 1), (F(1, 2), F(1, 3)))  # does not sum to 1
    with pytest.raises(ValueError):
        refine(s, (0, 1), (F(0), F(1)))  # not strictly interior
    with pytest.raises(ValueError):
        refine(s, (1, 0), (F(1, 2), F(1, 2)))  # not increasing
    with pytest.raises(ValueError):
        refine(s, (0, 1), (F(1, 3), F(1, 3), F(1, 3)))  # wrong length


def test_refine_term_count():
    rng = random.Random(3)
    for _ in range(30):
        q = rng.randint(1, 4)
        s = rand_simplex(rng, q, q)
        p = rng.randint(1, q)
        face = tuple(sorted(rng.sample(range(q + 1), p + 1)))
        out = refine(s, face, rand_interior(rng, p))
        assert sum(abs(c) for c in out.terms().values()) == p + 1


# ----------------------------------------------------------------- prism


def test_prism_plain_doubling():
    s = simplex((0,), (1,))
    out = prism(s, None, None)
    assert out.terms() == {
        AffineSimplex(((F(0),), (F(0),), (F(1),))): -1,
        AffineSimplex(((F(0),), (F(1),), (F(1),))): 1,
    }


def test_find_face():
    s = simplex((0, 0), (1, 0), (0, 1))
    phi = simplex((1, 0), (0, 1))
    assert find_face(s, phi) == (1, 2)
    assert find_face(s, simplex((5, 5), (6, 6))) is None
    assert find_face(phi, s) is None


# ------------------------------------------------------------- identities


def test_operator_identities_random():
    rng = random.Random(1234)
    for _ in range(60):
        q = rng.randint(1, 4)
        s = rand_simplex(rng, q, rng.randint(q, q + 2))
        p = rng.randint(1, q)
        face = tuple(sorted(rng.sample(range(q + 1), p + 1)))
        a = rand_interior(rng, p)
        phi = s.restrict(face)
        c = AffineChain.of(s)
        assert boundary(sd_operator(phi, a, c)) == \
            sd_operator(phi, a, boundary(c))
        assert boundary(prism_operator(phi, a, c)) == \
            c - sd_operator(phi, a, c) - prism_operator(phi, a, boundary(c))


def test_identities_hold_when_face_never_matches():
    rng = random.Random(55)
    phi = simplex((100, 100), (101, 100))
    a = (F(1, 2), F(1, 2))
    for _ in range(20):
        q = rng.randint(1, 3)
        s = rand_simplex(rng, q, 2)
        c = AffineChain.of(s)
        assert sd_operator(phi, a, c) == c
        assert boundary(prism_operator(phi, a, c)) == \
            c - sd_operator(phi, a, c) - prism_operator(phi, a, boundary(c))


def test_operators_are_additive():
    rng = random.Random(8)
    s1 = rand_simplex(rng, 2, 2)
    s2 = rand_simplex(rng, 2, 2)
    face = (0, 1)
    phi = s1.restrict(face)
    a = (F(1, 2), F(1, 2))
    c1 = AffineChain.of(s1, 2)
    c2 = AffineChain.of(s2, -3)
    assert sd_operator(phi, a, c1 + c2) == \
        sd_operator(phi, a, c1) + sd_operator(phi, a, c2)
    assert prism_operator(phi, a, c1 + c2) == \
        prism_operator(phi, a, c1) + prism_operator(phi, a, c2)


# ---------------------------------------------------------------- selftest


def test_selftest_passes_and_is_deterministic():
    start = time.monotonic()
    first = selftest(trials=60, seed=9)
    second = selftest(trials=60, seed=9)
    elapsed = time.monotonic() - start
    assert first.passed
    assert first.render() == second.render()
    assert first.to_json() == second.to_json()
    assert elapsed < 10.0


def test_selftest_validation():
    with pytest.raises(ValueError):
        selftest(trials=0)


def test_selftest_reports_failures(monkeypatch):
    """A boundary that drops the first term of its result breaks both
    identities: every failure is counted and the first six are quoted."""
    exact = affops.boundary
    monkeypatch.setattr(affops, "boundary", lambda c: AffineChain(
        list(exact(c).terms().items())[1:]))
    report = selftest(12, 5)
    assert not report.passed
    assert [a.left for a in report.assertions] == ["6 failures",
                                                   "12 failures"]
    assert len(report.notes) == 6
    assert report.notes[0].startswith(
        "trial 0 identity (i) failed on <(3, 3/2, -7/3,")
    assert "  note: trial 0 identity (ii) failed" in report.render()
