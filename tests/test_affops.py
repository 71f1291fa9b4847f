"""Affine chains: refinement, prism, and their boundary identities."""

import copy
import gc
import pickle
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from orbihom import affops
from orbihom.affops import (
    AffineChain,
    AffineSimplex,
    boundary,
    find_face,
    prism_operator,
    sd_operator,
    selftest,
)

from oracles import (
    ambient,
    chain_degree,
    prism,
    public_selftest,
    refine,
    terms,
    zero_chain,
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
    assert ambient(s) == 2
    assert terms(boundary(s)) == {simplex((1, 0), (0, 1)): 1,
                                  simplex((0, 0), (0, 1)): -1,
                                  simplex((0, 0), (1, 0)): 1}
    assert s.restrict((0, 2)) == simplex((0, 0), (0, 1))
    with pytest.raises(ValueError):
        s.restrict((0, 3))
    with pytest.raises(ValueError):
        s.restrict((2, 0))
    # Coordinates are exact: floats and strings are refused, not rounded
    # or parsed.
    with pytest.raises(TypeError):
        AffineSimplex([(0.1,), (1,)])
    with pytest.raises(TypeError):
        AffineSimplex([("1/3",), (1,)])
    assert AffineSimplex([(1,), (F(1, 3),)]) == simplex((1,), (F(1, 3),))


def test_simplex_is_immutable():
    s = simplex((0, 0), (1, 0))
    with pytest.raises(AttributeError):
        s.vertices = ((F(5), F(5)),)
    with pytest.raises(AttributeError):
        del s.vertices
    assert s == simplex((0, 0), (1, 0))


def test_points_with_colliding_hashes_stay_distinct():
    """hash(-1) == hash(-2) in CPython, so these points hash alike; their
    vertices, simplices and chain terms stay distinct all the same."""
    low, high = simplex((-1, 0)), simplex((-2, 0))
    assert hash(low.vertices[0]) == hash(high.vertices[0])
    assert low != high and low._key[0] is not high._key[0]
    c = AffineChain([(low, 1), (high, -1)])
    assert terms(c) == {low: 1, high: -1}
    assert boundary(AffineChain.of(simplex((-1, 0), (-2, 0)))) == c.scale(-1)


def test_marked_point_equal_to_a_vertex():
    """On a collinear simplex the marked point of (v0, v1) is v2 itself:
    it is interned to v2's vertex, and the fan and both identities read
    as with distinct points."""
    s = simplex((0, 0), (2, 0), (1, 0))
    phi, a, c = s.restrict((0, 1)), (F(1, 2), F(1, 2)), AffineChain.of(s)
    assert affops._marked(phi, a) is s._key[2]
    assert repr(sd_operator(phi, a, c)) == \
        "+1*<(0, 0), (1, 0), (1, 0)> -1*<(2, 0), (1, 0), (1, 0)>"
    assert boundary(sd_operator(phi, a, c)) == \
        sd_operator(phi, a, boundary(c))
    assert boundary(prism_operator(phi, a, c)) == \
        c - sd_operator(phi, a, c) - prism_operator(phi, a, boundary(c))


def test_copies_and_pickles_intern_again():
    """A copied or unpickled simplex or chain holds the very vertices of
    the original, so it compares equal and cancels against it."""
    s = simplex((0, 0), (1, F(1, 3)), (0, 1))
    c = AffineChain([(s, 2), (s.restrict((0, 2)), -1)])
    for value in (s, c):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
    # keys of vertices compare equal only when their vertices are one
    assert list(pickle.loads(pickle.dumps(c))._terms) == list(c._terms)
    assert c - copy.deepcopy(c) == zero_chain()


def test_intern_table_keeps_no_dead_vertex():
    """The intern table holds its vertices weakly: after a self-test, once
    its chains are gone, the table has no more entries than before."""
    gc.collect()
    before = len(affops._vertices)
    assert selftest(200, 3).passed
    gc.collect()
    assert len(affops._vertices) <= before


def test_threads_intern_each_point_once():
    """Four threads intern the same fresh points at once, round after
    round, with a short switch interval: every point still gets one
    vertex, so a lookup and an insert are never split between threads."""
    workers, rounds = 4, 10
    barrier = threading.Barrier(workers, timeout=30)
    got = [[] for _ in range(workers)]

    def intern(k):
        rng = random.Random(k)
        for r in range(rounds):
            order = [(F(i, 7), F(r, 3)) for i in range(300)]
            rng.shuffle(order)
            barrier.wait()
            got[k].append({p: AffineSimplex([p])._key[0] for p in order})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=intern, args=(k,))
                   for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for r in range(rounds):
        firsts = got[0][r]
        assert all(seen[r][p] is v for seen in got for p, v in firsts.items())


def test_internal_builds_match_public_simplices():
    """Boundary faces, restrictions and fan terms are built on the
    interned vertices of their inputs, without re-checking their points:
    each holds the very vertices of, equals, hashes like and looks up as
    the same simplex built through the public constructor."""
    s = simplex((0, 0), (1, 0), (0, 1))
    half = (F(1, 2), F(1, 2))
    faces = list(terms(boundary(s)))
    pairs = [
        (faces[0], simplex((1, 0), (0, 1))),
        (s.restrict((0, 2)), simplex((0, 0), (0, 1))),
        (list(terms(refine(s, (1, 2), half)))[0],
         simplex((0, 0), (0, 1), (F(1, 2), F(1, 2)))),
        (list(terms(prism(s, (1, 2), half)))[0],
         simplex((0, 0), (0, 0), (0, 1), (F(1, 2), F(1, 2)))),
    ]
    for built, public in pairs:
        assert all(u is v for u, v in zip(built._key, public._key))
        assert built == public and public == built
        assert hash(built) == hash(public)
        assert {built: 1}[public] == 1
        assert AffineChain([(built, 2), (public, -2)]) == zero_chain()
    assert faces[0] != faces[1]
    assert s != s.vertices


def test_operators_build_no_public_simplices(monkeypatch):
    """Once the inputs exist, the operators and boundary convert no
    coordinates: every simplex they make comes from a trusted build."""
    s = simplex((0, 0), (1, 0), (0, 1))
    phi, a = s.restrict((0, 1)), (F(1, 3), F(2, 3))
    c = AffineChain.of(s, 2)
    expected = [sd_operator(phi, a, c), prism_operator(phi, a, c),
                boundary(c)]

    def refuse(coords):
        raise AssertionError("_as_point called on an internal build")

    monkeypatch.setattr(affops, "_as_point", refuse)
    assert [sd_operator(phi, a, c), prism_operator(phi, a, c),
            boundary(c)] == expected


def test_operators_place_the_marked_point_once(monkeypatch):
    """sd_operator and prism_operator check the barycentric coordinates
    and compute the marked point once per call, not once more for each
    simplex that contains phi."""
    s = simplex((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    phi, a = s.restrict((0, 1)), (F(1, 3), F(2, 3))
    c = boundary(s)
    assert sum(find_face(t, phi) is not None for t in terms(c)) == 2
    expected = [sd_operator(phi, a, c), prism_operator(phi, a, c)]
    checks, check = [], affops._check_interior
    monkeypatch.setattr(affops, "_check_interior",
                        lambda a, p: checks.append(p) or check(a, p))
    assert sd_operator(phi, a, c) == expected[0]
    assert checks == [1]
    assert prism_operator(phi, a, c) == expected[1]
    assert checks == [1, 1]
    # a vertex is still refused as the marked face where it occurs
    for operator in (sd_operator, prism_operator):
        with pytest.raises(ValueError, match="dimension at least 1"):
            operator(s.restrict((0,)), (F(1),), c)


def test_selftest_hashes_each_vertex_once(monkeypatch):
    """A count, not a timing: 20 trials used to hash 108,631 Fractions
    when every dict lookup rehashed every coordinate, then 838 when each
    operator call hashed its own marked point and each random simplex
    was hashed twice, and hash 324 now."""
    calls = [0]
    exact = Fraction.__hash__

    def counting(self):
        calls[0] += 1
        return exact(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    assert selftest(20, 0).passed
    assert 0 < calls[0] < 400


def test_selftest_hashes_and_compares_no_simplex(monkeypatch):
    """A count, not a timing: 20 trials used to make 3,766 Python-level
    AffineSimplex.__hash__ and 932 __eq__ calls, when chains kept
    simplices as keys; chains keep tuples of vertices now, which hash
    and compare in C, so the self-test makes none."""
    calls = {"hash": 0, "eq": 0}
    exact_hash, exact_eq = AffineSimplex.__hash__, AffineSimplex.__eq__

    def counting_hash(self):
        calls["hash"] += 1
        return exact_hash(self)

    def counting_eq(self, other):
        calls["eq"] += 1
        return exact_eq(self, other)

    monkeypatch.setattr(AffineSimplex, "__hash__", counting_hash)
    monkeypatch.setattr(AffineSimplex, "__eq__", counting_eq)
    assert simplex((0,), (1,)) == simplex((0,), (1,))
    assert calls["eq"] == 1
    calls["eq"] = 0
    assert selftest(20, 0).passed
    assert calls == {"hash": 0, "eq": 0}


def test_selftest_builds_few_fractions(monkeypatch):
    """A count, not a timing: 20 trials used to construct 3,422
    Fractions when the marked point and the sum-to-1 check ran on
    Fraction arithmetic, then 644 when each of five operator calls per
    trial placed its own marked point, and construct 380 now."""
    calls = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert selftest(20, 0).passed
    assert 0 < calls[0] < 450


def test_selftest_places_the_marked_point_once_per_trial(monkeypatch):
    """Each trial checks its barycentric coordinates and places its
    marked point once, for all four operator applications."""
    checks, check = [], affops._check_interior
    monkeypatch.setattr(affops, "_check_interior",
                        lambda a, p: checks.append(p) or check(a, p))
    for trials, seed in [(1, 0), (20, 0), (37, 5)]:
        checks.clear()
        assert selftest(trials, seed).passed
        assert len(checks) == trials


def test_trusted_sums_match_public_chains():
    """AffineChain._of sums (vertex key, coefficient) pairs like the
    public constructor sums (simplex, coefficient) pairs: same terms,
    same order of first nonzero appearance, same repr."""
    rng = random.Random(21)
    pool = [rand_simplex(rng, 1, 1) for _ in range(5)]
    for _ in range(200):
        pairs = [(rng.choice(pool), rng.randint(-2, 2))
                 for _ in range(rng.randint(0, 12))]
        public = AffineChain(pairs)
        trusted = AffineChain._of([(s._key, c) for s, c in pairs])
        assert trusted == public
        assert list(terms(trusted).items()) == list(terms(public).items())
        assert repr(trusted) == repr(public)
    s, t = simplex((0,), (1,)), simplex((1,), (2,))
    assert list(terms(AffineChain([(t, 0), (s, 1), (t, 1)]))) == [s, t]
    assert list(terms(AffineChain._of(
        [(t._key, 0), (s._key, 1), (t._key, 1)]))) == [s, t]


def test_operators_build_no_public_chains(monkeypatch):
    """Once the inputs exist, boundary, both operators, + and - sum
    their terms through the trusted build, not AffineChain(...)."""
    s = simplex((0, 0), (1, 0), (0, 1))
    other = simplex((5, 5), (6, 5), (5, 6))
    phi, a = s.restrict((0, 1)), (F(1, 3), F(2, 3))
    c = AffineChain([(s, 2), (other, -1)])
    d = AffineChain.of(s.restrict((1, 2)))

    def runs():
        return [boundary(c), boundary(s), sd_operator(phi, a, c),
                prism_operator(phi, a, c), c + d, c - d, -c]

    expected = runs()

    def refuse(self, terms=None):
        raise AssertionError("public AffineChain built internally")

    monkeypatch.setattr(AffineChain, "__init__", refuse)
    assert runs() == expected


def test_check_interior_accepts_exact_weights():
    """The integer sum-to-1 path accepts what Fraction arithmetic did:
    Fraction subclasses, ints and bools, and refuses in the same order."""

    class Sub(Fraction):
        pass

    weights = affops._check_interior((F(1, 2), Sub(1, 4), Sub(1, 4)), 2)
    assert weights == (F(1, 2), F(1, 4), F(1, 4))
    assert affops._check_interior((1,), 0) == (F(1),)
    assert affops._check_interior((True,), 0) == (F(1),)
    assert affops._check_interior((F(1, 3), 1 - F(1, 3)), 1) == \
        (F(1, 3), F(2, 3))
    for bad in [(0, 1), (0, 2), (-1, 2)]:
        with pytest.raises(ValueError, match="strictly positive"):
            affops._check_interior(bad, 1)
    with pytest.raises(ValueError, match="sum to 1"):
        affops._check_interior((1, 1), 1)
    with pytest.raises(TypeError):
        affops._check_interior((0.5, 0.5), 1)
    with pytest.raises(TypeError):
        affops._check_interior((F(1, 2), 0.5), 1)


def test_chain_algebra():
    s = simplex((0,), (1,))
    t = simplex((1,), (2,))
    c = AffineChain.of(s) + AffineChain.of(t, 2)
    assert terms(c) == {s: 1, t: 2}
    assert (c - c) == zero_chain()
    assert not zero_chain()
    assert terms(c.scale(3))[t] == 6
    assert chain_degree(c) == 1
    mixed = c + AffineChain.of(simplex((5,)))
    with pytest.raises(ValueError):
        chain_degree(mixed)
    with pytest.raises(TypeError):
        AffineChain.of(s, 1.5)
    with pytest.raises(TypeError):
        zero_chain().scale(1.5)
    with pytest.raises(TypeError):
        AffineChain([(s, 1), (t, 0.0)])
    assert repr(AffineChain([(t, 2), (s, 1), (t, -2)])) == "+1*<(0), (1)>"
    assert list(terms(AffineChain([(t, 1), (s, 1), (t, -1), (t, 1)]))) \
        == [t, s]


def test_chain_operators_refuse_foreign_operands():
    c = AffineChain.of(simplex((0,), (1,)))
    with pytest.raises(TypeError):
        c + 1
    with pytest.raises(TypeError):
        c - simplex((1,), (2,))
    with pytest.raises(TypeError):
        1 + c


def test_operators_take_a_simplex_as_its_one_term_chain():
    """boundary, sd_operator and prism_operator read a simplex as the
    chain 1*s, and refuse anything else with TypeError."""
    s = simplex((0, 0), (1, 0), (0, 1))
    c = AffineChain.of(s)
    phi, a = s.restrict((0, 1)), (F(1, 3), F(2, 3))
    assert boundary(s) == boundary(c)
    assert sd_operator(phi, a, s) == sd_operator(phi, a, c)
    assert prism_operator(phi, a, s) == prism_operator(phi, a, c)
    for bad in (5, None, [(s, 1)], s.vertices):
        with pytest.raises(TypeError):
            boundary(bad)
        with pytest.raises(TypeError):
            sd_operator(phi, a, bad)
        with pytest.raises(TypeError):
            prism_operator(phi, a, bad)


def test_boundary_of_boundary_vanishes():
    rng = random.Random(11)
    for _ in range(40):
        q = rng.randint(1, 4)
        s = rand_simplex(rng, q, q + 1)
        assert boundary(boundary(s)) == zero_chain()
    assert boundary(simplex((0, 0))) == zero_chain()


# --------------------------------------------------------------- refine


def test_refine_segment_at_midpoint():
    s = simplex((0,), (1,))
    out = refine(s, (0, 1), (F(1, 2), F(1, 2)))
    assert terms(out) == {
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
    with pytest.raises(TypeError):
        refine(s, (0, 1), (0.3, 0.7))  # inexact weights
    with pytest.raises(TypeError):
        refine(s, (0, 1), ("1/2", "1/2"))
    assert refine(s, (0, 1), (F(1, 2), F(1, 2))) == \
        refine(s, (0, 1), (F(2, 4), F(1, 2)))


def test_refine_term_count():
    rng = random.Random(3)
    for _ in range(30):
        q = rng.randint(1, 4)
        s = rand_simplex(rng, q, q)
        p = rng.randint(1, q)
        face = tuple(sorted(rng.sample(range(q + 1), p + 1)))
        out = refine(s, face, rand_interior(rng, p))
        assert sum(abs(c) for c in terms(out).values()) == p + 1


# ----------------------------------------------------------------- prism


def test_prism_plain_doubling():
    s = simplex((0,), (1,))
    out = prism(s, None, None)
    assert terms(out) == {
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


def test_selftest_matches_public_operator_loop(monkeypatch):
    """Sharing each trial's marked point, boundary of c and Sd(c) changes
    no report: the same JSON as five public operator calls per trial,
    also under a boundary that drops the first term of its result."""
    for seed in range(50):
        assert selftest(12, seed).to_json() == \
            public_selftest(12, seed).to_json()
    exact = affops.boundary
    monkeypatch.setattr(affops, "boundary", lambda c: AffineChain(
        list(terms(exact(c)).items())[1:]))
    for seed in range(50):
        report = selftest(12, seed)
        assert not report.passed
        assert report.to_json() == public_selftest(12, seed).to_json()


def test_selftest_validation():
    with pytest.raises(ValueError):
        selftest(trials=0)


def test_selftest_reports_failures(monkeypatch):
    """A boundary that drops the first term of its result breaks both
    identities: every failure is counted and the first six are quoted."""
    exact = affops.boundary
    monkeypatch.setattr(affops, "boundary", lambda c: AffineChain(
        list(terms(exact(c)).items())[1:]))
    report = selftest(12, 5)
    assert not report.passed
    assert [a.left for a in report.assertions] == ["6 failures",
                                                   "12 failures"]
    assert len(report.notes) == 6
    assert report.notes[0].startswith(
        "trial 0 identity (i) failed on <(3, 3/2, -7/3,")
    assert "  note: trial 0 identity (ii) failed" in report.render()
