"""Affine singular chains with the refinement and prism operators.

An affine simplex is an ordered tuple of points with exact rational
coordinates.  Given a marked face of a simplex and a strictly interior
barycentric point of that face, the refinement operator replaces the
simplex by a signed fan of simplices through the new point, and the
prism operator provides the chain homotopy between refinement and the
identity.  Both satisfy, on any chain c in which the marked face is
matched exactly where it occurs:

    boundary(Sd(c)) == Sd(boundary(c))
    boundary(P(c))  == c - Sd(c) - P(boundary(c))

The self-test exercises both identities on seeded random inputs.

Coordinates, barycentric weights and chain coefficients are exact:
coordinates and weights must be int or Fraction, coefficients must be
integers, and anything else raises TypeError.  A simplex hashes each
vertex once, when the public constructor builds it; faces,
restrictions and the fan and prism terms are trusted builds that reuse
the parent's points and vertex hashes.  The marked point is checked,
placed and hashed once per operator call, and once per trial in the
self-test, whose two identities share one boundary(c) and one Sd(c).
Likewise the chains that affops sums itself skip the public
constructor's conversion and checks.
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction
from numbers import Rational

from .report import Assertion, VerdictReport

Point = tuple[Fraction, ...]


def _exact(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if not isinstance(x, Rational):
        raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")
    return Fraction(x)


def _as_point(coords) -> Point:
    return tuple(map(_exact, coords))


class AffineSimplex:
    """An ordered tuple of points in a common ambient dimension.

    Immutable.  Each vertex is hashed once, when it first enters a
    simplex; faces, restrictions and fan terms reuse those hashes, and
    the simplex hash is taken once from them.
    """

    __slots__ = ("vertices", "_vertex_hashes", "_hash")

    def __init__(self, vertices):
        verts = tuple(_as_point(v) for v in vertices)
        if not verts:
            raise ValueError("a simplex needs at least one vertex")
        ambient = len(verts[0])
        if any(len(v) != ambient for v in verts):
            raise ValueError("vertices have mixed ambient dimensions")
        self._set(verts, tuple(map(hash, verts)))

    @classmethod
    def _of(cls, verts: tuple[Point, ...], vertex_hashes: tuple[int, ...]):
        """Trusted build from points of already-built simplices or from
        _marked, with their hashes: no conversion, no checks and no
        hashing of coordinates."""
        self = object.__new__(cls)
        self._set(verts, vertex_hashes)
        return self

    def _set(self, verts, vertex_hashes) -> None:
        _set_vertices(self, verts)
        _set_vertex_hashes(self, vertex_hashes)
        _set_hash(self, hash(vertex_hashes))

    def __setattr__(self, name, value):
        raise AttributeError(f"AffineSimplex is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"AffineSimplex is immutable: cannot del {name}")

    def __reduce__(self):
        """Copy and pickle through the public constructor, since an
        instance refuses attribute assignment."""
        return AffineSimplex, (self.vertices,)

    def __eq__(self, other):
        if not isinstance(other, AffineSimplex):
            return NotImplemented
        return self._hash == other._hash and self.vertices == other.vertices

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient(self) -> int:
        return len(self.vertices[0])

    def restrict(self, indices) -> "AffineSimplex":
        """Sub-simplex on an increasing tuple of vertex indices."""
        idx = tuple(indices)
        if list(idx) != sorted(set(idx)):
            raise ValueError("face indices must be strictly increasing")
        if not idx or idx[0] < 0 or idx[-1] > self.dim:
            raise ValueError(f"face indices {idx} out of range")
        return _pick(self.vertices, self._vertex_hashes, idx)

    def __repr__(self) -> str:
        pts = ", ".join(
            "(" + ", ".join(str(x) for x in v) + ")" for v in self.vertices
        )
        return f"<{pts}>"


# Slot setters that pass by the refusing __setattr__.
_set_vertices, _set_vertex_hashes, _set_hash = (
    getattr(AffineSimplex, slot).__set__ for slot in AffineSimplex.__slots__)


def _pick(verts, vertex_hashes, idx) -> AffineSimplex:
    """Trusted simplex on the vertices at the indices idx."""
    return AffineSimplex._of(tuple(map(verts.__getitem__, idx)),
                             tuple(map(vertex_hashes.__getitem__, idx)))


class AffineChain:
    """Integer combination of affine simplices of one ambient space."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """Sum (simplex, coefficient) pairs in order of first appearance."""
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        self._terms = _summed(
            (s if isinstance(s, AffineSimplex) else AffineSimplex(s),
             operator.index(c)) for s, c in pairs)

    @classmethod
    def _of(cls, pairs) -> "AffineChain":
        """Trusted sum of (AffineSimplex, int) pairs: nothing is checked."""
        self = object.__new__(cls)
        self._terms = _summed(pairs)
        return self

    @classmethod
    def of(cls, simplex, coeff: int = 1) -> "AffineChain":
        return cls([(simplex, coeff)])

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, AffineChain) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "AffineChain") -> "AffineChain":
        if not isinstance(other, AffineChain):
            return NotImplemented
        return AffineChain._of([*self._terms.items(), *other._terms.items()])

    def __neg__(self) -> "AffineChain":
        return self.scale(-1)

    def __sub__(self, other: "AffineChain") -> "AffineChain":
        if not isinstance(other, AffineChain):
            return NotImplemented
        return AffineChain._of([*self._terms.items(),
                                *((s, -c) for s, c in other._terms.items())])

    def scale(self, n: int) -> "AffineChain":
        n = operator.index(n)
        return AffineChain._of((s, n * c) for s, c in self._terms.items())

    def __repr__(self) -> str:
        terms = sorted(self._terms.items(), key=lambda t: t[0].vertices)
        return " ".join(f"{c:+d}*{s!r}" for s, c in terms) or "0"


def _summed(pairs) -> dict[AffineSimplex, int]:
    """The nonzero sums of (simplex, coefficient) pairs, in order of first
    appearance with a nonzero coefficient."""
    data: dict[AffineSimplex, int] = {}
    get = data.get
    for simplex, coeff in pairs:
        if coeff:
            data[simplex] = get(simplex, 0) + coeff
    return data if all(data.values()) else {s: c for s, c in data.items() if c}


def boundary(c) -> AffineChain:
    """Alternating-sign sum of vertex deletions, extended linearly."""
    if isinstance(c, AffineSimplex):
        c = AffineChain._of([(c, 1)])
    return AffineChain._of(
        (AffineSimplex._of(v[:i] + v[i + 1:], h[:i] + h[i + 1:]),
         -n if i & 1 else n) for s, n in c._terms.items()
        for v, h in [(s.vertices, s._vertex_hashes)] if len(v) > 1
        for i in range(len(v)))


def _check_interior(a, p: int) -> tuple[Fraction, ...]:
    weights = tuple(map(_exact, a))
    if len(weights) != p + 1:
        raise ValueError(
            f"interior point needs {p + 1} barycentric coordinates, "
            f"got {len(weights)}"
        )
    if any(w.numerator <= 0 for w in weights):
        raise ValueError("interior point needs strictly positive coordinates")
    num, den = _dot(weights, itertools.repeat(1))
    if num != den:
        raise ValueError("barycentric coordinates must sum to 1")
    return weights


def _marked(phi: AffineSimplex, a) -> tuple[Point, int]:
    """phi's point with the checked barycentric coordinates a, and its hash."""
    weights = _check_interior(a, phi.dim)
    point = tuple(Fraction(*_dot(weights, x)) for x in zip(*phi.vertices))
    return point, hash(point)


def _dot(ws, xs) -> tuple[int, int]:
    """Numerator and denominator of the sum of w * x over paired exact
    rationals, kept on one running integer denominator."""
    num, den = 0, 1
    for w, x in zip(ws, xs):
        d = w.denominator * x.denominator
        num, den = num * d + w.numerator * x.numerator * den, den * d
    return num, den


def _fan(v, idx, point: int, start: int = 0):
    """(vertex indices, sign) of each fan term of the simplex with vertex
    indices v through the point interior to the face idx, whose index is
    point, keeping only the vertices from index start on."""
    ip = idx[-1]
    return [(v[start:ik] + v[ik + 1:ip + 1] + (point,) + v[ip + 1:],
             (-1) ** (ik + ip)) for ik in idx]


def _simplices(s: AffineSimplex, marked, layouts) -> list:
    """(simplex, sign) for each (vertex indices, sign) in layouts, where
    index s.dim + 1 stands for the point of marked, a (point, hash) pair."""
    verts = s.vertices + marked[:1]
    hashes = s._vertex_hashes + marked[1:]
    return [(_pick(verts, hashes, ix), m) for ix, m in layouts]


def _refine(s: AffineSimplex, idx, marked) -> list:
    """(simplex, sign) terms of the fan of s through the marked point of
    its face with vertex indices idx, one per face vertex, or s itself."""
    if idx is None:
        return [(s, 1)]
    q = s.dim
    return _simplices(s, marked, _fan(tuple(range(q + 1)), idx, q + 1))


def _prism(s: AffineSimplex, idx, marked) -> list:
    """(simplex, sign) terms of the degree +1 homotopy term for one
    simplex, with the marked face given by vertex indices idx.

    Term j doubles v_j: v_0..v_j followed by v_j..v_q.  The terms with
    j up to the face's first index continue instead with the fan
    through the point from v_j on.  With idx None the result is the
    plain vertex-doubling prism, and no term uses marked.
    """
    q, i0 = s.dim, -1 if idx is None else idx[0]
    v = tuple(range(q + 1))
    layouts = []
    for j in range(q + 1):
        tails = [(v[j:], 1)] if j > i0 else _fan(v, idx, q + 1, j)
        layouts += [(v[:j + 1] + tail, (-1) ** (j + 1) * m)
                    for tail, m in tails]
    return _simplices(s, marked, layouts)


def find_face(s: AffineSimplex, phi: AffineSimplex):
    """First increasing index tuple of s whose restriction equals phi,
    or None when phi does not occur as a face of s."""
    if phi.dim > s.dim or phi.ambient != s.ambient:
        return None
    verts, hashes = s.vertices, s._vertex_hashes
    for idx in itertools.combinations(range(s.dim + 1), phi.dim + 1):
        if (tuple(map(hashes.__getitem__, idx)) == phi._vertex_hashes
                and tuple(map(verts.__getitem__, idx)) == phi.vertices):
            return idx
    return None


def _apply(op, phi: AffineSimplex, marked, c: AffineChain) -> list:
    """(simplex, coefficient) terms of the sum of n * op(s, idx, marked)
    over the terms n*s of c, where idx is find_face(s, phi) and marked is
    phi's (point, hash); a vertex phi is refused where it occurs."""
    terms = []
    for s, n in c._terms.items():
        idx = find_face(s, phi)
        if idx is not None and len(idx) < 2:
            raise ValueError("the marked face must have dimension at least 1")
        terms += [(t, n * m) for t, m in op(s, idx, marked)]
    return terms


def sd_operator(phi: AffineSimplex, a, c: AffineChain) -> AffineChain:
    """Refinement operator on chains: fan every simplex containing phi
    as a face through the marked interior point, keep the rest."""
    return AffineChain._of(_apply(_refine, phi, _marked(phi, a), c))


def prism_operator(phi: AffineSimplex, a, c: AffineChain) -> AffineChain:
    """Chain homotopy between the identity and the refinement operator."""
    return AffineChain._of(_apply(_prism, phi, _marked(phi, a), c))


def _random_simplex(rng: random.Random, q: int, ambient: int) -> AffineSimplex:
    while True:
        verts = tuple(
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                  for _ in range(ambient))
            for _ in range(q + 1)
        )
        s = AffineSimplex(verts)
        # Distinct hashes are distinct points; only a tie hashes again.
        if len(set(s._vertex_hashes)) == q + 1 or len(set(verts)) == q + 1:
            return s


_IDENTITIES = (("i", "boundary commutes with refinement"),
               ("ii", "prism homotopy matches identity minus refinement"))


def _sides(phi: AffineSimplex, marked, c: AffineChain) -> tuple:
    """Both sides of each identity on c, from one boundary(c) and one
    Sd(c); boundary is looked up at call time, so a patched one is checked."""
    of = AffineChain._of
    bc, sd_c = boundary(c), of(_apply(_refine, phi, marked, c))
    return ((boundary(sd_c), of(_apply(_refine, phi, marked, bc))),
            (boundary(of(_apply(_prism, phi, marked, c))),
             c - of([*sd_c._terms.items(), *_apply(_prism, phi, marked, bc)])))


def selftest(trials: int = 200, seed: int = 0) -> VerdictReport:
    """Check both operator identities on seeded random simplices.

    Each trial draws a simplex of dimension 1..4 with exact rational
    coordinates, marks a random face of dimension >= 1 and a random
    interior point, then verifies

        (i)  boundary(Sd(c)) == Sd(boundary(c))
        (ii) boundary(P(c))  == c - Sd(c) - P(boundary(c))

    The report is deterministic for a fixed (trials, seed) pair and
    quotes any counterexample verbatim.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    failures = [0] * len(_IDENTITIES)
    notes: list[str] = []
    for trial in range(trials):
        q = rng.randint(1, 4)
        s = _random_simplex(rng, q, rng.randint(q, q + 2))
        p = rng.randint(1, q)
        face = tuple(sorted(rng.sample(range(q + 1), p + 1)))
        weights = [rng.randint(1, 4) for _ in range(p + 1)]
        total = sum(weights)
        a = tuple(Fraction(w, total) for w in weights)
        phi, c = s.restrict(face), AffineChain.of(s)
        sides = _sides(phi, _marked(phi, a), c)
        for k, ((label, _), (lhs, rhs)) in enumerate(zip(_IDENTITIES, sides)):
            if lhs != rhs:
                failures[k] += 1
                if len(notes) < 6:
                    notes.append(f"trial {trial} identity ({label}) failed "
                                 f"on {s!r} face {face}: difference "
                                 f"{(lhs - rhs)!r}")
    return VerdictReport(
        check="affops-selftest",
        subject=f"trials={trials} seed={seed}",
        assertions=[
            Assertion(statement=f"{statement} on {trials} random chains",
                      left=f"{n} failures", right="0 failures",
                      passed=n == 0)
            for (_, statement), n in zip(_IDENTITIES, failures)
        ],
        notes=notes,
    )
