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
integers, and anything else raises TypeError.  Each distinct point is
one interned vertex while anything holds it, found by one hash of the
point, so equal points share a vertex and points whose hashes collide
stay distinct.  A chain maps tuples of vertices to coefficients, and a
vertex hashes and compares by identity, so the operators hash and
compare in C alone: boundary slices keys, a face match compares
vertices, and fan and prism terms index a key with the marked vertex
appended, on layouts cached per (dimension, face).  AffineSimplex is
the public value over one key.  The marked point is checked, placed and
interned once per operator call, and once per trial in the self-test,
whose two identities share one boundary(c) and one Sd(c).
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import threading
import weakref
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


class _Vertex:
    """The one vertex of a point: hashed and compared by identity."""

    __slots__ = ("point", "__weakref__")

    def __init__(self, point: Point):
        self.point = point

    def __reduce__(self):
        """Copy and pickle by point, so the copy is interned again."""
        return _vertex, (self.point,)


class _PointKey:
    """A point with its hash, taken once: the intern table's key."""

    __slots__ = ("point", "_hash")

    def __init__(self, point: Point):
        self.point, self._hash = point, hash(point)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self.point == other.point


_vertices: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_vertices_lock = threading.Lock()


def _vertex(point: Point) -> _Vertex:
    """The vertex of point, made on first use and dropped when unheld."""
    key, vertex = _PointKey(point), _Vertex(point)
    with _vertices_lock:
        return _vertices.setdefault(key, vertex)


class AffineSimplex:
    """An ordered tuple of points in a common ambient dimension.
    Immutable: the value over its key, the tuple of its vertices."""

    __slots__ = ("_key",)

    def __init__(self, vertices):
        verts = tuple(_as_point(v) for v in vertices)
        if not verts:
            raise ValueError("a simplex needs at least one vertex")
        ambient = len(verts[0])
        if any(len(v) != ambient for v in verts):
            raise ValueError("vertices have mixed ambient dimensions")
        object.__setattr__(self, "_key", tuple(map(_vertex, verts)))

    @classmethod
    def _of(cls, key: tuple[_Vertex, ...]) -> "AffineSimplex":
        """Trusted build over a key of vertices: nothing is checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "_key", key)
        return self

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
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(v.point for v in self._key)

    @property
    def dim(self) -> int:
        return len(self._key) - 1

    def restrict(self, indices) -> "AffineSimplex":
        """Sub-simplex on an increasing tuple of vertex indices."""
        idx = tuple(indices)
        if list(idx) != sorted(set(idx)):
            raise ValueError("face indices must be strictly increasing")
        if not idx or idx[0] < 0 or idx[-1] > self.dim:
            raise ValueError(f"face indices {idx} out of range")
        return AffineSimplex._of(tuple(map(self._key.__getitem__, idx)))

    def __repr__(self) -> str:
        return "<" + ", ".join("(" + ", ".join(map(str, v)) + ")"
                               for v in self.vertices) + ">"


class AffineChain:
    """Integer combination of affine simplices, as {key: coefficient}."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """Sum (simplex, coefficient) pairs in order of first appearance."""
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        self._terms = _summed(
            ((s if isinstance(s, AffineSimplex) else AffineSimplex(s))._key,
             operator.index(c)) for s, c in pairs)

    @classmethod
    def _of(cls, pairs) -> "AffineChain":
        """Trusted sum of (key, int) pairs: nothing is checked."""
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
                                *((k, -c) for k, c in other._terms.items())])

    def scale(self, n: int) -> "AffineChain":
        n = operator.index(n)
        return AffineChain._of((k, n * c) for k, c in self._terms.items())

    def __repr__(self) -> str:
        terms = sorted(((AffineSimplex._of(k), c)
                        for k, c in self._terms.items()),
                       key=lambda t: t[0].vertices)
        return " ".join(f"{c:+d}*{s!r}" for s, c in terms) or "0"


def _summed(pairs) -> dict[tuple[_Vertex, ...], int]:
    """The nonzero sums of (key, coefficient) pairs, in order of first
    appearance with a nonzero coefficient."""
    data: dict[tuple[_Vertex, ...], int] = {}
    get = data.get
    for key, coeff in pairs:
        if coeff:
            data[key] = get(key, 0) + coeff
    return data if all(data.values()) else {k: c for k, c in data.items() if c}


def _terms_of(c) -> dict[tuple[_Vertex, ...], int]:
    """The terms of a chain, or of a simplex as its one-term chain."""
    if isinstance(c, AffineChain):
        return c._terms
    if isinstance(c, AffineSimplex):
        return {c._key: 1}
    raise TypeError(f"expected a chain or simplex, got {type(c).__name__}")


def boundary(c) -> AffineChain:
    """Alternating-sign sum of vertex deletions, extended linearly."""
    return AffineChain._of((k[:i] + k[i + 1:], -n if i & 1 else n)
                           for k, n in _terms_of(c).items() if len(k) > 1
                           for i in range(len(k)))


def _check_interior(a, p: int) -> tuple[Fraction, ...]:
    weights = tuple(map(_exact, a))
    if len(weights) != p + 1:
        raise ValueError(f"interior point needs {p + 1} barycentric "
                         f"coordinates, got {len(weights)}")
    if any(w.numerator <= 0 for w in weights):
        raise ValueError("interior point needs strictly positive coordinates")
    num, den = _dot(weights, itertools.repeat(1))
    if num != den:
        raise ValueError("barycentric coordinates must sum to 1")
    return weights


def _marked(phi: AffineSimplex, a) -> _Vertex:
    """The vertex of phi's point with the checked barycentric coordinates a."""
    weights = _check_interior(a, phi.dim)
    return _vertex(
        tuple(Fraction(*_dot(weights, x)) for x in zip(*phi.vertices)))


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


@functools.lru_cache(maxsize=256)
def _refine(q: int, idx) -> tuple:
    """(getter, sign) of each fan term of a q-simplex through the marked
    point of its face with vertex indices idx, or of the simplex itself
    with idx None.  A getter reads its term, of two vertices or more,
    from the simplex's key with the marked vertex appended."""
    if idx is None:
        return ((operator.itemgetter(slice(q + 1)), 1),)
    return tuple((operator.itemgetter(*ix), m)
                 for ix, m in _fan(tuple(range(q + 1)), idx, q + 1))


@functools.lru_cache(maxsize=256)
def _prism(q: int, idx) -> tuple:
    """(getter, sign) of each term of the degree +1 homotopy term of a
    q-simplex whose marked face has vertex indices idx, as in _refine.

    Term j doubles v_j: v_0..v_j followed by v_j..v_q.  The terms with
    j up to the face's first index continue instead with the fan
    through the point from v_j on.  With idx None the result is the
    plain vertex-doubling prism, and no term reads the marked vertex.
    """
    i0, v = -1 if idx is None else idx[0], tuple(range(q + 1))
    layouts = []
    for j in range(q + 1):
        tails = [(v[j:], 1)] if j > i0 else _fan(v, idx, q + 1, j)
        layouts += [(operator.itemgetter(*v[:j + 1], *tail),
                     (-1) ** (j + 1) * m) for tail, m in tails]
    return tuple(layouts)


def _laid(layout, key, marked: _Vertex, n: int) -> list:
    """(key, coefficient) terms of n times the terms that layout reads
    from key with the marked vertex appended."""
    ext = key + (marked,)
    return [(get(ext), n * m) for get, m in layout]


def find_face(s: AffineSimplex, phi: AffineSimplex):
    """First increasing index tuple of s whose restriction equals phi,
    or None when phi does not occur as a face of s.  The leftmost match
    of each vertex of phi after the last one is that first tuple."""
    idx = [-1]
    try:
        for v in phi._key:
            idx.append(s._key.index(v, idx[-1] + 1))
    except ValueError:
        return None
    return tuple(idx[1:])


def _apply(op, phi: AffineSimplex, marked: _Vertex, terms: dict) -> list:
    """(key, coefficient) terms of the sum of n times the terms laid out
    by op(dim, idx) over the terms n*key, where idx is find_face of key's
    simplex and phi; a vertex phi is refused where it occurs."""
    out = []
    for key, n in terms.items():
        idx = find_face(AffineSimplex._of(key), phi)
        if idx is not None and len(idx) < 2:
            raise ValueError("the marked face must have dimension at least 1")
        out += _laid(op(len(key) - 1, idx), key, marked, n)
    return out


def sd_operator(phi: AffineSimplex, a, c) -> AffineChain:
    """Refinement operator on chains: fan every simplex containing phi
    as a face through the marked interior point, keep the rest."""
    return AffineChain._of(_apply(_refine, phi, _marked(phi, a), _terms_of(c)))


def prism_operator(phi: AffineSimplex, a, c) -> AffineChain:
    """Chain homotopy between the identity and the refinement operator."""
    return AffineChain._of(_apply(_prism, phi, _marked(phi, a), _terms_of(c)))


def _random_simplex(rng: random.Random, q: int, ambient: int) -> AffineSimplex:
    while True:
        s = AffineSimplex(tuple(
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                  for _ in range(ambient)) for _ in range(q + 1)))
        if len(set(s._key)) == q + 1:
            return s


_IDENTITIES = (("i", "boundary commutes with refinement"),
               ("ii", "prism homotopy matches identity minus refinement"))


def _sides(phi: AffineSimplex, marked: _Vertex, c: AffineChain) -> tuple:
    """Both sides of each identity on c, from one boundary(c) and one
    Sd(c); boundary is looked up at call time, so a patched one is checked."""
    of = AffineChain._of
    bc, sd_c = boundary(c), of(_apply(_refine, phi, marked, c._terms))
    return ((boundary(sd_c), of(_apply(_refine, phi, marked, bc._terms))),
            (boundary(of(_apply(_prism, phi, marked, c._terms))),
             c - of([*sd_c._terms.items(),
                     *_apply(_prism, phi, marked, bc._terms)])))


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
