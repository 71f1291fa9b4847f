"""Finite weighted cellular models of low-dimensional orbifolds.

Three models are built per orbifold description: the weighted model
whose chain complex computes the transversal homology, its weights-to-1
degeneration computing the homology of the underlying space, and an
adapted cell structure (every open cell inside a single stratum) whose
scaled dual computes the weighted cohomology.  A small line-oriented
text format (.owc) round-trips user-supplied complexes.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import accumulate
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

from . import chains
from .chains import ChainComplex


@dataclass(frozen=True)
class Disc2:
    """Disk with one interior cone point of the given order."""

    order: int

    def __post_init__(self):
        object.__setattr__(self, "order", operator.index(self.order))
        if self.order < 2:
            raise ValueError("cone order must be at least 2")


@dataclass(frozen=True)
class Ball3:
    """Ball whose singular set is a cone on three points.

    The three orders must form a spherical triple; that is checked by
    the builders, not here, so descriptors parse uniformly.
    """

    orders: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "orders",
                           tuple(map(operator.index, self.orders)))
        if len(self.orders) != 3 or any(m < 2 for m in self.orders):
            raise ValueError("need three orders, each at least 2")


@dataclass(frozen=True)
class Ball3Cyclic:
    """Ball whose singular set is an unknotted axis of the given order."""

    order: int

    def __post_init__(self):
        object.__setattr__(self, "order", operator.index(self.order))
        if self.order < 2:
            raise ValueError("axis order must be at least 2")


@dataclass(frozen=True)
class Surface:
    """Orientable surface with genus, boundary circles, and cone points."""

    genus: int
    boundary: int
    cone_orders: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "genus", operator.index(self.genus))
        object.__setattr__(self, "boundary", operator.index(self.boundary))
        object.__setattr__(self, "cone_orders",
                           tuple(map(operator.index, self.cone_orders)))
        if self.genus < 0 or self.boundary < 0:
            raise ValueError("genus and boundary count must be non-negative")
        if any(m < 2 for m in self.cone_orders):
            raise ValueError("cone orders must be at least 2")


@dataclass(frozen=True)
class ProductTorus:
    """Product of a base orbifold with a torus of the given dimension;
    a product base is folded in, so (X x torus(j)) x torus(k) is
    X x torus(j + k)."""

    base: "OrbifoldDesc"
    torus_factors: int

    def __post_init__(self):
        object.__setattr__(self, "torus_factors",
                           operator.index(self.torus_factors))
        if self.torus_factors < 1:
            raise ValueError("torus factor count must be at least 1")
        if isinstance(self.base, ProductTorus):
            object.__setattr__(self, "torus_factors",
                               self.base.torus_factors + self.torus_factors)
            object.__setattr__(self, "base", self.base.base)


@dataclass(frozen=True)
class Custom:
    """Complex read from an .owc file."""

    path: str


OrbifoldDesc = Union[Disc2, Ball3, Ball3Cyclic, Surface, ProductTorus, Custom]


def describe(d: OrbifoldDesc) -> str:
    """Stable text form of a descriptor, matching the CLI grammar."""
    if isinstance(d, Disc2):
        return f"disc2({d.order})"
    if isinstance(d, Ball3):
        return "ball3({},{},{})".format(*d.orders)
    if isinstance(d, Ball3Cyclic):
        return f"ball3cyclic({d.order})"
    if isinstance(d, Surface):
        cones = ";" + ",".join(str(m) for m in d.cone_orders) if d.cone_orders else ""
        return f"surface({d.genus},{d.boundary}{cones})"
    if isinstance(d, ProductTorus):
        return f"{describe(d.base)} x torus({d.torus_factors})"
    if isinstance(d, Custom):
        return f"file:{d.path}"
    raise TypeError(f"not a descriptor: {d!r}")


_ID_RE = re.compile(r"[A-Za-z0-9_]+")


def _row(id: str, dim: int, weight: int, boundary: Iterable = ()) -> tuple:
    """The checked row (id, dim, weight, boundary) of a cell's fields: boundary
    labels merged by summing coefficients, zeros dropped; dim, weight and
    coefficients through operator.index, so a float or a string raises TypeError."""
    if not _ID_RE.fullmatch(id):
        raise ValueError(f"bad cell id {id!r}")
    dim, weight = operator.index(dim), operator.index(weight)
    if dim < 0:
        raise ValueError(f"cell {id}: negative dimension")
    if weight < 1:
        raise ValueError(f"cell {id}: weight must be at least 1")
    merged: dict[str, int] = {}  # in order of first appearance
    for ref, coefficient in boundary:
        merged[ref] = merged.get(ref, 0) + operator.index(coefficient)
    return id, dim, weight, tuple([(ref, c) for ref, c in merged.items() if c])


@dataclass(frozen=True)
class Cell:
    """One cell: label, dimension, weight, and incidence list, as _row checks them."""

    id: str
    dim: int
    weight: int
    boundary: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        for field, value in zip(("id", "dim", "weight", "boundary"), _row(
                self.id, self.dim, self.weight, self.boundary)):
            object.__setattr__(self, field, value)

    @classmethod
    def _of(cls, id: str, dim: int, weight: int, boundary: tuple) -> "Cell":
        """Trusted build from a checked row; nothing is checked or merged."""
        cell = object.__new__(cls)
        object.__setattr__(cell, "id", id)
        object.__setattr__(cell, "dim", dim)
        object.__setattr__(cell, "weight", weight)
        object.__setattr__(cell, "boundary", boundary)
        return cell


class ComplexError(ValueError):
    """Invalid complex structure, naming the offending cell (and sub)."""

    def __init__(self, message: str, cell: str, sub: str | None = None):
        super().__init__(message)
        self.cell = cell
        self.sub = sub


class WeightedCellComplex:
    """Immutable weighted cell complex with named subcomplexes: a sparse
    chain complex, one weight tuple per degree, and subs of cell ids.

    Construction checks that boundary references exist one dimension
    down, that subcomplex members exist, that d∘d = 0, and that
    subcomplexes are closed under boundaries.  A failure raises
    ComplexError.  No subcomplex may be named all: sub_cells reserves it
    for every cell.  On first read, the cells view is built from the rows
    of the given cells, as given, or off a derived complex's columns, each
    boundary by face position, and a torus product derives its subs.
    """

    __slots__ = ("name", "_subs", "_chain", "_weights", "_cells")

    def __init__(self, name: str, dim: int, cells: Sequence[Cell],
                 subs: Mapping[str, Iterable[str]] | None = None):
        self._set(name, *_checked(dim, [(cell.id, cell.dim, cell.weight, cell.boundary)
                                        for cell in cells], subs))

    @classmethod
    def _of(cls, name: str, subs: dict | Callable[[], dict], chain: ChainComplex,
            weights, rows: list[tuple] | None = None) -> "WeightedCellComplex":
        """Trusted build from what _checked gives or a valid derived complex."""
        wcc = object.__new__(cls)
        wcc._set(name, subs, chain, weights, rows)
        return wcc

    def _set(self, name, subs, chain, weights, rows=None) -> None:
        for slot, value in zip(self.__slots__, (
                name, subs, chain, tuple([tuple(ws) for ws in weights]), rows)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedCellComplex is immutable")

    @property
    def dim(self) -> int:
        return self._chain.top_dim

    @property
    def cells(self) -> tuple[Cell, ...]:
        if type(self._cells) is not tuple:  # rows, or None: read the columns
            basis, columns = self._chain.basis, self._chain.boundaries
            rows = self._cells or ((label, q, self._weights[q][j], tuple([
                (basis[q - 1][i], x) for i, x in columns[q - 1][j]]) if q else ())
                for q, labels in enumerate(basis) for j, label in enumerate(labels))
            object.__setattr__(self, "_cells", tuple([Cell._of(*row) for row in rows]))
        return self._cells

    @property
    def subs(self) -> dict[str, frozenset[str]]:
        if callable(self._subs):
            object.__setattr__(self, "_subs", self._subs())
        return self._subs

    def sub_cells(self, name: str) -> frozenset[str]:
        if name == "all":
            return frozenset(self._chain.labels())
        if name not in self.subs:
            raise ValueError(f"no subcomplex named {name!r} (subcomplexes: "
                             f"{', '.join(['all', *sorted(self.subs)])})")
        return self.subs[name]

    def chain_complex(self) -> ChainComplex:
        """The cellular chain complex, built once.  The public
        constructor composes its d∘d; a derived complex is valid by the
        construction of its builder."""
        return self._chain


def _checked(dim: int, rows: list[tuple], subs: Mapping | None) -> tuple:
    """Subs, chain complex, weights and rows of a complex of rows from
    _row, checked as WeightedCellComplex documents."""
    by_id: dict[str, tuple] = {}
    for row in rows:
        if row[0] in by_id:
            raise ComplexError(f"duplicate cell id {row[0]}", row[0])
        by_id[row[0]] = row
    for cell_id, cell_dim, _, boundary in rows:
        if cell_dim > dim:
            raise ComplexError(f"cell {cell_id}: dimension {cell_dim} "
                               f"exceeds declared dim {dim}", cell_id)
        for ref, _ in boundary:
            if ref not in by_id:
                raise ComplexError(f"cell {cell_id}: unknown boundary cell {ref}", cell_id)
            if by_id[ref][1] != cell_dim - 1:
                raise ComplexError(
                    f"cell {cell_id}: boundary cell {ref} has dimension "
                    f"{by_id[ref][1]}, expected {cell_dim - 1}", cell_id)
    listed = {sub_name: list(members) for sub_name, members in (subs or {}).items()}
    if "all" in listed:
        raise ValueError("subcomplex name 'all' is reserved")
    for sub_name, members in listed.items():
        for member in members:
            if member not in by_id:
                raise ComplexError(f"subcomplex {sub_name}: unknown cell {member}",
                                   member, sub_name)
    if dim < 0:
        raise ValueError("a complex needs at least degree 0")
    by_dim: list[list[tuple]] = [[] for _ in range(dim + 1)]
    for row in rows:
        by_dim[row[1]].append(row)
    position = {row[0]: j for level in by_dim for j, row in enumerate(level)}
    # Each boundary is merged, nonzero and checked above to lie one
    # dimension down, so its positions only need sorting.
    chain = ChainComplex._of(
        [[row[0] for row in level] for level in by_dim],
        [[sorted([(position[ref], coefficient) for ref, coefficient in row[3]])
          for row in level] for level in by_dim[1:]])
    if problems := chains.validate(chain):
        q, j, _, _ = next(chains._dd_entries(chain))
        raise ComplexError("boundary of boundary is nonzero: " + problems[0],
                           chain.basis[q][j])
    closed = {sub_name: frozenset(members) for sub_name, members in listed.items()}
    for sub_name, members in listed.items():
        for member in members:
            for ref, _ in by_id[member][3]:
                if ref not in closed[sub_name]:
                    raise ComplexError(
                        f"subcomplex {sub_name}: cell {member} has face "
                        f"{ref} outside it", member, sub_name)
    return closed, chain, [[row[2] for row in level] for level in by_dim], rows


def cone_point_index(m1: int, m2: int, m3: int) -> int:
    """Order of the local group at the cone point of a ballic model.

    Equals the least common multiple of the three orders when the
    sorted triple is (2, 2, odd), and twice that otherwise.  Rejects
    non-spherical triples.
    """
    triple = tuple(sorted((m1, m2, m3)))
    if any(m < 2 for m in triple):
        raise ValueError("orders must be at least 2")
    spherical = (triple[:2] == (2, 2)) or triple in ((2, 3, 3), (2, 3, 4), (2, 3, 5))
    if not spherical:
        raise ValueError(f"({m1},{m2},{m3}) is not a spherical triple")
    ell = lcm(*triple)
    if triple[:2] == (2, 2) and triple[2] % 2 == 1:
        return ell
    return 2 * ell


def _t_disc2(d: Disc2):
    n = d.order
    rows = [
        _row("v0", 0, 1),
        _row("u", 0, 1),
        _row("c_out", 1, 1),
        _row("r", 1, 1, (("v0", 1), ("u", -1))),
        _row("c_in", 1, 1),
        _row("A", 2, 1, (("c_out", 1), ("c_in", -1))),
        _row("sighat", 2, n, (("c_in", n),)),
    ]
    subs = {
        "boundary": {"v0", "c_out"},
        "cone": {"u", "c_in", "sighat"},
        "annulus": {"v0", "u", "c_out", "r", "c_in", "A"},
    }
    return 2, rows, subs


def _t_surface(d: Surface):
    g, b, ms = d.genus, d.boundary, d.cone_orders
    rows = [_row("v", 0, 1)]
    rows += [_row(f"{loop}{k}", 1, 1) for k in range(1, g + 1) for loop in "ab"]
    rows += [_row(f"c{i}", 1, 1) for i in range(1, len(ms) + 1)]
    for j in range(1, b + 1):
        rows.append(_row(f"w{j}", 0, 1))
        rows.append(_row(f"r{j}", 1, 1, ((f"w{j}", 1), ("v", -1))))
        rows.append(_row(f"d{j}", 1, 1))
    for i, m in enumerate(ms, start=1):
        rows.append(_row(f"sighat{i}", 2, m, ((f"c{i}", m),)))
    rows.append(_row("sigma0", 2, 1, [(f"c{i}", -1) for i in range(1, len(ms) + 1)]
                     + [(f"d{j}", -1) for j in range(1, b + 1)]))
    rows.sort(key=operator.itemgetter(1))

    subs: dict[str, set[str]] = {}
    if b >= 1:
        subs["boundary"] = {f"w{j}" for j in range(1, b + 1)}
        subs["boundary"] |= {f"d{j}" for j in range(1, b + 1)}
    subs["conedisks"] = {"v"} | {f"c{i}" for i in range(1, len(ms) + 1)} \
        | {f"sighat{i}" for i in range(1, len(ms) + 1)}
    subs["complement"] = {row[0] for row in rows} \
        - {f"sighat{i}" for i in range(1, len(ms) + 1)}
    return 2, rows, subs


def _t_ball(orders: tuple[int, ...], index: int):
    """Cone-point sphere with a 3-cell of weight index attached, meeting
    each cone disc with multiplicity index over its order."""
    _, rows, _ = _t_surface(Surface(0, 0, orders))
    boundary = tuple((f"sighat{i}", index // m)
                     for i, m in enumerate(orders, start=1))
    tau = _row("tauhat", 3, index, (("sigma0", index),) + boundary)
    return 3, rows + [tau], {"boundary": {row[0] for row in rows}}


def _adapted_disc2(d: Disc2):
    n = d.order
    rows = [
        _row("v", 0, 1),
        _row("p", 0, n),
        _row("a", 1, 1, (("p", 1), ("v", -1))),
        _row("c", 1, 1),
        _row("E", 2, 1, (("c", 1),)),
    ]
    return 2, rows, {"boundary": {"v", "c"}}


def _adapted_surface(d: Surface):
    g, b, ms = d.genus, d.boundary, d.cone_orders
    rows = [_row("v", 0, 1)]
    for i, m in enumerate(ms, start=1):
        rows.append(_row(f"p{i}", 0, m))
        rows.append(_row(f"e{i}", 1, 1, ((f"p{i}", 1), ("v", -1))))
    rows += [_row(f"{loop}{k}", 1, 1) for k in range(1, g + 1) for loop in "ab"]
    for j in range(1, b + 1):
        rows.append(_row(f"w{j}", 0, 1))
        rows.append(_row(f"r{j}", 1, 1, ((f"w{j}", 1), ("v", -1))))
        rows.append(_row(f"d{j}", 1, 1))
    rows.append(_row("F", 2, 1, tuple((f"d{j}", 1) for j in range(1, b + 1))))
    rows.sort(key=operator.itemgetter(1))
    subs = {}
    if b >= 1:
        subs["boundary"] = {f"w{j}" for j in range(1, b + 1)} \
            | {f"d{j}" for j in range(1, b + 1)}
    return 2, rows, subs


def _adapted_ball3(d: Ball3):
    m1, m2, m3 = d.orders
    n0 = cone_point_index(m1, m2, m3)
    rows = [
        _row("p1", 0, m1), _row("p2", 0, m2), _row("p3", 0, m3),
        _row("o", 0, n0),
        _row("E12", 1, 1, (("p2", 1), ("p1", -1))),
        _row("E23", 1, 1, (("p3", 1), ("p2", -1))),
        _row("E31", 1, 1, (("p1", 1), ("p3", -1))),
        _row("g1", 1, m1, (("p1", 1), ("o", -1))),
        _row("g2", 1, m2, (("p2", 1), ("o", -1))),
        _row("g3", 1, m3, (("p3", 1), ("o", -1))),
        _row("F_up", 2, 1, (("E12", 1), ("E23", 1), ("E31", 1))),
        _row("F_down", 2, 1, (("E12", -1), ("E23", -1), ("E31", -1))),
        _row("D12", 2, 1, (("g1", 1), ("E12", 1), ("g2", -1))),
        _row("D23", 2, 1, (("g2", 1), ("E23", 1), ("g3", -1))),
        _row("D31", 2, 1, (("g3", 1), ("E31", 1), ("g1", -1))),
        _row("T_up", 3, 1, (("F_up", 1), ("D12", -1), ("D23", -1), ("D31", -1))),
        _row("T_down", 3, 1, (("F_down", 1), ("D12", 1), ("D23", 1), ("D31", 1))),
    ]
    subs = {"boundary": {"p1", "p2", "p3", "E12", "E23", "E31",
                         "F_up", "F_down"}}
    return 3, rows, subs


def _adapted_ball3cyclic(d: Ball3Cyclic):
    n = d.order
    rows = [
        _row("p1", 0, n), _row("p2", 0, n),
        _row("e_a", 1, 1, (("p2", 1), ("p1", -1))),
        _row("e_b", 1, 1, (("p2", 1), ("p1", -1))),
        _row("g", 1, n, (("p2", 1), ("p1", -1))),
        _row("F_a", 2, 1, (("e_a", 1), ("e_b", -1))),
        _row("F_b", 2, 1, (("e_b", 1), ("e_a", -1))),
        _row("D_a", 2, 1, (("e_a", 1), ("g", -1))),
        _row("D_b", 2, 1, (("e_b", 1), ("g", -1))),
        _row("T_a", 3, 1, (("F_a", 1), ("D_a", -1), ("D_b", 1))),
        _row("T_b", 3, 1, (("F_b", 1), ("D_a", 1), ("D_b", -1))),
    ]
    subs = {"boundary": {"p1", "p2", "e_a", "e_b", "F_a", "F_b"}}
    return 3, rows, subs


def _surface_cells(d: Surface) -> tuple[int, int]:
    n = 2 + 2 * d.genus + 3 * d.boundary + 2 * len(d.cone_orders)
    return n, n


# Per descriptor family: (t model builder, adapted model builder), each
# giving (dim, rows from _row, subs), then the cell counts of the two models.
# _build checks the base complex once; its torus product is valid by
# construction (_torus), as is every derived complex.
_FAMILIES = {
    Disc2: (_t_disc2, _adapted_disc2, lambda d: (7, 5)),
    Surface: (_t_surface, _adapted_surface, _surface_cells),
    Ball3: (lambda d: _t_ball(d.orders, cone_point_index(*d.orders)),
            _adapted_ball3, lambda d: (9, 17)),
    Ball3Cyclic: (lambda d: _t_ball((d.order, d.order), d.order),
                  _adapted_ball3cyclic, lambda d: (7, 11)),
}

# The most cells _build makes from a descriptor, and the most cell lines
# that parse_owc takes from a file.  `orbihom homology --desc
# "surface(4,3;2,3,5,7) x torus(11)"`, 55,296 cells, takes 0.18-0.31 s
# wall and 37 MB peak RSS in a child process (2 cores, Python 3.11.7);
# one more torus factor doubles the cells and is refused.
MAX_CELLS = 100_000
# The largest dim that parse_owc takes: per-degree work does not shrink
# with the cell count.  No built-in model under MAX_CELLS passes dim 16.
MAX_DIM = 64


def _build(d: OrbifoldDesc, adapted: bool) -> WeightedCellComplex:
    """The t model (adapted false) or adapted model of a descriptor.

    A file descriptor gives the parsed complex for both kinds.  A model
    of more than MAX_CELLS cells raises ValueError before it is built.
    """
    base, k = d, 0
    if isinstance(d, ProductTorus):
        base, k = d.base, d.torus_factors
    if isinstance(base, Custom):
        with open(base.path, encoding="utf-8") as handle:
            model = parse_owc(handle.read())
        if not k:
            return model
        n = sum(map(len, model._chain.basis))
    elif type(base) in _FAMILIES:
        model, n = None, _FAMILIES[type(base)][2](base)[adapted]
    else:
        raise TypeError(f"not a descriptor: {base!r}")
    # With n >= 1, k >= 17 is over the limit: n << k is not formed then.
    if k >= MAX_CELLS.bit_length() or n << k > MAX_CELLS:
        estimate = f"{n} x 2^{k}" if k else str(n)
        raise ValueError(f"{describe(d)} would have {estimate} cells, "
                         f"more than the limit of {MAX_CELLS}")
    if model is None:
        model = WeightedCellComplex._of(
            describe(base), *_checked(*_FAMILIES[type(base)][adapted](base)))
    return _torus(model, k, describe(d)) if k else model


def _torus(base: WeightedCellComplex, k: int, name: str) -> WeightedCellComplex:
    """base x torus(k), built in one pass by index arithmetic on the base.

    A product cell is a base cell with a suffix of k parts, '_x_z' (dim 0)
    or '_x_t' (dim 1), on its id, and the base weight.  The circle has no
    boundary, so a product column is the base column on the faces with the
    same suffix, with no sign: the chain complex is 2^k shifted copies of
    the base's (Hatcher, Algebraic Topology, §3.B), valid as the base is.
    Each dim lists its cells as k iterated products with the circle
    (`oracles.public_tensor`) of the base's cells stably sorted by
    dimension do: by suffix, '_x_t' before '_x_z' from the last part on,
    then by base position.  Each sub, a base sub times the torus, is
    derived on first read."""
    c, sizes = base._chain, [len(labels) for labels in base._chain.basis]

    def blocks() -> tuple[list[list], list[list], list[list]]:
        """Per product dim, in product order, the base dim, suffix and face
        start (in the dim below) of each block of cells, in flat lists: a
        tuple per block would run the cycle collector more often."""
        js, suffixes = [0], [""]  # count of '_x_t' parts, suffix: by doubling
        for _ in range(k):
            js = [j + 1 for j in js] + js
            suffixes = [s + "_x_t" for s in suffixes] + [s + "_x_z" for s in suffixes]
        qs, tails, faces = ([[] for _ in range(len(sizes) + k)] for _ in range(3))
        filled = [0] * len(qs)
        for j, suffix in zip(js, suffixes):
            face = 0
            for p, size in enumerate(sizes, j):  # product dim p, base dim p - j
                qs[p].append(p - j)
                tails[p].append(suffix)
                faces[p].append(face)
                face, filled[p] = filled[p], filled[p] + size
        return qs, tails, faces

    (qs, tails, faces), columns = blocks(), [[()] * len(c.basis[0]), *c.boundaries]
    chain = ChainComplex._of(
        [[label + tail for q, tail in zip(*level) for label in c.basis[q]]
         for level in zip(qs, tails)],
        [[tuple([(i + face, x) for i, x in col]) if face and col else col
          for q, face in zip(*level) for col in columns[q]]
         for level in zip(qs[1:], faces[1:])])

    def subs():
        picked = {sub_name: [[i for i, label in enumerate(ls) if label in members]
                             for ls in c.basis] for sub_name, members in base.subs.items()}
        starts = [list(zip(level, accumulate([sizes[q] for q in level], initial=0)))
                  for level in blocks()[0]]
        return {sub_name: frozenset([
            labels[start + i] for labels, level in zip(chain.basis, starts)
            for q, start in level for i in picks[q]])
            for sub_name, picks in picked.items()}
    return WeightedCellComplex._of(
        name, subs, chain, [[w for q in level for w in base._weights[q]] for level in qs])


def t_model(d: OrbifoldDesc) -> WeightedCellComplex:
    """Weighted model whose chain complex computes transversal homology.

    Cone points carry weighted 2-cells attached with multiplicity equal
    to the cone order; ballic models add a weighted 3-cell attached to
    the boundary sphere with multiplicities scaled by the cone point
    index.
    """
    return _build(d, False)


def degenerate_weights(wcc: WeightedCellComplex) -> WeightedCellComplex:
    """Set every weight to 1 and rescale incidences to match.

    The incidence from a cell onto a face is divided by the ratio of
    their weights; this is the weights-to-1 degeneration whose homology
    is that of the underlying space, valid as wcc is: d∘d is scaled by
    w(e)/w(c) from a cell c onto a cell e.  The first incidence, in
    degree, column and row order, that cannot be divided raises
    ValueError.
    """
    c, w, boundaries = wcc._chain, wcc._weights, []
    for q, columns in enumerate(c.boundaries, start=1):
        boundaries.append([])
        for j, col in enumerate(columns):
            scaled = []
            for i, x in col:
                ratio, remainder = divmod(w[q][j], w[q - 1][i])
                if remainder:
                    raise ValueError(f"cell {c.basis[q][j]}: weight does not divide "
                                     f"the weight of its face {c.basis[q - 1][i]}")
                if x % ratio:
                    raise ValueError(f"cell {c.basis[q][j]}: incidence on "
                                     f"{c.basis[q - 1][i]} is not divisible by "
                                     "the weight ratio")
                scaled.append((i, x // ratio))
            boundaries[-1].append(scaled)
    return WeightedCellComplex._of(
        f"{wcc.name}_underlying", wcc._subs,
        ChainComplex._of(c.basis, boundaries), [[1] * len(ws) for ws in w])


def underlying_model(d: OrbifoldDesc) -> WeightedCellComplex:
    """Model of the underlying space, as the weight degeneration."""
    return degenerate_weights(t_model(d))


def adapted_model(d: OrbifoldDesc) -> WeightedCellComplex:
    """Cell structure in which every open cell lies in one stratum.

    Singular strata appear as weighted vertices and arcs; the scaled
    dual of this complex carries the weighted cochains.  For a file
    descriptor the parsed complex itself is taken as already adapted.
    """
    return _build(d, True)


def ws_complex(wcc: WeightedCellComplex, rel: str | None = None) -> ChainComplex:
    """Scaled dual cochain complex, encoded with reversed degrees.

    Degree k of the result holds the duals of the (n-k)-cells, scaled by
    their weights, so that homology in degree k is the weighted
    cohomology in degree n-k: its boundaries are the transposed columns
    of wcc, each entry times w(face) / w(coface), so its d∘d is that of
    wcc transposed and scaled.  With rel set, duals of cells in that
    named subcomplex are dropped: as the sub is closed, the cochains
    vanishing on it are a subcomplex.  The first entry, from the top
    degree down and in coface and face-position order, that is not
    integral raises ValueError.
    """
    dropped = wcc.sub_cells(rel) if rel is not None else frozenset()
    c, w, n = wcc._chain, wcc._weights, wcc.dim
    kept = [[j for j, label in enumerate(labels) if label not in dropped]
            for labels in c.basis]
    boundaries = []
    for q in range(n - 1, -1, -1):
        # Transpose: the dual of each q-cell gets one entry per coface,
        # in ascending rows.
        row = {i: r for r, i in enumerate(kept[q])}
        columns = [[] for _ in kept[q]]
        for r, j in enumerate(kept[q + 1]):
            for i, x in c.boundaries[q][j]:
                if i not in row:
                    continue
                value, remainder = divmod(x * w[q][i], w[q + 1][j])
                if remainder:
                    raise ValueError(f"weights are not adapted: entry from "
                                     f"{c.basis[q + 1][j]} to {c.basis[q][i]} "
                                     "is not integral")
                columns[row[i]].append((r, value))
        boundaries.append(columns)
    return ChainComplex._of([[c.basis[n - k][j] for j in kept[n - k]]
                             for k in range(n + 1)], boundaries)


class OwcError(ValueError):
    """Parse or validation failure in .owc text, with a line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_KV_RE = re.compile(r"^(\w+)=(\S+)$")


def _is_int(text: str) -> bool:
    """Whether text is ASCII -?[0-9]+, the one integer form of .owc text
    (int() alone also takes other digits, '+' and '_')."""
    digits = text.removeprefix("-")
    return digits.isascii() and digits.isdigit()


def parse_owc(text: str) -> WeightedCellComplex:
    """Parse the .owc text format.

    Grammar (one directive per line, '#' starts a comment):
      orbifold <name>
      dim <n>
      cell <id> dim=<q> weight=<w> [boundary=<id>:<int>,...]
      sub <name> = <id>,...

    Each cell line is checked as a row at its line, and the rows as a
    complex, as WeightedCellComplex checks cells, with each fault at the
    line of its cell or sub member; no Cell is built.  A field other than
    dim, weight and boundary, a face listed twice in one boundary, a dim
    above MAX_DIM, or more than MAX_CELLS cell lines, is refused at its line.
    """
    name = None
    dim = None
    rows: list[tuple] = []
    cell_lines: dict[str, int] = {}
    subs: dict[str, list[str]] = {}
    sub_lines: dict[tuple[str, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        verb = parts[0]
        if verb in ("orbifold", "dim") and (dim if verb == "dim" else name) is not None:
            raise OwcError(lineno, f"repeated {verb} line")
        if verb == "orbifold":
            if len(parts) < 2:
                raise OwcError(lineno, "orbifold needs a name")
            name = line[len("orbifold"):].strip()
        elif verb == "dim":
            if len(parts) != 2 or not _is_int(parts[1]):
                raise OwcError(lineno, "dim needs one integer")
            try:
                dim = int(parts[1])
            except ValueError:  # more digits than int() converts
                raise OwcError(lineno, "dim has too many digits") from None
            if dim < 0:
                raise OwcError(lineno, "dim must be non-negative")
            if dim > MAX_DIM:
                raise OwcError(lineno, f"dim {dim} is more than the limit "
                                       f"of {MAX_DIM}")
        elif verb == "cell":
            if len(rows) >= MAX_CELLS:
                raise OwcError(lineno, f"more than the limit of {MAX_CELLS} cells")
            if len(parts) < 2:
                raise OwcError(lineno, "cell needs an id")
            cell_id = parts[1]
            if cell_id in cell_lines:
                raise OwcError(lineno, f"duplicate cell id {cell_id}")
            fields = {}
            for chunk in parts[2:]:
                match = _KV_RE.match(chunk)
                if not match:
                    raise OwcError(lineno, f"bad cell field {chunk!r}")
                key, value = match.groups()
                if key not in ("dim", "weight", "boundary"):
                    raise OwcError(lineno, f"unknown cell field {key!r}")
                if key in fields:
                    raise OwcError(lineno, f"repeated field {key}")
                fields[key] = value
            if "dim" not in fields or "weight" not in fields:
                raise OwcError(lineno, "cell needs dim= and weight=")
            try:
                if not (_is_int(fields["dim"]) and _is_int(fields["weight"])):
                    raise ValueError
                cell_dim, weight = int(fields["dim"]), int(fields["weight"])
            except ValueError:  # or more digits than int() converts
                raise OwcError(lineno, "dim and weight must be integers")
            boundary: dict[str, int] = {}
            if "boundary" in fields:
                for entry in fields["boundary"].split(","):
                    if ":" not in entry:
                        raise OwcError(lineno, f"bad boundary entry "
                                               f"{entry!r}, want id:int")
                    ref, _, coefficient = entry.partition(":")
                    if ref in boundary:
                        raise OwcError(lineno, f"face {ref!r} is listed "
                                               f"twice in the boundary")
                    try:
                        if not _is_int(coefficient):
                            raise ValueError
                        boundary[ref] = int(coefficient)
                    except ValueError:  # or more digits than int() converts
                        raise OwcError(lineno, f"bad boundary coefficient "
                                               f"in {entry!r}")
            try:
                rows.append(_row(cell_id, cell_dim, weight, boundary.items()))
            except ValueError as exc:
                raise OwcError(lineno, str(exc))
            cell_lines[cell_id] = lineno
        elif verb == "sub":
            rest = line[len("sub"):].strip()
            if "=" not in rest:
                raise OwcError(lineno, "sub needs '= id,id,...'")
            sub_name, _, members = rest.partition("=")
            sub_name = sub_name.strip()
            if not _ID_RE.fullmatch(sub_name):
                raise OwcError(lineno, f"bad subcomplex name {sub_name!r}")
            if sub_name == "all":
                raise OwcError(lineno, "subcomplex name 'all' is reserved")
            ids = [m.strip() for m in members.split(",") if m.strip()]
            subs.setdefault(sub_name, []).extend(ids)
            for member in ids:
                sub_lines.setdefault((sub_name, member), lineno)
        else:
            raise OwcError(lineno, f"unknown directive {verb!r}")
    if name is None:
        raise OwcError(1, "missing 'orbifold <name>' line")
    if dim is None:
        raise OwcError(1, "missing 'dim <n>' line")
    try:
        return WeightedCellComplex._of(name, *_checked(dim, rows, subs))
    except ComplexError as exc:
        line = (cell_lines[exc.cell] if exc.sub is None
                else sub_lines[exc.sub, exc.cell])
        raise OwcError(line, str(exc)) from None


def serialize_owc(wcc: WeightedCellComplex) -> str:
    """Deterministic .owc text for a complex; parses back to an equal one."""
    lines = [f"orbifold {wcc.name}", f"dim {wcc.dim}"]
    for cell in wcc.cells:
        line = f"cell {cell.id} dim={cell.dim} weight={cell.weight}"
        if cell.boundary:
            entries = ",".join(f"{ref}:{coefficient}"
                               for ref, coefficient in cell.boundary)
            line += f" boundary={entries}"
        lines.append(line)
    order = {cell.id: i for i, cell in enumerate(wcc.cells)}
    for sub_name in sorted(wcc.subs):
        members = sorted(wcc.subs[sub_name], key=order.__getitem__)
        lines.append(f"sub {sub_name} = {','.join(members)}")
    return "\n".join(lines) + "\n"
