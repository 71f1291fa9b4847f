"""Finite presentations of the fundamental groups of the built-in models.

Words are tuples of (generator, exponent) letters with every exponent
equal to +1 or -1; presentations store their relators freely reduced.
The abelianization of a presentation is computed as the cokernel of its
exponent-sum matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlin import Column, FgAbGroup, _column, cokernel_group
from .orbmodel import (
    Ball3,
    Ball3Cyclic,
    Custom,
    Disc2,
    OrbifoldDesc,
    ProductTorus,
    Surface,
    describe,
)

Letter = tuple[str, int]
Word = tuple[Letter, ...]


def free_reduce(letters) -> Word:
    """Cancel adjacent inverse letters until none remain."""
    stack: list[Letter] = []
    for gen, exp in letters:
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +1 or -1, got {exp}")
        if stack and stack[-1] == (gen, -exp):
            stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


def power(gen: str, n: int) -> Word:
    """The word gen^n as a letter sequence (n may be negative)."""
    sign = 1 if n >= 0 else -1
    return tuple((gen, sign) for _ in range(abs(n)))


def concat(*words) -> Word:
    return free_reduce(letter for word in words for letter in word)


def commutator(x: str, y: str) -> Word:
    return ((x, 1), (y, 1), (x, -1), (y, -1))


@dataclass(frozen=True)
class Presentation:
    """A finite group presentation with freely reduced relators."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __init__(self, generators, relators):
        gens = tuple(generators)
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator name")
        reduced = []
        for word in relators:
            red = free_reduce(word)
            for gen, _ in red:
                if gen not in gens:
                    raise ValueError(f"relator uses unknown generator {gen!r}")
            reduced.append(red)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", tuple(reduced))

    def exponent_matrix(self) -> tuple[Column, ...]:
        """Generators-by-relators matrix of exponent sums, as sparse columns."""
        index = {g: i for i, g in enumerate(self.generators)}
        return tuple(_column((index[gen], exp) for gen, exp in word)
                     for word in self.relators)


def abelianization(p: Presentation) -> FgAbGroup:
    """Quotient of the free abelian group on the generators by the
    exponent-sum images of the relators."""
    return cokernel_group(p.exponent_matrix(), len(p.generators))


def pi1_presentation(d: OrbifoldDesc) -> Presentation:
    """Fundamental-group presentation for a built-in model family."""
    if isinstance(d, (Disc2, Ball3Cyclic)):
        return Presentation(("x",), (power("x", d.order),))
    if isinstance(d, Ball3):
        m1, m2, m3 = d.orders
        return Presentation(
            ("x", "y", "z"),
            (power("x", m1), power("y", m2), power("z", m3),
             (("x", 1), ("y", 1), ("z", 1))),
        )
    if isinstance(d, Surface):
        gens: list[str] = []
        for k in range(1, d.genus + 1):
            gens.extend((f"a{k}", f"b{k}"))
        cone_gens = [f"x{i}" for i in range(1, len(d.cone_orders) + 1)]
        bd_gens = [f"s{j}" for j in range(1, d.boundary + 1)]
        gens.extend(cone_gens)
        gens.extend(bd_gens)
        relators: list[Word] = [
            power(g, m) for g, m in zip(cone_gens, d.cone_orders)
        ]
        relators.append(concat([(g, 1) for g in cone_gens + bd_gens],
                               *(commutator(f"a{k}", f"b{k}")
                                 for k in range(1, d.genus + 1))))
        return Presentation(tuple(gens), tuple(relators))
    if isinstance(d, ProductTorus):
        base = pi1_presentation(d.base)
        gens = list(base.generators)
        relators = list(base.relators)
        for j in range(1, d.torus_factors + 1):
            t = f"t{j}"
            for other in gens:
                relators.append(commutator(t, other))
            gens.append(t)
        return Presentation(tuple(gens), tuple(relators))
    if isinstance(d, Custom):
        raise ValueError(
            f"no fundamental-group presentation for {describe(d)}: "
            "raw complexes carry no marked group data"
        )
    raise TypeError(f"unknown descriptor {d!r}")
