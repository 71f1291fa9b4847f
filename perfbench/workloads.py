"""Seeded inputs and expected outputs for the three benchmark workloads.

A workload is a pool of rounds; a round is a fixed list of op slots
whose sizes and kinds never change, while the seed picks the cone
orders, covers and selftest seeds that fill the slots.  Every round of
a workload therefore costs about the same, and a run that completes
whole rounds always measures the same mix of sizes and op kinds.

Expected outputs come from routes that do not run the op itself:
group lists from the Kunneth closed form over the homology of the small
base surface, and a PASS verdict for the verify and selftest ops.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its captured stdout must be.

    kind "text" compares the whole stdout with `expected`; "json_pass"
    needs a JSON report with passed true; "result_pass" needs the last
    line to read RESULT PASS.  Exit code 0 is required for all three.
    """

    argv: tuple[str, ...]
    kind: str
    expected: str = ""
    cells: int = 0
    nonzeros: int = 0


# product-homology: (genus, boundary, cone count, torus factors, kind).
# Slots run largest first.  The four-cone genus-4 base with
# three boundary circles is the ROADMAP's surface(4,3;2,3,5,7): 432
# cells at k=4, 216 at k=3.  Three 216-cell Z slots sit right below the
# single 432-cell slot, so the 90th percentile falls inside that class
# and not on the edge between two sizes.
PRODUCT_SLOTS = (
    (4, 3, 4, 4, "z"),
    (4, 3, 4, 3, "z"), (4, 3, 4, 3, "z"), (4, 3, 4, 3, "z"),
    (4, 3, 4, 3, "ws"), (4, 3, 4, 3, "q"),
    (1, 1, 2, 4, "z"), (1, 1, 2, 4, "ws"),
    (2, 2, 3, 3, "z"), (2, 2, 3, 3, "q"),
    (2, 1, 2, 3, "z"), (2, 1, 2, 3, "ws"),
    (1, 2, 2, 3, "q"), (1, 1, 2, 3, "z"),
    (4, 3, 4, 2, "z"),
    (2, 2, 3, 2, "z"), (2, 2, 3, 2, "ws"),
    (1, 2, 2, 2, "z"),
    (2, 1, 2, 2, "q"), (2, 1, 2, 2, "z"),
    (3, 1, 1, 2, "z"),
)
ROADMAP_CONES = (2, 3, 5, 7)

# cover-verify: descriptor templates; {n} is a cone or axis order, {t}
# a spherical triple.  The two 112-cell slots make up a fifth of each
# round, so the 90th percentile falls inside that class.
COVER_SLOTS = (
    "disc2({n}) x torus(1)",
    "ball3({t}) x torus(1)",
    "surface(1,1;{n},{n}) x torus(1)",
    "disc2({n}) x torus(2)",
    "ball3cyclic({n}) x torus(2)",
    "ball3({t}) x torus(2)",
    "surface(2,2;{n},{n},{n}) x torus(1)",
    "surface(1,1;{n},{n}) x torus(2)",
    "surface(2,2;{n},{n},{n}) x torus(2)",
    "surface(1,2;{n},{n}) x torus(3)",
    "surface(1,2;{n},{n}) x torus(3)",
)
SPHERICAL = ((2, 2, 2), (2, 2, 3), (2, 2, 5), (2, 2, 7),
             (2, 3, 3), (2, 3, 4), (2, 3, 5))

SELFTEST_ROUND = 10
SELFTEST_TRIALS = 20

# Rounds generated per run.  A 30-second run completes about 9-12,
# 20-27 and 13-16 rounds on a 2-core machine; a faster program cycles
# through the pool again.
POOL_ROUNDS = {"product-homology": 12, "cover-verify": 40,
               "affine-selftest": 20}
# Rounds in the traced run's count window; see tracer.py.
COUNT_ROUNDS = {"product-homology": 1, "cover-verify": 3,
                "affine-selftest": 1}


def render_group(rank: int, torsion, ring: str = "Z") -> str:
    """The CLI's text form of Z^rank + Z/d1 + ... (Q^rank over Q)."""
    parts = []
    if rank == 1:
        parts.append(ring)
    elif rank > 1:
        parts.append(f"{ring}^{rank}")
    if ring == "Z":
        parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def _prime_powers(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


def invariant_factors(orders) -> tuple[int, ...]:
    """Divisor chain of a sum of cyclic groups, via elementary divisors.

    Independent of orbihom.intlin, which gets the same chain from a
    Smith normal form.
    """
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        for p, q in _prime_powers(n):
            by_prime.setdefault(p, []).append(q)
    length = max((len(v) for v in by_prime.values()), default=0)
    chain = [1] * length
    for powers in by_prime.values():
        powers.sort(reverse=True)
        for i, q in enumerate(powers):
            chain[length - 1 - i] *= q
    return tuple(chain)


def kunneth(base_groups, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """H_q(B x T^k) as (rank, torsion) from the groups of B.

    H_q = sum over i of H_i(B) to the power C(k, q - i); the torus is
    free, so no Tor terms appear.
    """
    top = len(base_groups) - 1 + k
    out = []
    for q in range(top + 1):
        rank = 0
        orders: list[int] = []
        for i, (r, torsion) in enumerate(base_groups):
            if 0 <= q - i <= k:
                c = math.comb(k, q - i)
                rank += r * c
                orders.extend(list(torsion) * c)
        out.append((rank, invariant_factors(orders)))
    return out


def _surface(g: int, b: int, cones) -> str:
    return f"surface({g},{b};{','.join(str(m) for m in cones)})"


def _size(model) -> tuple[int, int]:
    return len(model.cells), sum(len(c.boundary) for c in model.cells)


def product_homology(seed: int, lib, out_dir: Path) -> list[list[Op]]:
    rng = random.Random(f"product-homology/{seed}")
    bases: dict[str, tuple[list, tuple[int, int]]] = {}

    def base_data(desc: str):
        """Groups and size of a base surface, computed once per base."""
        if desc not in bases:
            model = lib.orbmodel.t_model(lib.cli.parse_descriptor(desc))
            groups = lib.chains.homology(model.chain_complex()).groups()
            bases[desc] = ([(h.rank, h.torsion) for h in groups],
                           _size(model))
        return bases[desc]

    rounds = []
    for r in range(POOL_ROUNDS["product-homology"]):
        ops = []
        for slot, (g, b, ncones, k, kind) in enumerate(PRODUCT_SLOTS):
            if ncones == 4:
                cones = list(ROADMAP_CONES)
                if not (r == 0 and slot < 2):
                    rng.shuffle(cones)
            else:
                cones = [rng.randint(2, 9) for _ in range(ncones)]
            base = _surface(g, b, cones)
            desc = f"{base} x torus({k})"
            base_groups, (base_cells, base_nonzeros) = base_data(base)
            groups = kunneth(base_groups, k)
            if kind == "z":
                argv = ("homology", "--desc", desc)
                lines = [f"H_{q} = {render_group(*h)}"
                         for q, h in enumerate(groups)]
            elif kind == "q":
                argv = ("homology", "--desc", desc, "--coeff", "q")
                lines = [f"H_{q} = {render_group(h[0], (), 'Q')}"
                         for q, h in enumerate(groups)]
            else:
                # Duality: H^q rel boundary equals absolute H_{n-q}.
                argv = ("ws-cohomology", "--desc", desc, "--rel", "boundary")
                n = len(groups) - 1
                lines = [f"H^{q} = {render_group(*groups[n - q])}"
                         for q in range(n + 1)]
            # A circle has two cells and no incidences, so each torus
            # factor doubles both counts of the Z model.
            ops.append(Op(argv, "text", "\n".join(lines) + "\n",
                          cells=base_cells * 2 ** k,
                          nonzeros=base_nonzeros * 2 ** k))
        rounds.append(ops)
    return rounds


def _close_down(model, ids: set[str]) -> set[str]:
    out = set(ids)
    for cell in sorted(model.cells, key=lambda c: -c.dim):
        if cell.id in out:
            out.update(ref for ref, _ in cell.boundary)
    return out


def two_cover(model, rng: random.Random) -> tuple[list[str], list[str]]:
    """Downward-closed two-cover, by the rule of verify.random_two_cover:
    each cell goes left, right or both, then both sides are closed."""
    a: set[str] = set()
    b: set[str] = set()
    for cell in model.cells:
        roll = rng.choice(("left", "right", "both"))
        if roll in ("left", "both"):
            a.add(cell.id)
        if roll in ("right", "both"):
            b.add(cell.id)
    order = [cell.id for cell in model.cells]
    a, b = _close_down(model, a), _close_down(model, b)
    return [i for i in order if i in a], [i for i in order if i in b]


def cover_verify(seed: int, lib, out_dir: Path) -> list[list[Op]]:
    rng = random.Random(f"cover-verify/{seed}")
    models: dict[str, tuple[object, tuple[int, int]]] = {}
    out_dir.mkdir(parents=True, exist_ok=True)
    rounds = []
    for r in range(POOL_ROUNDS["cover-verify"]):
        ops = []
        for slot, template in enumerate(COVER_SLOTS):
            triple = ",".join(str(m) for m in rng.choice(SPHERICAL))
            desc = template.format(n=rng.randint(2, 9), t=triple)
            if desc not in models:
                model = lib.orbmodel.t_model(lib.cli.parse_descriptor(desc))
                models[desc] = (model, _size(model))
            model, (cells, nonzeros) = models[desc]
            sub_a, sub_b = two_cover(model, rng)
            text = (lib.orbmodel.serialize_owc(model)
                    + f"sub A = {','.join(sub_a)}\n"
                    + f"sub B = {','.join(sub_b)}\n")
            path = out_dir / f"cover-{r:03d}-{slot}.owc"
            path.write_text(text, encoding="utf-8")
            argv = ("verify", "mv", "--file", str(path),
                    "--sub", "A", "--sub", "B", "--json")
            ops.append(Op(argv, "json_pass", cells=cells, nonzeros=nonzeros))
        rounds.append(ops)
    return rounds


def affine_selftest(seed: int, lib, out_dir: Path) -> list[list[Op]]:
    rng = random.Random(f"affine-selftest/{seed}")
    return [[Op(("affops", "selftest", "--trials", str(SELFTEST_TRIALS),
                 "--seed", str(rng.randrange(2 ** 31))), "result_pass")
             for _ in range(SELFTEST_ROUND)]
            for _ in range(POOL_ROUNDS["affine-selftest"])]


WORKLOADS = {
    "product-homology": product_homology,
    "cover-verify": cover_verify,
    "affine-selftest": affine_selftest,
}


def size_range(rounds: list[list[Op]]) -> dict:
    """Smallest and largest model size over a pool of model ops."""
    ops = [op for ops in rounds for op in ops if op.cells]
    if not ops:
        return {}
    return {"cells": [min(op.cells for op in ops), max(op.cells for op in ops)],
            "nonzeros": [min(op.nonzeros for op in ops),
                         max(op.nonzeros for op in ops)]}
