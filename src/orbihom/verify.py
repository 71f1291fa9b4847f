"""Cross-checks between independently computed invariants.

Each check returns a VerdictReport whose assertions compare two values
that were obtained along genuinely different routes: a long exact
sequence against directly computed homology, a product formula against
a tensor-built model, integer against rational coefficients, a
degenerated model against textbook references, an abelianized group
presentation against first homology, and a scaled-dual cochain complex
against the weighted homology of a second model of the same space.
An exactness assertion prints each lattice once, as the sparse rows
it compared.
"""

from __future__ import annotations

import functools
import math

from .chains import (
    _connecting,
    _inclusion,
    _induced,
    homology,
    relative,
    subcomplex,
)
from .groups import abelianization, pi1_presentation
from .intlin import AbPresentation, FgAbGroup, GroupHom, _trusted, lattice_hnf
from .orbmodel import (
    Ball3,
    Ball3Cyclic,
    Custom,
    Disc2,
    OrbifoldDesc,
    ProductTorus,
    Surface,
    WeightedCellComplex,
    adapted_model,
    degenerate_weights,
    describe,
    t_model,
    underlying_model,
    ws_complex,
)
from .report import Assertion, VerdictReport


def _pad(groups, length: int):
    return list(groups) + [FgAbGroup.trivial()] * (length - len(groups))


def compare_graded(prefix: str, left, right) -> list[Assertion]:
    """Degree-by-degree equality assertions for two graded group lists,
    padded with trivial groups to a common length."""
    n = max(len(left), len(right), 1)
    lg, rg = _pad(left, n), _pad(right, n)
    return [
        Assertion(f"{prefix}, degree {q}", str(lg[q]), str(rg[q]),
                  lg[q] == rg[q])
        for q in range(n)
    ]


def exactness_assertion(statement: str, image_of: GroupHom | None,
                        kernel_of: GroupHom,
                        at: AbPresentation) -> Assertion:
    """Compare the image of one map with the kernel of the next as
    subgroups of the group presented by `at`, via canonical forms of
    their preimages in its free cover, kept on each map
    (GroupHom.lattices).  A None image_of is the zero map, whose image
    is the relators.  Each side prints the sparse rows it compared, as
    {column: entry} dicts; the kernel side is bare `kernel` when the
    two lattices agree."""
    if image_of is not None and image_of.target != at:
        raise ValueError("image map does not land in the given presentation")
    if kernel_of.source != at:
        raise ValueError("kernel map does not start at the given presentation")
    im = (lattice_hnf(at.rels, at.gens) if image_of is None
          else image_of.lattices[0])
    ker = kernel_of.lattices[1]
    return Assertion(statement, f"image {[dict(row) for row in im]} in Z^{at.gens}",
                     "kernel" if im == ker else f"kernel {[dict(row) for row in ker]}",
                     im == ker)


def check_mv(wcc: WeightedCellComplex, piece_a, piece_b) -> VerdictReport:
    """Exactness of the long sequence of a two-piece cover.

    piece_a and piece_b are sub-complex names of wcc or explicit cell
    sets; each must be closed under taking boundary faces and together
    they must cover every cell.  For each degree q the sequence

        ... -> H_q(intersection) -> H_q(A) + H_q(B) -> H_q(whole) -> ...

    is checked for exactness at all three positions.
    """
    cells_a, name_a = _resolve_piece(wcc, piece_a)
    cells_b, name_b = _resolve_piece(wcc, piece_b)
    if missing := wcc.sub_cells("all") - (cells_a | cells_b):
        raise ValueError(
            f"pieces do not cover the complex: missing {sorted(missing)}"
        )
    m = wcc.chain_complex()
    comp_a, comp_b = subcomplex(m, cells_a), subcomplex(m, cells_b)
    comp_i = subcomplex(m, cells_a & cells_b)
    h_m, h_i, h_a, h_b = map(homology, (m, comp_i, comp_a, comp_b))
    n = m.top_dim

    # subcomplex has checked A, B and I closed, so each inclusion commutes:
    # with the coverage, that is all the public maps would check again.
    i_star_a = _induced(_inclusion(comp_a, comp_i), h_i, h_a)
    i_star_b = _induced(_inclusion(comp_b, comp_i), h_i, h_b)
    j_star_a = _induced(_inclusion(m, comp_a), h_a, h_m)
    j_star_b = _induced(_inclusion(m, comp_b), h_b, h_m)
    k_star = _connecting(cells_a, m, h_i, h_m)

    report = VerdictReport(
        check="mayer-vietoris",
        subject=f"{wcc.name} [{name_a} | {name_b}]",
    )
    for q in range(n + 1):
        report.notes.append(
            f"H_{q}: intersection {h_i.group(q)}, A {h_a.group(q)}, "
            f"B {h_b.group(q)}, whole {h_m.group(q)}"
        )
    for q in range(n + 1):
        pres_i, pres_m = h_i.degree(q).presentation, h_m.degree(q).presentation
        pa, pb = h_a.degree(q).presentation, h_b.degree(q).presentation
        # B's generators follow A's: its columns' rows move down by pa.gens.
        pres_sum = _trusted(AbPresentation, gens=pa.gens + pb.gens, rels=pa.rels + tuple(
            tuple((i + pa.gens, x) for i, x in col) for col in pb.rels))
        i_comb = _trusted(GroupHom, source=pres_i, target=pres_sum, matrix=tuple(
            col_a + tuple((i + pa.gens, -x) for i, x in col_b)
            for col_a, col_b in zip(i_star_a[q].matrix, i_star_b[q].matrix)))
        j_comb = _trusted(GroupHom, source=pres_sum, target=pres_m,
                          matrix=j_star_a[q].matrix + j_star_b[q].matrix)
        k_next = k_star[q + 1] if q + 1 <= n else None

        report.assertions.append(exactness_assertion(
            f"exactness at H_{q}(intersection)", k_next, i_comb, pres_i))
        report.assertions.append(exactness_assertion(
            f"exactness at H_{q}(A)+H_{q}(B)", i_comb, j_comb, pres_sum))
        report.assertions.append(exactness_assertion(
            f"exactness at H_{q}(whole)", j_comb, k_star[q], pres_m))
    return report


def _resolve_piece(wcc: WeightedCellComplex, piece):
    if isinstance(piece, str):
        return frozenset(wcc.sub_cells(piece)), piece
    ids = frozenset(piece)
    unknown = ids - wcc.sub_cells("all")
    if unknown:
        raise ValueError(f"unknown cells in piece: {sorted(unknown)}")
    return ids, f"{len(ids)} cells"


def check_kunneth(d: OrbifoldDesc, torus_factors: int = 1) -> VerdictReport:
    """Homology of the model crossed with a torus against the closed
    formula built from the base homology and binomial multiplicities."""
    if torus_factors < 1:
        raise ValueError("torus_factors must be at least 1")
    h_base = homology(t_model(d).chain_complex()).groups()
    prod = t_model(ProductTorus(d, torus_factors))
    h_prod = homology(prod.chain_complex()).groups()
    return VerdictReport(
        check="kunneth",
        subject=f"{describe(d)} x torus({torus_factors})",
        assertions=compare_graded(
            "product homology vs closed formula", h_prod,
            _torus_kunneth(h_base, torus_factors),
        ),
    )


def _torus_kunneth(groups, k: int) -> tuple[FgAbGroup, ...]:
    """Homology of X x T^k from that of X: degree q is the sum over i
    of H_i(X) (x) Z^C(k, q - i)."""
    return tuple(
        functools.reduce(FgAbGroup.direct_sum, (
            g.tensor(FgAbGroup.free(math.comb(k, q - i)))
            for i, g in enumerate(groups) if 0 <= q - i <= k
        ), FgAbGroup.trivial())
        for q in range(len(groups) + k)
    )


def check_rational(d: OrbifoldDesc) -> VerdictReport:
    """Free rank over the integers vs dimension over the rationals,
    and the latter vs the rational homology of the underlying space."""
    model = t_model(d)
    hz = homology(model.chain_complex()).groups()
    hq = homology(model.chain_complex(), coeff="Q").groups()
    uq = homology(degenerate_weights(model).chain_complex(), coeff="Q").groups()
    n = max(len(hz), len(hq), len(uq))
    hz, hq, uq = _pad(hz, n), _pad(hq, n), _pad(uq, n)
    report = VerdictReport(check="rational", subject=describe(d))
    for q in range(n):
        report.assertions.append(Assertion(
            f"integral free rank vs rational dimension, degree {q}",
            f"rank {hz[q].rank}", f"dim {hq[q].rank}",
            hz[q].rank == hq[q].rank,
        ))
        report.assertions.append(Assertion(
            f"rational dimension vs underlying space, degree {q}",
            f"dim {hq[q].rank}", f"dim {uq[q].rank}",
            hq[q].rank == uq[q].rank,
        ))
    return report


def classical_reference(d: OrbifoldDesc) -> tuple[FgAbGroup, ...]:
    """Textbook homology of the underlying space of a built-in model."""
    z = FgAbGroup.free(1)
    zero = FgAbGroup.trivial()
    if isinstance(d, Disc2):
        return (z, zero, zero)
    if isinstance(d, (Ball3, Ball3Cyclic)):
        return (z, zero, zero, zero)
    if isinstance(d, Surface):
        if d.boundary == 0:
            return (z, FgAbGroup.free(2 * d.genus), z)
        return (z, FgAbGroup.free(2 * d.genus + d.boundary - 1), zero)
    if isinstance(d, ProductTorus):
        return _torus_kunneth(classical_reference(d.base), d.torus_factors)
    raise ValueError(f"no classical reference for {describe(d)}")


def check_underlying(d: OrbifoldDesc) -> VerdictReport:
    """Homology of the weight-one degeneration against the classical
    homology of the underlying space."""
    got = homology(underlying_model(d).chain_complex()).groups()
    ref = classical_reference(d)
    return VerdictReport(
        check="underlying",
        subject=describe(d),
        assertions=compare_graded(
            "underlying-space homology vs reference", got, ref,
        ),
    )


def check_hurewicz(d: OrbifoldDesc) -> VerdictReport:
    """Abelianized fundamental group against first weighted homology."""
    ab = abelianization(pi1_presentation(d))
    h1 = homology(t_model(d).chain_complex()).group(1)
    return VerdictReport(
        check="hurewicz",
        subject=describe(d),
        assertions=[Assertion(
            "abelianized fundamental group vs H_1",
            str(ab), str(h1), ab == h1,
        )],
    )


def check_bhomotopy_pair(da: OrbifoldDesc, db: OrbifoldDesc) -> VerdictReport:
    """Degree-by-degree comparison of the weighted homology of two
    models; agreement everywhere is necessary for the models to be
    equivalent, and any mismatch certifies they are not."""
    ha = homology(t_model(da).chain_complex()).groups()
    hb = homology(t_model(db).chain_complex()).groups()
    report = VerdictReport(
        check="bhomotopy",
        subject=f"{describe(da)} vs {describe(db)}",
        assertions=compare_graded("weighted homology", ha, hb),
    )
    if report.passed:
        report.notes.append(
            "all compared groups agree; this invariant does not "
            "distinguish the pair"
        )
    else:
        bad = [a.statement for a in report.assertions if not a.passed]
        report.notes.append(f"models distinguished by: {', '.join(bad)}")
    return report


def check_duality(d: OrbifoldDesc) -> VerdictReport:
    """Scaled-dual cochain groups of the adapted model against the
    weighted homology of the fan-collar model, pairing absolute with
    relative-to-boundary in complementary degrees."""
    if isinstance(d, Custom):
        raise ValueError("duality checking needs a built-in model family")
    tm = t_model(d)
    am = adapted_model(d)
    n = tm.dim
    if am.dim != n:
        raise ValueError("the two models disagree on dimension")
    closed = "boundary" not in tm.subs

    tc = tm.chain_complex()
    h_abs = homology(tc)
    h_rel = h_abs if closed else homology(
        relative(tc, tm.sub_cells("boundary")))
    ws_abs = homology(ws_complex(am))
    ws_rel = ws_abs if closed else homology(ws_complex(am, rel="boundary"))

    report = VerdictReport(check="duality", subject=describe(d))
    for q in range(n + 1):
        report.assertions.append(Assertion(
            f"ws-H^{q} vs weighted H_{n - q}"
            + ("" if closed else " rel boundary"),
            str(ws_abs.group(n - q)), str(h_rel.group(n - q)),
            ws_abs.group(n - q) == h_rel.group(n - q),
        ))
    if not closed:
        for q in range(n + 1):
            report.assertions.append(Assertion(
                f"ws-H^{q} rel boundary vs weighted H_{n - q}",
                str(ws_rel.group(n - q)), str(h_abs.group(n - q)),
                ws_rel.group(n - q) == h_abs.group(n - q),
            ))
    return report
