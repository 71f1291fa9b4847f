"""Acceptance gate: one pass/fail line per criterion.

Each test prints (and logs to tests/reports/acceptance.txt) a line of
the form `ACCEPTANCE <n> <label>: PASS|FAIL`.  Timing bounds are part
of the criteria and asserted here.
"""

import random
import time

from orbihom.chains import homology, relative, subcomplex, validate
from orbihom.groups import abelianization, pi1_presentation
from orbihom.intlin import FgAbGroup
from orbihom.orbmodel import (
    Ball3,
    Ball3Cyclic,
    Disc2,
    ProductTorus,
    Surface,
    adapted_model,
    t_model,
    underlying_model,
    ws_complex,
)
from orbihom.verify import (
    check_duality,
    check_hurewicz,
    check_kunneth,
    check_mv,
    check_rational,
    check_underlying,
)

from conftest import REPORT_DIR
from oracles import cyclic, det, random_two_cover, rational_rank, run, snf, tensor

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.trivial()

CYCLIC_ORDERS = (2, 3, 5, 12)
SURFACE_SHAPES = ((0, 1), (1, 1), (1, 2), (2, 0))
CONE_LISTS = ((), (2, 3), (3, 3, 3))
BALL_TRIPLES = ((2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 2, 7),
                (2, 3, 3), (2, 3, 4), (2, 3, 5))

GRID_1_TO_3 = (
    [Disc2(n) for n in CYCLIC_ORDERS]
    + [Ball3Cyclic(n) for n in CYCLIC_ORDERS]
    + [Surface(g, b, cones)
       for g, b in SURFACE_SHAPES for cones in CONE_LISTS]
    + [Ball3(t) for t in BALL_TRIPLES]
)


def _criterion(log, number, label, fn):
    try:
        fn()
    except BaseException:
        line = f"ACCEPTANCE {number:2d} {label}: FAIL"
        log.append(line)
        print(line)
        raise
    line = f"ACCEPTANCE {number:2d} {label}: PASS"
    log.append(line)
    print(line)


def _timed(budget_seconds, fn):
    start = time.monotonic()
    out = fn()
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"{elapsed:.2f}s exceeds budget"
    return out


def t_groups(d):
    return homology(t_model(d).chain_complex()).groups()


def test_criterion_01_cyclic_tables(acceptance_log):
    def check():
        for n in CYCLIC_ORDERS:
            got = _timed(1.0, lambda n=n: t_groups(Disc2(n)))
            assert got == (Z, cyclic(n), ZERO)
            got = _timed(1.0, lambda n=n: t_groups(Ball3Cyclic(n)))
            assert got == (Z, cyclic(n), ZERO, ZERO)

    _criterion(acceptance_log, 1,
               "cyclic disc and ball homology tables", check)


def test_criterion_02_surface_tables(acceptance_log):
    def check():
        for g, b in SURFACE_SHAPES:
            for cones in CONE_LISTS:
                got = _timed(
                    1.0, lambda d=Surface(g, b, cones): t_groups(d))
                if b >= 1:
                    expect = FgAbGroup.free(2 * g + b - 1)
                    for m in cones:
                        expect = expect.direct_sum(cyclic(m))
                    assert got[1] == expect, (g, b, cones)
                    assert got[2] == ZERO
                else:
                    assert got[2] == Z, (g, b, cones)

    _criterion(acceptance_log, 2, "surface homology tables", check)


def test_criterion_03_ball_tables(acceptance_log):
    z2 = cyclic(2)
    z2z2 = FgAbGroup(0, (2, 2))
    table = {
        (2, 2, 4): (Z, z2z2, z2, ZERO),
        (2, 2, 5): (Z, z2, ZERO, ZERO),
        (2, 2, 6): (Z, z2z2, z2, ZERO),
        (2, 2, 7): (Z, z2, ZERO, ZERO),
        (2, 3, 3): (Z, cyclic(3), z2, ZERO),
        (2, 3, 4): (Z, z2, z2, ZERO),
        (2, 3, 5): (Z, ZERO, z2, ZERO),
    }

    def check():
        for triple, expect in table.items():
            got = _timed(1.0, lambda t=triple: t_groups(Ball3(t)))
            assert got == expect, triple

    _criterion(acceptance_log, 3, "three-cone ball homology tables", check)


def test_criterion_04_product_top_degree_vanishing(acceptance_log):
    def check():
        for n in (2, 3, 4):
            h1 = homology(t_model(ProductTorus(Disc2(n), 1)).chain_complex())
            assert h1.group(3) == ZERO
            h2 = homology(t_model(ProductTorus(Disc2(n), 2)).chain_complex())
            assert h2.group(4) == ZERO

    _criterion(acceptance_log, 4,
               "product vanishing in top degrees", check)


def test_criterion_05_torus_product_formula(acceptance_log):
    def check():
        for k in (1, 2):
            report = check_kunneth(Disc2(3), k)
            assert report.passed, report.render()

    _criterion(acceptance_log, 5, "torus product formula", check)


def test_criterion_06_cover_exact_sequences(acceptance_log):
    def check():
        # the three worked decompositions
        listed = [
            (t_model(Surface(0, 0, (2, 2))), "conedisks", "complement"),
            (t_model(Disc2(3)), "cone", "annulus"),
            (t_model(Surface(0, 0, (2, 3, 5))), "conedisks", "complement"),
        ]
        for wcc, a, b in listed:
            report = check_mv(wcc, a, b)
            assert report.passed, report.render()
            n = wcc.chain_complex().top_dim
            assert len(report.assertions) == 3 * (n + 1)
        # 25 randomized boundary-closed covers of built-in models
        rng = random.Random(20260819)
        models = [t_model(d) for d in (
            Disc2(3), Disc2(4), Ball3Cyclic(2), Ball3((2, 3, 4)),
            Surface(0, 0, (2, 2)), Surface(1, 1, (2,)), Surface(0, 1),
        )]
        count = 0
        while count < 25:
            wcc = models[count % len(models)]
            a, b = random_two_cover(wcc, rng)
            report = check_mv(wcc, a, b)
            assert report.passed, report.render()
            count += 1

    _criterion(acceptance_log, 6, "two-piece cover exact sequences", check)


def test_criterion_07_abelianization_vs_h1(acceptance_log):
    def check():
        for d in GRID_1_TO_3:
            report = check_hurewicz(d)
            assert report.passed, report.render()

    _criterion(acceptance_log, 7,
               "abelianization matches first homology", check)


def test_criterion_08_underlying_degeneration(acceptance_log):
    def check():
        for d in GRID_1_TO_3:
            report = check_underlying(d)
            assert report.passed, report.render()

    _criterion(acceptance_log, 8,
               "weight-one degeneration vs classical homology", check)


def test_criterion_09_rational_rank_agreement(acceptance_log):
    def check():
        for d in GRID_1_TO_3:
            report = check_rational(d)
            assert report.passed, report.render()

    _criterion(acceptance_log, 9, "rational rank agreement", check)


def test_criterion_10_duality_grids(acceptance_log):
    def check():
        for n in (2, 3, 5):
            report = check_duality(Disc2(n))
            assert len(report.assertions) == 6
            assert report.passed, report.render()
        for triple in BALL_TRIPLES:
            report = check_duality(Surface(0, 0, triple))
            assert report.passed, report.render()
        # the 3-ball pairing uses an interior-arc model extending the
        # surface construction; its verdicts are asserted and archived
        REPORT_DIR.mkdir(exist_ok=True)
        reports = [check_duality(Ball3(triple)) for triple in BALL_TRIPLES]
        (REPORT_DIR / "ball3_duality.txt").write_text(
            "\n\n".join(report.render() for report in reports) + "\n")
        for report in reports:
            assert report.passed, report.render()

    _criterion(acceptance_log, 10, "scaled-dual duality grids", check)


def test_criterion_11_operator_selftest(acceptance_log):
    def check():
        from orbihom.affops import selftest

        report = _timed(10.0, lambda: selftest(trials=200, seed=0))
        assert report.passed, report.render()

    _criterion(acceptance_log, 11, "operator identity self-test", check)


def test_criterion_12_property_suites(acceptance_log):
    def check():
        # boundary-of-boundary vanishes on every constructed complex
        for d in GRID_1_TO_3:
            adapted = adapted_model(d)
            for model in (t_model(d), adapted, underlying_model(d)):
                c = model.chain_complex()
                assert validate(c) == []
                for name in model.subs:
                    assert validate(subcomplex(c, model.sub_cells(name))) == []
                    assert validate(relative(c, model.sub_cells(name))) == []
            for rel in (None, *adapted.subs):
                assert validate(ws_complex(adapted, rel)) == []
        prod = tensor(t_model(Disc2(2)).chain_complex(),
                      t_model(Surface(0, 1)).chain_complex())
        assert validate(prod) == []

        # diagonal form on 1000 random matrices
        rng = random.Random(1000)
        for _ in range(1000):
            rows = rng.randint(0, 5)
            cols = rng.randint(0, 5)
            from orbihom.intlin import IntMatrix

            a = IntMatrix(
                [[rng.randint(-9, 9) for _ in range(cols)]
                 for _ in range(rows)], cols=cols)
            s, u, v = snf(a)
            assert u @ a @ v == s
            assert det(u) in (1, -1)
            assert det(v) in (1, -1)
            diag = [s[i, i] for i in range(min(rows, cols))]
            nonzero = [x for x in diag if x]
            for x, y in zip(nonzero, nonzero[1:]):
                assert y % x == 0
            assert len(nonzero) == rational_rank(a)

        # negative control: a distinguishable pair must fail loudly
        code, text = run(["verify", "bhomotopy",
                          "--a", "disc2(2)", "--b", "disc2(3)"])
        assert code == 1
        assert text.strip().endswith("RESULT FAIL")

    _criterion(acceptance_log, 12,
               "property suites and negative controls", check)


def test_acceptance_support_values():
    """Direct spot checks backing the criteria above."""
    # degree-1 abelianization route agrees on a worked example
    assert abelianization(pi1_presentation(Ball3((2, 3, 3)))) == \
        cyclic(3)
    # weighted relative fundamental class of the disc model
    wcc = t_model(Disc2(3))
    from orbihom.chains import relative

    rel = relative(wcc.chain_complex(), wcc.sub_cells("boundary"))
    assert homology(rel).groups() == (ZERO, ZERO, Z)
