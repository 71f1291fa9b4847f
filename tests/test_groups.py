"""Group presentations, word reduction, and abelianization."""

import random

import pytest

from orbihom.chains import homology
from orbihom.groups import (
    Presentation,
    abelianization,
    commutator,
    concat,
    free_reduce,
    pi1_presentation,
    power,
)
from orbihom.intlin import FgAbGroup, IntMatrix
from orbihom.orbmodel import (
    Ball3,
    Ball3Cyclic,
    Custom,
    Disc2,
    ProductTorus,
    Surface,
    t_model,
)

from oracles import cyclic, inverse

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.trivial()


# ------------------------------------------------------------------ words


def test_free_reduce():
    assert free_reduce([("x", 1), ("x", -1)]) == ()
    assert free_reduce([("x", 1), ("y", 1), ("y", -1), ("x", -1)]) == ()
    assert free_reduce([("x", 1), ("x", 1)]) == (("x", 1), ("x", 1))
    assert free_reduce([("x", -1), ("y", 1), ("y", -1),
                        ("x", 1), ("z", 1)]) == (("z", 1),)
    with pytest.raises(ValueError):
        free_reduce([("x", 2)])


def test_word_helpers():
    assert power("x", 3) == (("x", 1),) * 3
    assert power("x", -2) == (("x", -1),) * 2
    assert power("x", 0) == ()
    assert inverse((("x", 1), ("y", -1))) == (("y", 1), ("x", -1))
    w = (("x", 1), ("y", 1))
    assert concat(w, inverse(w)) == ()
    assert commutator("a", "b") == (("a", 1), ("b", 1), ("a", -1), ("b", -1))


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("x", "x"), ())
    with pytest.raises(ValueError):
        Presentation(("x",), ((("y", 1),),))
    p = Presentation(("x",), ([("x", 1), ("x", -1), ("x", 1)],))
    assert p.relators == ((("x", 1),),)


# ----------------------------------------------------------- presentations


def test_pi1_cyclic_families():
    p = pi1_presentation(Disc2(4))
    assert p.generators == ("x",)
    assert p.relators == (power("x", 4),)
    assert pi1_presentation(Ball3Cyclic(6)).relators == (power("x", 6),)


def test_pi1_ball3():
    p = pi1_presentation(Ball3((2, 3, 5)))
    assert p.generators == ("x", "y", "z")
    assert p.relators == (
        power("x", 2), power("y", 3), power("z", 5),
        (("x", 1), ("y", 1), ("z", 1)),
    )


def test_pi1_surface():
    p = pi1_presentation(Surface(1, 2, (3,)))
    assert p.generators == ("a1", "b1", "x1", "s1", "s2")
    assert p.relators[0] == power("x1", 3)
    long = p.relators[1]
    assert long == concat(
        (("x1", 1),), (("s1", 1),), (("s2", 1),), commutator("a1", "b1"))


def test_pi1_product_torus_adds_central_generators():
    p = pi1_presentation(ProductTorus(Disc2(2), 2))
    assert p.generators == ("x", "t1", "t2")
    assert commutator("t1", "x") in p.relators
    assert commutator("t2", "x") in p.relators
    assert commutator("t2", "t1") in p.relators


def test_pi1_custom_rejected(tmp_path):
    path = tmp_path / "m.owc"
    path.write_text("orbifold m\ndim 0\ncell v dim=0 weight=1\n")
    with pytest.raises(ValueError):
        pi1_presentation(Custom(str(path)))


# ---------------------------------------------------------- abelianization


def test_exponent_matrix():
    p = pi1_presentation(Ball3((2, 3, 3)))
    assert p.exponent_matrix() == IntMatrix(
        [[2, 0, 0, 1], [0, 3, 0, 1], [0, 0, 3, 1]])


def test_abelianization_frozen():
    assert abelianization(pi1_presentation(Disc2(9))) == cyclic(9)
    assert abelianization(pi1_presentation(Ball3((2, 3, 3)))) == \
        cyclic(3)
    assert abelianization(pi1_presentation(Ball3((2, 3, 5)))) == ZERO
    assert abelianization(pi1_presentation(Ball3((2, 2, 6)))) == \
        FgAbGroup(0, (2, 2))
    assert abelianization(pi1_presentation(Surface(1, 2, (3,)))) == \
        FgAbGroup(3, (3,))
    assert abelianization(pi1_presentation(Surface(2, 0))) == \
        FgAbGroup.free(4)
    assert abelianization(pi1_presentation(
        ProductTorus(Disc2(4), 2))) == FgAbGroup(2, (4,))


def test_abelianization_invariant_under_rewrites():
    rng = random.Random(314)
    descriptors = [Disc2(3), Ball3((2, 2, 4)), Surface(1, 1, (2,)),
                   ProductTorus(Ball3Cyclic(5), 1)]
    for d in descriptors:
        p = pi1_presentation(d)
        expected = abelianization(p)
        gens = p.generators
        for _ in range(8):
            new_relators = []
            for rel in p.relators:
                word = rel
                if rng.random() < 0.5:
                    word = inverse(word)
                # conjugate by a random word
                conj = tuple(
                    (rng.choice(gens), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 3))
                )
                word = concat(conj, word, inverse(conj))
                new_relators.append(word)
            rng.shuffle(new_relators)
            q = Presentation(gens, tuple(new_relators))
            assert abelianization(q) == expected


def test_abelianization_matches_degree_one_homology():
    descriptors = [
        Disc2(2), Disc2(12),
        Ball3Cyclic(3), Ball3Cyclic(5),
        Ball3((2, 2, 4)), Ball3((2, 2, 7)), Ball3((2, 3, 4)),
        Surface(0, 1), Surface(1, 1, (2, 3)), Surface(1, 2, (3, 3, 3)),
        Surface(2, 0), Surface(0, 0, (2, 2, 2)),
        ProductTorus(Disc2(3), 1), ProductTorus(Surface(0, 1), 2),
    ]
    for d in descriptors:
        ab = abelianization(pi1_presentation(d))
        h1 = homology(t_model(d).chain_complex()).group(1)
        assert ab == h1, d
