import itertools
import random
import tracemalloc

import pytest

from cycpres.cyclic import (
    CyclicPresentation,
    gcd_decompose,
    gnkl,
    orientability,
    presentation,
)
from cycpres.words import (
    Word,
    concat,
    free_reduce,
    invert,
    parse_word,
    rotate,
    shift,
)

from conftest import random_cyclically_reduced_word


def test_presentation_relators_are_shifts():
    p = presentation(3, parse_word("x0 x1 x2", 3))
    assert p.relators == (
        parse_word("x0 x1 x2", 3),
        parse_word("x1 x2 x0", 3),
        parse_word("x2 x0 x1", 3),
    )


def test_presentation_cube_word():
    p = presentation(4, parse_word("x0 x0 x0", 4))
    assert len(p.relators) == 4
    for i, r in enumerate(p.relators):
        assert r == Word(4, [(i, 1)] * 3)


def test_presentation_shifted_relator_count():
    p = presentation(5, parse_word("x0 x1 X2", 5))
    assert len(p.relators) == 5
    assert p.relators[3] == shift(p.word, 3)


def test_relators_are_derived_when_asked_for():
    # n shifted relators are not stored: 391 MB at n = 10^6 when they were
    tracemalloc.start()
    try:
        p = gnkl(10**7, 3, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "relators" not in CyclicPresentation.__slots__
    assert gnkl(5, 1, 2).relators[4] == shift(gnkl(5, 1, 2).word, 4)
    assert p.word == Word(10**7, [(0, 1), (3, 1), (7, 1)])


def test_presentation_rejects_bad_words():
    with pytest.raises(ValueError):
        presentation(3, Word(3))
    with pytest.raises(ValueError):
        presentation(3, parse_word("x0 x1 X1", 3))  # not reduced
    with pytest.raises(ValueError):
        presentation(3, parse_word("x1 x0 X1", 3))  # not cyclically reduced
    with pytest.raises(ValueError):
        presentation(4, parse_word("x0", 3))  # modulus mismatch


def test_gnkl_examples():
    assert gnkl(3, 1, 2) == presentation(3, parse_word("x0 x1 x2", 3))
    assert gnkl(6, 0, 0) == presentation(6, parse_word("x0 x0 x0", 6))
    assert gnkl(6, 2, 4) == presentation(6, parse_word("x0 x2 x4", 6))
    assert gnkl(5, 6, -3) == gnkl(5, 1, 2)  # parameters reduced mod n


# -- orientability ------------------------------------------------------------

def test_nonorientable_examples_with_witness():
    v = orientability(presentation(2, parse_word("x0 X1", 2)))
    assert not v.orientable
    u, m = v.witness
    assert (u, m) == (parse_word("x0", 2), 1)

    v = orientability(presentation(4, parse_word("x0 X2", 4)))
    assert not v.orientable
    u, m = v.witness
    assert (u, m) == (parse_word("x0", 4), 2)


def test_gnkl_always_orientable():
    for n in range(1, 13):
        for k in range(n):
            for l in range(n):
                assert orientability(gnkl(n, k, l)).orientable


def test_witness_round_trip_whenever_present():
    rng = random.Random(17)
    seen_witness = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        w = random_cyclically_reduced_word(rng, n, max_len=6)
        v = orientability(presentation(n, w))
        if v.witness is not None:
            assert not v.orientable
            u, m = v.witness
            assert u.is_reduced
            assert n == 2 * m
            assert free_reduce(concat(u, invert(shift(u, m)))) == w
            seen_witness += 1
    assert seen_witness > 0


def test_nonorientable_rotation_has_no_exact_witness():
    # a rotation of u * shift^1(u)^{-1} is still non-orientable, but no
    # word u' satisfies u' * shift^1(u')^{-1} = w on the nose
    w = parse_word("x1 X0 X1 x0", 2)
    v = orientability(presentation(2, w))
    assert not v.orientable
    assert v.witness is None


def test_orientability_shift_invariant():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 6)
        w = random_cyclically_reduced_word(rng, n, max_len=6)
        base = orientability(presentation(n, w)).orientable
        assert orientability(presentation(n, shift(w, 1))).orientable == base


def test_orientability_brute_force_small_range():
    # direct enumeration of all cyclic permutations of all inverted shifts
    for n in range(1, 5):
        for length in range(1, 4):
            for combo in itertools.product(range(2 * n), repeat=length):
                w = Word(n, [(c // 2, 1 if c % 2 == 0 else -1) for c in combo])
                if not w.is_cyclically_reduced:
                    continue
                targets = {
                    rotate(invert(shift(w, v)), r).letters
                    for v in range(n)
                    for r in range(length)
                }
                brute = w.letters not in targets
                assert orientability(presentation(n, w)).orientable == brute


# -- gcd decomposition ---------------------------------------------------------

def test_gcd_decompose_examples():
    assert gcd_decompose(6, 2, 4) == (2, (3, 1, 2))
    assert gcd_decompose(5, 1, 2) == (1, (5, 1, 2))
    assert gcd_decompose(7, 0, 0) == (7, (1, 0, 0))


def test_relator_partition_matches_reduced_presentation():
    # relators with index j mod d only touch generators with index j mod d,
    # and relabeling x_{j+td} -> y_t carries them onto the reduced relators
    for n in range(2, 13):
        for k in range(n):
            for l in range(n):
                d, (n2, k2, l2) = gcd_decompose(n, k, l)
                if d == 1:
                    continue
                big = gnkl(n, k, l)
                small = gnkl(n2, k2, l2)
                for j in range(d):
                    for t, i in enumerate(range(j, n, d)):
                        rel = big.relators[i]
                        assert all(idx % d == j for idx, _ in rel.letters)
                        relabeled = Word(
                            n2, [((idx - j) // d, s) for idx, s in rel.letters]
                        )
                        assert relabeled == small.relators[t]
