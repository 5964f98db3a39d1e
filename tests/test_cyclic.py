import itertools
import random
import time
import tracemalloc

import pytest

from cycpres.cyclic import (
    CyclicPresentation,
    OrientabilityVerdict,
    gcd_decompose,
    gnkl,
    orientability,
)
from cycpres.relative import (
    RelativeWord,
    relative_orientable,
    to_relative,
    valid_retractions,
)
from cycpres.words import (
    Word,
    concat,
    free_reduce,
    invert,
    parse_word,
    shift,
)

from conftest import random_cyclically_reduced_word


def test_presentation_relators_are_shifts():
    p = CyclicPresentation(3, parse_word("x0 x1 x2", 3))
    assert p.relators == (
        parse_word("x0 x1 x2", 3),
        parse_word("x1 x2 x0", 3),
        parse_word("x2 x0 x1", 3),
    )


def test_presentation_cube_word():
    p = CyclicPresentation(4, parse_word("x0 x0 x0", 4))
    assert len(p.relators) == 4
    for i, r in enumerate(p.relators):
        assert r == Word(4, [(i, 1)] * 3)


def test_presentation_shifted_relator_count():
    p = CyclicPresentation(5, parse_word("x0 x1 X2", 5))
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
        CyclicPresentation(3, Word(3))
    with pytest.raises(ValueError):
        CyclicPresentation(3, parse_word("x0 x1 X1", 3))  # not reduced
    with pytest.raises(ValueError):
        CyclicPresentation(3, parse_word("x1 x0 X1", 3))  # not cyclically reduced
    with pytest.raises(ValueError):
        CyclicPresentation(4, parse_word("x0", 3))  # modulus mismatch


def test_gnkl_examples():
    assert gnkl(3, 1, 2) == CyclicPresentation(3, parse_word("x0 x1 x2", 3))
    assert gnkl(6, 0, 0) == CyclicPresentation(6, parse_word("x0 x0 x0", 6))
    assert gnkl(6, 2, 4) == CyclicPresentation(6, parse_word("x0 x2 x4", 6))
    assert gnkl(5, 6, -3) == gnkl(5, 1, 2)  # parameters reduced mod n


# -- orientability ------------------------------------------------------------

def test_nonorientable_examples_with_witness():
    v = orientability(CyclicPresentation(2, parse_word("x0 X1", 2)))
    assert not v.orientable
    u, m = v.witness
    assert (u, m) == (parse_word("x0", 2), 1)

    v = orientability(CyclicPresentation(4, parse_word("x0 X2", 4)))
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
        v = orientability(CyclicPresentation(n, w))
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
    v = orientability(CyclicPresentation(2, w))
    assert not v.orientable
    assert v.witness is None


def test_orientability_shift_invariant():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 6)
        w = random_cyclically_reduced_word(rng, n, max_len=6)
        base = orientability(CyclicPresentation(n, w)).orientable
        assert orientability(CyclicPresentation(n, shift(w, 1))).orientable == base


def test_orientability_brute_force_small_range():
    # direct enumeration of all cyclic permutations of all inverted shifts
    for n in range(1, 5):
        for length in range(1, 4):
            for combo in itertools.product(range(2 * n), repeat=length):
                w = Word(n, [(c // 2, 1 if c % 2 == 0 else -1) for c in combo])
                if not w.is_cyclically_reduced:
                    continue
                targets = {
                    u[r:] + u[:r]
                    for u in (invert(shift(w, v)).letters for v in range(n))
                    for r in range(length)
                }
                brute = w.letters not in targets
                assert orientability(CyclicPresentation(n, w)).orientable == brute


def reference_orientability(pres):
    """The n-loop orientability test: every inverted shift, one at a time."""
    w, n = pres.word, pres.n
    rotations = {w.letters[r:] + w.letters[:r] for r in range(len(w))}
    hit = any(invert(shift(w, v)).letters in rotations for v in range(n))
    if not hit:
        return OrientabilityVerdict(True)
    witness = None
    length = len(w)
    if n % 2 == 0 and length % 2 == 0:
        m = n // 2
        u = Word(n, w.letters[: length // 2])
        if free_reduce(concat(u, invert(shift(u, m)))) == w:
            witness = (u, m)
    return OrientabilityVerdict(False, witness)


def _half_word_shapes(rng, count):
    """Non-orientable words u * shift^m(u)^{-1} with n = 2m, and their rotations."""
    for _ in range(count):
        m = rng.randint(1, 20)
        u = Word(2 * m, [(rng.randrange(2 * m), rng.choice((1, -1))) for _ in range(4)])
        core = free_reduce(concat(u, invert(shift(u, m)))).letters
        while len(core) >= 2 and core[0] == (core[-1][0], -core[-1][1]):
            core = core[1:-1]  # cyclically reduced
        for r in range(len(core)):
            yield 2 * m, Word(2 * m, core[r:] + core[:r])


def test_orientability_matches_the_n_loop_and_the_free_product():
    rng = random.Random(41)
    cases = [
        (n, random_cyclically_reduced_word(rng, n, max_len=8))
        for n in (rng.randint(1, 40) for _ in range(3000))
    ] + list(_half_word_shapes(rng, 300))
    nonorientable = witnessed = 0
    for n, w in cases:
        got = orientability(CyclicPresentation(n, w))
        assert got == reference_orientability(CyclicPresentation(n, w)), (n, w)
        assert got.orientable == relative_orientable(to_relative(w, n), n), (n, w)
        nonorientable += not got.orientable
        witnessed += got.witness is not None
    assert nonorientable > 300 and witnessed > 100


def test_verdicts_at_huge_n_take_no_memory_in_n():
    n = 10**7
    tracemalloc.start()
    try:
        start = time.perf_counter()
        verdict = orientability(gnkl(n, 3, 7))
        fs = [r.f for r in valid_retractions(to_relative(gnkl(n, 3, 7).word, n), n)]
        halves = [r.f for r in valid_retractions(RelativeWord.from_text("x x a^4"), n)]
        nothing = valid_retractions(RelativeWord.from_text("x X a^5"), n)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.orientable and fs == [0]
    assert halves == [n // 2 - 2, n - 2]  # 2f + 4 = 0 (mod n)
    assert nothing == ()  # 0f + 5 = 0 has no solution
    assert elapsed < 0.5
    assert peak < 2**20


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
