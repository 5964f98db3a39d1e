import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from cycpres.cyclic import CyclicPresentation, gnkl, orientability
from cycpres.relative import (
    RelativeWord,
    _cyclic_reduce_syllables,
    change_variable,
    lift,
    relative_orientable,
    rho,
    root,
    to_relative,
    valid_retractions,
)
from cycpres.words import Word, parse_word, shift

from conftest import (
    fp_reduce,
    random_cyclically_reduced_relative_word,
    random_cyclically_reduced_word,
    relative_word_tokens,
    substitute_kernel_generators,
)

R = RelativeWord.from_text


# -- construction and text grammar ------------------------------------------

def test_from_text_basic():
    W = R("x a^2 x a^-1 X a^3")
    assert W.syllables == ((1, 2), (1, -1), (-1, 3))
    assert R("x a X A") .syllables == ((1, 1), (-1, -1))


def test_from_text_rotates_leading_coefficient():
    # a^5 x a^2  ->  x a^7 (conjugate, same presented group)
    assert R("a^5 x a^2").syllables == ((1, 7),)


def test_from_text_power_grammar_is_minus_then_decimal_digits():
    # after "a^": an optional "-" and str.isdecimal digits, as parse_word
    # reads indices; any Unicode decimal digit counts
    assert R("x a^\u0663").syllables == R("x a^3").syllables == ((1, 3),)
    assert R("x a^-07").syllables == ((1, -7),)
    for tok in ("a^", "a^-", "a^+2", "a^1_0", "a^1.5", "a^--1", "a^\u00b2", "a^2x"):
        with pytest.raises(ValueError, match="bad relative-word token"):
            R("x " + tok)


def test_exponents_must_be_ints():
    for syllable in ((1.9, 2.7), ("1", "-3"), (1, 2.0), (1.0, 2)):
        with pytest.raises(TypeError):
            RelativeWord([syllable])
    W = RelativeWord([(True, True), (-1, False)])
    assert W.syllables == ((1, 1), (-1, 0)) and (W.epsilon_sum, W.p_sum) == (0, 1)
    assert all(type(e) is int and type(p) is int for e, p in W.syllables)


def test_from_text_rejects_words_without_x():
    with pytest.raises(ValueError):
        R("a^3")
    with pytest.raises(ValueError):
        RelativeWord(())


def test_from_text_digest_of_every_short_token_string():
    # every string of at most 5 tokens over this alphabet, in product
    # order: its syllables, or the error message it raises
    alphabet = ["x", "X", "a", "A", "a^2", "a^-3", "a^0", "b"]
    records = []
    for L in range(6):
        for toks in itertools.product(alphabet, repeat=L):
            try:
                records.append(repr(R(" ".join(toks)).syllables))
            except ValueError as exc:
                records.append("error: " + str(exc))
    assert len(records) == 37449
    assert sum(r.startswith("error: ") for r in records) == 21747
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == (
        "7897113dd668bc62f606ba8f7b45b709d25ae6150306a0e5f65e70a89aab5270"
    )


def test_text_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        W = random_cyclically_reduced_relative_word(rng, rng.randint(2, 9))
        assert R(str(W)) == W


@st.composite
def relative_words(draw, max_n=9, max_len=8):
    """(W, n, w): a relative word and a word on x_0..x_{n-1}."""
    n = draw(st.integers(1, max_n))
    sign = st.sampled_from((1, -1))
    syllables = draw(st.lists(
        st.tuples(sign, st.integers(-2 * n, 2 * n)), min_size=1, max_size=max_len
    ))
    letters = draw(st.lists(
        st.tuples(st.integers(0, n - 1), sign), min_size=1, max_size=max_len
    ))
    return RelativeWord(syllables), n, Word(n, letters)


@given(relative_words(), st.integers(-20, 20))
def test_stored_exponent_sums_match_the_syllables(drawn, t):
    W, n, w = drawn
    built = [W, R(str(W)), R(f"a^{t} {W}"), W.reduced(n), root(W, n)[0]]
    if w.is_cyclically_reduced:
        built.append(to_relative(w, n))
    for reduce in (lambda: change_variable(W, n, t),
                   lambda: _cyclic_reduce_syllables(W.syllables, n)):
        try:
            built.append(reduce())
        except ValueError:  # only a coefficient is left
            pass
    for V in built:
        assert V.epsilon_sum == sum(e for e, _ in V.syllables)
        assert V.p_sum == sum(p for _, p in V.syllables)


# -- retractions ---------------------------------------------------------------

def test_valid_retractions_three_positive_x():
    # x a^k x a^{l-k} x a^{-l}: exponent sums are 3 and 0
    W = RelativeWord(((1, 2), (1, 3), (1, -5)))
    for n in (5, 6, 9):
        fs = {r.f for r in valid_retractions(W, n)}
        assert fs == {f for f in range(n) if (3 * f) % n == 0}


def test_valid_retractions_n18_word():
    got = valid_retractions(R("x x a^9 x a^6"), 18)
    assert [r.f for r in got] == [1, 7, 13]
    assert all((r.epsilon_sum, r.p_sum) == (3, 15) for r in got)


def test_valid_retractions_x_cubed():
    assert {r.f for r in valid_retractions(R("x x x"), 3)} == {0, 1, 2}


def test_valid_retractions_match_the_scan_over_every_f():
    # eps = 0 gives all n exponents or none.  Each word is x^{+-1} a^p and
    # then |eps| - 1 more x^{+-1} (one X when eps = 0), so its exponent sums
    # are (eps, p)
    for eps in range(-6, 7):
        sign = 1 if eps >= 0 else -1
        head = [(sign, 0)] * (abs(eps) - 1) if eps else [(-1, 0)]
        words = {p: RelativeWord([(sign, p)] + head) for p in range(-200, 201)}
        for n in range(1, 81):
            scan = {}  # the f in [0, n) that the scan finds, by p mod n
            for f in range(n):
                scan.setdefault(-eps * f % n, []).append(f)
            for p, W in words.items():
                got = valid_retractions(W, n)
                assert [r.f for r in got] == scan.get(p % n, []), (eps, p, n)
                assert all((r.epsilon_sum, r.p_sum) == (eps, p) for r in got)
    for n in (0, -6):
        with pytest.raises(ValueError, match="positive"):
            valid_retractions(R("x a^6"), n)


def test_valid_retractions_at_huge_n_are_solved_not_searched():
    n = 10**7
    W = to_relative(gnkl(n, 0, 1).word, n)
    start = time.perf_counter()
    assert [r.f for r in valid_retractions(W, n)] == [0]
    assert time.perf_counter() - start < 1.0  # a scan over every f takes seconds


# -- the rewriting process -------------------------------------------------------

def test_rho_symbolic_three_syllables():
    # rho^f(x a^p x a^q x a^r) = x_0 x_{f+p} x_{2f+p+q}
    for n, f, p, q in [(7, 2, 1, 3), (12, 4, -2, 5), (5, 0, 1, 1)]:
        r = -(3 * f + p + q)  # choose r so that f is a retraction exponent
        W = RelativeWord(((1, p), (1, q), (1, r)))
        expect = Word(n, [(0, 1), (f + p, 1), (2 * f + p + q, 1)])
        assert rho(W, n, f) == expect


def test_rho_symbolic_mixed_sign():
    # rho^f(x^2 a^p x^{-1} a^q) = x_0 x_f x^{-1}_{f+p}
    for n, f, p in [(9, 3, 2), (10, 5, -1)]:
        q = -(f + p)
        W = RelativeWord(((1, 0), (1, p), (-1, q)))
        expect = Word(n, [(0, 1), (f, 1), (f + p, -1)])
        assert rho(W, n, f) == expect


def test_rho_symbolic_positive_square():
    # rho^f(x^2 a^p x a^q) = x_0 x_f x_{2f+p}
    n, f, p = 8, 4, 3
    q = -(3 * f + p)
    W = RelativeWord(((1, 0), (1, p), (1, q)))
    assert rho(W, n, f) == Word(n, [(0, 1), (f, 1), (2 * f + p, 1)])


def test_rho_x_cubed():
    W = R("x x x")
    assert rho(W, 3, 0) == parse_word("x0 x0 x0", 3)
    assert rho(W, 3, 1) == parse_word("x0 x1 x2", 3)
    assert rho(W, 6, 2) == parse_word("x0 x2 x4", 6)
    assert rho(W, 3, 2) == parse_word("x0 x2 x1", 3)


def test_rho_presentation_depends_on_n():
    from cycpres.cyclic import gnkl

    W = R("x x x")
    assert CyclicPresentation(6, rho(W, 6, 2)) == gnkl(6, 2, 4)
    assert CyclicPresentation(3, rho(W, 3, 2)) == gnkl(3, 2, 1)


def test_rho_rejects_invalid_f():
    with pytest.raises(ValueError, match="not a retraction exponent"):
        rho(R("x x"), 3, 1)


# -- to_relative -------------------------------------------------------------------

def test_to_relative_gnkl_word():
    w = Word(7, [(0, 1), (2, 1), (5, 1)])  # x_0 x_k x_l with k=2, l=5
    assert to_relative(w, 7).syllables == ((1, 2), (1, 3), (1, -5))


def test_to_relative_mixed_signs():
    w = parse_word("x0 x1 X2", 5)
    assert to_relative(w, 5).syllables == ((1, 1), (1, 1), (-1, -2))


def test_to_relative_constant_word():
    w = parse_word("x0 x0 x0", 4)
    assert to_relative(w, 4).syllables == ((1, 0), (1, 0), (1, 0))


def test_to_relative_rho_inverse_small_exhaustive():
    for n in (2, 3):
        for length in range(1, 5):
            for combo in itertools.product(range(2 * n), repeat=length):
                w = Word(n, [(c // 2, 1 if c % 2 == 0 else -1) for c in combo])
                if not w.is_cyclically_reduced:
                    continue
                W = to_relative(w, n)
                assert shift(rho(W, n, 0), w.letters[0][0]) == w


def test_to_relative_rho_inverse_sampled():
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randint(2, 12)
        w = random_cyclically_reduced_word(rng, n, max_len=8)
        W = to_relative(w, n)
        assert shift(rho(W, n, 0), w.letters[0][0]) == w


# -- roots ---------------------------------------------------------------------------

def test_root_x_cubed():
    assert root(R("x x x"), 5) == (R("x"), 3)


def test_root_mixed_signs_trivial():
    assert root(R("x a x a X a^-2"), 5) == (R("x a x a X a^-2"), 1)


def test_root_with_sigma():
    rt, exponent = root(R("x a^2 x a^2"), 4)
    assert rt == R("x a^2")
    assert exponent == 2
    assert (rt.epsilon_sum * 1 + rt.p_sum) % 4 == 3  # sigma at f = 1


def test_root_consistency_random():
    rng = random.Random(53)
    for _ in range(300):
        n = rng.randint(2, 12)
        W = random_cyclically_reduced_relative_word(rng, n)
        fs = [r.f for r in valid_retractions(W, n)]
        f = rng.choice(fs) if fs else None
        rt, exponent = root(W, n)
        L = len(W.syllables)
        assert L % exponent == 0
        rebuilt = rt.syllables * exponent
        assert [(e, p % n) for e, p in rebuilt] == [
            (e, p % n) for e, p in W.syllables
        ]
        if f is not None:
            # sigma * exponent is the image of all of W, which f kills
            sigma = (rt.epsilon_sum * f + rt.p_sum) % n
            assert (sigma * exponent) % n == 0


# -- relative orientability -----------------------------------------------------------

def test_relative_orientable_examples():
    assert not relative_orientable(R("x a X A"), 2)  # commutator
    assert relative_orientable(R("x a^2 x a^3 x a^-5"), 7)
    assert relative_orientable(R("x x x"), 3)


def test_relative_orientable_coefficient_words():
    # a word that cancels down to a^p is conjugate to a^-p iff 2p = 0 mod n
    assert not relative_orientable(R("x X"), 5)
    assert not relative_orientable(R("x a^2 X"), 4)
    assert relative_orientable(R("x a^2 X"), 5)


def test_relative_orientable_digest_of_every_short_word():
    # every word with n <= 5 and at most 4 syllables, exponents in [0, n);
    # the digest pins the verdicts of the normal-form reducer it replaced
    bits = []
    for n in range(1, 6):
        for L in range(1, 5):
            for signs in itertools.product((1, -1), repeat=L):
                for exps in itertools.product(range(n), repeat=L):
                    W = RelativeWord(zip(signs, exps))
                    bits.append("1" if relative_orientable(W, n) else "0")
    text = "".join(bits)
    assert (len(text), text.count("0")) == (17714, 376)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "56e1c0eba8b6afcd7e4e88835f0fb469cf126c4511bb5092c2b66ca3f8263c2a"
    )


def pairwise_cyclic_reduce(syl, n):
    """Reference: cancel the first cancelling pair, rescanning after each."""
    syl = list(syl)
    while True:
        L = len(syl)
        found = None
        if L >= 2:
            for i in range(L):
                if syl[(i + 1) % L][0] == -syl[i][0] and syl[i][1] % n == 0:
                    found = i
                    break
        if found is None:
            return RelativeWord(syl)
        i = found
        j = (i + 1) % L
        prev = (i - 1) % L
        if prev == j:
            raise ValueError("word reduces to a coefficient; no x letter left")
        e_prev, p_prev = syl[prev]
        syl[prev] = (e_prev, p_prev + syl[i][1] + syl[j][1])
        syl = [syl[k] for k in range(L) if k != i and k != j]


def test_cyclic_reduction_matches_the_pairwise_reference():
    # the same syllables, integer exponents and all, or the same error;
    # exponents are mostly multiples of n so that long chains cancel
    rng = random.Random(71)
    coefficients = 0
    for _ in range(20000):
        n = rng.randint(1, 6)
        syl = [
            (rng.choice((1, -1)), rng.choice((0, 0, 0, n, -n, rng.randint(-9, 9))))
            for _ in range(rng.randint(1, 30))
        ]
        try:
            want = pairwise_cyclic_reduce(syl, n)
        except ValueError:
            with pytest.raises(ValueError, match="coefficient"):
                _cyclic_reduce_syllables(syl, n)
            coefficients += 1
            continue
        assert _cyclic_reduce_syllables(syl, n) == want, (n, syl)
    assert coefficients > 100


def test_cyclic_reduction_takes_linear_time():
    # x^k X^k cancels pair by pair from the middle; rescanning after each
    # cancellation would take about k^2 / 2 = 2 * 10^8 steps here
    k = 20000
    W = RelativeWord([(1, 0)] * k + [(-1, 0)] * (k - 1) + [(-1, 3)])
    start = time.perf_counter()
    assert relative_orientable(W, 5)  # W = a^3, not conjugate to a^-3 mod 5
    assert time.perf_counter() - start < 1.0


def test_relative_orientable_gnkl_shape_always():
    for n in range(2, 10):
        for k in range(n):
            for l in range(n):
                W = RelativeWord(((1, k), (1, l - k), (1, -l)))
                assert relative_orientable(W, n)


# -- change of variable ----------------------------------------------------------------

def test_change_variable_identity():
    W = R("x a^2 x a^-1 X a^3")
    assert change_variable(W, 7, 0) == W


def test_change_variable_collapses_b_shape():
    # with n | k+l and u = x a^k, the relator becomes a rotation of u^3 a^{-3k}
    n, k, l = 10, 3, 7
    W = RelativeWord(((1, k), (1, l - k), (1, -l)))
    got = change_variable(W, n, k).reduced(n)
    target = RelativeWord(((1, 0), (1, 0), (1, (-3 * k) % n)))
    rotations = [
        RelativeWord(target.syllables[r:] + target.syllables[:r]) for r in range(3)
    ]
    assert got in rotations


def test_change_variable_n18_word():
    # u = x a turns x a x a^10 x a^-11 into u^2 a^9 u a^6 modulo 18
    W = R("x a x a^10 x a^-11")
    got = change_variable(W, 18, 1).reduced(18)
    assert got == R("x x a^9 x a^6").reduced(18)


def test_change_variable_preserves_x_count():
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(2, 12)
        W = random_cyclically_reduced_relative_word(rng, n)
        t = rng.randint(-n, n)
        V = change_variable(W, n, t)
        assert len(V.syllables) == len(W.syllables)
        assert [e for e, _ in V.syllables] == [e for e, _ in W.syllables]
        assert change_variable(V, n, -t).reduced(n) == W.reduced(n)


# -- lifting ---------------------------------------------------------------------------

def test_lift_x_cubed():
    p = lift(R("x x x"), 3)
    assert p.generators == ("a", "x")
    assert p.relators == ((1, 1, 1), (2, 2, 2))


def test_lift_normalizes_exponents():
    p = lift(R("x a^-1"), 5)
    assert p.relators[1] == (2, 1, 1, 1, 1)  # x a^4


def test_lift_n18_word():
    p = lift(R("x x a^9 x a^6"), 18)
    assert p.relators[0] == (1,) * 18
    assert p.relators[1] == (2, 2) + (1,) * 9 + (2,) + (1,) * 6


# -- the substitution round trip ---------------------------------------------------------

def test_substitution_round_trip_and_transfer_properties():
    # substituting x_i -> a^i x a^{-(i+f)} into rho(W, n, f) recovers W in
    # the free product; rho output stays cyclically reduced; orientability
    # transfers to the cyclic presentation
    rng = random.Random(97)
    triples = 0
    while triples < 500:
        n = rng.randint(2, 12)
        W = random_cyclically_reduced_relative_word(rng, n)
        fs = [r.f for r in valid_retractions(W, n)]
        for f in fs:
            w = rho(W, n, f)
            assert w.is_cyclically_reduced
            got = fp_reduce(substitute_kernel_generators(w, n, f), n)
            expect = fp_reduce(relative_word_tokens(W), n)
            assert got == expect
            if relative_orientable(W, n):
                assert orientability(CyclicPresentation(n, w)).orientable
            triples += 1
