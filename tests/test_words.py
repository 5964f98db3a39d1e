import random

import pytest
from hypothesis import given, strategies as st

from cycpres.words import (
    Word,
    concat,
    free_reduce,
    invert,
    parse_word,
    shift,
)

from conftest import min_conjugate_length, random_word, reduce_in_random_order


@st.composite
def words(draw, max_n=8, max_len=10):
    n = draw(st.integers(1, max_n))
    length = draw(st.integers(0, max_len))
    letters = [
        (draw(st.integers(0, n - 1)), draw(st.sampled_from((1, -1))))
        for _ in range(length)
    ]
    return Word(n, letters)


# -- construction and text form -------------------------------------------

def test_indices_normalized_mod_n():
    assert Word(3, [(4, 1), (-1, -1)]) == parse_word("x1 X2", 3)


def test_rejects_bad_sign_and_modulus():
    with pytest.raises(ValueError):
        Word(3, [(0, 2)])
    with pytest.raises(ValueError):
        Word(0, [])


def test_indices_and_signs_must_be_ints():
    # read through operator.index: bools and other int-like values become
    # plain ints, while floats and strings are refused rather than stored
    class Two:
        def __index__(self):
            return 2

    for letter in ((1.5, 1), ("1", 1), (0, 1.0), (0, "1")):
        with pytest.raises(TypeError):
            Word(3, [letter])
    with pytest.raises(TypeError):
        Word(3.0, [])
    w = Word(3, [(True, True), (Two(), -1)])
    assert w.letters == ((1, 1), (2, -1)) and str(w) == "x1 X2"
    assert all(type(i) is int and type(s) is int for i, s in w.letters)
    assert Word(Two(), [(5, 1)]) == Word(2, [(1, 1)])


def test_parse_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        parse_word("x5", 5)
    with pytest.raises(ValueError):
        parse_word("y0", 3)


def test_parse_grammar_is_x_then_decimal_digits():
    # any Unicode decimal digit counts: Arabic-Indic three is x3
    assert parse_word("x\u0663 X\u0663", 5) == parse_word("x3 X3", 5)
    # superscript one is a digit but not a decimal one
    for tok in ("x\u00b9", "x", "X-1", "x+1", "x1x"):
        with pytest.raises(ValueError, match="bad word token"):
            parse_word(tok, 5)


def test_str_parse_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        w = random_word(rng, rng.randint(1, 9))
        assert parse_word(str(w), w.n) == w


# -- free reduction ---------------------------------------------------------

def test_free_reduce_examples():
    assert free_reduce(parse_word("x0 x1 X1", 3)) == parse_word("x0", 3)
    assert free_reduce(Word(4)) == Word(4)
    w = parse_word("x0 x1 x2", 3)
    assert free_reduce(w) == w


def test_free_reduce_idempotent_and_reduced():
    rng = random.Random(11)
    for _ in range(300):
        w = random_word(rng, rng.randint(1, 6))
        r = free_reduce(w)
        assert r.is_reduced
        assert free_reduce(r) == r


def test_free_reduce_confluent_on_random_orders():
    # cancelling pairs in any order must give the same normal form
    rng = random.Random(23)
    for _ in range(1000):
        w = random_word(rng, rng.randint(1, 5), max_len=14)
        assert reduce_in_random_order(w, rng) == free_reduce(w)


# -- cyclic reduction -------------------------------------------------------

def test_cyclic_core_is_minimal_conjugate():
    # a freely reduced word is cyclically reduced exactly when no conjugate
    # is shorter: brute force over iterated single-letter conjugations
    rng = random.Random(31)
    cyclic = 0
    for _ in range(60):
        w = free_reduce(random_word(rng, rng.randint(1, 5), max_len=8))
        assert w.is_cyclically_reduced == (len(w) == min_conjugate_length(w)), w
        cyclic += w.is_cyclically_reduced
    assert 0 < cyclic < 60


# -- shift ------------------------------------------------------------------

def test_shift_examples():
    assert shift(parse_word("x0 x1 x2", 3), 1) == parse_word("x1 x2 x0", 3)
    assert shift(parse_word("x0 X1", 2), 1) == parse_word("x1 X0", 2)
    rng = random.Random(2)
    for _ in range(50):
        w = random_word(rng, rng.randint(1, 7))
        assert shift(w, w.n) == w


@given(words(), st.integers(-20, 20), st.integers(-20, 20))
def test_shift_composition(w, a, b):
    assert shift(shift(w, a), b) == shift(w, a + b)


@given(words())
def test_invert_involution(w):
    assert free_reduce(invert(invert(w))) == free_reduce(w)


@given(words())
def test_invert_kills_word(w):
    assert free_reduce(concat(w, invert(w))) == Word(w.n)


def test_invert_example():
    assert invert(parse_word("x0 x1", 3)) == parse_word("X1 X0", 3)
