"""Value types: the verdict records, and words built by the library itself.

The records compare and hash by value, print as ``Name(field=value, ...)``
and refuse assignment.  Words that the library builds from data it has
already checked must equal the same data passed through the validating
public constructors, exponent sums included.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from cycpres.cyclic import CyclicPresentation, OrientabilityVerdict, gnkl, orientability
from cycpres.relative import (
    RelativeWord,
    _cyclic_reduce_syllables,
    change_variable,
    rho,
    root,
    to_relative,
    valid_retractions,
)
from cycpres.taxonomy import classify
from cycpres.words import Word, concat, free_reduce, invert, parse_word, shift


# -- verdict records ---------------------------------------------------------

RECORDS = [
    (
        lambda: classify(18, 1, 11),
        lambda: classify(18, 1, 10),
        ("n", "k", "l", "d", "conditions", "finite", "ca", "exceptional_n18",
         "branch", "structure_note"),
        "Classification(n=18, k=1, l=11, d=1, conditions=Conditions(A=True,"
        " B=False, C=False), finite=False, ca=False, exceptional_n18=True,"
        " branch='exceptional n=18', structure_note='free product of a free"
        " group of rank two and a cyclic group of order 19; the shift is"
        " fixed-point free but its cube fixes a nonidentity element')",
    ),
    (
        lambda: valid_retractions(RelativeWord.from_text("x x a^9 x a^6"), 18)[1],
        lambda: valid_retractions(RelativeWord.from_text("x x a^9 x a^6"), 18)[2],
        ("f", "epsilon_sum", "p_sum"),
        "Retraction(f=7, epsilon_sum=3, p_sum=15)",
    ),
    (
        lambda: orientability(CyclicPresentation(4, parse_word("x0 x1 X3 X2", 4))),
        lambda: orientability(gnkl(4, 1, 2)),
        ("orientable", "witness"),
        "OrientabilityVerdict(orientable=False, witness=(Word(4, 'x0 x1'), 2))",
    ),
]


@pytest.mark.parametrize("make, make_other, names, text", RECORDS,
                         ids=["Classification", "Retraction", "OrientabilityVerdict"])
def test_records_are_immutable_values(make, make_other, names, text):
    a, b, other = make(), make(), make_other()
    assert tuple(f.name for f in dataclasses.fields(a)) == names
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other
    assert repr(a) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
    assert a == b  # nothing was changed by the attempts
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a
    name = next(f for f in names if getattr(a, f) != getattr(other, f))
    changed = dataclasses.replace(a, **{name: getattr(other, name)})
    assert [getattr(changed, f) for f in names] == [
        getattr(other if f == name else a, f) for f in names
    ]


def test_orientable_presentations_share_one_verdict():
    mixed = CyclicPresentation(5, parse_word("x0 x1 X3", 5))  # both signs
    v, u, t = (orientability(p) for p in (gnkl(7, 1, 3), gnkl(9, 2, 4), mixed))
    assert v is u is t == OrientabilityVerdict(True)
    assert v.witness is None


@pytest.mark.parametrize("value", [
    parse_word("x0 x3 X1", 5),
    Word(4),
    gnkl(9, 2, 7),
    RelativeWord.from_text("x a^2 X a^-1"),
], ids=["Word", "empty Word", "CyclicPresentation", "RelativeWord"])
def test_words_copy_and_pickle_by_value(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


# -- words built by the library equal the validated ones ------------------------

def revalidated(w: Word) -> Word:
    """``w`` passed through the public constructor, with its types checked."""
    assert all(type(i) is int and type(s) is int for i, s in w.letters), w.letters
    assert all(0 <= i < w.n for i, _ in w.letters)
    return Word(w.n, w.letters)


def revalidated_relative(W: RelativeWord) -> RelativeWord:
    assert all(type(e) is int and type(p) is int for e, p in W.syllables)
    V = RelativeWord(W.syllables)
    assert (V.epsilon_sum, V.p_sum) == (W.epsilon_sum, W.p_sum)
    return V


def same(w, v) -> bool:
    """Equal, of the same type, with equal stored fields."""
    if type(w) is not type(v) or w != v:
        return False
    if isinstance(w, Word):
        return (w.n, w.letters) == (v.n, v.letters)
    return (w.syllables, w.epsilon_sum, w.p_sum) == (v.syllables, v.epsilon_sum, v.p_sum)


moduli = st.integers(1, 12)
signs = st.sampled_from((1, -1))


@st.composite
def words(draw, max_len=10):
    n = draw(moduli)
    letters = draw(st.lists(st.tuples(st.integers(0, n - 1), signs), max_size=max_len))
    return Word(n, letters)


@st.composite
def relative_words(draw, max_len=8):
    n = draw(moduli)
    syllables = draw(st.lists(
        st.tuples(signs, st.integers(-3 * n, 3 * n)), min_size=1, max_size=max_len
    ))
    return RelativeWord(syllables), n


@given(words(), relative_words())
def test_unchecked_constructors_match_the_validating_ones(w, drawn):
    W, _ = drawn
    assert same(Word._unchecked(w.n, w.letters), Word(w.n, w.letters))
    assert same(RelativeWord._unchecked(W.syllables), RelativeWord(W.syllables))


@given(words(), st.integers(-30, 30))
def test_word_operations_build_validated_words(w, k):
    assert same(revalidated(parse_word(str(w), w.n)), parse_word(str(w), w.n))
    for out in (concat(w, w, invert(w)), free_reduce(w), shift(w, k), invert(w)):
        assert same(revalidated(out), out)


@given(st.integers(1, 40), st.integers(-100, 100), st.integers(-100, 100))
def test_gnkl_builds_the_validated_word(n, k, l):
    p = gnkl(n, k, l)
    assert same(p.word, revalidated(p.word))
    assert same(p.word, Word(n, [(0, 1), (k, 1), (l, 1)]))
    assert p == CyclicPresentation(n, Word(n, [(0, 1), (k, 1), (l, 1)]))


@given(words())
def test_orientability_witness_is_a_validated_word(w):
    w = free_reduce(w)
    if not w.letters or not w.is_cyclically_reduced:
        return
    v = orientability(CyclicPresentation(w.n, w))
    if v.witness is not None:
        u, m = v.witness
        assert same(u, revalidated(u)) and type(m) is int


@given(relative_words(), st.integers(-20, 20))
def test_relative_operations_build_validated_words(drawn, t):
    W, n = drawn
    built = [RelativeWord.from_text(str(W)), RelativeWord.from_text(f"a^{t} {W}"),
             W.reduced(n), root(W, n)[0]]
    for reduce in (lambda: change_variable(W, n, t),
                   lambda: _cyclic_reduce_syllables(W.syllables, n)):
        try:
            built.append(reduce())
        except ValueError:  # only a coefficient is left
            pass
    for V in built:
        assert same(V, revalidated_relative(V))
    for r in valid_retractions(W, n):
        out = rho(W, n, r.f)
        assert same(out, revalidated(out))


@given(words())
def test_to_relative_builds_the_validated_word(w):
    if not w.letters or not w.is_cyclically_reduced:
        return
    V = to_relative(w, w.n)
    assert same(V, revalidated_relative(V))
    assert V.epsilon_sum == sum(s for _, s in w.letters) and V.p_sum == 0
