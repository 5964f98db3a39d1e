"""Standardized tables checked against sympy's coset enumerator.

sympy's ``coset_enumeration_r`` (HLT) followed by ``compress()`` and
``standardize()`` numbers cosets in first-visit order, scanning the
columns g, g^-1 of each generator in declared order, which is the
layout and the numbering of ``CosetTable.rows``.  Standardized tables
are canonical, so the two enumerators must return the same rows, entry
for entry, although they define different cosets on the way.  sympy
shares no code with cycpres, and its presentations are written here
straight from the formulas, not converted from ours; the test is
skipped when sympy is not installed.

The cases are the 45 finite extensions E = (a, x : a^n, x a^k x a^{l-k}
x a^{-l}) with n <= 5 over <a>, as ``shift_orbits`` enumerates them, and
the n = 18 evidence group K = (b, u : b^6, u u b^3 u b^2) over <b>,
and random presentations (a, b : a^m, W [, V]) with short W and V, the
relators sometimes listed in reverse, over the trivial subgroup, <a>,
<a^2> or <b>: these reach the forms ``relabel`` moves with mixed signs
and subgroups other than <a>, and power relators listed last.  sympy is
about a hundred times slower, so the cases stay small.
"""

import random
from dataclasses import replace

import pytest

from cycpres.cyclic import gnkl
from cycpres.enumerate import FinitePresentation, parse_presentation, todd_coxeter
from cycpres.relative import lift, to_relative
from cycpres.taxonomy import classify

pytest.importorskip("sympy")
from sympy.combinatorics.fp_groups import FpGroup, coset_enumeration_r  # noqa: E402
from sympy.combinatorics.free_groups import free_group  # noqa: E402

K_TEXT = """\
gens: b u
rels:
b^6
u u b^3 u b^2
sub:
b
"""

TRIPLES = [
    (n, k, l)
    for n in range(2, 6)
    for k in range(n)
    for l in range(n)
    if classify(n, k, l).finite
]


def sympy_rows(names, relators, subgroup):
    """sympy's standardized table; words are functions of the generators."""
    free, *gens = free_group(names)
    group = FpGroup(free, [r(*gens) for r in relators])
    table = coset_enumeration_r(group, [s(*gens) for s in subgroup])
    table.compress()
    table.standardize()
    return tuple(tuple(row) for row in table.table)


def test_triple_count():
    assert len(TRIPLES) == 45


@pytest.mark.parametrize("n, k, l", TRIPLES)
def test_extension_rows_match_sympy(n, k, l):
    W = to_relative(gnkl(n, k, l).word, n)
    table = todd_coxeter(replace(lift(W, n), subgroup=((1,),)))
    assert table.complete
    expected = sympy_rows(
        "a, x",
        [lambda a, x: a**n, lambda a, x: x * a**k * x * a ** (l - k) * x * a**-l],
        [lambda a, x: a],
    )
    assert table.rows == expected


def test_k_rows_match_sympy():
    table = todd_coxeter(parse_presentation(K_TEXT))
    assert table.complete
    expected = sympy_rows(
        "b, u",
        [lambda b, u: b**6, lambda b, u: u * u * b**3 * u * b**2],
        [lambda b, u: b],
    )
    assert table.rows == expected


def random_presentations(seed, count):
    """(a, b : a^m, W [, V]) over one of 1, <a>, <a^2>, <b>, with a coset cap."""
    rng = random.Random(seed)
    letters = (1, -1, 2, -2)
    subgroups = ((), ((1,),), ((1, 1),), ((2,),))
    for _ in range(count):
        relators = [(1,) * rng.randint(1, 7)]
        for _ in range(2 if rng.random() < 0.3 else 1):
            relators.append(tuple(rng.choices(letters, k=rng.randint(1, 8))))
        if rng.random() < 0.3:
            relators.reverse()
        pres = FinitePresentation(("a", "b"), tuple(relators), rng.choice(subgroups))
        yield pres, rng.randint(200, 2000)


def spelled(word):
    """One of our words as a function of sympy's generators."""

    def element(*gens):
        out = gens[0] ** 0
        for c in word:
            out *= gens[abs(c) - 1] ** (1 if c > 0 else -1)
        return out

    return element


def test_random_presentations_match_sympy():
    complete = 0
    for pres, cap in random_presentations(14, 90):
        table = todd_coxeter(pres, max_cosets=cap)
        if not table.complete:
            continue
        complete += 1
        expected = sympy_rows(
            "a, b",
            [spelled(r) for r in pres.relators],
            [spelled(s) for s in pres.subgroup],
        )
        assert table.rows == expected, pres
    assert complete >= 60
