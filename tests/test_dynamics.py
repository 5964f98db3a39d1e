from collections import Counter
from dataclasses import replace

import pytest

import cycpres.dynamics as dynamics_module
from cycpres.cyclic import gnkl
from cycpres.dynamics import (
    EnumerationIncomplete,
    orbit_report,
    shift_orbits,
    verify_n18_evidence,
)
from cycpres.enumerate import generator_permutation, todd_coxeter
from cycpres.relative import lift, to_relative
from cycpres.taxonomy import classify
from cycpres.words import parse_word

from conftest import restart_todd_coxeter


def test_original_fibonacci_group():
    rep = shift_orbits(5, parse_word("x0 x1 X2", 5))
    assert rep.total_points == 11
    assert rep.cycle_type == (1, 5, 5)
    assert rep.fixed_counts == {1: 1, 2: 1, 3: 1, 4: 1}
    assert rep.free_action_on_nonbase


def test_trivial_shift_case():
    # condition B with 3 not dividing n: the shift is the identity, so
    # every coset is fixed by a
    rep = shift_orbits(5, gnkl(5, 1, 2).word)
    assert rep.total_points == 3
    assert rep.cycle_type == (1, 1, 1)
    assert rep.fixed_counts[1] == rep.total_points
    assert not rep.free_action_on_nonbase


def test_n1_is_rejected():
    with pytest.raises(ValueError, match="n >= 2"):
        shift_orbits(1, parse_word("x0 x0 x0", 1))


def test_overflow_raises_undecided():
    with pytest.raises(EnumerationIncomplete):
        shift_orbits(6, gnkl(6, 1, 5).word, max_cosets=200)


def test_fixed_counts_match_power_composition():
    # independent check of fixed_counts: compose the permutation directly
    w = parse_word("x0 x1 X2", 5)
    W = to_relative(w, 5)
    pres = replace(lift(W, 5), subgroup=((1,),))
    table = todd_coxeter(pres)
    perm = generator_permutation(table, "a")
    rep = orbit_report(table, "a", 5)
    cur = list(range(len(perm)))
    for j in range(1, 5):
        cur = [perm[i] for i in cur]
        assert rep.fixed_counts[j] == sum(1 for i, img in enumerate(cur) if i == img)


def test_orbit_reports_match_composed_permutations():
    # every finite triple with 2 <= n <= 9: a^j is composed directly, and
    # each coset's orbit length is the least j with a^j fixing it
    reports = 0
    for n in range(2, 10):
        for k in range(n):
            for l in range(n):
                if not classify(n, k, l).finite:
                    continue
                W = to_relative(gnkl(n, k, l).word, n)
                table = todd_coxeter(replace(lift(W, n), subgroup=((1,),)))
                perm = [row[0] for row in table.rows]
                rep = orbit_report(table, "a", n)
                orbit = [0] * len(perm)
                cur = list(range(len(perm)))
                for j in range(1, n + 1):
                    cur = [perm[i] for i in cur]
                    fixed = [i for i, img in enumerate(cur) if i == img]
                    if j < n:
                        assert rep.fixed_counts[j] == len(fixed), (n, k, l, j)
                    for i in fixed:
                        orbit[i] = orbit[i] or j
                assert list(rep.fixed_counts) == list(range(1, n))
                # a cycle of length L holds L cosets of orbit length L
                points = Counter(orbit)
                cycles = sorted(L for L, c in points.items() for _ in range(c // L))
                assert rep.cycle_type == tuple(cycles), (n, k, l)
                assert rep.free_action_on_nonbase == all(
                    length == n for length in orbit[1:]
                ), (n, k, l)
                reports += 1
    assert reports == 177


def test_fixed_points_monotone_under_power_multiples():
    # a point fixed by a^j is fixed by a^{jt}
    for triple in ((5, 0, 1), (9, 3, 1)):
        n, k, l = triple
        W = to_relative(gnkl(n, k, l).word, n)
        table = todd_coxeter(replace(lift(W, n), subgroup=((1,),)))
        perm = generator_permutation(table, "a")
        powers = {1: perm}
        for j in range(2, n):
            powers[j] = tuple(perm[i] for i in powers[j - 1])
        for j in range(1, n):
            fixed_j = {i for i, img in enumerate(powers[j]) if i == img}
            t = 2
            while j * t < n:
                fixed_jt = {i for i, img in enumerate(powers[j * t]) if i == img}
                assert fixed_j <= fixed_jt
                t += 1


def test_shift_fixed_points_finite_case():
    rep = shift_orbits(5, gnkl(5, 0, 1).word)
    assert rep.total_points == 33
    assert rep.fixed_counts[1] >= 3  # the basepoint and a subgroup of order 3


def test_shift_fixed_points_free_case():
    rep = shift_orbits(5, parse_word("x0 x1 X2", 5))
    assert all(count == 1 for count in rep.fixed_counts.values())


def test_verify_n18_evidence():
    ev = verify_n18_evidence()
    assert ev.group_order == 342
    assert ev.subgroup_index == 57
    assert ev.b_fixed_points == 3


@pytest.mark.parametrize(
    "enumerate_cosets", [todd_coxeter, restart_todd_coxeter], ids=["hlt", "restart"]
)
def test_strategies_agree_on_reports(enumerate_cosets, monkeypatch):
    # the restart reference stands in for the library kernel
    monkeypatch.setattr(dynamics_module, "todd_coxeter", enumerate_cosets)
    rep = shift_orbits(7, gnkl(7, 0, 3).word)
    assert rep.total_points == 129
    assert rep.fixed_counts[1] >= 3
