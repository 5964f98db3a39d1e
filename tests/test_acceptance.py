"""Acceptance suite: one test per criterion, each printing a verdict line.

All integer results are exact; no tolerances apply anywhere.  The
enumeration-backed criteria share one sweep over 2 <= n <= 12 via a
module-scoped fixture.
"""

import itertools
import math
import random
from dataclasses import replace

import pytest

from cycpres.cyclic import CyclicPresentation, gnkl, orientability
from cycpres.dynamics import EnumerationIncomplete, shift_orbits, verify_n18_evidence
from cycpres.enumerate import (
    FinitePresentation,
    audit_table,
    generator_permutation,
    todd_coxeter,
)
from cycpres.relative import (
    RelativeWord,
    relative_orientable,
    rho,
    valid_retractions,
)
from cycpres.taxonomy import classify, sweep
from cycpres.words import Word, free_reduce, invert, parse_word, shift

from conftest import (
    fp_reduce,
    random_cyclically_reduced_relative_word,
    relative_word_tokens,
    substitute_kernel_generators,
)


def report(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def finite_sweep():
    """Classify all triples with 2 <= n <= 12 and enumerate the finite ones."""
    verdicts = {}
    reports = {}
    failures = []
    for n in range(2, 13):
        for k in range(n):
            for l in range(n):
                cls = classify(n, k, l)
                verdicts[(n, k, l)] = cls
                if not cls.finite:
                    continue
                try:
                    reports[(n, k, l)] = shift_orbits(
                        n, gnkl(n, k, l).word, max_cosets=1_000_000
                    )
                except EnumerationIncomplete as exc:
                    failures.append(((n, k, l), str(exc)))
    return verdicts, reports, failures


def test_criterion_1_rewriting_fidelity():
    failures = []
    W3 = RelativeWord.from_text("x x x")
    if rho(W3, 3, 0) != parse_word("x0 x0 x0", 3):
        failures.append("rho^0(x^3)")
    if rho(W3, 3, 1) != parse_word("x0 x1 x2", 3):
        failures.append("rho^1(x^3)")
    # rho^f(x a^p x a^q x a^r) = x_0 x_{f+p} x_{2f+p+q}
    for n, f, p, q in [(7, 2, 1, 3), (11, 5, -4, 2), (6, 2, 0, 0)]:
        W = RelativeWord(((1, p), (1, q), (1, -(3 * f + p + q))))
        if rho(W, n, f) != Word(n, [(0, 1), (f + p, 1), (2 * f + p + q, 1)]):
            failures.append(f"three-syllable form at n={n}")
    # rho^f(x^2 a^p x^{-1} a^q) = x_0 x_f x^{-1}_{f+p}
    for n, f, p in [(9, 3, 2), (8, 4, -3)]:
        W = RelativeWord(((1, 0), (1, p), (-1, -(f + p))))
        if rho(W, n, f) != Word(n, [(0, 1), (f, 1), (f + p, -1)]):
            failures.append(f"mixed-sign form at n={n}")
    # the same rewrite lands in different presentations for different n
    if CyclicPresentation(6, rho(W3, 6, 2)) != gnkl(6, 2, 4):
        failures.append("P_6(rho^2(x^3))")
    if CyclicPresentation(3, rho(W3, 3, 2)) != gnkl(3, 2, 1):
        failures.append("P_3(rho^2(x^3))")
    report(1, "rewriting fidelity", not failures)
    assert not failures, failures


def test_criterion_2_substitution_round_trip():
    rng = random.Random(20130306)
    failures = []
    triples = 0
    while triples < 500:
        n = rng.randint(2, 12)
        W = random_cyclically_reduced_relative_word(rng, n)
        for f in [r.f for r in valid_retractions(W, n)]:
            triples += 1
            w = rho(W, n, f)
            if not w.is_cyclically_reduced:
                failures.append(f"not cyclically reduced: {W} n={n} f={f}")
                continue
            got = fp_reduce(substitute_kernel_generators(w, n, f), n)
            expect = fp_reduce(relative_word_tokens(W), n)
            if got != expect:
                failures.append(f"round trip failed: {W} n={n} f={f}")
            if relative_orientable(W, n) and not orientability(
                CyclicPresentation(n, w)
            ).orientable:
                failures.append(f"orientability not transferred: {W} n={n} f={f}")
    report(2, f"substitution round trip ({triples} triples)", not failures)
    assert not failures, failures[:5]


def test_criterion_3_original_fibonacci():
    rep = shift_orbits(5, parse_word("x0 x1 X2", 5))
    ok = (
        rep.total_points == 11
        and rep.cycle_type == (1, 5, 5)
        and rep.fixed_counts == {1: 1, 2: 1, 3: 1, 4: 1}
    )
    report(3, "original Fibonacci group", ok)
    assert rep.total_points == 11
    assert rep.cycle_type == (1, 5, 5)
    assert rep.fixed_counts == {1: 1, 2: 1, 3: 1, 4: 1}


def test_criterion_4_two_generator_orders():
    failures = []
    for n in range(2, 11):
        s = 2 ** n - (-1) ** n
        for p in range(1, n):
            if math.gcd(p, n) != 1:
                continue
            rep = shift_orbits(n, gnkl(n, 0, p).word)
            if rep.total_points != s:
                failures.append(f"G_{n}(0,{p}) index {rep.total_points} != {s}")
            if rep.fixed_counts[1] < 3:
                failures.append(f"G_{n}(0,{p}) theta fixes {rep.fixed_counts[1]} < 3")
    report(4, "orders 2^n - (-1)^n with theta-fixed subgroup", not failures)
    assert not failures, failures


def test_criterion_5_n18_evidence():
    ev = verify_n18_evidence()
    ok = (ev.group_order, ev.subgroup_index, ev.b_fixed_points) == (342, 57, 3)
    report(5, "n=18 evidence (342 / 57 / 3)", ok)
    assert ev.group_order == 342
    assert ev.subgroup_index == 57
    assert ev.b_fixed_points == 3


def test_criterion_6_finiteness_vs_fixed_points(finite_sweep):
    verdicts, reports, overflow = finite_sweep
    failures = [f"did not complete: {t} ({msg})" for t, msg in overflow]
    for (n, k, l), rep in reports.items():
        cls = verdicts[(n, k, l)]
        if rep.fixed_counts[1] < 2:
            failures.append(f"({n},{k},{l}): no non-basepoint theta fixed point")
        if cls.conditions.C and not cls.conditions.A:
            s = 2 ** n - (-1) ** n
            if rep.total_points != s:
                failures.append(f"({n},{k},{l}): index {rep.total_points} != {s}")
    report(6, f"finiteness vs fixed points ({len(reports)} finite cases)", not failures)
    assert not failures, failures[:5]


def test_criterion_7_free_action_vs_asphericity(finite_sweep):
    verdicts, reports, overflow = finite_sweep
    failures = [f"did not complete: {t}" for t, _ in overflow]
    for (n, k, l), rep in reports.items():
        cls = verdicts[(n, k, l)]
        if cls.ca:
            failures.append(f"({n},{k},{l}): finite but marked aspherical")
        if not any(rep.fixed_counts[j] >= 2 for j in range(1, n)):
            failures.append(f"({n},{k},{l}): no shift power fixes a non-basepoint")
    for cls in sweep(24):
        if cls.free_shift != cls.ca or cls.theta_fixed != cls.finite:
            failures.append(f"invariant broken at ({cls.n},{cls.k},{cls.l})")
    report(7, "free action vs asphericity + verdict invariants", not failures)
    assert not failures, failures[:5]


def test_criterion_8_orientability():
    failures = []
    for n in range(1, 13):
        for k in range(n):
            for l in range(n):
                if not orientability(gnkl(n, k, l)).orientable:
                    failures.append(f"P_{n}({k},{l}) marked non-orientable")
    for text, n, m in (("x0 X1", 2, 1), ("x0 X2", 4, 2)):
        w = parse_word(text, n)
        v = orientability(CyclicPresentation(n, w))
        if v.orientable or v.witness is None:
            failures.append(f"missing witness for {text}")
        else:
            u, got_m = v.witness
            if got_m != m or free_reduce(
                Word(n, u.letters + invert(shift(u, m)).letters)
            ) != w:
                failures.append(f"bad witness for {text}")
    checked = 0
    for n in range(1, 7):
        for length in range(1, 5):
            for combo in itertools.product(range(2 * n), repeat=length):
                w = Word(n, [(c // 2, 1 if c % 2 == 0 else -1) for c in combo])
                if not w.is_cyclically_reduced:
                    continue
                checked += 1
                targets = {
                    u[r:] + u[:r]
                    for u in (invert(shift(w, v)).letters for v in range(n))
                    for r in range(length)
                }
                brute = w.letters not in targets
                if orientability(CyclicPresentation(n, w)).orientable != brute:
                    failures.append(f"brute force disagrees on {w}")
    report(8, f"orientability ({checked} words brute-forced)", not failures)
    assert not failures, failures[:5]


def test_criterion_9_enumerator_sanity():
    failures = []
    for n in range(1, 21):
        pres = FinitePresentation.make(("a",), (f"a^{n}",))
        t = todd_coxeter(pres)
        if t.count != n:
            failures.append(f"(a : a^{n}) gave {t.count}")
        audit_table(t, pres)
        pres = FinitePresentation.make(("r", "s"), (f"r^{n}", "s^2", "r s r s"))
        t = todd_coxeter(pres)
        if t.count != 2 * n:
            failures.append(f"dihedral n={n} gave {t.count}")
        audit_table(t, pres)
    report(9, "enumerator sanity on known orders", not failures)
    assert not failures, failures
