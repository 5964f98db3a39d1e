import math

import pytest

from cycpres.cyclic import gnkl
from cycpres.relative import rho, to_relative, valid_retractions
from cycpres.taxonomy import Classification, classify, conditions, reduce_to_0p, sweep
from cycpres.words import Word, shift


def test_conditions_examples():
    assert conditions(18, 1, 11) == (True, False, False)
    assert conditions(5, 1, 2).B  # 2k - l = 0
    assert conditions(7, 0, 2).C  # 3k = 0
    assert not conditions(7, 1, 2).C


def test_classify_free_rank_two():
    c = classify(3, 1, 2)
    assert not c.finite and c.ca and c.free_shift and not c.theta_fixed
    assert "free of rank two" in c.structure_note


def test_classify_cyclic_33():
    c = classify(5, 0, 1)
    assert c.finite and c.order == 2 ** 5 + 1 == 33
    assert c.theta_fixed and not c.ca
    assert "cyclic" in c.structure_note


def test_classify_exceptional_18():
    c = classify(18, 1, 11)
    assert not c.finite and not c.ca and not c.theta_fixed
    assert c.exceptional_n18
    # all six exceptional parameter classes share the verdict
    found = [
        (k, l)
        for k in range(18)
        for l in range(18)
        if classify(18, k, l).exceptional_n18
    ]
    assert (1, 11) in found
    for k, l in found:
        cond = conditions(18, k, l)
        assert not cond.B and not cond.C and (k + l) % 3 == 0
        assert math.gcd(18, k, l) == 1


def test_classify_gcd_reduction():
    c = classify(6, 2, 4)
    assert c.d == 2
    assert not c.finite and c.ca and c.free_shift and not c.theta_fixed
    assert "free product of 2 copies" in c.structure_note


def test_classify_cube_word_family():
    # P_n(0,0) presents the free product of n copies of C_3 for n > 1,
    # which is combinatorially aspherical with freely acting shift
    for n in (2, 3, 8):
        c = classify(n, 0, 0)
        assert c.d == n
        assert not c.finite and c.ca and c.free_shift and not c.theta_fixed
    base = classify(1, 0, 0)
    assert base.finite and base.order == 3 and base.ca and base.theta_fixed


def test_classify_metacyclic():
    c = classify(6, 1, 4)  # 3l = 12 is divisible by 6; A fails since 3 does not divide 5
    assert c.finite and c.order == 2 ** 6 - 1 == 63
    assert "metacyclic" in c.structure_note


def test_classify_order_past_the_int_to_str_limit():
    c = classify(20000, 0, 1)
    assert c.order == 2 ** 20000 - 1
    assert "order 2^20000 - (-1)^20000" in c.structure_note


def test_classify_invariants_up_to_24():
    for c in sweep(24):
        assert c.free_shift == c.ca
        assert c.theta_fixed == c.finite
        assert (c.order is not None) <= c.finite


def test_b_and_c_overlap_consistency():
    # when both B and C hold with gcd 1, the two finiteness readings agree:
    # 3 does not divide n exactly when A fails
    for n in range(1, 25):
        for k in range(n):
            for l in range(n):
                if math.gcd(n, k, l) != 1:
                    continue
                cond = conditions(n, k, l)
                if cond.B and cond.C:
                    assert (n % 3 != 0) == (not cond.A), (n, k, l)


def test_classify_symmetric_conditions_not_assumed():
    # the verdict is computed from the literal conditions; spot check that
    # swapping k and l can change nothing essential on a B-symmetric case
    a = classify(5, 1, 2)
    b = classify(5, 2, 1)
    assert a.finite == b.finite


# -- reduce_to_0p -----------------------------------------------------------------

def test_reduce_to_0p_examples():
    assert reduce_to_0p(7, 0, 2) == (2, 0)
    p, f = reduce_to_0p(9, 3, 1)
    assert p == 4 and f == (-3) % 9
    assert math.gcd(p, 9) == 1  # A fails: 3 does not divide k+l = 4


def test_reduce_to_0p_requires_coprime_triple():
    with pytest.raises(ValueError):
        reduce_to_0p(6, 2, 4)


def test_reduce_to_0p_absent_without_condition_c():
    assert reduce_to_0p(7, 1, 2) is None
    assert reduce_to_0p(18, 1, 11) is None


def test_reduce_to_0p_rewrites_to_0p_word():
    # the retraction exponent f really rewrites the relator to the
    # defining word of P_n(0, p), up to rotating and shifting the relator
    for n in range(2, 19):
        for k in range(n):
            for l in range(n):
                if math.gcd(n, k, l) != 1:
                    continue
                got = reduce_to_0p(n, k, l)
                cond = conditions(n, k, l)
                if not cond.C:
                    assert got is None
                    continue
                p, f = got
                assert math.gcd(p, n) == (3 if cond.A else 1)
                W = to_relative(gnkl(n, k, l).word, n)
                assert f in {r.f for r in valid_retractions(W, n)}
                out = rho(W, n, f)
                target = Word(n, [(0, 1), (0, 1), (p, 1)])
                assert any(
                    shift(Word(n, out.letters[r:] + out.letters[:r]), v) == target
                    for r in range(3)
                    for v in range(n)
                ), (n, k, l, p, f)
