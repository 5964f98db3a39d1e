import hashlib
import itertools
import random
import sys
import time
import tracemalloc
from dataclasses import replace
from math import gcd

import pytest

import cycpres.enumerate as enumerate_module
from cycpres.cyclic import gnkl
from cycpres.enumerate import (
    MAX_WORD_LENGTH,
    CosetTable,
    FinitePresentation,
    _Enumerator,
    _columns,
    _reduce_powers,
    _scan_list,
    audit_table,
    generator_permutation,
    parse_presentation,
    relabel,
    todd_coxeter,
)
from cycpres.relative import RelativeWord, lift, to_relative
from cycpres.taxonomy import classify
from cycpres.words import parse_word

from conftest import RestartEnumerator, restart_todd_coxeter

K_TEXT = """\
gens: b u
rels:
b^6
u u b^3 u b^2
sub:
b
"""


def cyclic_pres(n):
    return FinitePresentation.make(("a",), (f"a^{n}",))


def dihedral_pres(n):
    return FinitePresentation.make(("r", "s"), (f"r^{n}", "s^2", "r s r s"))


# the library kernel and the row-major restart reference must both pass
ENUMERATORS = pytest.mark.parametrize(
    "enumerate_cosets", [todd_coxeter, restart_todd_coxeter], ids=["hlt", "restart"]
)


# -- presentations and parsing ----------------------------------------------

def test_word_tokens():
    p = FinitePresentation.make(("a", "x"), ("a^3 x A X x^-2",))
    assert p.relators[0] == (1, 1, 1, 2, -1, -2, -2, -2)
    assert p.word_text(p.relators[0]) == "a a a x A X X X"


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        FinitePresentation.make(("a",), ("b",))
    with pytest.raises(ValueError):
        FinitePresentation.make(("a", "a"), ())
    with pytest.raises(ValueError):
        FinitePresentation.make(("a",), ("",))
    with pytest.raises(ValueError):
        FinitePresentation.make(("A",), ())


def test_word_length_is_bounded():
    with pytest.raises(ValueError, match=str(MAX_WORD_LENGTH)):
        FinitePresentation.make(("a",), ("a^1000000000",))
    with pytest.raises(ValueError, match=str(MAX_WORD_LENGTH)):
        FinitePresentation.make(("a",), (f"a^{MAX_WORD_LENGTH} A",))


def test_presentation_length_is_bounded():
    half = MAX_WORD_LENGTH // 2
    p = FinitePresentation.make(("a",), (f"a^{half}",), (f"a^{half}",))
    assert sum(map(len, p.relators + p.subgroup)) == MAX_WORD_LENGTH
    with pytest.raises(ValueError, match=str(MAX_WORD_LENGTH)):
        FinitePresentation.make(("a",), (f"a^{half}", f"a^{half}"), ("a",))
    text = "gens: a\nrels:\n" + f"a^{MAX_WORD_LENGTH}\n" * 10
    with pytest.raises(ValueError, match=str(MAX_WORD_LENGTH)):
        parse_presentation(text)


def test_parse_presentation_file_format():
    p = parse_presentation(K_TEXT)
    assert p.generators == ("b", "u")
    assert p.relators == ((1,) * 6, (2, 2, 1, 1, 1, 2, 1, 1))
    assert p.subgroup == ((1,),)
    assert parse_presentation(str(p)) == p


def test_parse_presentation_rejects_garbage():
    with pytest.raises(ValueError):
        parse_presentation("rels:\na")
    with pytest.raises(ValueError):
        parse_presentation("gens: a\nstray line")


# -- order correctness on knowns -----------------------------------------------

@ENUMERATORS
def test_cyclic_orders(enumerate_cosets):
    for n in (1, 2, 5, 12, 20):
        t = enumerate_cosets(cyclic_pres(n))
        assert t.complete and t.count == n


@ENUMERATORS
def test_dihedral_orders(enumerate_cosets):
    for n in range(1, 21):
        t = enumerate_cosets(dihedral_pres(n))
        assert t.complete and t.count == 2 * n


@ENUMERATORS
def test_k_group_orders(enumerate_cosets):
    p = parse_presentation(K_TEXT)
    full = enumerate_cosets(replace(p, subgroup=()))
    assert full.count == 342
    over_b = enumerate_cosets(p)
    assert over_b.count == 57
    perm = generator_permutation(over_b, "b")
    assert sum(1 for i, img in enumerate(perm) if i == img) == 3


def test_index_multiplicativity():
    # |G| = index of <g> times the order of g, where the order of g is the
    # length of its cycle through the basepoint of the regular action
    cases = [
        (parse_presentation(K_TEXT), "b"),
        (replace(dihedral_pres(9), subgroup=((1,),)), "r"),
        (replace(cyclic_pres(15), subgroup=((1, 1, 1),)), "a a a"),
    ]
    for pres, gen_word in cases:
        regular = todd_coxeter(replace(pres, subgroup=()))
        over = todd_coxeter(pres)
        w = pres.word(gen_word)
        order = 1
        c = regular.trace(0, w)
        while c != 0:
            c = regular.trace(c, w)
            order += 1
        assert regular.count == over.count * order


def test_standardized_determinism():
    p = parse_presentation(K_TEXT)
    t1 = todd_coxeter(p)
    t2 = todd_coxeter(p)
    assert t1.rows == t2.rows


# -- soundness audit --------------------------------------------------------------

def test_audit_passes_on_completed_tables():
    # (a, b : a^3, b) has a one-letter relator, traced as b's column itself
    one_letter = FinitePresentation.make(("a", "b"), ("a^3", "b"))
    for pres in (
        cyclic_pres(7), dihedral_pres(5), parse_presentation(K_TEXT), one_letter
    ):
        t = todd_coxeter(pres)
        audit_table(t, pres)  # raises on any violation


def _corrupted(table, edit):
    """The table with ``edit`` applied to a list of its columns, as lists."""
    cols = [list(col) for col in table.columns]
    edit(cols)
    return replace(table, columns=tuple(map(tuple, cols)))


def test_audit_catches_corruption():
    pres = cyclic_pres(5)
    # C_5 over 1 is ((1, 2), (3, 0), (0, 4), (4, 1), (2, 3)); coset 2
    # loses its a-image 0, so the first bad entry is coset 0's A-entry
    bad = _corrupted(todd_coxeter(pres), lambda c: c[0].__setitem__(2, c[0][1]))
    with pytest.raises(ValueError, match=r"^entry \(0,1\) lacks an inverse entry$"):
        audit_table(bad, pres)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c[1].__setitem__(0, 5), r"entry \(0,1\) out of range: 5"),
        (lambda c: c[1].__setitem__(0, -1), r"entry \(0,1\) out of range: -1"),
        # of two entries out of range, the first in row order: (3,0), not (4,1)
        (
            lambda c: (c[1].__setitem__(4, -1), c[0].__setitem__(3, 5)),
            r"entry \(3,0\) out of range: 5",
        ),
    ],
)
def test_audit_names_the_first_bad_entry(edit, message):
    pres = cyclic_pres(5)
    bad = _corrupted(todd_coxeter(pres), edit)
    with pytest.raises(ValueError, match=f"^{message}$"):
        audit_table(bad, pres)


def test_audit_rejects_a_short_column():
    pres = cyclic_pres(5)
    bad = _corrupted(todd_coxeter(pres), lambda c: c[1].pop())
    with pytest.raises(ValueError, match="^column 1 has 4 entries, not 5$"):
        audit_table(bad, pres)


def test_audit_rejects_the_wrong_number_of_columns():
    pres = dihedral_pres(5)
    table = todd_coxeter(pres)
    for cols, count in ((table.columns[:2], 2), (table.columns + table.columns[:1], 5)):
        with pytest.raises(ValueError, match=f"^table has {count} columns, not 4$"):
            audit_table(replace(table, columns=cols), pres)


def test_a_table_rebuilt_from_its_row_view():
    pres = dihedral_pres(5)
    table = todd_coxeter(pres)
    assert replace(table, rows=table.rows) == table
    short = replace(table, rows=table.rows[:-1], count=table.count - 1)
    assert short.columns == tuple(col[:-1] for col in table.columns)
    assert short.count == table.count - 1
    with pytest.raises(ValueError, match="^count 11 != 10 cosets in the columns$"):
        replace(table, count=11)
    # a short row cuts every column to its width, one column fewer
    ragged = table.rows[:2] + (table.rows[2][:3],) + table.rows[3:]
    with pytest.raises(ValueError, match="^table has 3 columns, not 4$"):
        audit_table(replace(table, rows=ragged), pres)


S3_OVER_S = FinitePresentation.make(("r", "s"), ("r^3", "s^2", "r s r s"), ("s",))


@pytest.mark.parametrize("pres", [cyclic_pres(5), S3_OVER_S], ids=["C_5", "S_3/<s>"])
def test_audit_rejects_every_single_entry_corruption(pres):
    table = todd_coxeter(pres)
    corruptions = 0
    for i, row in enumerate(table.rows):
        for c, old in enumerate(row):
            for new in range(table.count):
                if new == old:
                    continue
                bad = _corrupted(table, lambda cols: cols[c].__setitem__(i, new))
                # (i, c) lost its inverse, and so did (old, c ^ 1), which
                # still points at i; the first of the two in row order is named
                first = min((i, c), (old, c ^ 1))
                message = rf"^entry \({first[0]},{first[1]}\) lacks an inverse entry$"
                with pytest.raises(ValueError, match=message):
                    audit_table(bad, pres)
                corruptions += 1
    assert corruptions == table.count * len(table.rows[0]) * (table.count - 1)


@pytest.mark.parametrize("pres", [cyclic_pres(5), S3_OVER_S], ids=["C_5", "S_3/<s>"])
def test_audit_names_every_single_out_of_range_entry(pres):
    # entries at or past count, and negative ones, which a list would
    # read from its end; the message is the row-order one either way
    table = todd_coxeter(pres)
    count = table.count
    corruptions = 0
    for i, row in enumerate(table.rows):
        for c, old in enumerate(row):
            for new in (count, count + 7, -1, -count - 1):
                bad = _corrupted(table, lambda cols: cols[c].__setitem__(i, new))
                # (old, c ^ 1) still points at i, which no longer points back
                if (old, c ^ 1) < (i, c):
                    message = rf"entry \({old},{c ^ 1}\) lacks an inverse entry"
                else:
                    message = rf"entry \({i},{c}\) out of range: {new}"
                with pytest.raises(ValueError, match=f"^{message}$"):
                    audit_table(bad, pres)
                corruptions += 1
    assert corruptions == 4 * count * len(table.rows[0])


def test_audit_names_the_coset_a_relator_does_not_close_at():
    t = todd_coxeter(cyclic_pres(5))
    with pytest.raises(ValueError, match="^relator a a a does not close at coset 0$"):
        audit_table(t, cyclic_pres(3))
    # S_3 over <s>: s fixes coset 0 only
    pres = FinitePresentation.make(("r", "s"), ("r^3", "s^2", "r s r s"), ("s",))
    t = todd_coxeter(pres)
    extra = replace(pres, relators=pres.relators + ((2,),))
    with pytest.raises(ValueError, match="^relator s does not close at coset 1$"):
        audit_table(t, extra)


def test_audit_checks_subgroup_generators():
    t = todd_coxeter(cyclic_pres(5))
    over_a = FinitePresentation.make(("a",), ("a^5",), ("a",))
    with pytest.raises(ValueError, match="^subgroup generator a does not fix coset 0$"):
        audit_table(t, over_a)


def test_audit_rejects_incomplete():
    p = FinitePresentation.make(("a", "b"), ("a b A B",))
    t = todd_coxeter(p, max_cosets=50)
    assert not t.complete
    with pytest.raises(ValueError):
        audit_table(t, p)


# -- permutations -------------------------------------------------------------------

def test_generator_permutation_cycle():
    t = todd_coxeter(cyclic_pres(3))
    perm = generator_permutation(t, "a")
    assert sorted(perm) == [0, 1, 2]
    assert perm[perm[perm[0]]] == 0 and perm[0] != 0


def test_generator_permutation_order_divides_group_exponent():
    t = todd_coxeter(dihedral_pres(6))
    for gen, order in (("r", 6), ("s", 2)):
        perm = generator_permutation(t, gen)
        cur = list(range(t.count))
        for _ in range(order):
            cur = [perm[i] for i in cur]
        assert cur == list(range(t.count))


def test_generator_permutation_rejects_incomplete():
    p = FinitePresentation.make(("a", "b"), ("a b A B",))
    t = todd_coxeter(p, max_cosets=50)
    with pytest.raises(ValueError):
        generator_permutation(t, "a")


# -- overflow is first class -----------------------------------------------------

def test_trace_stops_at_the_first_undefined_entry_of_an_overflow_table():
    t = todd_coxeter(FinitePresentation.make(("a", "b"), ("a b A B",)), max_cosets=50)
    assert t.status == "overflow"
    letter = (1, -1, 2, -2)  # the letter each column reads
    i, c = next((i, c) for i in range(t.count) for c in range(4) if t.columns[c][i] < 0)
    j, e = next((j, e) for j in range(t.count) for e in range(4) if t.columns[e][j] == i)
    # a letter after the gap whose column ends in a defined entry: read
    # at -1, it would give a coset from the end of that column
    d = next(d for d in range(4) if t.columns[d][-1] >= 0)
    assert t.trace(j, (letter[e],)) == i
    assert t.trace(i, (letter[c],)) == -1
    assert t.trace(j, (letter[e], letter[c], letter[d])) == -1


@ENUMERATORS
def test_overflow_on_infinite_groups(enumerate_cosets):
    z2 = FinitePresentation.make(("a", "b"), ("a b A B",))
    t = enumerate_cosets(z2, max_cosets=300)
    assert t.status == "overflow"
    assert t.count <= 300 and t.defined >= t.count

    free = FinitePresentation.make(("a", "b"), ())
    assert enumerate_cosets(free, max_cosets=100).status == "overflow"


def test_overflow_cap_one_is_legal():
    t = todd_coxeter(cyclic_pres(5), max_cosets=1)
    assert t.status == "overflow"


@pytest.mark.parametrize("cap", [0, -5])
def test_a_cap_below_one_is_rejected(cap):
    with pytest.raises(ValueError, match="max_cosets"):
        todd_coxeter(cyclic_pres(5), max_cosets=cap)


# -- presentation builders --------------------------------------------------------

def lift_gnkl(n, k, l):
    """(a, x : a^n, x a^k x a^{l-k} x a^{-l}), the extension of C_n by G_n(k,l)."""
    return lift(to_relative(gnkl(n, k, l).word, n), n)


def test_lift_gnkl_examples():
    p = lift_gnkl(5, 1, 2)
    assert p.generators == ("a", "x")
    assert p.relators[0] == (1,) * 5
    # x a x a x a^{-2}, exponents normalized into [0, 5)
    assert p.relators[1] == (2, 1, 2, 1, 2, 1, 1, 1)

    p = lift_gnkl(18, 1, 11)
    assert p.relators[1] == (2, 1, 2) + (1,) * 10 + (2,) + (1,) * 7


def test_lift_gnkl_matches_spelled_out_lift():
    for n, k, l in ((5, 1, 2), (18, 1, 11), (7, 0, 3)):
        W = RelativeWord(((1, k), (1, l - k), (1, -l)))
        # a^n, and W with every a-exponent spelled out in [0, n)
        spelled = (2,) + (1,) * (k % n) + (2,) + (1,) * ((l - k) % n)
        spelled += (2,) + (1,) * (-l % n)
        assert lift(W, n) == FinitePresentation(("a", "x"), ((1,) * n, spelled))
        assert lift_gnkl(n, k, l) == lift(W, n)


def test_relative_to_presentation_from_word():
    W = to_relative(parse_word("x0 x1 X2", 5), 5)
    p = lift(W, 5)
    assert p.relators == ((1,) * 5, (2, 1, 2, 1, -2, 1, 1, 1))


# -- relators reduced modulo power relators ------------------------------------

A5 = (1,) * 5


def test_reduce_powers_keeps_the_power_relator():
    assert _reduce_powers((A5,)) == ((A5,), ())
    assert _reduce_powers((A5, A5)) == ((A5,), ())  # the copy reduces to nothing


def test_reduce_powers_writes_a_to_the_minus_one():
    # a^4 = a^{-1} and a A a = a, given a^5
    assert _reduce_powers((A5, (2, 1, 1, 1, 1))) == ((A5,), ((2, -1),))
    assert _reduce_powers((A5, (2, 1, -1, 1))) == ((A5,), ((2, 1),))


def test_reduce_powers_drops_runs_that_vanish():
    # given a^5, x a^5 x becomes x x, which is then x's power relator, and
    # x a^-10 X vanishes: once a^-10 has gone, x meets X and cancels
    rels = (A5, (2, 1, 1, 1, 1, 1, 2), (2,) + (-1,) * 10 + (-2,))
    assert _reduce_powers(rels) == ((A5, (2, 2)), ())
    # in x a x a^-5 X A X the pairs x X, a A and x X cancel in turn across
    # the vanished a^-5, and the x left by the second copy is a power too
    nested = (2, 1, 2) + (-1,) * 5 + (-2, -1, -2)
    assert _reduce_powers((A5, nested, nested + (2,))) == ((A5, (2,)), ())


def test_reduce_powers_inverse_power_relator():
    rels = ((-1,) * 5, (2, 1, 1, 1, 1), (2, -1, -1, -1))
    assert _reduce_powers(rels) == (((-1,) * 5,), ((2, -1), (2, 1, 1)))


def test_reduce_powers_uses_the_shortest_power_relator():
    # a^6 shortens to a^2 modulo a^4, and the pass repeats with a^2 as the
    # power relator kept for a: a^4 vanishes and x a^3 becomes x a
    rels = ((1,) * 6, (1,) * 4, (2, 1, 1, 1), (2,) * 3)
    assert _reduce_powers(rels) == (((2,) * 3, (1, 1)), ((2, 1),))
    # modulo a^8, a^12 becomes a^4, which is then kept, and a^8 vanishes
    assert _reduce_powers(((1,) * 12, (1,) * 8)) == (((1,) * 4,), ())


def test_reduce_powers_tie_keeps_the_positive_exponent():
    k = parse_presentation(K_TEXT)  # b^6, u u b^3 u b^2
    assert _reduce_powers(k.relators) == (k.relators[:1], k.relators[1:])
    rels = ((1,) * 6, (2, -1, -1, -1))
    assert _reduce_powers(rels) == (((1,) * 6,), ((2, 1, 1, 1),))


def _shifted_lift(W, n, signs):
    """lift(W, n) with the i-th a-exponent moved by signs[i] * n."""
    rel = []
    for (e, p), s in zip(W.syllables, signs):
        rel.append(2 if e > 0 else -2)
        p = p % n + s * n
        rel.extend([1] * p if p > 0 else [-1] * -p)
    return FinitePresentation(("a", "x"), ((1,) * n, tuple(rel)), ((1,),))


@ENUMERATORS
def test_tables_do_not_depend_on_how_a_exponents_are_written(enumerate_cosets):
    triples = [
        (n, k, l)
        for n in range(2, 9)
        for k in range(n)
        for l in range(n)
        if classify(n, k, l).finite
    ]
    assert len(triples) == 123
    for n, k, l in triples:
        W = to_relative(gnkl(n, k, l).word, n)
        base = enumerate_cosets(replace(lift(W, n), subgroup=((1,),)))
        assert base.complete
        for signs in ((1, 1, 1), (-1, -1, -1), (1, -1, 1)):
            pres = _shifted_lift(W, n, signs)
            t = enumerate_cosets(pres)
            assert t.rows == base.rows, (n, k, l, signs)
            audit_table(t, pres)


def test_audit_checks_the_callers_presentation(monkeypatch):
    seen = []
    monkeypatch.setattr(enumerate_module, "_audit_columns", lambda c, p: seen.append(p))
    pres = FinitePresentation.make(("a", "x"), ("a^5", "x a^4", "x^2"))
    todd_coxeter(pres)
    assert seen == [pres]


def extension(n, k, l):
    """E = (a, x : a^n, W) over <a>, as shift_orbits enumerates it."""
    W = to_relative(gnkl(n, k, l).word, n)
    return replace(lift(W, n), subgroup=((1,),))


def test_g12_8_5_extension_work():
    t = todd_coxeter(extension(12, 8, 5))
    assert t.count == 4095
    # 122,542 with a-exponents as lift writes them, 64,851 scanning W
    # from its first letter only, 34,289 without relabelling, 8,098
    # filling a^12 at each coset
    assert t.defined <= 5_000


def test_g15_1_6_extension_work():
    t = todd_coxeter(extension(15, 1, 6))
    assert t.count == 32769
    # 103,688 filling a^15 at each coset, 1,027,521 without relabelling
    assert t.defined <= 45_000


def table_bytes(t):
    """Bytes a table's rows hold: the tuples and each int object not cached."""
    ints = {id(v): v for row in t.rows for v in row if not -5 <= v <= 256}
    return (
        sys.getsizeof(t.rows)
        + sum(map(sys.getsizeof, t.rows))
        + sum(map(sys.getsizeof, ints.values()))
    )


def test_table_memory_of_a_large_extension():
    # the traced peak against the bytes the returned rows hold: 1.3x for
    # G_12(9,8) and 1.5x for G_15(1,6) (0.55 and 5.1 MiB), 1.5x for the
    # overflow table of G_14(2,4) (0.45 MiB) and 1.7x for G_13(0,1),
    # which resumes after one lookahead and completes (1.41 MiB).
    # Finishing into a flat list of every entry beside the live table,
    # then holding the rows, a transposed copy and every square of a
    # column at once took 3.3x and 3.5x; a new int per entry made the
    # overflow rows 0.48 MiB, not 0.30; compressing a run that gives up,
    # while the interrupted pass's records and a second set of new ints
    # were held, took 2.2x and 2.4x
    # The table returned holds its columns, 0.55x of the bytes that
    # table_bytes counts for its row view (1.87 MiB for G_15(1,6)).
    for triple, cap, status, count, bound in (
        ((12, 9, 8), 10**6, "complete", 4095, 2.5),
        ((15, 1, 6), 10**6, "complete", 32769, 2.5),
        ((14, 2, 4), 3000, "overflow", 3000, 1.9),
        ((13, 0, 1), 8600, "complete", 8193, 2.1),
    ):
        pres = extension(*triple)
        t = None  # the previous table is freed before tracing starts
        tracemalloc.start()
        try:
            t = todd_coxeter(pres, max_cosets=cap)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (t.status, t.count) == (status, count), triple
        assert peak <= bound * table_bytes(t), (triple, peak, table_bytes(t))
        if t.complete:
            assert held <= 0.6 * table_bytes(t), (triple, held, table_bytes(t))
    assert t.defined == 8925  # G_13(0,1) went on past its cap after lookahead


def test_huge_extension_overflows_in_bounded_memory():
    # the relabelling search works on run lengths, and no power of a is
    # spelled out beyond the a^n the caller wrote; 76 MiB without it
    pres = extension(10**6, 3, 7)
    tracemalloc.start()
    try:
        t = todd_coxeter(pres, max_cosets=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.status == "overflow" and t.count == 100
    assert peak < 1.1 * 76 * 2**20


def test_g11_4_4_extension_completes_under_a_small_cap():
    t = todd_coxeter(extension(11, 4, 4), max_cosets=3000)
    assert t.complete and t.count == 2049


# -- HLT scan list: cyclic conjugates at free-generator letters ----------------

def test_scan_list_rotates_w_at_each_x():
    # G_5(2,1): a^5 and the shortened W = x a^2 x A x A; the three
    # rotations of W that begin at an x
    w = (2, 1, 1, 2, -1, 2, -1)
    assert _scan_list((A5,), (w,)) == (
        w,
        (2, -1, 2, -1, 2, 1, 1),
        (2, -1, 2, 1, 1, 2, -1),
    )


def test_scan_list_keeps_power_relators():
    # a^5 is scanned beside the list, not in it; A^3, a power of a that
    # _reduce_powers leaves among the others, stays as written; x a x
    # becomes its two rotations at an x
    others = ((-1,) * 3, (2, 1, 2))
    assert _scan_list((A5,), others) == ((-1,) * 3, (2, 1, 2), (2, 2, 1))


def test_scan_list_keeps_relators_of_powered_generators():
    assert _scan_list(((1,) * 4, (2,) * 3), ((1, 2, -1, 2),)) == ((1, 2, -1, 2),)


def test_scan_list_without_power_relators_takes_every_rotation():
    assert _scan_list((), ((1, 2, -1, -2),)) == (
        (1, 2, -1, -2),
        (2, -1, -2, 1),
        (-1, -2, 1, 2),
        (-2, 1, 2, -1),
    )


def test_scan_list_drops_repeated_conjugates():
    assert _scan_list((), ((1, 2, 1, 2),)) == ((1, 2, 1, 2), (2, 1, 2, 1))
    rels = ((1, 2, 3), (3, 1, 2))
    assert _scan_list((), rels) == ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def test_scan_list_letters_are_bounded():
    # L rotations of L letters each: past MAX_WORD_LENGTH in all, the
    # relator is scanned as written
    side = int(MAX_WORD_LENGTH ** 0.5)
    fits = (1,) + (2,) * (side - 1)
    assert len(_scan_list((), (fits,))) == side
    assert _scan_list((), (fits + (2,),)) == (fits + (2,),)
    assert _scan_list((), (fits, (1, 2))) == _scan_list((), (fits,)) + ((1, 2),)


# -- the shortest relabelling g = b^beta, x = y b^{-d} ---------------------------

def relabelled(pres):
    """The form ``todd_coxeter`` enumerates, as a presentation."""
    powers, relators, subgroup, _, _, _ = relabel(pres)
    return FinitePresentation(pres.generators, powers + relators, subgroup)


def test_relabel_picks_the_shortest_form():
    pres = extension(12, 9, 8)  # W shortens to x a^-3 x A x a^4
    powers, relators, subgroup, power, beta, d = relabel(pres)
    assert (power, beta, d) == (1, 5, -4)
    assert (powers, relators) == (((1,) * 12,), ((2, 1, 2, -1, 2),))
    assert subgroup == ((1,),)


def test_a_relabelled_run_is_audited_once_against_the_callers_presentation(
    monkeypatch,
):
    seen = []
    monkeypatch.setattr(enumerate_module, "_audit_columns", lambda c, p: seen.append(p))
    pres = extension(12, 9, 8)
    t = todd_coxeter(pres)
    assert seen == [pres] and t.generators == ("a", "x")


def test_relabel_leaves_g12_0_1_as_it_is():
    pres = extension(12, 0, 1)
    assert relabel(pres) == (*_reduce_powers(pres.relators), pres.subgroup, 0, 1, 0)


TWO_POWERS_OF_A = FinitePresentation.make(
    ("a", "x"), ("a^6", "a^4", "x x a x A"), ("a",)
)


@pytest.mark.parametrize(
    "pres",
    [
        FinitePresentation.make(("a", "x", "y"), ("a^5", "x a^2 x A^2 y a")),
        dihedral_pres(6),  # two generators with power relators
        FinitePresentation.make(("a", "x"), ("x a^3 x A^3 x",)),  # none
        FinitePresentation.make(("a", "x"), ("a^7", "x a^3 x a^3"), ("x",)),
        # a^6 and a^4 end as a^2, and no relabelling shortens x x a
        FinitePresentation.make(("a", "x"), ("a^6", "a^4", "x x a"), ("a",)),
    ],
    ids=[
        "three generators",
        "two powers",
        "no power",
        "subgroup with x",
        "a power of a among the others",
    ],
)
def test_relabel_leaves_other_presentations_alone(pres):
    assert relabel(pres) == (*_reduce_powers(pres.relators), pres.subgroup, 0, 1, 0)


def test_a_power_among_the_others_is_enumerated_as_given():
    # a^6 shortens to a^2 modulo a^4, which then vanishes modulo a^2, and
    # x x a x A becomes x x a x a; the relabelled run x = y b^-1 reaches
    # the table of the restart reference on the caller's form as given
    assert relabel(TWO_POWERS_OF_A) == (((1, 1),), ((2, 1, 2, 2),), ((1,),), 1, 1, 1)
    t = todd_coxeter(TWO_POWERS_OF_A)
    assert t.complete and t.count == 3
    ref = RestartEnumerator(TWO_POWERS_OF_A, 1_000_000)
    assert (t.status, t.defined, t.rows) == ref.table()


def unreduced_a12(pres):
    """``pres`` with its a^12 written unreduced, as A a^13."""
    return replace(pres, relators=((-1,) + (1,) * 13,) + pres.relators[1:])


# powers written unreduced: a^2 as A a a a, and a^12 as A a^13
UNREDUCED = (
    FinitePresentation.make(("a", "b"), ("A a a a", "a^6", "a a a B B")),
    unreduced_a12(extension(12, 9, 8)),
)


def test_relabelling_a_relabelled_presentation_changes_nothing():
    # the form relabel returns is its own reduced form, and relabel gives
    # it back unchanged, so todd_coxeter scans it without reducing it again
    presentations = list(relabel_digest_cases()) + list(UNREDUCED) + [
        pres for pres, _ in random_two_generator_presentations(20, 1000)
    ]
    moved = powers_added = 0
    for pres in presentations:
        powers, relators, subgroup, power, _, _ = relabel(pres)
        assert _reduce_powers(powers + relators) == (powers, relators), pres
        form = FinitePresentation(pres.generators, powers + relators, subgroup)
        unchanged = (powers, relators, subgroup, 0, 1, 0)
        assert relabel(form) == unchanged, pres
        moved += power != 0
        powers_added += power != 0 and len(powers) == 2
    assert len(presentations) == 7901
    assert moved > 0 and powers_added > 0  # such as G_6(2,4)'s y y y


def test_a_power_relator_written_unreduced_is_found():
    # the power is decided on the freely reduced word and kept as that
    # word, since the enumerator reads a power from its first letter
    assert _reduce_powers(UNREDUCED[0].relators) == (((1, 1),), ((1, -2, -2),))
    pres = extension(12, 9, 8)
    assert relabel(unreduced_a12(pres)) == relabel(pres)
    t, ref = todd_coxeter(unreduced_a12(pres)), todd_coxeter(pres)
    assert (t.status, t.defined, t.rows) == (ref.status, ref.defined, ref.rows)


RESUME_CASES = {
    # finite "C without A" triples, each capped to need a lookahead:
    # (10,3,0), (11,2,2) and (11,4,4) complete after one, the other three
    # overflow; at 3,000 the n = 10 and 11 triples complete without one
    (10, 0, 1): 1050, (10, 3, 0): 1100, (11, 0, 9): 2200, (11, 2, 2): 2200,
    (11, 4, 4): 2200, (12, 0, 1): 3000, (12, 8, 5): 3000, (12, 11, 11): 3000,
    # infinite triples: the n = 18 family, gcd > 1, B with 3 | n, neither
    (18, 14, 7): 3000, (14, 10, 12): 3000, (15, 2, 4): 3000, (9, 8, 4): 3000,
    (16, 12, 8): 3000,
}


def test_resume_after_lookahead_matches_restart():
    lookaheads = 0
    statuses = set()
    for t, cap in RESUME_CASES.items():
        # relabelling is idempotent, so both enumerate this form as given
        pres = relabelled(extension(*t))
        got = todd_coxeter(pres, max_cosets=cap)
        ref = RestartEnumerator(pres, cap)
        assert (got.status, got.defined, got.rows) == ref.table(), t
        lookaheads += ref.lookaheads
        statuses.add(got.status)
    assert lookaheads >= len(RESUME_CASES)
    assert statuses == {"complete", "overflow"}


# -- power relators scanned once per cycle --------------------------------------

A5_RELATORS = ("a^2", "b^3", "a b a b a b a b a b")

SKIP_CASES = [
    ("K_over_1", replace(parse_presentation(K_TEXT), subgroup=())),
    ("K_over_b", parse_presentation(K_TEXT)),
    ("A5_powers_first", FinitePresentation.make(("a", "b"), A5_RELATORS)),
    ("A5_powers_last", FinitePresentation.make(("a", "b"), A5_RELATORS[::-1])),
    # (a, x : W, a^n): listed after W, the power relator is still scanned first
    (
        "W_before_a12",
        FinitePresentation(
            ("a", "x"), extension(12, 8, 5).relators[::-1], ((1,),)
        ),
    ),
]


@pytest.mark.parametrize(
    "pres", [p for _, p in SKIP_CASES], ids=[i for i, _ in SKIP_CASES]
)
def test_power_relator_reads_match_the_letter_by_letter_reads(pres):
    powers, others = _reduce_powers(pres.relators)
    enum = _Enumerator(len(pres.generators), powers, others, pres.subgroup, 100)
    # a power relator fills its gap only past a walk of more letters than
    # the others read, and keeps a record of the cosets on closed g-cycles,
    # empty before the run; every other word fills any gap and has none
    reach = sum(map(len, others))
    assert enum.words[: len(enum.powers)] == enum.powers
    cases = (
        (powers, enum.powers, reach, set()),
        (others, enum.words[len(enum.powers):], -1, None),
        (pres.subgroup, enum.subs, -1, None),
    )
    for words, reads, limit, empty in cases:
        assert len(reads) == len(words)
        for word, (fwd, back, got_limit, record) in zip(words, reads):
            letters = zip(*[enum.pairs[c] for c in _columns(word)])
            ids = [[id(col) for col in r] for r in letters]
            assert [[id(col) for col in r] for r in (fwd, back)] == ids
            assert (got_limit, record) == (limit, empty)
            assert type(record) is type(empty)
    assert powers


def enumerator(pres, cap):
    """The enumerator ``todd_coxeter`` runs on ``pres``, before its run."""
    powers, relators, subgroup, *_ = relabel(pres)
    scan = _scan_list(powers, relators)
    return _Enumerator(len(pres.generators), powers, scan, subgroup, cap)


def closed_records(enum):
    """How many live cosets the power records hold; each must be on a closed cycle.

    A recorded coset's g-cycle is closed, so its length divides m.
    """
    p, recorded = enum.p, 0
    for fwd, _, _, record in enum.powers:
        col, m = fwd[0], len(fwd)
        for a in record:
            if p[a] != a:
                continue
            c, length = col[a], 1
            while c != a:
                assert c and p[c] == c, a
                c, length = col[c], length + 1
            assert m % length == 0, (a, length)
            recorded += 1
    return recorded


def test_power_records_hold_only_cosets_on_closed_cycles():
    # G_13(0,1)'s extension at cap 8,600 compresses once and completes;
    # its records after the run are those of the pass after compression
    cases = [(pres, 1_000_000) for _, pres in SKIP_CASES]
    cases.append((extension(13, 0, 1), 8600))
    for pres, cap in cases:
        enum = enumerator(pres, cap)
        assert enum.run() is None
        assert closed_records(enum) > 0, pres
    assert enum.dropped > 0  # G_13(0,1) compressed


def test_compression_empties_the_power_records():
    # a run that gives up at its cap returns its live cosets uncompressed,
    # with its records, which hold cosets on closed cycles of a table
    # that is not complete; they name old numbers, so compression drops them
    enum = enumerator(extension(13, 0, 1), 1000)
    live = enum.run()
    assert live is not None
    assert closed_records(enum) > 0
    enum._compress(live)
    assert all(record == set() for *_, record in enum.powers)


@pytest.mark.parametrize(
    "pres", [p for _, p in SKIP_CASES], ids=[i for i, _ in SKIP_CASES]
)
def test_skipping_closed_power_cycles_matches_restart(pres):
    # the reference scans every relator at every coset; relabelling is
    # idempotent, so both enumerate this form as given; the small caps run
    # lookahead, after which HLT must start its records afresh
    form = relabelled(pres)
    lookaheads = 0
    for cap in (1_000_000, 300, 200, 60):
        got = todd_coxeter(form, max_cosets=cap)
        ref = RestartEnumerator(form, cap)
        assert (got.status, got.defined, got.rows) == ref.table(), cap
        lookaheads += ref.lookaheads
    assert lookaheads > 0


def test_skipping_closed_power_cycles_matches_restart_on_small_triples():
    count = 0
    for n in range(2, 10):
        for k in range(n):
            for l in range(n):
                if classify(n, k, l).finite:
                    form = relabelled(extension(n, k, l))
                    got = todd_coxeter(form)
                    ref = RestartEnumerator(form, 1_000_000).table()
                    assert (got.status, got.defined, got.rows) == ref, (n, k, l)
                    count += 1
    assert count == 177


def random_two_generator_presentations(seed, count):
    """(a, b : a^m [, b^k], U [, V]) over 1, <a>, <a^2> or <b>, capped at 40-2,000."""
    rng = random.Random(seed)
    letters = (1, -1, 2, -2)
    subgroups = ((), ((1,),), ((1, 1),), ((2,),))
    for _ in range(count):
        relators = [(1,) * rng.randint(1, 12)]
        if rng.random() < 0.5:
            relators.append((2,) * rng.randint(1, 8))
        for _ in range(rng.randint(1, 2)):
            relators.append(tuple(rng.choices(letters, k=rng.randint(1, 10))))
        pres = FinitePresentation(("a", "b"), tuple(relators), rng.choice(subgroups))
        yield pres, rng.randint(40, 2000)


def test_a_cap_reached_inside_the_subgroup_scan_matches_restart():
    # the subgroup word alone fills 10 cosets from coset 1, so at caps 1-9
    # the first HLT pass stops inside that scan and the run gives up; at
    # caps 10-15 it compresses once, scans the subgroup word again with
    # fill and gives up at a second lookahead
    pres = FinitePresentation.make(
        ("a", "b"), A5_RELATORS, ("a b a b B A b a B B a b",)
    )
    assert relabelled(pres) == pres
    powers, others = _reduce_powers(pres.relators)
    enum = _Enumerator(2, powers, others, pres.subgroup, 100)
    enum._scan(1, enum.subs, True)
    assert enum.defined == 10
    for cap in range(1, 16):
        got = todd_coxeter(pres, max_cosets=cap)
        ref = RestartEnumerator(pres, cap)
        assert (got.status, got.defined, got.rows) == ref.table(), cap
        assert (got.status, ref.lookaheads) == ("overflow", 1 if cap < 10 else 2), cap


def test_random_presentations_match_restart():
    # beyond the pinned cases, the one check of HLT's row fill and of a
    # power relator's fill past its limit: in this sample the row fill
    # defines cosets in 390 runs and the power fill in 150, where no
    # benchmark workload reaches either; a run resumed after lookahead
    # must match a restart too.  Relabelling is idempotent, so the run
    # enumerates this form as given, as the reference does
    compared = lookaheads = 0
    for pres, cap in random_two_generator_presentations(20, 1000):
        form = relabelled(pres)
        got = todd_coxeter(form, max_cosets=cap)
        ref = RestartEnumerator(form, cap)
        assert (got.status, got.defined, got.rows) == ref.table(), (pres, cap)
        compared += 1
        lookaheads += ref.lookaheads > 0
    assert (compared, lookaheads) == (1000, 160)


@pytest.mark.parametrize(
    "rels, sub, cap, index, defined",
    [
        (("a^5", "b^8", "b A A B"), ("a",), 1450, 8, 1450),
        (("a^6", "b^3", "B a a b a B A B a b"), (), 59, 3, 91),
    ],
    ids=["a^5 b^8 over <a>", "a^6 b^3 over 1"],
)
def test_a_run_resumed_after_lookahead_completes_where_a_restart_does(
    rels, sub, cap, index, defined
):
    # each run completes only because its lookahead scans the power
    # relators below the coset HLT was working on, and the HLT pass after
    # it scans them there again with fill, as the restart reference does
    pres = FinitePresentation.make(("a", "b"), rels, sub)
    t = todd_coxeter(pres, max_cosets=cap)
    assert (t.status, t.count, t.defined) == ("complete", index, defined)
    ref = RestartEnumerator(pres, cap)
    assert (t.status, t.defined, t.rows) == ref.table()
    assert ref.lookaheads > 0


# -- power relators scanned for deductions, closed by a final sweep ------------

@pytest.mark.parametrize(
    "rels, sub, defined",
    [
        (("a^4", "A B", "b^5"), ("a^2",), 3),
        # the sweep merges 83 cosets here
        (("b^5", "A B B A b", "a^9"), ("b",), 254),
    ],
    ids=["a^4 b^5 over <a^2>", "b^5 a^9 over <b>"],
)
def test_closing_sweep_merges_what_lazy_power_scans_left(rels, sub, defined):
    # index 1 in both; HLT ends with every row full but a power relator
    # open somewhere, and only the sweep's merges reach the index
    pres = FinitePresentation.make(("a", "b"), rels, sub)
    t = todd_coxeter(pres)
    assert (t.status, t.count, t.defined) == ("complete", 1, defined)
    ref = RestartEnumerator(pres, 1_000_000)
    assert (t.status, t.defined, t.rows) == ref.table()
    assert ref.swept > 0


@pytest.mark.parametrize(
    "pres, index",
    [
        (cyclic_pres(10_000), 10_000),
        (FinitePresentation.make(("a", "b"), ("a^10000", "b^2", "a b A b")), 20_000),
    ],
    ids=["cyclic", "dihedral"],
)
def test_long_power_relators_are_filled_once_their_paths_are_long(pres, index):
    # a power scan that walked more letters than the other relators hold
    # fills its gap; left open, a^10000 would be walked again from every
    # coset on its path (2.3 s and 6.0 s, against about 0.04 and 0.14 s)
    t0 = time.perf_counter()
    t = todd_coxeter(pres)
    assert time.perf_counter() - t0 < 0.5
    assert t.complete and t.count == index
    assert t.defined <= index + 10


@pytest.mark.parametrize("gen", [0, 1], ids=["a", "x"])
def test_audit_of_squared_runs_names_the_first_coset_a_letter_trace_does(gen):
    pres = extension(12, 8, 5)  # a^12 and W = x a^8 x a^9 x a^7, as lift writes it
    table = todd_coxeter(pres)
    # conjugate gen's pair of columns by the transposition (1 2): each
    # column stays a bijection with its inverse, but W no longer closes
    swap = list(range(table.count))
    swap[1], swap[2] = 2, 1
    cols = list(table.columns)
    for c in (2 * gen, 2 * gen + 1):
        cols[c] = tuple(swap[table.columns[c][swap[i]]] for i in range(table.count))
    bad = replace(table, columns=tuple(cols))

    def trace(i, word):
        for g in word:
            i = cols[2 * (g - 1) if g > 0 else 2 * (-g - 1) + 1][i]
        return i

    first = [
        (pres.word_text(r), i)
        for r in pres.relators
        for i in range(table.count)
        if trace(i, r) != i
    ][0]
    assert first[0] != pres.word_text(pres.relators[0])  # a^12 still closes
    message = rf"^relator {first[0]} does not close at coset {first[1]}$"
    with pytest.raises(ValueError, match=message):
        audit_table(bad, pres)


def test_a_relabelled_form_is_already_shortened():
    # todd_coxeter scans a form relabel moved without reducing it again
    moved = 0
    for n in range(2, 13):
        for k in range(n):
            for l in range(n):
                if classify(n, k, l).finite:
                    powers, relators, _, power, _, _ = relabel(extension(n, k, l))
                    if power:
                        assert _reduce_powers(powers + relators) == (powers, relators)
                        moved += 1
    assert moved > 0


# -- relabel pinned: every form, and the three-syllable search at n = 10^6 ------

# re-pinned when powers came to be decided on freely reduced relators: the
# four cases that moved have a lifted word x X a^e or X x a^e, a power of
# a shorter than a^n (n = 22, 185, 19 and 186; e = 14, 172, 12 and 18).
# Re-pinned again when the other relators came to be freely reduced as
# well, a run that vanishes modulo a^n letting its neighbours cancel: the
# 54 cases that moved all have a relator that is not freely reduced (58
# of the 6,899 do).  Re-pinned again when the reduced form became its own
# reduced form: 371 cases moved.  In 366 the one rewritten relator has no
# b left and is now y's power relator, 16 of them the extensions of the
# infinite (n, n/3, 2n/3) and (n, 2n/3, n/3) with 3 | n, such as
# G_6(2,4)'s y y y.  In the other 5 the caller's form is kept, and a power
# left among the others, of x or of a shorter than a^n, is now kept as
# the power relator (the four cases above, and x a^2 X x a^4 beside a^6)
RELABEL_DIGEST = "7a62fd68f780987a39fd47b02130beb2db0621075d47fccdd03ac1d410004404"


def extensions(nmax):
    """The extension of every triple with 2 <= n <= nmax."""
    for n in range(2, nmax + 1):
        for k in range(n):
            for l in range(n):
                yield extension(n, k, l)


def random_relabel_cases():
    """2,000 random two-generator presentations (a, x : a^n, W) over <a> or <a^2>."""
    rng = random.Random(14)
    for _ in range(2000):
        n = rng.randint(2, 200)
        text = " ".join(
            f"{rng.choice('xX')} a^{rng.randint(-n, n)}"
            for _ in range(rng.randint(1, 6))
        )
        sub = ((1,),) if rng.random() < 0.7 else ((1, 1),)
        yield replace(lift(RelativeWord.from_text(text), n), subgroup=sub)


def relabel_digest_cases():
    """Every extension with 2 <= n <= 24, then the 2,000 random cases."""
    yield from extensions(24)
    yield from random_relabel_cases()


def letters_after_relabelling(relators, g, m):
    """The letters of ``relators`` under g = b^beta, x = y b^{-d}, as a function.

    Each relator is read letter by letter as cyclic syllables x^s g^p from
    its first x; the run after x^s becomes beta p + d ([next s = -1] -
    [s = +1]), which spells its distance from 0 modulo m in b's.
    """
    syllables = []
    for w in relators:
        first = next(i for i, c in enumerate(w) if abs(c) != g)
        out = []
        for c in w[first:] + w[:first]:
            if abs(c) == g:
                out[-1][1] += 1 if c > 0 else -1
            else:
                out.append([1 if c > 0 else -1, 0])
        syllables += [
            (p, (out[(j + 1) % len(out)][0] == -1) - (s == 1))
            for j, (s, p) in enumerate(out)
        ]

    def letters(beta, d):
        return sum(min((beta * p + c * d) % m, -(beta * p + c * d) % m)
                   for p, c in syllables)

    return letters


def test_relabel_reaches_the_least_letters_over_every_beta_and_d():
    # the digest pins what relabel returns; this checks that its search,
    # which tries few d per beta and stops early, misses no shorter form
    cases = 0
    for pres in itertools.chain(extensions(16), random_relabel_cases()):
        powers, others = _reduce_powers(pres.relators)
        if len(powers) != 1 or len(powers[0]) > 40:
            continue
        g, m = abs(powers[0][0]), len(powers[0])
        if any(abs(c) != g for w in pres.subgroup for c in w):
            continue  # relabel leaves such a presentation as it is
        letters = letters_after_relabelling(others, g, m)
        least = min(
            letters(beta, d)
            for beta in range(1, max(m // 2, 1) + 1) if gcd(beta, m) == 1
            for d in range(m)
        )
        *_, beta, d = relabel(pres)
        assert letters(beta, d) == least, pres
        cases += 1
    assert cases == 1875


def test_relabel_digest():
    records = [repr(relabel(pres)) for pres in relabel_digest_cases()]
    assert len(records) == 6899
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == RELABEL_DIGEST


def test_relabel_of_a_triple_no_relabelling_shortens_is_fast():
    # a "neither B nor C" triple: the best length stays about n / 2 for
    # long, so the beta walk must stop on the best found so far
    pres = extension(10**6, 300001, 700003)
    t0 = time.perf_counter()
    _, _, _, power, beta, d = relabel(pres)
    elapsed = time.perf_counter() - t0
    assert (power, beta, d) == (1, 259997, 320009)
    assert elapsed < 2.0
