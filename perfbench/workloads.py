"""The three workloads: their inputs, their operations and the checks.

An operation is a pair of functions.  ``run(sp)`` makes the library
calls and is the only part that is timed; ``sp(name)`` opens a span (or
nothing, with tracing off).  ``check(result)`` runs after the timer
stops and returns the cosets defined, the tables completed and a list of
errors found by the oracle.

Membership of finite_sweep and capped_enum is fixed, so the work counts
are exact on every seed; the seed sets the order of their operations.
The seed draws the verdicts triples with n >= 9, the same number for
every n.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, List, NamedTuple, Optional, Tuple

from cycpres.cyclic import gnkl, orientability
from cycpres.dynamics import orbit_report, verify_n18_evidence
from cycpres.enumerate import audit_table, todd_coxeter
from cycpres.relative import lift, rho, to_relative, valid_retractions
from cycpres.taxonomy import classify
from cycpres.words import parse_word

from oracle import (
    N18_EXPECTED,
    check_classification,
    check_complete_table,
    check_orbit_report,
    check_overflow,
    expected,
    retraction_exponents,
    rho_closed_form,
    symmetric_images,
    triples,
)

DEFAULT_CAP = 1_000_000  # the library's default, as shift_orbits uses it
CAP = 3000  # capped_enum: a few thousand live rows
POOL_SEED = 2010  # fixes the infinite triples of capped_enum, independent of --seed
INFINITE_PER_BRANCH = 6
VERDICT_PER_N = 50  # triples drawn for each 9 <= n <= 60
ENUM_NMAX = 8  # verdicts enumerates finite triples up to this n

WORKLOADS = ("finite_sweep", "capped_enum", "verdicts")


class Checked(NamedTuple):
    defined: int
    decided: int
    errors: List[str]
    shape: Optional[Tuple] = None  # (index, cycle type) of a complete table


class Op(NamedTuple):
    key: Tuple
    run: Callable
    check: Callable


def extension(n: int, k: int, l: int):
    """The presentation shift_orbits enumerates: E = (a, x : a^n, W) over <a>."""
    W = to_relative(gnkl(n, k, l).word, n)
    return replace(lift(W, n), subgroup=((1,),))


# -- enumerate E/<a> -----------------------------------------------------------


def _enumerate(sp, pres, n: int, cap: int):
    with sp("enumerate.todd_coxeter") as s:
        table = todd_coxeter(pres, max_cosets=cap)
    report = None
    if table.complete:
        with sp("dynamics.orbit_report"):
            report = orbit_report(table, "a", n)
    if s is not None:
        s.counts.update(defined=table.defined, count=table.count,
                        complete=table.complete)
        if table.complete:
            # traced runs only; run.py leaves this span out of the overhead
            with sp("enumerate.audit_table"):
                audit_table(table, pres)
    return table, report


def _check_enumeration(t, cap: int, must_complete: bool, result) -> Checked:
    n, k, l = t
    table, report = result
    exp = expected(n, k, l)
    if table.complete:
        if not exp.finite:
            errors = ["completed on an infinite group"]
        else:
            errors = check_complete_table(table, n, k, l, exp.order)
            errors += check_orbit_report(report, table, n, exp.finite)
    elif must_complete:
        errors = [f"did not complete within {cap} cosets"]
    else:
        errors = check_overflow(table, cap)  # undecided is a correct answer
    shape = (table.count, report.cycle_type) if report is not None else None
    return Checked(table.defined, int(table.complete), errors, shape)


def enumeration_op(t, cap: int, must_complete: bool) -> Op:
    pres = extension(*t)

    def run(sp):
        return _enumerate(sp, pres, t[0], cap)

    def check(result):
        c = _check_enumeration(t, cap, must_complete, result)
        return c._replace(errors=[f"{t}: {e}" for e in c.errors])

    return Op(t, run, check)


# -- verdicts -------------------------------------------------------------------


def verdict_op(t) -> Op:
    n, k, l = t
    text = f"x0 x{k} x{l}"
    exp = expected(n, k, l)
    enumerate_it = exp.finite and n <= ENUM_NMAX

    def run(sp):
        with sp("words.parse_word"):
            w = parse_word(text, n)
        with sp("taxonomy.classify"):
            cls = classify(n, k, l)
        with sp("cyclic.orientability"):
            ori = orientability(gnkl(n, k, l))
        with sp("relative.to_relative"):
            W = to_relative(w, n)
        with sp("relative.valid_retractions"):
            rets = valid_retractions(W, n)
        rhos = []
        for r in rets:
            with sp("relative.rho"):
                rhos.append((r.f, rho(W, n, r.f)))
        enum = None
        if enumerate_it:
            with sp("relative.lift"):
                pres = replace(lift(W, n), subgroup=((1,),))
            enum = _enumerate(sp, pres, n, DEFAULT_CAP)
        return w, cls, ori, W, rhos, enum

    def check(result):
        w, cls, ori, W, rhos, enum = result
        errors = check_classification(cls, exp)
        if w.letters != ((0, 1), (k, 1), (l, 1)):
            errors.append(f"parse_word gave {w}")
        if not ori.orientable:
            errors.append("P_n(k,l) reported non-orientable")
        if tuple((e, p % n) for e, p in W.syllables) != (
            (1, k), (1, (l - k) % n), (1, (-l) % n)
        ):
            errors.append(f"to_relative gave {W}")
        if [f for f, _ in rhos] != retraction_exponents(n):
            errors.append(f"retractions {[f for f, _ in rhos]}")
        for f, word in rhos:
            if word.letters != rho_closed_form(n, k, l, f):
                errors.append(f"rho at f={f} gave {word}")
        defined = decided = 0
        if enum is not None:
            c = _check_enumeration(t, DEFAULT_CAP, True, enum)
            defined, decided = c.defined, c.decided
            errors += c.errors
        return Checked(defined, decided, [f"{t}: {e}" for e in errors])

    return Op(t, run, check)


def n18_op() -> Op:
    def run(sp):
        with sp("dynamics.verify_n18_evidence"):
            return verify_n18_evidence()

    def check(ev):
        got = (ev.group_order, ev.subgroup_index, ev.b_fixed_points)
        errors = [] if got == N18_EXPECTED else [f"n=18 evidence {got}"]
        return Checked(0, 0, errors)

    return Op(("n18",), run, check)


# -- inputs ---------------------------------------------------------------------


def finite_sweep_triples() -> List[Tuple[int, int, int]]:
    return [t for t in triples(2, 12) if expected(*t).finite]


def capped_triples() -> List[Tuple[int, int, int]]:
    """Finite C triples with n in 10..12, plus infinite triples of every branch.

    Every finite one needs more than CAP rows in a plain HLT run, so each
    reaches the cap and runs lookahead; only those with n = 10 or 11 can
    complete at all, since the n = 12 groups have order 4,095.
    """
    finite = [t for t in triples(10, 12) if expected(*t).branch == "C finite"]
    rng = random.Random(POOL_SEED)
    infinite = []
    for branch, ns in (("neither", range(9, 19)), ("gcd", range(9, 19)),
                       ("B 3|n", (9, 12, 15, 18)), ("C with A", (12, 15)),
                       ("n=18", (18,))):
        pool = [t for n in ns for t in triples(n, n) if expected(*t).branch == branch]
        infinite += rng.sample(pool, INFINITE_PER_BRANCH)
    return finite + infinite


def verdict_triples(seed: int) -> List[Tuple[int, int, int]]:
    rng = random.Random(seed)
    chosen = list(triples(2, ENUM_NMAX))
    for n in range(ENUM_NMAX + 1, 61):
        for i in rng.sample(range(n * n), VERDICT_PER_N):
            chosen.append((n, i // n, i % n))
    return chosen


def build(workload: str, seed: int) -> List[Op]:
    """The operations of one pass, in the seed's order."""
    if workload == "finite_sweep":
        ops = [enumeration_op(t, DEFAULT_CAP, True) for t in finite_sweep_triples()]
    elif workload == "capped_enum":
        ops = [enumeration_op(t, CAP, False) for t in capped_triples()]
    elif workload == "verdicts":
        ops = [verdict_op(t) for t in verdict_triples(seed)] + [n18_op()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def probe_ops() -> List[Op]:
    """A fixed set that touches every layer; traced runs add it to the pass."""
    ops = [verdict_op(t) for t in triples(7, 7)] + [n18_op()]
    ops += [enumeration_op(t, CAP, False) for t in ((9, 0, 3), (10, 1, 3))]
    return ops


def symmetry_errors(summary) -> List[str]:
    """Triples related by a symmetry must share index and cycle type.

    ``summary`` maps each complete triple to (index, cycle type).
    """
    errors = []
    for t, got in summary.items():
        for u in symmetric_images(*t):
            if u in summary and summary[u] != got:
                errors.append(f"{t} and {u} differ: {got} vs {summary[u]}")
    return errors
