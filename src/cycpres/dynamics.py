"""Shift dynamics on G_n(w), read off coset tables of the extension.

In the split extension E presented by (a, x : a^n, W(a, x)), conjugation
by a realizes the shift on the retraction kernel G_n(rho(W, n, f)), and
the coset space E/<a> with a acting by translation is isomorphic as a
cyclic-group set to the kernel with the shift acting; the subgroup coset
is the basepoint corresponding to the identity element.  Orbit sizes and
fixed-point counts of shift powers are therefore read directly off the
permutation of a on an enumerated coset table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from .enumerate import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    FinitePresentation,
    generator_permutation,
    todd_coxeter,
)
from .relative import lift, to_relative
from .words import Word


class EnumerationIncomplete(RuntimeError):
    """Raised when an orbit analysis needs a table that did not complete.

    The group may be infinite, or the coset limit too small; either way
    the question is undecided.
    """

    def __init__(self, message: str, table: Optional[CosetTable] = None):
        super().__init__(message)
        self.table = table


@dataclass(frozen=True)
class OrbitReport:
    """Orbit statistics of the cyclic group acting on the coset space.

    ``fixed_counts[j]`` is the number of cosets fixed by a^j for
    1 <= j < n (the basepoint is always among them), and
    ``free_action_on_nonbase`` says whether every orbit other than the
    basepoint's has length exactly n.  For the finite condition-C groups
    ``fixed_counts[1]``, the count for the shift itself, is at least 3:
    the basepoint plus an invariant subgroup of order three.
    """

    n: int
    total_points: int
    cycle_type: Tuple[int, ...]
    fixed_counts: Dict[int, int]
    free_action_on_nonbase: bool


def _cycle_lengths(perm: Tuple[int, ...]) -> Tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(lengths)


def orbit_report(table: CosetTable, gen: str, n: int) -> OrbitReport:
    """Orbit statistics of one generator's permutation on a complete table.

    The generator is expected to act with order dividing n (it generates
    the copy of the cyclic group inside the extension).  Its column is
    read off as a permutation and walked once into cycle lengths; a^j
    fixes the points of the cycles whose length divides j, so
    ``fixed_counts`` is built by one loop over the multiples below n of
    each cycle length, not by a sum for each j.
    """
    perm = generator_permutation(table, gen)
    lengths = _cycle_lengths(perm)
    counts = Counter(lengths)  # cycle length -> how many cycles have it
    if any(n % c != 0 for c in counts):
        raise ValueError(
            f"orbit length not dividing {n}: cycle type {sorted(lengths)}"
        )
    fixed = dict.fromkeys(range(1, n), 0)
    for c, k in counts.items():  # a^j fixes the points of cycles whose length divides j
        for j in range(c, n, c):
            fixed[j] += c * k
    if perm[0] != 0:
        raise ValueError("basepoint coset is not fixed by the acting generator")
    counts[1] -= 1  # coset 0 is fixed: the subgroup absorbs its generator
    return OrbitReport(
        n=n,
        total_points=table.count,
        cycle_type=tuple(sorted(lengths)),
        fixed_counts=fixed,
        free_action_on_nonbase=all(c == n for c, k in counts.items() if k),
    )


def shift_orbits(
    n: int, w: Word, max_cosets: int = DEFAULT_MAX_COSETS
) -> OrbitReport:
    """Enumerate E/<a> for the extension of C_n by G_n(w) and analyze orbits.

    Fixed points of a^j correspond exactly to fixed points of the j-th
    shift power on G_n(w), the kernel of the retraction f = 0; the
    enumerated extension does not depend on which valid f names the
    kernel.  Raises EnumerationIncomplete on overflow.
    """
    if n < 2:
        raise ValueError(
            "orbit analysis needs n >= 2; for n = 1 the shift is trivial"
            " (decompose gcd > 1 cases with gcd_decompose first)"
        )
    pres = replace(lift(to_relative(w, n), n), subgroup=((1,),))
    table = todd_coxeter(pres, max_cosets=max_cosets)
    if not table.complete:
        raise EnumerationIncomplete(
            f"coset enumeration did not complete within {max_cosets} cosets"
            f" ({table.count} live, {table.defined} defined); the group may"
            " be infinite or the limit too small",
            table,
        )
    return orbit_report(table, "a", n)


# coset limit of each enumeration of K; both need far fewer
N18_MAX_COSETS = 100_000


@dataclass(frozen=True)
class N18Evidence:
    """Enumeration evidence behind the exceptional n = 18 verdict.

    The extension relevant to the exceptional triples splits over the
    group K presented by (b, u : b^6, u^2 b^3 u b^2) amalgamated along
    the order-6 subgroup generated by b.  The action of b on the cosets
    of that subgroup having fixed points besides the basepoint is what
    makes the cube of the shift fix a nonidentity element.
    """

    group_order: int
    subgroup_index: int
    b_fixed_points: int


def verify_n18_evidence() -> N18Evidence:
    """Enumerate K = (b, u : b^6, u^2 b^3 u b^2) and count fixed cosets of b.

    Expected values: |K| = 342, index of <b> is 57, and b fixes exactly
    3 of the 57 cosets.  Each run may use ``N18_MAX_COSETS`` cosets.
    """
    pres = FinitePresentation.make(("b", "u"), ("b^6", "u u b^3 u b^2"))
    full = todd_coxeter(pres, max_cosets=N18_MAX_COSETS)
    over_b = todd_coxeter(
        replace(pres, subgroup=(pres.word("b"),)), max_cosets=N18_MAX_COSETS
    )
    if not (full.complete and over_b.complete):
        raise EnumerationIncomplete("K enumeration did not complete", None)
    # b^6 = 1, so every cycle length of b divides 6
    fixed = orbit_report(over_b, "b", 6).fixed_counts[1]
    return N18Evidence(full.count, over_b.count, fixed)
