"""The benchmark's own oracle, kept apart from the library.

Nothing here imports cycpres.  The branch conditions of the G_n(k,l)
classification (Edjvet and Williams, Groups Geom. Dyn. 4, 2010) are
restated independently, expected group orders come from closed forms,
and coset tables are checked by tracing relators with this module's own
code, never with ``audit_table``.

A table is read through its public layout only: ``rows[c][2*i]`` is the
image of coset c under generator i and ``rows[c][2*i + 1]`` under its
inverse, cosets numbered from 0.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

Triple = Tuple[int, int, int]

# verify_n18_evidence: |K| = 342, index of <b> is 57, b fixes 3 cosets
N18_EXPECTED = (342, 57, 3)


class Expected(NamedTuple):
    branch: str  # "n=1" "gcd" "B finite" "B 3|n" "C finite" "C with A" "n=18" "neither"
    finite: bool
    order: Optional[int]  # group order when finite
    ca: bool  # combinatorially aspherical


def expected(n: int, k: int, l: int) -> Expected:
    """Verdict for G_n(k,l) from the divisibility conditions alone.

    A: 3 | n and 3 | k+l;  B: n | k+l, 2k-l or 2l-k;  C: n | 3k, 3l or
    3(k-l).  For B with 3 not dividing n the order is 3: with y_j = x_{jk}
    the relators force y_{j+3} = y_j.  For C without A it is 2^n - (-1)^n.
    """
    k %= n
    l %= n
    if n == 1:
        return Expected("n=1", True, 3, True)
    d = math.gcd(n, k, l)
    if d > 1:
        # free product of d >= 2 copies of a nontrivial group
        return Expected("gcd", False, None, expected(n // d, k // d, l // d).ca)
    a = n % 3 == 0 and (k + l) % 3 == 0
    b = any(v % n == 0 for v in (k + l, 2 * k - l, 2 * l - k))
    c = any(v % n == 0 for v in (3 * k, 3 * l, 3 * (k - l)))
    if b:
        if n % 3:
            return Expected("B finite", True, 3, False)
        return Expected("B 3|n", False, None, n == 3)
    if c:
        if not a:
            return Expected("C finite", True, 2 ** n - (-1) ** n, False)
        return Expected("C with A", False, None, False)
    if n == 18 and (k + l) % 3 == 0:
        return Expected("n=18", False, None, False)
    return Expected("neither", False, None, True)


def triples(nmin: int, nmax: int):
    for n in range(nmin, nmax + 1):
        for k in range(n):
            for l in range(n):
                yield n, k, l


def symmetric_images(n: int, k: int, l: int) -> List[Triple]:
    """Triples whose G_n is isomorphic to G_n(k,l) with a matching shift.

    (ak, al) for a unit a mod n relabels x_i -> x_{ai}; (l-k, -k) rotates
    the relator; (k-l, -l) inverts every generator.
    """
    out = [(n, (a * k) % n, (a * l) % n) for a in range(1, n) if math.gcd(a, n) == 1]
    out.append((n, (l - k) % n, (-k) % n))
    out.append((n, (k - l) % n, (-l) % n))
    return out


# -- the extension E = (a, x : a^n, x a^k x a^{l-k} x a^{-l}) ---------------

A, A_INV, X, X_INV = 0, 1, 2, 3  # table columns for generators ("a", "x")


def _power(col: int, e: int) -> List[int]:
    return [col] * e if e >= 0 else [col ^ 1] * -e


def extension_relators(n: int, k: int, l: int) -> List[List[int]]:
    """Relators of E as column sequences, with exponents as written."""
    w = [X] + _power(A, k) + [X] + _power(A, l - k) + [X] + _power(A, -l)
    return [_power(A, n), w]


def _word_permutation(columns: Sequence[Sequence[int]], cols: Sequence[int]) -> List[int]:
    """Where each coset goes under a word: all cosets traced at once."""
    image = list(range(len(columns[0])))
    for c in cols:
        col = columns[c]
        image = [col[i] for i in image]
    return image


def check_complete_table(table, n: int, k: int, l: int, order: int) -> List[str]:
    """Errors found in a complete table of E over <a>; empty when sound."""
    errors: List[str] = []
    rows = table.rows
    if tuple(table.generators) != ("a", "x"):
        return [f"generators {table.generators} are not (a, x)"]
    if table.count != len(rows):
        errors.append(f"count {table.count} != {len(rows)} rows")
    if len(rows) != order:
        errors.append(f"index {len(rows)} != expected order {order}")
    identity = list(range(len(rows)))
    columns = [[row[c] for row in rows] for c in range(4)]
    for c, col in enumerate(columns):
        if sorted(col) != identity:
            return errors + [f"column {c} is not a permutation"]
        if _word_permutation(columns, (c, c ^ 1)) != identity:
            return errors + [f"column {c} and its inverse disagree"]
    for rel in extension_relators(n, k, l):
        if _word_permutation(columns, rel) != identity:
            return errors + ["a relator does not close at every coset"]
    if rows[0][A] != 0:
        errors.append("a does not fix the subgroup coset")
    return errors


def cycle_lengths(perm: Sequence[int]) -> List[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def check_orbit_report(report, table, n: int, finite: bool) -> List[str]:
    """Errors in an orbit report of a's permutation on a complete table."""
    errors: List[str] = []
    lengths = cycle_lengths([row[A] for row in table.rows])
    if any(n % c for c in lengths):
        errors.append(f"cycle length not dividing {n}: {sorted(lengths)}")
    if tuple(report.cycle_type) != tuple(sorted(lengths)):
        errors.append(f"cycle type {report.cycle_type} != {sorted(lengths)}")
    if report.total_points != len(table.rows):
        errors.append("total points differ from the index")
    fixed: Dict[int, int] = {
        j: sum(c for c in lengths if j % c == 0) for j in range(1, n)
    }
    if dict(report.fixed_counts) != fixed:
        errors.append("fixed counts differ from the cycle lengths")
    if (fixed.get(1, 0) >= 2) != finite:
        errors.append(f"theta fixes {fixed.get(1, 0)} points on a finite={finite} group")
    nonbase = sorted(lengths)
    if 1 not in nonbase:
        return errors + ["the basepoint is not a fixed point"]
    nonbase.remove(1)
    if report.free_action_on_nonbase != all(c == n for c in nonbase):
        errors.append("free_action_on_nonbase disagrees with the cycle lengths")
    return errors


def check_overflow(table, cap: int) -> List[str]:
    if table.status != "overflow":
        return [f"status {table.status!r} on a group that cannot complete"]
    if not 0 < table.count <= cap or table.count != len(table.rows):
        return [f"overflow with {table.count} live rows under cap {cap}"]
    return []


# -- words and classification ---------------------------------------------


def rho_closed_form(n: int, k: int, l: int, f: int) -> Tuple[Tuple[int, int], ...]:
    """rho(x a^k x a^{l-k} x a^{-l}, n, f) = x_0 x_{f+k} x_{2f+l}, as letters."""
    return ((0, 1), ((f + k) % n, 1), ((2 * f + l) % n, 1))


def retraction_exponents(n: int) -> List[int]:
    """f with 3f = 0 mod n: the a-exponents of x a^k x a^{l-k} x a^{-l} sum to 0."""
    return [f for f in range(n) if (3 * f) % n == 0]


def check_classification(cls, exp: Expected) -> List[str]:
    errors = []
    if cls.finite != exp.finite or cls.ca != exp.ca:
        errors.append(f"finite/ca {cls.finite}/{cls.ca} != {exp.finite}/{exp.ca}")
    if cls.free_shift != cls.ca or cls.theta_fixed != cls.finite:
        errors.append("free_shift/theta_fixed disagree with ca/finite")
    if cls.exceptional_n18 != (exp.branch == "n=18"):
        errors.append("exceptional n=18 flag wrong")
    if exp.branch == "C finite" and cls.order != exp.order:
        errors.append(f"order {cls.order} != {exp.order}")
    return errors
