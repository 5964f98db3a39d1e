"""Classification of the groups G_n(k,l) = G(P_n(x_0 x_k x_l)).

Everything here is integer arithmetic on the parameter triple; the
enumeration-backed verification of these verdicts lives in ``dynamics``.
The classification is organized around three divisibility conditions
(all congruences modulo n unless stated otherwise):

    A: 3 | n and 3 | k+l
    B: n | k+l  or  n | 2k-l  or  n | 2l-k
    C: n | 3k   or  n | 3l    or  n | 3(k-l)

together with the reduction d = gcd(n,k,l) > 1, under which P_n(k,l) is
a disjoint union of d copies of P_{n/d}(k/d, l/d) and G_n(k,l) is the
free product of d copies of the reduced group.

Two global facts tie the verdict fields together and are asserted on
every classification: the shift acts freely on the nonidentity elements
exactly when the presentation is combinatorially aspherical
(free_shift == ca), and the group is finite exactly when the shift has
a nonidentity fixed point (theta_fixed == finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple


class Conditions(NamedTuple):
    A: bool
    B: bool
    C: bool


def conditions(n: int, k: int, l: int) -> Conditions:
    """The divisibility conditions for the triple, mod-n arithmetic."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    k %= n
    l %= n
    a = n % 3 == 0 and (k + l) % 3 == 0
    b = (k + l) % n == 0 or (2 * k - l) % n == 0 or (2 * l - k) % n == 0
    c = (3 * k) % n == 0 or (3 * l) % n == 0 or (3 * (k - l)) % n == 0
    return Conditions(a, b, c)


@dataclass(frozen=True)
class Classification:
    """Verdict record for one parameter triple.

    ``order`` is populated only when the closed formula 2^n - (-1)^n
    applies (condition C finite cases); finite groups in the condition B
    branch get their order from coset enumeration, not from a formula.
    """

    n: int
    k: int
    l: int
    d: int
    conditions: Conditions
    finite: bool
    order: Optional[int]
    ca: bool
    free_shift: bool
    theta_fixed: bool
    exceptional_n18: bool
    branch: str
    structure_note: str


def order_formula(n: int) -> str:
    """The closed order formula 2^n - (-1)^n, written out for this n.

    The decimal order of G_n(0,1) has about 0.3 n digits, so it passes
    Python's int-to-str digit limit (4,300 by default) near n = 14,300;
    the formula prints at every n.
    """
    return f"2^{n} - (-1)^{n}"


def classify(n: int, k: int, l: int) -> Classification:
    """Full verdict for G_n(k,l): finiteness, asphericity, shift dynamics."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    k %= n
    l %= n
    cond = conditions(n, k, l)
    d = math.gcd(n, k, l)

    if n == 1:
        # single generator with relator x_0^3: the cyclic group of order
        # three; the shift is trivial, so it fixes nonidentity elements
        # and (vacuously) acts freely
        cls = Classification(
            n, k, l, 1, cond,
            finite=True, order=3, ca=True, free_shift=True, theta_fixed=True,
            exceptional_n18=False, branch="n=1",
            structure_note="cyclic of order 3",
        )
    elif d > 1:
        sub = classify(n // d, k // d, l // d)
        note = (
            f"free product of {d} copies of G_{n // d}({k // d},{l // d})"
            f" [{sub.structure_note}]; shift powers fix nonidentity elements"
            f" only at exponents divisible by {d}"
        )
        cls = Classification(
            n, k, l, d, cond,
            finite=False, order=None, ca=sub.ca, free_shift=sub.free_shift,
            theta_fixed=False, exceptional_n18=False, branch="gcd",
            structure_note=note,
        )
    elif cond.B:
        if n == 3:
            cls = Classification(
                n, k, l, 1, cond,
                finite=False, order=None, ca=True, free_shift=True,
                theta_fixed=False, exceptional_n18=False, branch="B, n=3",
                structure_note="free of rank two",
            )
        elif n % 3 == 0:
            cls = Classification(
                n, k, l, 1, cond,
                finite=False, order=None, ca=False, free_shift=False,
                theta_fixed=False, exceptional_n18=False, branch="B, 3|n",
                structure_note=(
                    "free of rank two; shift has order 3 and is fixed-point free"
                ),
            )
        else:
            cls = Classification(
                n, k, l, 1, cond,
                finite=True, order=None, ca=False, free_shift=False,
                theta_fixed=True, exceptional_n18=False, branch="B, 3 does not divide n",
                structure_note=(
                    "finite cyclic; the shift is trivial"
                    " (order via coset enumeration, no closed formula)"
                ),
            )
    elif cond.C:
        if not cond.A:
            shape = "cyclic" if n % 3 != 0 else "metacyclic"
            cls = Classification(
                n, k, l, 1, cond,
                finite=True, order=2 ** n - (-1) ** n, ca=False, free_shift=False,
                theta_fixed=True, exceptional_n18=False, branch="C, A fails",
                structure_note=(
                    f"{shape} of order {order_formula(n)};"
                    " the shift fixes a subgroup of order three"
                ),
            )
        else:
            cls = Classification(
                n, k, l, 1, cond,
                finite=False, order=None, ca=False, free_shift=False,
                theta_fixed=False, exceptional_n18=False, branch="C, A holds",
                structure_note=(
                    "infinite; a retraction kernel is a G_n(0,p) with gcd(p,n) = 3"
                ),
            )
    else:
        if n == 18 and (k + l) % 3 == 0:
            cls = Classification(
                n, k, l, 1, cond,
                finite=False, order=None, ca=False, free_shift=False,
                theta_fixed=False, exceptional_n18=True, branch="exceptional n=18",
                structure_note=(
                    "free product of a free group of rank two and a cyclic group"
                    " of order 19; the shift is fixed-point free but its cube"
                    " fixes a nonidentity element"
                ),
            )
        else:
            cls = Classification(
                n, k, l, 1, cond,
                finite=False, order=None, ca=True, free_shift=True,
                theta_fixed=False, exceptional_n18=False, branch="neither B nor C",
                structure_note=(
                    "infinite and torsion-free; aspherical cellular model,"
                    " shift acts freely"
                ),
            )

    assert cls.free_shift == cls.ca, cls
    assert cls.theta_fixed == cls.finite, cls
    return cls


def sweep(nmax: int):
    """Classify every triple with 1 <= n <= nmax, 0 <= k,l < n."""
    for n in range(1, nmax + 1):
        for k in range(n):
            for l in range(n):
                yield classify(n, k, l)


def reduce_to_0p(n: int, k: int, l: int) -> Optional[Tuple[int, int]]:
    """Exhibit G_n(k,l) as commensurable with G_n(0,p) under condition C.

    Returns (p, f) where the retraction with exponent f rewrites the
    relator to the defining word of P_n(0, p) (up to rotation):

      - n | 3k:     f = -k,   the rewritten word is x_0 x_0 x_{l-2k}
      - n | 3l:     f = l,    the rewritten word rotates to x_0 x_0 x_{k+l}
      - n | 3(k-l): f = k-l,  the rewritten word rotates to x_0 x_0 x_{l-2k}

    gcd(p, n) is 1 when condition A fails and 3 when it holds.  Returns
    None when condition C fails; requires gcd(n,k,l) = 1.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    k %= n
    l %= n
    if math.gcd(n, k, l) != 1:
        raise ValueError(
            f"reduce_to_0p needs gcd(n,k,l) = 1, got gcd = {math.gcd(n, k, l)}"
        )
    if (3 * k) % n == 0:
        return (l - 2 * k) % n, (-k) % n
    if (3 * l) % n == 0:
        return (k + l) % n, l % n
    if (3 * (k - l)) % n == 0:
        return (l - 2 * k) % n, (k - l) % n
    return None
