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

Two global facts tie the shift dynamics to the verdicts, so the shift
facts are derived from them rather than stored and checked: the shift
acts freely on the nonidentity elements exactly when the presentation is
combinatorially aspherical (``free_shift`` is ``ca``), and the group is
finite exactly when the shift has a nonidentity fixed point
(``theta_fixed`` is ``finite``).
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
    return _conditions(n, k % n, l % n)


def _conditions(n: int, k: int, l: int) -> Conditions:
    """``conditions`` for a valid n and k, l already reduced mod n."""
    a = n % 3 == 0 and (k + l) % 3 == 0
    b = (k + l) % n == 0 or (2 * k - l) % n == 0 or (2 * l - k) % n == 0
    c = (3 * k) % n == 0 or (3 * l) % n == 0 or (3 * (k - l)) % n == 0
    return Conditions(a, b, c)


@dataclass(init=False, repr=False, eq=False)  # for dataclasses.replace and fields
class Classification(NamedTuple):
    """Verdict record for one parameter triple.

    ``order`` is derived only when a closed formula applies: 3 for n = 1
    and 2^n - (-1)^n in the condition C finite cases; finite groups in the
    condition B branch get their order from coset enumeration.
    """

    n: int
    k: int
    l: int
    d: int
    conditions: Conditions
    finite: bool
    ca: bool
    exceptional_n18: bool
    branch: str
    structure_note: str

    @property
    def order_formula(self) -> Optional[str]:
        """The closed order formula 2^n - (-1)^n written out, or None.

        The decimal order of G_n(0,1) has about 0.3 n digits, so it passes
        Python's int-to-str digit limit (4,300 by default) near n = 14,300;
        the formula prints at every n.
        """
        if self.branch in ("n=1", "C, A fails"):  # 2^1 + 1 = 3 at n = 1
            return f"2^{self.n} - (-1)^{self.n}"
        return None

    @property
    def order(self) -> Optional[int]:
        """The order where ``order_formula`` gives one, built only when read.

        At n = 10^9 the int takes 125 MB.
        """
        return None if self.order_formula is None else 2 ** self.n - (-1) ** self.n

    @property
    def free_shift(self) -> bool:
        """The shift acts freely on nonidentity elements: exactly when CA."""
        return self.ca

    @property
    def theta_fixed(self) -> bool:
        """The shift fixes a nonidentity element: exactly when finite."""
        return self.finite


# branch -> (finite, ca, structure note), for every branch but "gcd", whose
# ca and note come from the reduced triple.  For n = 1 the group is cyclic
# of order three and the shift is trivial, so it fixes nonidentity
# elements and (vacuously) acts freely.
_VERDICTS = {
    "n=1": (True, True, "cyclic of order 3"),
    "B, n=3": (False, True, "free of rank two"),
    "B, 3|n": (
        False, False,
        "free of rank two; shift has order 3 and is fixed-point free",
    ),
    "B, 3 does not divide n": (
        True, False,
        "finite cyclic; the shift is trivial"
        " (order via coset enumeration, no closed formula)",
    ),
    "C, A fails": (
        True, False,
        "{shape} of order 2^{n} - (-1)^{n}; the shift fixes a subgroup of order three",
    ),
    "C, A holds": (
        False, False,
        "infinite; a retraction kernel is a G_n(0,p) with gcd(p,n) = 3",
    ),
    "exceptional n=18": (
        False, False,
        "free product of a free group of rank two and a cyclic group"
        " of order 19; the shift is fixed-point free but its cube"
        " fixes a nonidentity element",
    ),
    "neither B nor C": (
        False, True,
        "infinite and torsion-free; aspherical cellular model,"
        " shift acts freely",
    ),
}


def classify(n: int, k: int, l: int) -> Classification:
    """Full verdict for G_n(k,l): finiteness, asphericity, shift dynamics."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    k %= n
    l %= n
    cond = _conditions(n, k, l)
    d = math.gcd(n, k, l)

    if n == 1:
        branch = "n=1"
    elif d > 1:
        branch = "gcd"
    elif cond.B and n % 3:
        branch = "B, 3 does not divide n"
    elif cond.B:
        branch = "B, n=3" if n == 3 else "B, 3|n"
    elif cond.C:
        branch = "C, A holds" if cond.A else "C, A fails"
    elif n == 18 and (k + l) % 3 == 0:
        branch = "exceptional n=18"
    else:
        branch = "neither B nor C"

    if branch == "gcd":
        sub = classify(n // d, k // d, l // d)
        finite, ca = False, sub.ca
        note = (
            f"free product of {d} copies of G_{n // d}({k // d},{l // d})"
            f" [{sub.structure_note}]; shift powers fix nonidentity elements"
            f" only at exponents divisible by {d}"
        )
    else:
        finite, ca, note = _VERDICTS[branch]
    if branch == "C, A fails":
        note = note.format(shape="cyclic" if n % 3 else "metacyclic", n=n)
    return Classification(
        n, k, l, d, cond, finite, ca, branch == "exceptional n=18", branch, note
    )


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
