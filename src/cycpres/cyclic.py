"""Cyclic presentations P_n(w) and the three-generator family G_n(k,l).

P_n(w) has generators x_0, ..., x_{n-1} and relators w, shift(w), ...,
shift^{n-1}(w).  A presentation is orientable when w is not a cyclic
permutation of the inverse of any of its shifts.  Only the shift that a
rotation's first letter forces can match, so the test is O(|w|^2), not
O(n).  Non-orientability needs an even n = 2m; then w may decompose (letter
for letter) as u * shift^m(u)^{-1}, and that u is reported as a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import NamedTuple, Optional, Tuple

from .words import Word, concat, free_reduce, invert, shift


class CyclicPresentation:
    """n together with a nonempty, cyclically reduced defining word."""

    __slots__ = ("n", "word")

    def __new__(cls, n: int, word: Word):
        if word.n != n:
            raise ValueError(f"word modulus {word.n} does not match n={n}")
        if not word.letters:
            raise ValueError("defining word must be nonempty")
        if not word.is_cyclically_reduced:
            raise ValueError(f"defining word {word!r} is not cyclically reduced")
        return cls._unchecked(word.n, word)

    @classmethod
    def _unchecked(cls, n: int, word: Word) -> "CyclicPresentation":
        """The presentation on ``word``, a nonempty cyclically reduced Word
        of modulus n, checking nothing."""
        p = object.__new__(cls)
        p.n = n
        p.word = word
        return p

    def __getnewargs__(self):
        return self.n, self.word

    @property
    def relators(self) -> Tuple[Word, ...]:
        """The n shifts of the defining word, built when asked for."""
        return tuple(shift(self.word, i) for i in range(self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclicPresentation)
            and self.n == other.n
            and self.word == other.word
        )

    def __hash__(self) -> int:
        return hash((self.n, self.word))

    def __repr__(self) -> str:
        return f"P_{self.n}({self.word})"


@dataclass(init=False, repr=False, eq=False)  # for dataclasses.replace and fields
class OrientabilityVerdict(NamedTuple):
    """Outcome of the orientability test.

    When non-orientable and w itself has the half-word shape, ``witness``
    is a pair (u, m) with n = 2m and u * shift^m(u)^{-1} freely equal to
    w.  Non-orientable words that are only a nontrivial cyclic rotation
    of such a shape carry no witness.  Every orientable presentation gets
    the same verdict object.
    """

    orientable: bool
    witness: Optional[Tuple[Word, int]] = None


_ORIENTABLE = OrientabilityVerdict(True)


def gnkl(n: int, k: int, l: int) -> CyclicPresentation:
    """The presentation P_n(x_0 x_k x_l) defining G_n(k, l)."""
    n = index(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    # every letter is positive, so the word is cyclically reduced
    word = Word._unchecked(n, ((0, 1), (index(k) % n, 1), (index(l) % n, 1)))
    return CyclicPresentation._unchecked(n, word)


def orientability(pres: CyclicPresentation) -> OrientabilityVerdict:
    """Test whether w is a cyclic permutation of an inverted shift of w."""
    w, n = pres.word, pres.n
    a = w.letters
    sign = a[0][1]
    for _, s in a:
        if s != sign:
            break
    else:
        return _ORIENTABLE  # every inverted shift has only the other sign
    b = [(i, -s) for i, s in reversed(a)]
    i0, s0 = b[0]
    if not any(
        s == s0 and a[r:] + a[:r] == tuple(((j + i - i0) % n, t) for j, t in b)
        for r, (i, s) in enumerate(a)
    ):
        return _ORIENTABLE
    witness = None
    length = len(w)
    if n % 2 == 0 and length % 2 == 0:
        m = n // 2
        u = Word._unchecked(n, w.letters[: length // 2])
        if free_reduce(concat(u, invert(shift(u, m)))) == w:
            witness = (u, m)
    return OrientabilityVerdict(False, witness)


def gcd_decompose(n: int, k: int, l: int) -> Tuple[int, Tuple[int, int, int]]:
    """d = gcd(n, k, l) and the reduced triple (n/d, k/d, l/d).

    P_n(k,l) is a disjoint union of d copies of the reduced presentation,
    so G_n(k,l) is the free product of d copies of G_{n/d}(k/d, l/d).
    gcd(n, 0, 0) is n, making P_n(0,0) reduce to the single cube relator
    presentation of the cyclic group of order three.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    k %= n
    l %= n
    d = math.gcd(n, k, l)
    return d, (n // d, k // d, l // d)
