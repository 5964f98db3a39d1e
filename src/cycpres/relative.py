"""Relative presentations (C_n, x : W) and the retraction-kernel rewriting.

A relative word lives in the free product of the cyclic group of order n
(generated by a) with an infinite cyclic group generated by x.  It is
stored x-first as syllables (e_i, p_i) meaning

    W = x^{e_1} a^{p_1} x^{e_2} a^{p_2} ... x^{e_L} a^{p_L},

with e_i = +-1 and the a-exponents arbitrary integers compared modulo n.
The group E presented by (a, x : a^n, W) retracts onto the cyclic
subgroup generated by a exactly for the f with e*f + p = 0 (mod n), e and
p being the exponent sums of x and a in W; valid_retractions solves this
congruence.  For each such f the kernel is cyclically presented on the
defining word rho(W, n, f), and conjugation by a realizes the shift on it.

Text grammar: whitespace-separated tokens ``x``, ``X`` (= x^{-1}),
``a`` and ``A`` (= a^{+-1}), and ``a^`` followed by an optional ``-`` and
decimal digits (``str.isdecimal``, the rule ``parse_word`` uses for
indices), e.g. ``x a^2 X a^-1``.  So ``a^+2`` and ``a^1_0`` are refused.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from operator import index
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .enumerate import FinitePresentation
from .words import Word

Syllable = Tuple[int, int]  # (x-sign +1/-1, a-exponent)


class RelativeWord:
    """Cyclic-product word x^{e_1}a^{p_1}...x^{e_L}a^{p_L}, stored x-first.

    Words with no x-letter cannot be represented (L >= 1 is required).
    Exponents must be ints (anything ``operator.index`` accepts); floats
    and strings raise TypeError.  The exponent sums ``epsilon_sum`` (of x)
    and ``p_sum`` (of a) are computed once, at construction.

    >>> W = RelativeWord.from_text("x a^2 x a^2")
    >>> W.syllables, W.epsilon_sum, W.p_sum
    (((1, 2), (1, 2)), 2, 4)
    """

    __slots__ = ("syllables", "epsilon_sum", "p_sum")

    def __new__(cls, syllables: Iterable[Syllable]):
        syl = tuple([(index(e), index(p)) for e, p in syllables])
        if not syl:
            raise ValueError("a relative word needs at least one x syllable")
        for e, _ in syl:
            if e not in (1, -1):
                raise ValueError(f"x-exponent must be +1 or -1, got {e}")
        return cls._unchecked(syl)

    @classmethod
    def _unchecked(cls, syllables: Tuple[Syllable, ...]) -> "RelativeWord":
        """The word on ``syllables`` as given, checking nothing.

        For callers whose data is valid by construction: a nonempty tuple
        of int pairs (e, p) with e = +-1.  Only the sums are computed.
        """
        eps = total = 0
        for e, p in syllables:
            eps += e
            total += p
        W = object.__new__(cls)
        W.syllables = syllables
        W.epsilon_sum = eps
        W.p_sum = total
        return W

    def __getnewargs__(self):
        return (self.syllables,)

    @classmethod
    def from_text(cls, text: str) -> "RelativeWord":
        syllables: List[List[int]] = []
        # a leading coefficient goes onto the last syllable (conjugation
        # does not change the presented group)
        lead = 0
        for tok in text.split():
            if tok in ("x", "X"):
                syllables.append([1 if tok == "x" else -1, 0])
                continue
            if tok in ("a", "A"):
                p = 1 if tok == "a" else -1
            elif tok.startswith("a^") and tok[2:].removeprefix("-").isdecimal():
                p = int(tok[2:])
            else:
                raise ValueError(f"bad relative-word token {tok!r}")
            if syllables:
                syllables[-1][1] += p
            else:
                lead += p
        if not syllables:
            raise ValueError("a relative word needs at least one x letter")
        syllables[-1][1] += lead
        return cls._unchecked(tuple(map(tuple, syllables)))

    def reduced(self, n: int) -> "RelativeWord":
        """Copy with all a-exponents normalized into [0, n)."""
        return RelativeWord((e, p % n) for e, p in self.syllables)

    def __eq__(self, other) -> bool:
        return isinstance(other, RelativeWord) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __repr__(self) -> str:
        return f"RelativeWord({str(self)!r})"

    def __str__(self) -> str:
        parts = []
        for e, p in self.syllables:
            parts.append("x" if e > 0 else "X")
            if p:
                parts.append(f"a^{p}")
        return " ".join(parts)


@dataclass(init=False, repr=False, eq=False)  # for dataclasses.replace and fields
class Retraction(NamedTuple):
    """A valid retraction exponent f, with the witnessing exponent sums."""

    f: int
    epsilon_sum: int
    p_sum: int


def valid_retractions(W: RelativeWord, n: int) -> Tuple[Retraction, ...]:
    """All f in [0, n) with epsilon_sum * f + p_sum = 0 (mod n).

    >>> [r.f for r in valid_retractions(RelativeWord.from_text("x x a^9 x a^6"), 18)]
    [1, 7, 13]
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    eps, p = W.epsilon_sum, W.p_sum
    g = gcd(eps, n)
    if p % g:
        return ()
    step = n // g  # the f are f0 + t*step for t < g
    f0 = -p // g * pow(eps // g, -1, step) % step
    return tuple([Retraction(f, eps, p) for f in range(f0, n, step)])


def rho(W: RelativeWord, n: int, f: int) -> Word:
    """Rewrite W into the defining word of the kernel of the retraction f.

    With v(1) = 0 and v(i) the partial sum of e_j*f + p_j over j < i, the
    output is the word whose i-th letter is x_{v(i)}^{+1} or
    x_{v(i)-f}^{-1} according to the sign e_i, subscripts mod n.

    >>> str(rho(RelativeWord.from_text("x x x"), 3, 1))
    'x0 x1 x2'
    """
    n, f = index(n), index(f)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    eps, p = W.epsilon_sum, W.p_sum
    if (eps * f + p) % n:
        raise ValueError(
            f"f={f} is not a retraction exponent: "
            f"{eps}*{f} + {p} = {eps * f + p} != 0 (mod {n})"
        )
    letters = []
    v = 0
    for e, p in W.syllables:
        letters.append(((v if e == 1 else v - f) % n, e))
        v += e * f + p
    return Word._unchecked(n, tuple(letters))


def to_relative(w: Word, n: int) -> RelativeWord:
    """Convert a cyclically reduced word on x_0..x_{n-1} to relative form.

    The a-exponents are the consecutive subscript differences (taken
    cyclically), so that shift(rho(W, n, 0), p_1) recovers w, where p_1
    is the subscript of the first letter of w.
    """
    if w.n != n:
        raise ValueError(f"word modulus {w.n} does not match n={n}")
    letters = w.letters
    if not letters:
        raise ValueError("cannot convert the empty word")
    if not w.is_cyclically_reduced:
        raise ValueError(f"{w!r} is not cyclically reduced")
    return RelativeWord._unchecked(tuple([
        (s, j - i) for (i, s), (j, _) in zip(letters, letters[1:] + letters[:1])
    ]))


def root(W: RelativeWord, n: int) -> Tuple[RelativeWord, int]:
    """Maximal e and root with W = root^e, comparing syllables mod n.

    Returned as (root, e).  The a-exponent of the retraction image of the
    root under f is ``(root.epsilon_sum * f + root.p_sum) % n``.
    """
    syl = [(e, p % n) for e, p in W.syllables]
    L = len(syl)
    period = L
    for cand in range(1, L):
        if L % cand == 0 and all(syl[i] == syl[i % cand] for i in range(L)):
            period = cand
            break
    return RelativeWord._unchecked(W.syllables[:period]), L // period


def relative_orientable(W: RelativeWord, n: int) -> bool:
    """True when W is not conjugate to its inverse in the free product.

    Conjugacy of cyclically reduced free-product elements is cyclic
    permutation of their syllables, a-exponents taken mod n.  A word that
    reduces to a coefficient a^p is conjugate to a^-p exactly when
    2p = 0 (mod n).
    """
    try:
        syl = _cyclic_reduce_syllables(W.syllables, n).syllables
    except ValueError:  # only a coefficient is left
        return (2 * W.p_sum) % n != 0
    L = len(syl)
    red = [(e, p % n) for e, p in syl]
    # the inverse, rotated back into x-first form (a conjugate)
    inv = [(-syl[L - 1 - i][0], -syl[(L - 2 - i) % L][1] % n) for i in range(L)]
    return all(inv != red[r:] + red[:r] for r in range(L))


def change_variable(W: RelativeWord, n: int, t: int) -> RelativeWord:
    """Substitute x = u a^{-t} (that is, u = x a^t) and rewrite in u.

    The result presents the same group over the same coefficient
    subgroup; it is returned cyclically reduced and x-first.
    """
    syl, t = W.syllables, index(t)
    L = len(syl)
    new = []
    for i in range(L):
        e, p = syl[i]
        p_new = p - (t if e == 1 else 0) + (t if syl[(i + 1) % L][0] == -1 else 0)
        new.append((e, p_new))
    return _cyclic_reduce_syllables(new, n)


def _cyclic_reduce_syllables(syl: Sequence[Syllable], n: int) -> RelativeWord:
    """Cancel every x^e a^{0 mod n} x^{-e}, cyclically, in linear time.

    A cancelled pair's a-exponents fold onto the syllable before it, so
    the syllables left keep their order and W's exponent sums.  A stack
    cancels left to right; then the two ends of the cyclic word cancel.
    Raises ValueError when only a coefficient a^p is left.
    """
    coefficient = "word reduces to a coefficient; no x letter left"
    stack: List[List[int]] = []  # [e, p] left so far; neighbours never cancel
    lead = 0  # a-exponents cancelled before the first syllable left
    for e, p in syl:
        if stack and stack[-1][0] == -e and stack[-1][1] % n == 0:
            carry = stack.pop()[1] + p
            if stack:
                stack[-1][1] += carry
            else:
                lead += carry
        else:
            stack.append([e, p])
    if not stack:
        raise ValueError(coefficient)
    out = deque(stack)
    out[-1][1] += lead  # the word is cyclic: the front folds onto the end
    while out[0][0] == -out[-1][0] and out[-1][1] % n == 0:
        if len(out) == 2:
            raise ValueError(coefficient)
        carry = out.pop()[1] + out.popleft()[1]
        out[-1][1] += carry
    return RelativeWord._unchecked(tuple(map(tuple, out)))


def lift(W: RelativeWord, n: int) -> FinitePresentation:
    """The ordinary presentation (a, x : a^n, W(a, x)).

    Coefficients are lifted with a-exponents normalized into [0, n), so
    the exponent of the relator in the free group matches the exponent
    of W in the free product.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    a, x = 1, 2
    rel: List[int] = []
    for e, p in W.syllables:
        rel.append(x if e > 0 else -x)
        rel.extend([a] * (p % n))
    return FinitePresentation(("a", "x"), ((a,) * n, tuple(rel)))
