"""Words over the indexed generators x_0, ..., x_{n-1}.

Generator indices are taken modulo n throughout, and the shift is the
automorphism sending x_i to x_{i+1}.  The text form of a word is a
whitespace-separated token list.  Each token is ``x`` or ``X`` followed by
decimal digits (``str.isdecimal``, so any Unicode decimal digit counts):
lowercase ``x3`` is x_3, uppercase ``X3`` is x_3^{-1}, so ``x0 x1 X2``
denotes x_0 x_1 x_2^{-1}.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, Tuple

Letter = Tuple[int, int]  # (generator index, sign +1 or -1)


class Word:
    """An immutable (not necessarily reduced) word over x_0..x_{n-1}.

    Indices are normalized into [0, n) at construction.  The modulus,
    indices and signs must be ints (anything ``operator.index`` accepts,
    so a bool becomes 0 or 1); floats and strings raise TypeError.  The
    empty word is a valid Word and acts as the identity.

    >>> w = Word(3, [(0, 1), (4, -1)])
    >>> str(w)
    'x0 X1'
    >>> len(Word(3))
    0
    """

    __slots__ = ("n", "letters")

    def __new__(cls, n: int, letters: Iterable[Letter] = ()):
        n = _modulus(n)
        normalized = []
        for idx, sign in letters:
            sign = index(sign)
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
            normalized.append((index(idx) % n, sign))
        return cls._unchecked(n, tuple(normalized))

    @classmethod
    def _unchecked(cls, n: int, letters: Tuple[Letter, ...]) -> "Word":
        """The word on ``letters`` as given, checking nothing.

        For callers whose data is valid by construction: n a positive int
        and ``letters`` a tuple of int pairs (i, s) with 0 <= i < n and
        s = +-1.
        """
        w = object.__new__(cls)
        w.n = n
        w.letters = letters
        return w

    def __getnewargs__(self):
        return self.n, self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.n == other.n
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.n, self.letters))

    def __repr__(self) -> str:
        return f"Word({self.n}, {str(self)!r})"

    def __str__(self) -> str:
        return " ".join(
            (f"x{i}" if s > 0 else f"X{i}") for i, s in self.letters
        )

    @property
    def is_reduced(self) -> bool:
        """True when no adjacent pair of letters cancels."""
        letters = self.letters
        return _none_cancel(zip(letters, letters[1:]))

    @property
    def is_cyclically_reduced(self) -> bool:
        """True when reduced and the first/last letters do not cancel."""
        letters = self.letters
        return _none_cancel(zip(letters, letters[1:] + letters[:1]))


def _modulus(n: int) -> int:
    n = index(n)
    if n < 1:
        raise ValueError(f"modulus must be a positive integer, got {n}")
    return n


def _none_cancel(pairs: Iterable[Tuple[Letter, Letter]]) -> bool:
    """True when no pair (x_i^s, x_j^t) has i == j and s == -t."""
    for (i, s), (j, t) in pairs:
        if i == j and s == -t:
            return False
    return True


def parse_word(text: str, n: int) -> Word:
    """Parse the token grammar (``x<i>`` / ``X<i>``); rejects indices >= n.

    >>> parse_word("x0 x1 X2", 5)
    Word(5, 'x0 x1 X2')
    """
    letters = []
    for tok in text.split():
        head, digits = tok[0], tok[1:]
        if head not in "xX" or not digits.isdecimal():
            raise ValueError(f"bad word token {tok!r}")
        idx = int(digits)
        if idx >= n:
            raise ValueError(f"generator index {idx} out of range for n={n}")
        letters.append((idx, 1 if head == "x" else -1))
    return Word._unchecked(_modulus(n), tuple(letters))


def concat(*words: Word) -> Word:
    """Concatenate words over the same modulus (no reduction applied)."""
    if not words:
        raise ValueError("concat needs at least one word")
    n = words[0].n
    letters = []
    for w in words:
        if w.n != n:
            raise ValueError(f"mixed moduli in concat: {n} and {w.n}")
        letters.extend(w.letters)
    return Word._unchecked(n, tuple(letters))


def free_reduce(w: Word) -> Word:
    """The unique freely reduced form of ``w``.

    >>> free_reduce(parse_word("x0 x1 X1", 3))
    Word(3, 'x0')
    """
    stack: list[Letter] = []
    for idx, sign in w.letters:
        if stack and stack[-1][0] == idx and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((idx, sign))
    return Word._unchecked(w.n, tuple(stack))


def shift(w: Word, k: int) -> Word:
    """Apply the shift k times: every index i becomes (i + k) mod n.

    >>> shift(parse_word("x0 x1 x2", 3), 1)
    Word(3, 'x1 x2 x0')
    """
    n, k = w.n, index(k)
    return Word._unchecked(n, tuple([((i + k) % n, s) for i, s in w.letters]))


def invert(w: Word) -> Word:
    """The inverse word: reversed letters with negated signs."""
    return Word._unchecked(w.n, tuple([(i, -s) for i, s in reversed(w.letters)]))
