"""Todd-Coxeter coset enumeration over finite presentations.

The enumerator computes the action of a finitely presented group on the
cosets of a finitely generated subgroup.  Completion proves the index
finite and yields a standardized table; running out of room proves
nothing, so exhaustion is reported as an ``overflow`` table, never as a
wrong answer.

The enumerator is HLT: it scans every relator at every live coset,
defining new cosets to fill gaps; when the coset limit is hit it runs a
lookahead pass (scanning without defining) to collapse the table
before giving up.  Completed tables are standardized (renumbered in
first-visit order, columns scanned in declared generator order), so the
result does not depend on how the enumeration went.

Before HLT runs, relators are shortened modulo the power relators among
them (``_reduce_runs``, the one place that decides a relator is a power,
on relators read once into runs; ``_reduce_powers`` spells its result
out).  ``_runs`` reads a word as its runs of g and G, freely reduced,
each run's net exponent reduced into (-m/2, m/2] given g^m (so
``a^{n-1}`` becomes ``A`` given ``a^n``); a run that vanishes lets its
neighbours merge or cancel.  For each generator g, the shortest relator
whose runs are one g^m (or G^m) is kept as a power relator, as that
reduced word, and every other relator becomes its runs modulo those.
While another relator is left as a single run, a shorter power of g or
a power of a generator with none, the pass repeats on its own output:
a^6 beside a^4 ends as a^2.  So the reduced form is canonical, and
reducing it again gives it back.  Each step multiplies a relator by a
conjugate of g^{+-m} or cancels a letter against its inverse, which
leaves the group and the subgroup unchanged; since standardized tables
are canonical, the tables returned do not change either, only the work
spent reaching them (the finite extensions with n <= 12 define 43%
fewer cosets).  Completed tables are audited against the caller's
relators, never the shortened ones.

In place of the other relators HLT scans cyclic conjugates
(``_scan_list``): each becomes its distinct rotations that begin at a
letter of a generator with no power relator, such as the three
rotations of ``x a^k x a^{l-k} x a^{-l}`` that begin at an x.  Cyclic
conjugates have the same normal closure, so again only the work
changes: a deduction that a rotation gives at once no longer waits for
the scan from the relator's first letter, and those extensions define
46% fewer cosets again (2,928,293 to 1,581,117).

Every word HLT scans has one shape, ``(fwd, back, limit, record)``:
the columns it reads forwards, the inverse columns it reads backwards,
its fill limit and its record.  The power relators kept are scanned at
each coset before the others (the order Havas, *Coset enumeration
strategies*, ISSAC 1991, recommends), for deductions and coincidences
only.  Filling the gap in g^m would define up to m - 1 cosets that the
other relators' scans often merge again, so the g-cycles grow instead
one coset at a time, through the row fill of each coset HLT processes.
A scan fills a gap only once it has walked more letters than its word's
fill limit: -1 for the other relators and the subgroup words, and for
g^m the letters the other relators' scans read, since a longer g-path
left open would be walked again from every coset on it, and
(a : a^10000) would take time quadratic in m.  A power relator's record
is the set of cosets known to lie on a closed g-cycle; the others' is
None.  When the scan of g^m leaves a coset alive with nothing open, its
g-cycle is closed, so one walk along it records the other cosets on
it, and the scan skips those, since a closed path stays closed under
definitions and coincidences.  A coset with no g entry is scanned all
the same: that scan walks nothing, and a test that skipped it avoided
none of the 198,336 power-relator scans of one pass over the finite
extensions with n <= 12.  Once every live row is full, one sweep
scans each power relator at every live coset not yet recorded; it
defines nothing, since rows are full, but it may merge cosets, and only
after it is the table complete.  It merged cosets in 40 of 3,000 seeded
random presentations; (a, b : a^4, A B, b^5) over <a^2> reaches index 1
only when it merges the last coset.

One routine, ``_pass``, walks the live cosets from coset 1 for every
pass of the run: each HLT pass, the lookahead and the closing sweep.
At each live coset it makes one ``_scan``, of the power relators and
then the other relators from a given coset on, and of the power
relators alone below it; an HLT pass also scans the subgroup words
first, fills gaps and fills each row, and the other two define
nothing.  Below the coset HLT was working on at the cap, every live row
is full and has the other relators closed, and coincidences keep both,
so lookahead scans them from there, and the closing sweep, which
follows a pass that processed every coset, scans none of them.  If
lookahead frees enough, the table is compressed so that HLT can go on,
which empties the records, since they name the old numbers, and HLT
starts again at coset 1, scanning the other relators only from that
point, renumbered; a restart would scan them below it to no effect, so
the run defines what a restart does.  The power relators are scanned
below it, since they may be left open there: of 589 seeded random runs
that resumed after lookahead, 79 did not match a restart when they were
left to the closing sweep.  If lookahead does not free enough, the run
gives up as it stands, uncompressed.

Before any of that, ``relabel`` picks new generators for presentations
on two generators g and x in which g alone has a power relator g^m and
every subgroup generator is a power of g, such as the extension
(a, x : a^n, W) over <a>; in the reduced form every other relator then
has an x.  In new generators b and y with g = b^beta
(beta a unit mod m) and x = y b^{-d}, the other relators are rewritten
from their (x-sign, g-run) syllables by integer arithmetic, and the form
with the fewest letters is enumerated: G_12(9,8)'s W = x a^-3 x A x a^4
becomes x a x A x (beta = 5, d = -4).  This changes the generating set,
not the group or the subgroup, so the table is the same, but the work
is not: over the 297 finite extensions with n <= 12, HLT defines 280,304
cosets against 1,598,277 for the caller's form (1.09 against 6.24 per
unit of index).  The search stops at the first beta whose one run
alone is longer than the best form so far, so it costs about the best
length, not m: for G_n(300001,700003) at n = 10^6, which no
relabelling shortens, it takes 0.4-0.6 s, against 2.4-3.7 s when each
walk was bounded by the best length before it began.  The form picked
is reduced again, so a relator left with no b, such as G_6(2,4)'s
y y y, becomes y's power relator, and ``relabel`` gives the form it
returns back unchanged.  The columns of g and x are then rebuilt from
those of b and y as whole columns, g = b^beta and G = B^beta by
repeated squaring and x = y b^{-d} and X = b^d Y by composition, with
entry 0 still meaning undefined, so the one finish below serves both
forms.

The table is stored column-major: one list per generator and inverse
column, indexed by coset, beside the union-find list, which took the
traced peak of G_12(9,8)'s extension from 7.3 MiB, as lists per row,
to 4.4 MiB.  Scans and HLT's row fill define cosets through one
routine, which appends an empty entry to each column, and compression
rewrites the columns in place.  One scan routine serves every pass: it
runs a list of words from one coset, filling gaps with new cosets in an
HLT pass and only applying deductions and coincidences in lookahead and
the closing sweep.

A finished table is built column by column, after the enumerator is
dropped: once HLT ends, the union-find and the scan lists go, and a
relabelled run's columns of b and y go as those of g and x are composed.
Both outcomes are read off the live columns the same way: a list of the
live cosets in order and a label per coset, -1 for the undefined entry
0, and each column is read off in that order through the labels into a
tuple, replacing its live column, so the rows of dead cosets, which stay
in the table until a compression, are never visited.  For a complete
table one walk from coset 1 numbers the cosets in first-visit order,
reading columns in declared order, which standardizes it; a run that
gives up returns its live cosets in ascending order, labelled 0 to
count - 1, and its overflow table is those cosets.  The finished
columns are the table returned: ``CosetTable`` holds them, and its
``rows`` is a view built from them when read.  Row tuples as the stored
form held G_15(1,6)'s table in 3.37 MiB, against 1.87 MiB as columns.

The audit checks a complete table's columns, a whole column at a time,
in ``todd_coxeter`` before it returns them and in ``audit_table`` once
the table has a column per generator and inverse, all of one length.
The least entry of each generator's column g is checked, since a
sequence reads a negative index from its end, and then one inverse pass
per generator and its inverse column G reads G[g[i]] for every coset i.
That pass reads every entry of g, so one at or past the count raises
``IndexError``; and G[g[i]] == i makes g a bijection with inverse G, so
every entry of G is read and is a coset.  Each relator is traced from
all cosets at once, one list pass per maximal run g^e over the column
of g^e, built by repeated squaring that keeps no square past the run.
The first inverse pass is the identity column, made of the table's own
ints, so no list of new ints is built to compare with.  A failure,
``IndexError`` included, is named by reading the columns in row order:
the first offending entry, or the first coset.

Presentation text format::

    gens: b u
    rels:
    b^6
    u u b^3 u b^2
    sub:
    b

Word tokens are whitespace separated: a generator name for the
generator, its capitalized form for the inverse, and ``name^<int>`` for
powers (negative exponents allowed).  A word, and all the words of a
presentation together, may spell out at most ``MAX_WORD_LENGTH`` letters.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from math import gcd
from operator import ne
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

WordInts = Tuple[int, ...]  # letters as nonzero signed 1-based generator numbers
Runs = List[Tuple[int, int]]  # a word as (generator, nonzero net exponent) runs

_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?")

# Most letters that a word, or all the words of a presentation together,
# may spell out; a short power token like ``a^1000000000`` would otherwise
# ask for gigabytes.
MAX_WORD_LENGTH = 1_000_000

# The coset cap when the caller gives none: ``todd_coxeter``,
# ``shift_orbits`` and the CLI's ``--max-cosets`` all default to it.
DEFAULT_MAX_COSETS = 1_000_000


def _parse_letters(
    text: str, generators: Sequence[str], limit: int = MAX_WORD_LENGTH
) -> WordInts:
    index = {g: i + 1 for i, g in enumerate(generators)}
    letters: List[int] = []
    for tok in text.split():
        m = _TOKEN.fullmatch(tok)
        if m is None:
            raise ValueError(f"bad word token {tok!r}")
        base, exp = m.group(1), m.group(2)
        sign = 1
        if base not in index:
            lowered = base[0].lower() + base[1:]
            if base[0].isupper() and lowered in index:
                base, sign = lowered, -1
            else:
                raise ValueError(f"undeclared generator in token {tok!r}")
        e = 1 if exp is None else int(exp)
        if e < 0:
            sign, e = -sign, -e
        if len(letters) + e > limit:
            raise ValueError(
                f"more than {MAX_WORD_LENGTH} letters spelled out at token {tok!r}"
            )
        letters.extend([sign * index[base]] * e)
    return tuple(letters)


def _letters_text(word: WordInts, generators: Sequence[str]) -> str:
    names = (generators[abs(g) - 1] for g in word)
    return " ".join(n if g > 0 else n[0].upper() + n[1:] for g, n in zip(word, names))


@dataclass(frozen=True)
class FinitePresentation:
    """Named generators, relator words, and optional subgroup generators."""

    generators: Tuple[str, ...]
    relators: Tuple[WordInts, ...]
    subgroup: Tuple[WordInts, ...] = ()

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a presentation needs at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        for g in self.generators:
            if not (g[0].islower() and g.isidentifier()):
                raise ValueError(f"generator name {g!r} must be a lowercase identifier")
        letters = {s * i for i in range(1, len(self.generators) + 1) for s in (1, -1)}
        kinds = (("relators", self.relators), ("subgroup generators", self.subgroup))
        for kind, words in kinds:
            for w in words:
                if not w:
                    raise ValueError(f"{kind} must be nonempty words")
                if not letters.issuperset(w):  # a set test runs at C speed
                    g = next(g for g in w if g not in letters)
                    raise ValueError(f"letter {g} out of range in word {w}")

    @classmethod
    def make(
        cls,
        generators: Sequence[str],
        relators: Iterable[str],
        subgroup: Iterable[str] = (),
    ) -> "FinitePresentation":
        """Build a presentation from token-text words.

        All the words together may spell out at most ``MAX_WORD_LENGTH``
        letters.
        """
        gens, left = tuple(generators), MAX_WORD_LENGTH
        rels: List[WordInts] = []
        subs: List[WordInts] = []
        for words, texts in (rels, relators), (subs, subgroup):
            for text in texts:
                words.append(_parse_letters(text, gens, left))
                left -= len(words[-1])
        return cls(gens, tuple(rels), tuple(subs))

    def word(self, text: str) -> WordInts:
        return _parse_letters(text, self.generators)

    def word_text(self, word: WordInts) -> str:
        return _letters_text(word, self.generators)

    def __str__(self) -> str:
        lines = ["gens: " + " ".join(self.generators), "rels:"]
        lines += [self.word_text(r) for r in self.relators]
        if self.subgroup:
            lines.append("sub:")
            lines += [self.word_text(s) for s in self.subgroup]
        return "\n".join(lines)


def parse_presentation(text: str) -> FinitePresentation:
    """Parse the presentation file format (see module docstring)."""
    gens = None
    section = None
    rels: List[str] = []
    subs: List[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("gens:"):
            gens = line[len("gens:"):].split()
        elif line in ("rels:", "sub:"):
            section = line[:-1]
        elif gens is None or section is None:
            raise ValueError(f"unexpected line before section header: {line!r}")
        else:
            (rels if section == "rels" else subs).append(line)
    if gens is None:
        raise ValueError("missing 'gens:' header")
    return FinitePresentation.make(gens, rels, subs)


@dataclass(frozen=True)
class CosetTable:
    """Action table of the generators on cosets, numbered from 0.

    Coset 0 is the subgroup itself.  The table is its columns:
    ``columns[2i][c]`` is the image of coset c under generator i and
    ``columns[2i+1][c]`` its image under the inverse, each column a
    tuple of ints.  ``count`` is the length of a column, and ``rows``
    is the row-major view, one tuple per coset in the same column order,
    built each time it is read.  Complete tables are standardized;
    overflow tables are partial and use -1 for undefined entries.

    The constructor also takes ``rows`` in that view's layout, which then
    stands in for ``columns``, and ``count``, which must be its length:
    ``dataclasses.replace(table, rows=..., count=...)`` builds an edited
    table from the published row view.
    """

    generators: Tuple[str, ...]
    columns: Tuple[Tuple[int, ...], ...]
    status: str  # "complete" | "overflow"
    defined: int  # total cosets defined during the run, dead ones included

    def __init__(self, generators, columns, status, defined, rows=None, count=None):
        if rows is not None:
            columns = tuple(zip(*rows))
        if count is not None and count != len(columns[0]):
            raise ValueError(f"count {count} != {len(columns[0])} cosets in the columns")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "defined", defined)

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    @property
    def count(self) -> int:
        return len(self.columns[0])

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(zip(*self.columns))

    def trace(self, coset: int, word: WordInts) -> int:
        """Follow ``word`` from ``coset``; -1 if an entry is undefined."""
        for c in _columns(word):
            coset = self.columns[c][coset]
            if coset < 0:
                return -1
        return coset

    def dump(self) -> str:
        """One line per coset, images under the declared generators."""
        header = "coset | " + " ".join(f"{g:>5}" for g in self.generators)
        lines = [header, "-" * len(header)]
        gens = self.columns[::2]
        for i in range(self.count):
            imgs = " ".join(f"{col[i] + 1 if col[i] >= 0 else '-':>5}" for col in gens)
            lines.append(f"{i + 1:>5} | {imgs}")
        return "\n".join(lines)


def _columns(word: WordInts) -> WordInts:
    """Table columns a word reads: 2i for generator i + 1, 2i + 1 for its inverse."""
    return tuple(2 * (g - 1) if g > 0 else 2 * (-g - 1) + 1 for g in word)


class _TableFull(Exception):
    pass


class _Enumerator:
    """Mutable HLT state; 1-based cosets, 0 = undefined entry.

    The table is column-major: ``cols[c][a]`` is the image of coset a
    under column c, ``pairs[c]`` is column c with its inverse column, and
    ``p`` is the union-find over coset numbers; ``_define`` alone grows
    them.  Outside a coincidence, live rows hold only live cosets: dead
    rows stay until ``_compress``, but every entry pointing at a dead
    coset has been cleared.  A word to scan is held as the columns it
    reads forwards and the inverse columns it reads backwards, its fill
    limit (see ``_scan``) and its record; ``_compress`` keeps the column
    lists, so the columns a word holds stay valid.

    Every word has that one shape.  The power relators g^m are
    ``powers``, each with the letters the other relators read as its
    fill limit and, as its record, the set of cosets known to lie on a
    closed g-cycle (a g^m = a); ``words`` is ``powers`` followed by the
    other relators, and those and the subgroup words ``subs`` have fill
    limit -1 and record None.  A closed path stays closed under
    definitions and coincidences, so a record stays true until
    ``_compress`` renumbers the cosets and empties it.  ``_pass`` runs
    every pass: it makes one ``_scan`` at each live coset, of ``words``
    from ``start`` on and of ``powers`` below it, where every live row is
    full and has the other relators closed; in an HLT pass the row fill
    then grows the g-cycles.  Without fill, the same routine is the
    lookahead at the cap and, once HLT ends, the closing sweep that
    proves the power relators closed.  ``_TableFull`` never leaves the
    class: ``_pass`` catches it and returns the coset it was at.
    """

    __slots__ = ("max", "cols", "pairs", "powers", "words", "subs", "p", "dropped")

    def __init__(
        self,
        ngens: int,
        powers: Sequence[WordInts],
        relators: Sequence[WordInts],
        subgroup: Sequence[WordInts],
        max_cosets: int,
    ):
        self.max = max_cosets
        self.cols: List[List[int]] = [[0, 0] for _ in range(2 * ngens)]
        self.pairs = [(col, self.cols[c ^ 1]) for c, col in enumerate(self.cols)]
        rels = [self._reads(w) for w in relators]
        self.subs = [self._reads(w) for w in subgroup]
        reach = sum(len(fwd) for fwd, *_ in rels)  # letters rels read
        # g^m reads g's columns m times, built from one letter
        self.powers = [
            tuple(c * len(w) for c in self._reads(w[:1])[:2]) + (reach, set())
            for w in powers
        ]
        self.words = self.powers + rels
        self.p = [0, 1]
        self.dropped = 0  # dead rows removed by compressions

    def _reads(self, word: WordInts):
        """A nonempty word's columns, read forwards and back; limit -1, record None."""
        fwd, back = zip(*[self.pairs[c] for c in _columns(word)])
        return fwd, back, -1, None

    @property
    def defined(self) -> int:
        """Cosets defined so far, dead ones included."""
        return self.dropped + len(self.p) - 1

    def _coincide(self, a: int, b: int):
        """Identify live cosets a != b, then every pair that this forces.

        Of two merged cosets the larger dies.  Dead cosets are processed
        in the order they died: each entry of a dead row has its twin
        cleared and moves to the representatives, merging them further
        where the entry is already taken.
        """
        pairs, p = self.pairs, self.p
        if a > b:
            a, b = b, a
        p[b] = a
        q = [b]
        for g in q:  # q grows while it is walked
            for col, inv in pairs:
                d = col[g]
                if not d:
                    continue
                inv[d] = 0
                mu, nu = g, d
                while p[mu] != mu:
                    p[mu] = mu = p[p[mu]]  # path halving
                while p[nu] != nu:
                    p[nu] = nu = p[p[nu]]
                t = col[mu]
                if t:
                    mu = nu
                else:
                    t = inv[nu]
                    if not t:
                        col[mu] = nu
                        inv[nu] = mu
                        continue
                while p[t] != t:
                    p[t] = t = p[p[t]]
                if mu != t:
                    if mu > t:
                        mu, t = t, mu
                    p[t] = mu
                    q.append(t)

    def _define(self, col: List[int], inv: List[int], f: int):
        """Define coset n = col[f] (inv[n] = f), or raise ``_TableFull`` at the cap."""
        n = len(self.p)
        if n > self.max:
            raise _TableFull
        for column in self.cols:
            column.append(0)
        self.p.append(n)
        col[f], inv[n] = n, f

    def _scan(self, a: int, words, fill: bool):
        """Scan each word (as ``_reads`` gives it) from coset a, until a dies.

        A word whose record holds a is skipped.  A scan that closes
        applies its coincidence, and one that is one entry short applies
        it as a deduction.  A longer gap is filled with new cosets when
        ``fill`` is set and the scan has walked more letters than the
        word's fill limit, and left open otherwise.  When a power word
        closes and a lives, a's g-cycle is closed, and one walk along it
        puts the other cosets on it into the word's record.
        """
        p = self.p
        for fwd, back, limit, record in words:
            if p[a] != a:
                return
            if record and a in record:
                continue
            i, j = 0, len(fwd) - 1
            f = b = a
            while True:
                while i <= j:
                    nxt = fwd[i][f]
                    if not nxt:
                        break
                    f = nxt
                    i += 1
                if i > j:
                    if f != b:
                        self._coincide(f, b)
                    break
                while j >= i:
                    prv = back[j][b]
                    if not prv:
                        break
                    b = prv
                    j -= 1
                if j < i:
                    self._coincide(f, b)
                elif j == i:
                    fwd[i][f] = b
                    back[i][b] = f
                elif fill and len(fwd) - (j - i + 1) > limit:  # letters walked
                    self._define(fwd[i], back[i], f)
                    continue
                break
            if record is not None and j <= i and p[a] == a:  # closed at a
                col = fwd[0]
                c = col[a]
                while c != a:
                    record.add(c)
                    c = col[c]

    def run(self) -> Optional[List[int]]:
        """Enumerate by HLT with lookahead; None once the table is complete.

        Each HLT pass is ``_pass`` with fill.  If it ends, the closing
        pass proves the power relators closed.  If it hits the cap at
        coset a, the lookahead pass scans from a and the live cosets are
        listed.  If it freed enough, the table is compressed, which
        empties the records, so that HLT can go on.  Otherwise the run
        gives up and returns the live cosets in ascending order, its
        table left as it stands, dead rows and all.
        """
        start = 1  # live cosets below start have full rows, other relators closed
        p = self.p
        while True:
            a = self._pass(start, True)
            if a is None:
                # every live row is full and has the other relators closed;
                # the power relators left open are closed, or merged, here
                self._pass(len(p), False)
                return None
            before = sum(1 for c in range(1, len(p)) if p[c] == c)
            self._pass(a, False)
            live = [c for c in range(1, len(p)) if p[c] == c]
            if before - len(live) >= max(1, self.max // 100):
                self._compress(live)
                start, live = 1 + bisect_left(live, a), None  # old numbers freed
                continue
            return live

    def _pass(self, start: int, fill: bool) -> Optional[int]:
        """One pass over the live cosets from coset 1: HLT, lookahead or closing.

        At each live coset a it makes one ``_scan``: of every word if
        a >= ``start``, and of the power relators alone below it, where
        the others are closed.  With ``fill`` set it is an HLT pass: it
        first scans the subgroup words at coset 1, fills gaps as each
        word's limit allows, and fills a's row after its scan.  Returns
        the coset at which the cap was hit, or None.
        """
        p, words, powers = self.p, self.words, self.powers
        a = 1
        try:
            if fill:
                self._scan(1, self.subs, True)
            while a < len(p):
                if p[a] == a:
                    self._scan(a, words if a >= start else powers, fill)
                    if fill and p[a] == a:
                        for col, inv in self.pairs:
                            if not col[a]:
                                self._define(col, inv, a)
                a += 1
        except _TableFull:
            return a
        return None

    def _compress(self, live: List[int]):
        """Drop dead rows, renumbering the live cosets ``live`` 1, 2, ... in order.

        HLT compresses only to go on.  The power relators' records name
        old numbers, so they are emptied first.  The new numbers are one
        set of ints, shared by the columns and the union-find.
        """
        for *_, record in self.powers:
            record.clear()
        p = self.p
        remap = [0] * len(p)
        for new, a in enumerate(live, 1):
            remap[a] = new
        for col in self.cols:
            col[1:] = [remap[col[a]] for a in live]
        self.dropped += len(p) - 1 - len(live)
        p[1:] = [remap[a] for a in live]


def _reduced(e: int, m: int) -> int:
    """e modulo m, reduced into (-m/2, m/2]."""
    e %= m
    return e - m if 2 * e > m else e


def _reduce_powers(
    relators: Sequence[WordInts],
) -> Tuple[Tuple[WordInts, ...], Tuple[WordInts, ...]]:
    """Shorten relators modulo the power relators among them, to a fixpoint.

    Returns (powers, others).  For each generator g, the shortest relator
    that freely reduces to one letter repeated (g^m or G^m) is kept as
    that reduced word, since the enumerator reads a power from its first
    letter, and ``powers`` holds these in relator order.  ``others``
    holds every other relator as its ``_runs`` modulo the powers, and
    drops those that vanish.  While one of ``others`` is a single run,
    which is a power shorter than the one kept or of a generator with
    none, the pass repeats on ``powers + others``: a^6 beside a^4 ends as
    a^2, and x a^5 x given a^5 as the power relator x^2.  So the form
    returned is its own reduced form.  Every step multiplies a relator by
    a conjugate of g^m or G^m, or cancels a letter against its inverse,
    so the presented group is unchanged.
    """
    powers, others = _reduce_runs(relators, [_runs(w, {}) for w in relators])
    return powers, tuple(map(_spelled, others))


def _reduce_runs(
    words: Sequence[Optional[WordInts]], runs: List[Runs]
) -> Tuple[Tuple[WordInts, ...], List[Runs]]:
    """``_reduce_powers`` of relators read once as their free runs ``runs``.

    The others come back as runs.  ``words[i]`` is the relator whose runs
    are ``runs[i]``, or None where only its runs are known; a power
    relator is kept as its word when that is one letter repeated, so a
    caller's g^m is not spelled out again.  A pass reduces the others'
    runs modulo the powers without reading their words again: the stack
    in ``_merge`` gives the same runs from a word's runs as from its
    letters.
    """
    while True:
        shortest: Dict[int, Tuple[int, int]] = {}  # generator -> (index, m)
        for i, r in enumerate(runs):
            if len(r) == 1:
                g, e = r[0]
                if g not in shortest or abs(e) < shortest[g][1]:
                    shortest[g] = (i, abs(e))
        period = {g: m for g, (_, m) in shortest.items()}
        kept = dict(sorted(shortest.values()))  # index -> m, in relator order
        powers = tuple(
            words[i] if len(words[i] or ()) == m else _spelled(runs[i])
            for i, m in kept.items()
        )
        others = [_merge(r, period) for i, r in enumerate(runs) if i not in kept]
        others = [r for r in others if r]
        if all(len(r) != 1 for r in others):
            return powers, others
        words = powers + (None,) * len(others)
        runs = [runs[i] for i in kept] + others


def _runs(word: WordInts, period: Dict[int, int]) -> Runs:
    """The word freely reduced modulo g^period[g], as (generator, exponent) runs.

    Each maximal run of one generator and its inverse counts whole, its
    net exponent reduced into (-m/2, m/2] when ``period`` gives an m; a
    run that vanishes lets its neighbours merge, and cancel in turn.  A
    run of g's and G's is read at C speed, its net exponent being its
    sum over g, and a word that is one letter repeated, such as g^m, at
    once.
    """
    if word.count(word[0]) == len(word):
        e = len(word) if word[0] > 0 else -len(word)
        return _merge(((abs(word[0]), e),), period)
    return _merge(((g, sum(run) // g) for g, run in groupby(word, key=abs)), period)


def _merge(runs: Iterable[Tuple[int, int]], period: Dict[int, int]) -> Runs:
    """Runs (generator, exponent), in order, multiplied out into ``_runs``'s form.

    A stack: a run of the generator on top merges with it, each exponent
    is reduced into (-m/2, m/2] when ``period`` gives an m, and a run that
    vanishes uncovers the one below, which the next run may merge with.
    Runs that spell a word give the word's own ``_runs``.
    """
    out: Runs = []
    for g, e in runs:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if g in period:
            e = _reduced(e, period[g])
        if e:
            out.append((g, e))
    return out


def _spelled(runs: Runs) -> WordInts:
    """The word that ``runs`` spell out."""
    word: List[int] = []
    for g, e in runs:
        word += [g] * e if e > 0 else [-g] * -e
    return tuple(word)


def _scan_list(
    powers: Sequence[WordInts], others: Sequence[WordInts]
) -> Tuple[WordInts, ...]:
    """The words HLT scans for ``others``: each relator or its cyclic conjugates.

    Each relator is replaced by its distinct cyclic conjugates that begin
    at a letter of a generator with no power relator in ``powers`` (for
    ``x a^k x a^{l-k} x a^{-l}``, the three rotations that begin at an
    x); a relator with no such letter stays as written, and so does one
    whose rotations would take the list past ``MAX_WORD_LENGTH`` letters,
    since a relator of length L can have L rotations of L letters.
    Conjugates already in the list are not added again.
    """
    powered = {abs(w[0]) for w in powers}
    out: Dict[WordInts, None] = {}
    room = MAX_WORD_LENGTH
    for w in others:
        starts = [i for i, g in enumerate(w) if abs(g) not in powered]
        if len(starts) * len(w) > room:
            starts = []
        room -= len(starts) * len(w)
        out.update(dict.fromkeys([w[i:] + w[:i] for i in starts] or [w]))
    return tuple(out)


def relabel(pres: FinitePresentation):
    """The shortest form of ``pres`` under g = b^beta, x = y b^{-d}.

    Returns (powers, relators, subgroup, power, beta, d), the form
    ``todd_coxeter`` enumerates.  Its generators b and y keep the names
    and places of the caller's g (generator number ``power``, 1-based)
    and x.  The relators are shortened already: ``powers`` and
    ``relators`` are ``_reduce_powers`` of the caller's relators when the
    caller's form is kept (power 0, beta 1, d 0, and the caller's
    subgroup), and otherwise of the rewritten ones, so a rewritten
    relator with no g left, such as G_6(2,4)'s W becoming y y y, is y's
    power relator.  Either way ``relabel`` gives the form it returns
    back unchanged.  No presentation is built, so letters taken from the
    caller's checked words are not checked again.  Each caller's relator
    is read letter by letter once, into its ``_runs``: both reductions,
    the syllables and the rewritten relators work on runs, and only the
    words returned are spelled out.

    Applies to a presentation on two generators g and x in which, once
    relators are shortened by ``_reduce_powers``, g alone has a power
    relator g^m (or G^m) and every subgroup generator is a power of g;
    every other relator then has an x, since a relator on g alone
    reduces to a power of g.
    Every other relator is read as cyclic syllables x^{s_i} g^{p_i}
    (rotated to begin at an x); in the new generators the run after
    x^{s_i} is ``beta p_i + d ([s_{i+1} = -1] - [s_i = +1])``, reduced
    into (-m/2, m/2], so lengths come from integer arithmetic and no
    candidate word is spelled out.  beta runs over the units mod m up to
    m/2 (beta and -beta give the same lengths), and for each beta only
    d = 0 and the d that make one run vanish are tried: between two such
    d every run's length is concave in d, and the d tried reach the least
    length for each beta.  The d that zeroes the run (p', c') is
    -beta c' p', so runs with one c' p' mod m give one family of d, which
    is tried once; in the lift's W every c' is -1, and a run p' = 0, or
    two equal runs, repeat a family.  The fewest letters win; ties go to
    the caller's form, then to the least beta, then to the least d
    tried, in (-m/2, m/2], and the best so far is kept by one comparison
    of lengths.  The betas come by ascending length r of the first run
    the d does not zero (``_units_near``) and stop at the first r above
    the best so far, so the search costs about the best length, not m.
    A subgroup generator g^e becomes b^{gcd(e, m)}, of the same subgroup.
    """
    powers, rels = _reduce_runs(pres.relators, [_runs(w, {}) for w in pres.relators])
    unchanged = (powers, tuple(map(_spelled, rels)), pres.subgroup, 0, 1, 0)
    if len(pres.generators) != 2 or len(powers) != 1:
        return unchanged
    g, m = abs(powers[0][0]), len(powers[0])
    x = 3 - g
    if any(abs(c) != g for w in pres.subgroup for c in w):
        return unchanged
    words = [_syllables(r, x) for r in rels]
    runs = [(p, c) for syllables in words for _, p, c in syllables]

    def letters(beta: int, d: int) -> int:
        total = 0
        for p, c in runs:
            t = (beta * p + c * d) % m
            total += t if 2 * t <= m else m - t
        return total

    # the fewest letters, and the (beta, d) that gives them: None for the
    # caller's form, which wins a tie, and otherwise the least tried
    least, best = letters(1, 0), None
    # d = 0, or the d = -c' beta p' that zeroes a run (p', c'); either way
    # each run (p, c) becomes beta q for a fixed q = p - c c' p', so the
    # runs with one c' p' mod m give one family of d, and a run with
    # p' = 0 gives d = 0's
    for cp in dict.fromkeys([0] + [c * p % m for p, c in runs if c]):
        q = next((q for q in ((p - c * cp) % m for p, c in runs) if q), 0)
        # the run beta q alone spells r letters: past the least, none can tie
        for r, beta in _units_near(q, m) if q else [(0, 1)]:
            if r > least:
                break
            d = _reduced(-beta * cp, m)
            length = letters(beta, d)
            if length < least or (
                length == least and best is not None and (beta, d) < best
            ):
                least, best = length, (beta, d)
    if best is None:
        return unchanged
    beta, d = best
    # each syllable x^s g^p becomes y^s b^r, as runs, freely reduced
    relators = [
        _merge(
            [run for s, p, c in syllables
             for run in ((x, s), (g, _reduced(beta * p + c * d, m)))],
            {},
        )
        for syllables in words
    ]
    power = [(g, m if powers[0][0] > 0 else -m)]
    powers, rels = _reduce_runs(powers + (None,) * len(relators), [power] + relators)
    subgroup = tuple((g,) * gcd(len(w) - 2 * w.count(-g), m) for w in pres.subgroup)
    return powers, tuple(map(_spelled, rels)), subgroup, g, beta, d


def _units_near(q: int, m: int) -> Iterable[Tuple[int, int]]:
    """(r, beta) for the units beta <= m/2, by ascending r = |beta q mod m|, q != 0.

    Each r that gcd(q, m) divides is solved for beta (twice when 2r = m),
    so the first r above a bound comes after about 2 * bound steps, not m.
    """
    g = gcd(q, m)
    step, half = m // g, m // 2
    inv = pow(q // g, -1, step)
    for r in range(g, half + 1, g):
        for start in (r // g * inv % step, -r // g * inv % step):
            for beta in range(start, half + 1, step):
                if gcd(beta, m) == 1:
                    yield r, beta


def _syllables(runs: Runs, x: int) -> List[Tuple[int, int, int]]:
    """A relator's cyclic syllables x^s g^p, as (s, p, c), from its first x.

    ``runs`` are the relator's ``_runs``, which alternate between x and
    g, so its first x-run is its first or second.  c = [next s = -1] -
    [s = +1] is how far the run p moves per unit of d when x = y b^{-d}.
    """
    first = 0 if runs[0][0] == x else 1
    out: List[List[int]] = []
    for g, e in _merge(runs[first:] + runs[:first], {}):
        if g == x:
            out += [[1 if e > 0 else -1, 0] for _ in range(abs(e))]
        else:
            out[-1][1] = e
    return [
        (s, p, (out[(j + 1) % len(out)][0] == -1) - (s == 1))
        for j, (s, p) in enumerate(out)
    ]


def _finish(cols: List[List[int]], live: Optional[List[int]]):
    """Turn a run's live columns, in place, into the finished table's columns.

    ``live`` is what ``_Enumerator.run`` returns: None for a complete
    table, or the live cosets of a run that gave up.  Finished columns
    are tuples, 0-based, with -1 for an undefined entry, and they are
    the table ``todd_coxeter`` returns.  The rows are read off
    in one order through one label per coset: a complete table is
    standardized by a walk from coset 1 in first-visit order, reading
    columns in declared order, and an overflow table keeps the live
    cosets in ascending order.  Dead rows are never visited.  Each live
    column is replaced as its finished column is built, so a caller that
    holds no other reference to it frees it there.
    """
    label = [-1] * len(cols[0])
    if live is None:
        label[1] = 0
        order = [1]
        for a in order:  # order grows while it is walked
            for col in cols:
                e = col[a]
                if label[e] < 0:
                    label[e] = len(order)
                    order.append(e)
        del col  # else the last live column would outlive its replacement
    else:
        order = live
        for new, a in enumerate(live):
            label[a] = new
    for c in range(len(cols)):
        cols[c] = tuple(map(label.__getitem__, map(cols[c].__getitem__, order)))


def _power(col: Sequence[int], e: int) -> Sequence[int]:
    """The column of the e-th power of a generator, e >= 1, from its column.

    Whole columns are composed by repeated squaring, holding only the
    current square and the product, so a^12 costs four list passes (three
    squarings, one composition), not eleven.  Entry 0 of a live table is
    the undefined sentinel and maps to itself, so gaps carry through.
    """
    out = None
    while True:
        if e & 1:
            out = col if out is None else [col[v] for v in out]
        e >>= 1
        if not e:
            return out
        col = [col[v] for v in col]


def _caller_columns(cols: List[List[int]], power: int, beta: int, d: int):
    """The columns of g, G, x, X from those of b, B, y, Y (g = b^beta, x = y b^{-d})."""
    gi = 2 * (power - 1)
    xi = 2 - gi
    b, B, y, Y = cols[gi], cols[gi + 1], cols[xi], cols[xi + 1]
    out = [[]] * 4
    out[gi], out[gi + 1] = _power(b, beta), _power(B, beta)
    if d:
        ahead, back = (B, b) if d > 0 else (b, B)
        ahead, back = _power(ahead, abs(d)), _power(back, abs(d))  # b^{-d}, b^d
        y = [ahead[v] for v in y]
        Y = [Y[v] for v in back]
    out[xi], out[xi + 1] = y, Y
    return out


def todd_coxeter(
    pres: FinitePresentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> CosetTable:
    """Enumerate cosets of the presentation's subgroup.

    Returns a complete standardized table whose count is the subgroup
    index, or an overflow table when ``max_cosets`` live cosets were not
    enough (the enumeration is a semi-decision procedure: overflow means
    undecided).  The run enumerates the form ``relabel`` picks, so
    ``max_cosets`` bounds, and ``defined`` counts, the cosets of that
    run; the table returned is in the caller's generators.  Raises
    ``ValueError`` when ``max_cosets`` is below 1.
    """
    if max_cosets < 1:
        raise ValueError(f"max_cosets must be at least 1, not {max_cosets}")
    powers, relators, subgroup, power, beta, d = relabel(pres)
    scan = _scan_list(powers, relators)
    enum = _Enumerator(len(pres.generators), powers, scan, subgroup, max_cosets)
    live = enum.run()
    cols, defined = enum.cols, enum.defined
    del enum  # the union-find and the scan lists go before the table is finished
    if power:
        cols = _caller_columns(cols, power, beta, d)  # and the b and y columns here
    _finish(cols, live)
    if live is None:
        _audit_columns(cols, pres)
    status = "complete" if live is None else "overflow"
    return CosetTable(pres.generators, tuple(cols), status, defined)


def audit_table(table: CosetTable, pres: FinitePresentation):
    """Full soundness audit of a complete table; raises on any violation.

    Checks: the table has a column per generator and per inverse, all of
    one length; every entry is defined and in range, generator columns
    are mutually inverse bijections, every relator traces to its
    starting coset from every coset, and subgroup generators fix coset
    0.  The columns are checked by ``_audit_columns``, a whole column at
    a time, as ``todd_coxeter`` checks the columns it finishes.  A
    failure names the first offending entry (in row order) or coset.
    """
    if not table.complete:
        raise ValueError("cannot audit an incomplete table")
    cols, ncols = table.columns, 2 * len(table.generators)
    if len(cols) != ncols:
        raise ValueError(f"table has {len(cols)} columns, not {ncols}")
    for c, col in enumerate(cols):
        if len(col) != len(cols[0]):
            raise ValueError(f"column {c} has {len(col)} entries, not {len(cols[0])}")
    _audit_columns(cols, pres)


def _audit_columns(cols: Sequence[Sequence[int]], pres: FinitePresentation):
    """Audit a complete table given as its columns, all of one length.

    Only the least entry of each generator's column g is range checked,
    since a negative entry of g would read its inverse column G from the
    end.  The inverse check takes one pass per generator, G[g[i]] == i,
    which reads every entry of g, so an entry at or past the count
    raises ``IndexError``.  Once it holds, g is injective on a finite
    set, so g is a bijection and G its inverse, every entry of G is
    read, and each is a coset.  The first
    generator's pass is the identity column, built from the table's own
    int objects, so the later comparisons with it go by pointer; it
    alone is checked against a ``range``, and no list of new ints is
    made.  Each relator is traced from all cosets at once, one pass per
    maximal run g^e over the column of g^e (``_power``, which keeps no
    square past the run).  A failure, or an ``IndexError``, goes to
    ``_raise_first_bad_entry``, which reads the columns in row order and
    names the first offending entry; a relator that does not close is
    named with the first coset it fails at.
    """
    count = len(cols[0])
    # a negative entry of g would be read from the end of G
    sound = all(min(g, default=0) >= 0 for g in cols[::2])
    if sound:
        try:
            pairs = iter(zip(cols[::2], cols[1::2]))
            g, G = next(pairs)
            ident = [G[v] for v in g]
            sound = not any(map(ne, ident, range(count))) and all(
                [G[v] for v in g] == ident for g, G in pairs
            )
        except IndexError:  # an entry of a generator column at or past count
            sound = False
    if not sound:
        _raise_first_bad_entry(cols, count)
    for r in pres.relators:
        cur = None
        for c, run in groupby(_columns(r)):
            col = _power(cols[c], sum(1 for _ in run))
            cur = col if cur is None else [col[i] for i in cur]
        # a one-letter relator's cur is its column, a tuple, which no list equals
        if cur != ident and list(cur) != ident:
            i = next(i for i in range(count) if cur[i] != i)
            raise ValueError(
                f"relator {pres.word_text(r)} does not close at coset {i}"
            )
    for s in pres.subgroup:
        coset = 0
        for c in _columns(s):
            coset = cols[c][coset]
        if coset:
            raise ValueError(
                f"subgroup generator {pres.word_text(s)} does not fix coset 0"
            )


def _raise_first_bad_entry(cols: Sequence[Sequence[int]], count: int):
    """Raise for the first bad entry of a table's columns, read in row order."""
    for i in range(count):
        for c, col in enumerate(cols):
            e = col[i]
            if not 0 <= e < count:
                raise ValueError(f"entry ({i},{c}) out of range: {e}")
            if cols[c ^ 1][e] != i:
                raise ValueError(f"entry ({i},{c}) lacks an inverse entry")


def generator_permutation(table: CosetTable, gen: str) -> Tuple[int, ...]:
    """The permutation of the cosets induced by one generator: its column."""
    if not table.complete:
        raise ValueError("generator_permutation needs a complete table")
    return table.columns[2 * table.generators.index(gen)]
