"""Shared test helpers: random generators and independent oracles.

The oracles here re-derive expected values through separate machinery
(letter-stack reduction in the free product, breadth-first conjugate
search, set-based cyclic permutation tests, a row-major coset enumerator
that restarts at coset 1) so that library code is never checked against
itself.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Tuple

from cycpres.enumerate import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    _reduce_powers,
    _scan_list,
    audit_table,
)
from cycpres.relative import RelativeWord
from cycpres.words import Word, concat, free_reduce, invert


# -- free product C_n * <x>: independent letter-stack reduction ------------

def fp_reduce(tokens, n: int) -> Tuple[Tuple[str, int], ...]:
    """Reduce a stream of ('x', k) / ('a', p) tokens to normal form."""
    stack: List[Tuple[str, int]] = []
    for kind, val in tokens:
        if kind == "a":
            val %= n
        if val == 0:
            continue
        if stack and stack[-1][0] == kind:
            prev_kind, prev_val = stack.pop()
            merged = prev_val + val
            if kind == "a":
                merged %= n
            if merged:
                stack.append((prev_kind, merged))
        else:
            stack.append((kind, val))
    return tuple(stack)


def relative_word_tokens(W: RelativeWord):
    for e, p in W.syllables:
        yield ("x", e)
        yield ("a", p)


def substitute_kernel_generators(word: Word, n: int, f: int):
    """Token stream of the substitution x_i -> a^i x a^{-(i+f)}."""
    for i, s in word.letters:
        if s == 1:
            yield ("a", i)
            yield ("x", 1)
            yield ("a", -(i + f))
        else:
            yield ("a", i + f)
            yield ("x", -1)
            yield ("a", -i)


# -- random inputs ---------------------------------------------------------

def random_word(rng: random.Random, n: int, max_len: int = 12) -> Word:
    length = rng.randint(0, max_len)
    return Word(
        n, [(rng.randrange(n), rng.choice((1, -1))) for _ in range(length)]
    )


def random_cyclically_reduced_word(
    rng: random.Random, n: int, max_len: int = 8
) -> Word:
    while True:
        w = random_word(rng, n, max_len)
        if len(w) > 0 and w.is_cyclically_reduced:
            return w


def random_cyclically_reduced_relative_word(
    rng: random.Random, n: int, max_len: int = 6
) -> RelativeWord:
    """Random relative word, cyclically reduced in the free product (n >= 2)."""
    length = rng.randint(1, max_len)
    eps = [rng.choice((1, -1)) for _ in range(length)]
    ps = [rng.randint(-2 * n, 2 * n) for _ in range(length)]
    for i in range(length):
        if eps[(i + 1) % length] == -eps[i] and ps[i] % n == 0:
            ps[i] += rng.randint(1, n - 1)
    return RelativeWord(zip(eps, ps))


# -- oracles ---------------------------------------------------------------

def reduce_in_random_order(w: Word, rng: random.Random) -> Word:
    """Free reduction cancelling pairs in a random order."""
    letters = list(w.letters)
    while True:
        pairs = [
            i
            for i in range(len(letters) - 1)
            if letters[i][0] == letters[i + 1][0]
            and letters[i][1] == -letters[i + 1][1]
        ]
        if not pairs:
            return Word(w.n, letters)
        i = rng.choice(pairs)
        del letters[i : i + 2]


def min_conjugate_length(w: Word) -> int:
    """Minimal length in the conjugacy class of w, by breadth-first search
    over single-letter conjugations (length never needs to grow)."""
    start = free_reduce(w)
    seen = {start.letters}
    frontier = [start]
    best = len(start)
    while frontier:
        new = []
        for u in frontier:
            for i in range(u.n):
                for s in (1, -1):
                    g = Word(u.n, [(i, s)])
                    v = free_reduce(concat(invert(g), u, g))
                    if len(v) <= len(u) and v.letters not in seen:
                        seen.add(v.letters)
                        best = min(best, len(v))
                        new.append(v)
        frontier = new
    return best


# -- coset enumeration: row-major HLT that restarts at coset 1 ---------------

class TableFull(Exception):
    pass


class RestartEnumerator:
    """Reference oracle: row-major HLT that restarts at coset 1.

    A list of rows and a union-find, as the library enumerator stored
    its table before it went column-major, with lookahead and the HLT
    pass after it both scanning every relator at every coset from coset
    1, where the library skips the other relators below the first live
    coset not yet processed, since they are closed there.  Power relators
    are scanned first at every coset, without defining unless the scan
    walked more letters than the other relators hold, and are not
    skipped on closed cycles; once every row is full, one sweep scans
    each power relator at every live coset, and ``swept`` counts the
    cosets that sweep merged.  With or without lookahead the library
    must reach the same table, or give up at the same point, with the
    same number of definitions.
    """

    def __init__(self, pres, max_cosets):
        def columns(w):
            return tuple(2 * (g - 1) if g > 0 else 2 * (-g - 1) + 1 for g in w)

        self.ncols = 2 * len(pres.generators)
        self.max = max_cosets
        powers, others = _reduce_powers(pres.relators)
        self.powers = [columns(w) for w in powers]
        self.rels = [columns(w) for w in _scan_list(powers, others)]
        self.reach = sum(map(len, self.rels))
        self.subs = [columns(w) for w in pres.subgroup]
        self.tbl = [[], [0] * self.ncols]
        self.p = [0, 1]
        self.live = self.defined = 1
        self.lookaheads = self.swept = 0

    def rep(self, k):
        while self.p[k] != k:
            k = self.p[k]
        return k

    def merge(self, a, b, queue):
        a, b = sorted((self.rep(a), self.rep(b)))
        if a != b:
            self.p[b] = a
            self.live -= 1
            queue.append(b)

    def coincide(self, a, b):
        tbl, queue = self.tbl, deque()
        self.merge(a, b, queue)
        while queue:
            g = queue.popleft()
            for c in range(self.ncols):
                d = tbl[g][c]
                if d:
                    tbl[d][c ^ 1] = 0
                    mu, nu = self.rep(g), self.rep(d)
                    if tbl[mu][c]:
                        self.merge(nu, tbl[mu][c], queue)
                    elif tbl[nu][c ^ 1]:
                        self.merge(mu, tbl[nu][c ^ 1], queue)
                    else:
                        tbl[mu][c], tbl[nu][c ^ 1] = nu, mu

    def define(self, a, c):
        if len(self.tbl) - 1 >= self.max:
            raise TableFull
        b = len(self.tbl)
        self.tbl.append([0] * self.ncols)
        self.p.append(b)
        self.tbl[a][c], self.tbl[b][c ^ 1] = b, a
        self.live += 1
        self.defined += 1

    def scan(self, a, w, fill):
        """Scan w from a; the number of entries left open (0 if none)."""
        tbl = self.tbl
        i, j, f, b = 0, len(w) - 1, a, a
        while True:
            while i <= j and tbl[f][w[i]]:
                f, i = tbl[f][w[i]], i + 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                return 0
            while j >= i and tbl[b][w[j] ^ 1]:
                b, j = tbl[b][w[j] ^ 1], j - 1
            if j < i:
                self.coincide(f, b)
            elif j == i:
                tbl[f][w[i]], tbl[b][w[i] ^ 1] = b, f
            elif fill:
                self.define(f, w[i])
                continue
            else:
                return j - i + 1
            return 0

    def scan_power(self, a, w, fill):
        gap = self.scan(a, w, False)
        if gap and fill and len(w) - gap > self.reach:
            self.scan(a, w, True)

    def run(self):
        while True:
            try:
                for w in self.subs:
                    self.scan(1, w, True)
                a = 1
                while a < len(self.tbl):
                    for w in self.powers:
                        if self.p[a] == a:
                            self.scan_power(a, w, True)
                    for w in self.rels:
                        if self.p[a] == a:
                            self.scan(a, w, True)
                    for c in range(self.ncols):
                        if self.p[a] == a and not self.tbl[a][c]:
                            self.define(a, c)
                    a += 1
                before = self.live
                for w in self.powers:
                    for a in range(1, len(self.tbl)):
                        if self.p[a] == a:
                            self.scan(a, w, False)
                self.swept = before - self.live
                return True
            except TableFull:
                if not self.lookahead():
                    return False

    def lookahead(self):
        self.lookaheads += 1
        before = self.live
        for a in range(1, len(self.tbl)):
            for w in self.powers + self.rels:
                if self.p[a] == a:
                    self.scan(a, w, False)
        live = [a for a in range(1, len(self.tbl)) if self.p[a] == a]
        remap = {a: i for i, a in enumerate(live, 1)}
        self.tbl = [[]] + [
            [remap[self.rep(e)] if e else 0 for e in self.tbl[a]] for a in live
        ]
        self.p = list(range(len(self.tbl)))
        self.live = len(live)
        return self.live < self.max and before - self.live >= max(1, self.max // 100)

    def table(self):
        """(status, defined, rows) as todd_coxeter reports them."""
        if not self.run():
            rows = tuple(tuple(e - 1 for e in row) for row in self.tbl[1:])
            return "overflow", self.defined, rows
        label, order, rows = {1: 0}, [1], []
        for a in order:
            row = []
            for e in self.tbl[a]:
                e = self.rep(e)
                if e not in label:
                    label[e] = len(order)
                    order.append(e)
                row.append(label[e])
            rows.append(tuple(row))
        return "complete", self.defined, tuple(rows)


def restart_todd_coxeter(pres, max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """``todd_coxeter`` through the restart reference; complete tables audited."""
    status, defined, rows = RestartEnumerator(pres, max_cosets).table()
    table = CosetTable(pres.generators, rows, status, len(rows), defined)
    if table.complete:
        audit_table(table, pres)
    return table
