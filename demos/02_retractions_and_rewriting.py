"""Relative presentations, retractions, and the kernel rewriting process.

A relative word W lives in the free product of a cyclic group of order n
(generated by a) and an infinite cyclic group (generated by x).  The
group E = (a, x : a^n, W) retracts onto the cyclic part once for every
exponent f with e*f + p = 0 mod n, where e and p are the exponent sums
of x and a in W.  Each retraction kernel is cyclically presented, and
the rewriting below produces its defining word.

Run:  python demos/02_retractions_and_rewriting.py
"""

from cycpres import (
    RelativeWord,
    change_variable,
    lift,
    parse_word,
    relative_orientable,
    rho,
    root,
    to_relative,
    valid_retractions,
)

# The cube of x: every f works modulo 3, and the rewrite depends on f.
W = RelativeWord.from_text("x x x")
print("W =", W)
for f in range(3):
    print(f"  rho^{f}(W) at n=3 ->", rho(W, 3, f))
print("  rho^2(W) at n=6 ->", rho(W, 6, 2), "  (same W, different modulus)")

# A mixed-sign word.
W = RelativeWord.from_text("x a^2 x a^3 X a^-5")
print("\nW =", W)
print("retraction exponents mod 10:", [r.f for r in valid_retractions(W, 10)])
print("rho^0 ->", rho(W, 10, 0))

# Round trip: a cyclically reduced word over x_0..x_{n-1} converts to a
# relative word whose a-exponents are consecutive subscript differences.
w = parse_word("x0 x1 X2", 5)
W = to_relative(w, 5)
print("\nw =", w, " ->  W =", W)
print("rho^0 back:", rho(W, 5, 0), " (a shift of the original word)")

# Roots and exponents in the free product.
# sigma is the a-exponent of the root's image under the retraction f = 1.
rt, exponent = root(RelativeWord.from_text("x a^2 x a^2"), 4)
print("\nroot of x a^2 x a^2 (n=4):", rt, " exponent:", exponent,
      " sigma:", (rt.epsilon_sum * 1 + rt.p_sum) % 4)

# Orientability on the relative side: conjugacy with the inverse.
print("\ncommutator x a X a^-1 orientable (n=2):",
      relative_orientable(RelativeWord.from_text("x a X A"), 2))

# A change of variable u = x a^t rewrites the relator without changing
# the group: the key step behind the n = 18 analysis.
W = RelativeWord.from_text("x a x a^10 x a^-11")
V = change_variable(W, 18, 1)
print("\nu = x a turns", W, "into", V.reduced(18))

# Lifting gives the ordinary two-generator presentation.
print("\nlift to (a, x : a^18, ...):")
print(lift(W, 18))

# The rewrite of an orientable relative word is always orientable.
from cycpres import CyclicPresentation, orientability
w = rho(to_relative(parse_word("x0 x2 x3", 7), 7), 7, 0)
print("\nrewrite orientable:", orientability(CyclicPresentation(7, w)).orientable)
