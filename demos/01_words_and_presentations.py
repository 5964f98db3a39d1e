"""Words over indexed generators, the shift, and cyclic presentations.

Run:  python demos/01_words_and_presentations.py
"""

from cycpres import (
    CyclicPresentation,
    free_reduce,
    gnkl,
    invert,
    orientability,
    parse_word,
    shift,
)

# Words are written in a token grammar: x2 is the generator with index 2,
# X2 its inverse.  Indices live modulo n.
w = parse_word("x0 x1 X2", 5)
print("w          =", w)
print("inverse    =", invert(w))
print("shifted    =", shift(w, 1), "   (every index moves up by one)")
print("shift^5    =", shift(w, 5), "   (the shift has order n)")

# Free reduction cancels adjacent inverse pairs; a reduced word is also
# cyclically reduced when its first and last letters do not cancel.
messy = parse_word("x1 x0 X0 x3 X3 x2 X1", 4)
reduced = free_reduce(messy)
print("\nmessy      =", messy)
print("reduced    =", reduced, "  cyclically reduced:", reduced.is_cyclically_reduced)

# A cyclic presentation takes one defining word and relators all its shifts.
p = CyclicPresentation(3, parse_word("x0 x1 x2", 3))
print("\npresentation", p)
for i, r in enumerate(p.relators):
    print(f"  relator {i}: {r}")

# The three-generator family G_n(k,l) uses the word x_0 x_k x_l.
print("\nG_6(2,4) relators:", [str(r) for r in gnkl(6, 2, 4).relators[:3]], "...")

# Orientability: is the defining word a cyclic permutation of the inverse
# of one of its shifts?  The G_n(k,l) words never are; length-two words
# with opposite signs can be, and then a half-word witness may exist.
print("\nP_3(x0 x1 x2) orientable:", orientability(p).orientable)
v = orientability(CyclicPresentation(2, parse_word("x0 X1", 2)))
print("P_2(x0 X1) orientable:", v.orientable, " witness:", v.witness)
print("  (the witness u satisfies u * shift^m(u)^{-1} = w with n = 2m)")
