"""Todd-Coxeter coset enumeration: orders, indexes, and permutations.

Run:  python demos/04_coset_enumeration.py
"""

from dataclasses import replace

from cycpres import (
    FinitePresentation,
    generator_permutation,
    gnkl,
    lift,
    parse_presentation,
    to_relative,
    todd_coxeter,
)
from cycpres.enumerate import relabel

# Small sanity cases first: cyclic and dihedral groups.
for n in (5, 12):
    t = todd_coxeter(FinitePresentation.make(("a",), (f"a^{n}",)))
    print(f"(a : a^{n}) has {t.count} cosets")
d = FinitePresentation.make(("r", "s"), ("r^7", "s^2", "r s r s"))
print("dihedral of order", todd_coxeter(d).count)

# The group K = (b, u : b^6, u^2 b^3 u b^2): finite of order 342, and the
# subgroup generated by b has index 57.
K = parse_presentation("""
gens: b u
rels:
b^6
u u b^3 u b^2
""")
print("\n|K| =", todd_coxeter(K).count)
over_b = todd_coxeter(replace(K, subgroup=(K.word("b"),)))
print("index of <b> in K =", over_b.count)
perm = generator_permutation(over_b, "b")
print("fixed cosets of b :", [i + 1 for i, img in enumerate(perm) if i == img])

# Enumeration is a semi-decision procedure: on an infinite group the
# table only overflows, it never lies.
z2 = FinitePresentation.make(("a", "b"), ("a b A B",))
t = todd_coxeter(z2, max_cosets=500)
print("\nfree abelian of rank 2:", t.status,
      f"({t.count} live cosets at the cap)")

# The extension (a, x : a^n, W) of the cyclic group of order n by
# G_n(k,l): lift writes W from the relative form of x_0 x_k x_l.
E = lift(to_relative(gnkl(5, 0, 1).word, 5), 5)
print("\nextension presentation for (5,0,1):")
print(E)
print("|E| =", todd_coxeter(E).count, "(= n times the order of G_5(0,1))")

# todd_coxeter enumerates the shortest form of (a, x : a^n, W) under
# a = b^beta, x = y b^{-d}, and rebuilds the table in a and x.
E = replace(lift(to_relative(gnkl(12, 9, 8).word, 12), 12), subgroup=((1,),))
_, relators, _, _, beta, d = relabel(E)
print("\nG_12(9,8): W =", E.word_text(E.relators[1]))
print(f"enumerated with beta = {beta}, d = {d} as W =", E.word_text(relators[0]))
t = todd_coxeter(E)
print(f"index {t.count}, {t.defined} cosets defined")

# The table itself is its columns: t.columns[2i] is generator i's action
# on the cosets (numbered from 0) and t.columns[2i+1] its inverse's; dump
# prints the generator columns one line per coset, numbered from 1, and
# t.rows is the row-major view.
t = todd_coxeter(FinitePresentation.make(("a",), ("a^4",)))
print("\na's column:", t.columns[0], " A's column:", t.columns[1])
print(t.dump())
