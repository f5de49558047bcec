"""
Walk through the expansion of a proper fraction into its polynomial of
remainders, one application of the remainder map at a time.

A proper fraction (a_1,...,a_n)/r stands for the cyclic quotient
singularity of order r with weights a_i.  Each remainder map R_i divides
out the i-th weight: it becomes the new denominator, everything else is
reduced modulo it.  Iterating until all denominators hit 1 produces a
finite tree of fractions; the polynomial is that tree with words in the
x_i recording the path taken.
"""

from fujiki_oka import INFINITY, ProperFraction, expand

v = ProperFraction((1, 2, 7), 12)
print("start from", v)
print()

# one level by hand
for i in range(1, v.n + 1):
    image = v.remainder(i)
    if image is INFINITY:
        print(f"  R_{i}: no finite image (weight 0)")
    elif image.is_zero():
        print(f"  R_{i}: collapses to zero (weight 1)")
    else:
        print(f"  R_{i}: {image}")
print()

# the full expansion does this recursively and collects the survivors
poly = expand(v)
print("remainder polynomial, one term per line:")
print(poly.pretty())
print()

# two numbers summarize the whole tree
S = poly.size()
h = poly.total_height()
print(f"size S = {S}   (unit entries across all coefficients)")
print(f"height h = {h}   (sum of a_i minus r, summed over terms)")
print(f"S = h + r:  {S} = {h} + {v.denominator}")
print()

# a second example whose expansion goes one level deeper
w = ProperFraction((1, 2, 5), 12)
poly2 = expand(w)
print("same game for", w)
print(poly2.pretty())
print(f"S = {poly2.size()}, h = {poly2.total_height()}, r = {w.denominator}")
