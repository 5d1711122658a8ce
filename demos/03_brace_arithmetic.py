"""
Working with a single brace: circle products and lambda maps
============================================================

"""

# take the brace of order 18 whose multiplicative group is the
# semidirect product Z9 : Z2
from braceforge.brace import ker_lambda, fix_set, is_bi_skew, mult_group_class
from braceforge.catalog import cyclic_semidirect_brace

B = cyclic_semidirect_brace(3, 2)
spec = B.spec

# elements live in Z9 x Z2; addition is componentwise
a, b = (1, 0), (0, 1)
print("a + b      =", spec.add(a, b))

# the circle product is the second, generally non-abelian, operation
print("a o b      =", B.circle(a, b))
print("b o a      =", B.circle(b, a))

# lambda_a(x) = -a + a o x is an automorphism of the additive group for
# every a; the map a -> lambda_a is the defining homomorphism
print("lambda_a   =", B.lambda_desc(a))
print("lambda_b   =", B.lambda_desc(b))

# kernel and fixed points of lambda are the two basic invariants
print("|ker|      =", len(ker_lambda(B)))
print("|fix|      =", len(fix_set(B)))
print("mult class =", mult_group_class(B))

# a brace is bi-skew exactly when a -> lambda_a is additive
print("bi-skew    =", is_bi_skew(B))
