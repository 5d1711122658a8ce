"""
Deriving checked set-theoretic Yang-Baxter solutions
====================================================

"""

# every brace yields a solution r(x, y) = (sigma_x(y), tau_y(x)) of the
# set-theoretic Yang-Baxter equation on its underlying set
from braceforge.catalog import mixed_pq_brace
from braceforge.io import canonical_dumps, solution_to_json
from braceforge.ybe import (
    sigma_group_order,
    solution_from_brace,
    solution_properties,
    verify_ybe,
)

B = mixed_pq_brace(3, 2)
sol = solution_from_brace(B)
print(f"solution on {sol.n} points")
print("r(1, 2) =", sol.r(1, 2))

# the braid relation is decided exhaustively, not sampled: for an involutive
# non-degenerate r it is equivalent to sigma_x sigma_y =
# sigma_{sigma_x(y)} sigma_{tau_y(x)} on all n^2 pairs; otherwise, or to name
# a failing triple, verify_ybe scans all n^3 triples
result = verify_ybe(sol)
print("braid relation over all triples:", result.ok)

# these solutions are always non-degenerate and involutive
props = solution_properties(sol)
print("properties:", props)

# the permutation group generated by the sigma rows has order n / |ker|
print("|<sigma_x>| =", sigma_group_order(sol))

# the JSON form is byte-deterministic and embeds the check results
doc = canonical_dumps(solution_to_json(sol, {"ybe": result.ok, **props}))
print("\nfirst lines of the serialized solution:")
print("\n".join(doc.splitlines()[:6]))
