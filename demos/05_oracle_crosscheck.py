"""
Cross-checking the structured enumerator against a naive search
===============================================================

"""

# the structured enumerator works Sylow-by-Sylow through the holomorph;
# the oracle joins up to three cyclic subgroups of the holomorph with no
# structural shortcuts.  Both must land on the same conjugacy classes.
import sys

from braceforge.algebra import group_spec
from braceforge.regular import (
    orbit_min_key,
    regular_subgroups_oracle,
    regular_subgroups_structured,
)

spec = group_spec(5, 3, "mixed")
print(f"carrier {spec.kind.value} of order {spec.n}, |Hol| = {spec.hol_order}")

structured = regular_subgroups_structured(spec)
oracle = regular_subgroups_oracle(spec)
print(f"structured enumerator: {len(structured)} subgroups, at least one per class")
print(f"naive oracle:          {len(oracle)} regular subgroups in total")

# both return each regular subgroup as its brace (its lambda table); compare
# at the level of conjugacy classes via canonical orbit keys, the
# orbit-minimal lambda tables
keys_structured = {orbit_min_key(B)[0] for B in structured}
keys_oracle = {orbit_min_key(B)[0] for B in oracle}
# (an explicit check, not an assert, so that python -O keeps it)
if keys_structured != keys_oracle:
    sys.exit("the two enumerations land on different conjugacy classes")
print(f"orbit sets agree: {len(keys_oracle)} classes either way")
