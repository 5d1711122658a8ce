"""
Building every brace of a given order from explicit formulas
============================================================

"""

# the catalog constructs one brace per class directly from closed-form
# multiplications, with no search involved; each entry is then checked
# against the brace axioms and its computed invariants
import sys

from braceforge.brace import brace_invariants, verify_left_brace
from braceforge.catalog import catalog_for_case

entries = catalog_for_case(3, 7)
print(f"{len(entries)} braces of order 63\n")

for e in entries:
    result = verify_left_brace(e.brace)
    inv = brace_invariants(e.brace)
    params = ", ".join(f"{k}={v}" for k, v in e.parameters.items()) or "-"
    print(f"{e.family:<22} {params:<12} carrier={e.brace.spec.kind:<6}"
          f" |ker|={inv.ker_size:<3} mult={str(inv.mult_class):<18}"
          f" bi-skew={inv.bi_skew!s:<5} ok={result.ok}")

# the invariants stored with each entry are exact, not just re-derived
# (an explicit check, not an assert, so that python -O keeps it)
inexact = [e.family for e in entries if brace_invariants(e.brace) != e.expected]
if inexact:
    sys.exit(f"stored invariants differ from the computed ones: {inexact}")
print("\nall stored invariants exact")
