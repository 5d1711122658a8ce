"""
Enumerating the regular-subgroup classes of a holomorph
=======================================================

"""

# a carrier is one of the two abelian groups of order p^2 * q; here we
# take p = 3, q = 2 and look at both of them
from braceforge.algebra import group_spec
from braceforge.regular import regular_subgroups_structured, orbit_partition, tabulate

for kind in ("cyclic", "mixed"):
    spec = group_spec(3, 2, kind)
    print(f"carrier {spec.kind}, order {spec.n}, |Hol| = {spec.hol_order}")

    # every regular subgroup of the holomorph, up to conjugacy
    subgroups = regular_subgroups_structured(spec)
    classes = orbit_partition(subgroups, spec=spec)

    # cross-tabulate against the stored class counts
    report = tabulate(classes, spec)
    for ker, label, got, want in report.cell_rows():
        print(f"    |ker lambda| = {ker:3d}  {label:<22} {got} (expected {want})")
    print(f"    total {report.total}, expected {report.expected_total},"
          f" match = {report.matches}")
    print()
