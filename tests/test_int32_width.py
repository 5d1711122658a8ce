"""The Aut(A) tables of every carrier fit int32.

`GroupSpec.aut_array`, `_aut_code_index`, the automorphism permutations of
`conj_tables` and the power table of `_find_subgroup_classes` are int32,
and `compose_many` and `aut_torsion` do their descriptor arithmetic in the
dtype of `aut_array`.  The bounds are read from (p, q, kind) alone, with
no table built, on the carriers of ``test_numbering.py``: all 214 in scope
and the two of (2, 3).  The largest value of each is pinned with its
carrier, so that a change of scope meets this test first.
"""

from __future__ import annotations

import numpy as np

from braceforge.algebra import GroupSpec, aut_group_order
from test_numbering import _carriers

INT32_MAX = int(np.iinfo(np.int32).max)


def _widths(spec: GroupSpec) -> dict[str, int]:
    """The largest value each int32 table or product can hold on spec."""
    m, r, q = spec._m, spec._r, spec.q
    return {
        # Automorphism indices: every entry of _aut_code_index,
        # conj_tables' automorphism permutations and the power table.
        "n_aut": aut_group_order(spec),
        # Descriptor codes, the length of _aut_code_index: _code over a
        # composed row before the lookup.
        "code": m ** (r * r) * q,
        # A matrix entry of f o g before its reduction mod m (_mat_mul).
        "matrix_sum": r * (m - 1) ** 2,
        # The unit of f o g before its reduction mod q (_compose_cols).
        "unit_product": (q - 1) ** 2,
    }


def test_every_aut_table_value_fits_int32():
    widths = {name: _widths(spec) for name, spec in _carriers()}
    assert len(widths) == 216
    top = {
        key: max((w[key], name) for name, w in widths.items())
        for key in next(iter(widths.values()))
    }
    assert top == {
        "n_aut": (156_672, "17,3,mixed"),
        "code": (260_642, "19,2,mixed"),
        "matrix_sum": (129_600, "19,2,cyclic"),
        "unit_product": (57_600, "2,241,mixed"),
    }
    assert all(value <= INT32_MAX for value, _ in top.values())


def test_aut_tables_are_int32():
    for spec in (GroupSpec(3, 2, "mixed"), GroupSpec(17, 3, "mixed")):
        assert spec.aut_array.dtype == np.int32
        assert spec._aut_code_index.dtype == np.int32
        for perm_elt, perm_aut in spec.conj_tables:
            assert perm_aut.dtype == np.int32
            # Every conjugation indexes with it: intp, so nothing converts it.
            assert perm_elt.dtype == np.intp
