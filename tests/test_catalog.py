"""The named brace families: frozen examples, invariants, completeness."""

from collections import Counter

import pytest

from braceforge import algebra, cli
from braceforge.algebra import Kind, group_spec
from braceforge.brace import brace_invariants, verify_left_brace
from braceforge.catalog import (
    catalog_for_carrier,
    catalog_for_case,
    cyclic_pq_brace,
    cyclic_semidirect_brace,
    f_j,
    f_j_inverse,
    fourq1mod4_cyclic,
    fourq1mod4_mixed_kerq,
    fourq_cyclic_Bij,
    fourq_cyclic_kerq,
    fourq_mixed_Bij,
    mixed_G0_brace_q2,
    mixed_G2_brace,
    mixed_Bs_brace,
    mixed_pq_brace,
    pm1_mixed_brace,
    q1p2_cyclic_Bj,
    q1p_cyclic_Bjk,
    q1p_mixed_Bij,
    q1p_mixed_Bs,
    trivial_brace,
)

from helpers import (
    DESK_PAIRS,
    brace_axiom_scan,
    brace_orbit_key,
    braces_isomorphic,
    catalog,
    hol_closure,
    regular_from_brace,
)

# classes per pair, split by carrier, straight from the per-family tables
EXPECTED_SIZES = {
    (3, 2): 8,
    (2, 5): 11,
    (2, 7): 9,
    (5, 3): 5,
    (3, 7): 11,
    (3, 19): 14,
    (5, 13): 4,
    (7, 3): 9,
}


@pytest.mark.parametrize("pair", DESK_PAIRS, ids=str)
def test_catalog_for_case_is_its_two_carriers_concatenated(pair):
    cyclic = catalog_for_carrier(*pair, Kind.CYCLIC)
    mixed = catalog_for_carrier(*pair, "mixed")
    assert {e.brace.spec.kind for e in cyclic} == {Kind.CYCLIC}
    assert {e.brace.spec.kind for e in mixed} == {Kind.MIXED}
    assert cyclic + mixed == catalog_for_case(*pair) == list(catalog(*pair))
    assert catalog_for_case(*pair, kinds=(Kind.MIXED,)) == mixed


def test_compare_on_the_mixed_carrier_builds_no_cyclic_spec(monkeypatch, capsys):
    built = []
    init = algebra.GroupSpec.__init__

    def record(self, p, q, kind):
        built.append(algebra.Kind(kind))
        init(self, p, q, kind)

    monkeypatch.setattr(algebra, "_SPEC_CACHE", {})
    monkeypatch.setattr(algebra.GroupSpec, "__init__", record)
    assert cli.main(["compare", "--p", "3", "--q", "2", "--additive", "mixed"]) == 0
    assert "perfect bijection" in capsys.readouterr().out
    assert built == [Kind.MIXED]


def test_catalog_sizes():
    for pair, size in EXPECTED_SIZES.items():
        assert len(catalog(*pair)) == size, pair


@pytest.mark.parametrize("pair", sorted(EXPECTED_SIZES), ids=str)
def test_catalog_entries_verify_and_match_expected_invariants(pair):
    for e in catalog(*pair):
        res = verify_left_brace(e.brace)
        assert res.ok, (e.family, e.parameters, res.problems)
        scan = brace_axiom_scan(e.brace)
        assert scan.ok, (e.family, e.parameters, scan.problems)
        assert brace_invariants(e.brace) == e.expected, (e.family, e.parameters)


# ---------------- frozen single products ----------------
# hand-checked against the stated circle formulas


def test_cyclic_family_products():
    assert cyclic_pq_brace(3, 2).circle((1, 0), (1, 0)) == (5, 0)
    assert cyclic_semidirect_brace(3, 2).circle((0, 1), (1, 0)) == (8, 1)
    assert q1p_cyclic_Bjk(3, 7, j=0, k=1).circle((1, 0), (1, 1)) == (2, 2)
    assert q1p2_cyclic_Bj(3, 19, j=0).circle((1, 0), (0, 1)) == (1, 4)


def test_mixed_family_products():
    assert mixed_pq_brace(3, 2).circle((1, 1, 0), (1, 1, 0)) == (0, 2, 0)
    assert mixed_Bs_brace(7, 3, s=1).circle((0, 0, 1), (1, 1, 0)) == (2, 2, 1)
    assert mixed_G2_brace(7, 3).circle((0, 1, 0), (0, 1, 0)) == (1, 2, 0)
    assert mixed_G0_brace_q2(3).circle((0, 1, 1), (0, 1, 0)) == (2, 0, 1)
    assert pm1_mixed_brace(5, 3).circle((0, 0, 1), (1, 0, 0)) == (0, 1, 1)
    assert q1p_mixed_Bij(3, 7, i=1, j=0).circle((0, 1, 0), (0, 0, 1)) == (0, 1, 2)
    assert q1p_mixed_Bs(3, 7, s=1).circle((0, 1, 0), (0, 0, 1)) == (0, 1, 1)


def test_order_four_q_products():
    # element coordinates put the 4-part first, the q-part second
    assert fourq_cyclic_Bij(7, i=0, j=1).circle((1, 0), (1, 0)) == (0, 0)
    assert fourq_cyclic_kerq(7).circle((2, 0), (0, 1)) == (2, 6)
    assert fourq_mixed_Bij(7, i=0, j=1).circle((0, 1, 0), (0, 1, 0)) == (1, 0, 0)
    assert fourq1mod4_cyclic(5, variant=2).circle((1, 1), (0, 1)) == (1, 3)
    B = fourq1mod4_mixed_kerq(5)
    tau, sigma = (0, 1, 0), (1, 0, 0)
    assert B.circle(tau, tau) == sigma
    # lambda_sigma is xi^2 = -1 on the q-part, identity on the p-part
    assert B.lambda_desc(sigma) == ((1, 0, 0, 1), pow(2, 2, 5))


def test_f_j_shift_property():
    # f_j(m + kp) = f_j(m) + kp, exhaustively mod p^2
    for p, j in [(3, 0), (3, 1), (3, 2), (5, 1), (5, 3)]:
        for m in range(p * p):
            for k in range(p):
                assert f_j(p, j, m + k * p) % (p * p) == (f_j(p, j, m) + k * p) % (
                    p * p
                )
        # f_j is a bijection on Z_p^2 and f_j_inverse inverts it
        values = sorted(f_j(p, j, m) % (p * p) for m in range(p * p))
        assert values == list(range(p * p))
        for m in range(p * p):
            assert f_j_inverse(p, j, f_j(p, j, m) % (p * p)) == m
    assert f_j(3, 1, 2) == 5


def test_bs_brace_equals_its_generator_presentation():
    # ground truth for the s-indexed mixed families: the subgroup generated
    # by (eps, id), (tau^s, C), (sigma, eps -> eps^r) must be the graph of
    # the constructed lambda
    p, q, r = 3, 7, 2
    spec = group_spec(p, q, Kind.MIXED)
    ident = spec.aut_desc(spec.identity_aut)
    for s in (1, 2):
        B = q1p_mixed_Bs(p, q, s)
        expected = hol_closure(
            spec,
            [
                ((0, 0, 1), ident),
                ((0, s % p, 0), ((1, 1, 0, 1), 1)),
                ((1, 0, 0), ((1, 0, 0, 1), r)),
            ],
        )
        assert regular_from_brace(B) == expected


def test_b1_and_bw_are_not_isomorphic():
    # the two s-values index genuinely different classes
    assert not braces_isomorphic(q1p_mixed_Bs(3, 7, 1), q1p_mixed_Bs(3, 7, 2))


def test_variant_flag_of_the_1mod4_cyclic_family():
    B1 = fourq1mod4_cyclic(5, variant=1)
    B2 = fourq1mod4_cyclic(5, variant=2)
    assert not braces_isomorphic(B1, B2)
    with pytest.raises(ValueError):
        fourq1mod4_cyclic(5, variant=3)


@pytest.mark.parametrize("pair", [(3, 2), (2, 5), (3, 7)], ids=str)
def test_rank_one_constants_give_the_same_classes(pair):
    # rebuilding with second-smallest constants permutes some family indices
    # but must hit exactly the same conjugacy classes, class for class
    base = catalog(*pair, rank=0)
    alt = catalog(*pair, rank=1)
    assert Counter(e.family for e in base) == Counter(e.family for e in alt)
    assert Counter(map(lambda e: brace_orbit_key(e.brace), base)) == Counter(
        map(lambda e: brace_orbit_key(e.brace), alt)
    )


def test_rank_one_index_permutation_at_3_7():
    # with r = 4 instead of 2 the j/s indices swap 1 <-> 2; record the exact
    # permutation so a silent regression cannot hide behind the multiset test
    base = {
        (e.family, tuple(sorted(e.parameters.items()))): brace_orbit_key(e.brace)
        for e in catalog(3, 7, rank=0)
    }
    alt = {
        (e.family, tuple(sorted(e.parameters.items()))): brace_orbit_key(e.brace)
        for e in catalog(3, 7, rank=1)
    }
    moved = sorted(k for k in base if base[k] != alt[k])
    assert moved == [
        ("q1p_cyclic_Bjk", (("j", 1), ("k", 1))),
        ("q1p_cyclic_Bjk", (("j", 2), ("k", 1))),
        ("q1p_mixed_Bs", (("s", 1),)),
        ("q1p_mixed_Bs", (("s", 2),)),
    ]
    assert alt[("q1p_cyclic_Bjk", (("j", 1), ("k", 1)))] == base[
        ("q1p_cyclic_Bjk", (("j", 2), ("k", 1)))
    ]
    assert alt[("q1p_mixed_Bs", (("s", 1),))] == base[("q1p_mixed_Bs", (("s", 2),))]


def test_trivial_brace_is_in_every_catalog():
    for pair in DESK_PAIRS:
        fams = [e.family for e in catalog(*pair)]
        assert fams.count("trivial") == 2  # one per carrier
