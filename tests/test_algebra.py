"""Carrier groups, automorphisms, holomorph arithmetic, subgroup machinery."""

import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braceforge import algebra
from braceforge.arith import divisors
from braceforge.algebra import (
    GroupSpec,
    Kind,
    aut_group_order,
    carrier_subgroups,
    group_spec,
    subgroup_classes_of_order,
)

from helpers import (
    DESK_PAIRS,
    add_table,
    all_descriptors,
    apply_desc,
    aut_closure,
    aut_torsion_whole,
    compose_desc,
    conj_tables_whole,
    descriptor_index,
    hol_act,
    hol_closure,
    hol_decode,
    hol_encode,
    hol_identity,
    hol_inv,
    hol_mul,
    invert_desc,
    neg,
)

SMALL_SPECS = [
    group_spec(p, q, kind)
    for (p, q) in [(2, 3), (3, 2), (2, 5), (2, 7)]
    for kind in (Kind.CYCLIC, Kind.MIXED)
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=repr)
def test_encode_decode_round_trip(spec):
    for idx in range(spec.n):
        assert spec.encode(spec.decode(idx)) == idx
    with pytest.raises(ValueError):
        spec.decode(spec.n)
    # encode reduces components first
    if spec.kind is Kind.CYCLIC:
        assert spec.encode((spec.p**2, spec.q)) == 0
    else:
        assert spec.encode((spec.p, spec.p, spec.q)) == 0


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=repr)
def test_addition_is_an_abelian_group(spec):
    add = add_table(spec)
    n = spec.n
    assert np.array_equal(add[0], np.arange(n))
    assert np.array_equal(add, add.T)
    # associativity, exhaustively: (a+b)+c == a+(b+c)
    for a in range(n):
        assert np.array_equal(add[add[a]], add[a][add])
    for a, x in enumerate(spec.elements):
        assert add[a, spec.encode(neg(spec, x))] == 0


@pytest.mark.parametrize("kind", ["cyclic", "mixed"])
@pytest.mark.parametrize("p,q", [(2, 5), (5, 23), (3, 109)])
def test_add_idx_equals_the_broadcast_formula(p, q, kind):
    # add_idx adds digit codes through two O(n) arrays; the reference
    # broadcasts each coordinate sum in int64, over every index pair.
    spec = GroupSpec(p, q, kind)
    every = np.arange(spec.n)
    want = add_table(spec)
    assert np.array_equal(spec.add_idx(every[:, None], every), want)
    # Scalar sums are Python ints: the oracle puts them into frozensets and
    # JSON.
    for x, y in [(0, 0), (1, spec.n - 1), (spec.n - 1, spec.n - 1), (spec.p, spec.q)]:
        got = spec.add_idx(x, y)
        assert type(got) is int and got == want[x, y]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=repr)
def test_element_order_brute_force(spec):
    for idx in range(spec.n):
        x = spec.decode(idx)
        k, acc = 1, x
        while spec.encode(acc) != 0:
            acc = spec.add(acc, x)
            k += 1
        assert spec.element_order(x) == k


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=repr)
def test_aut_count_against_exhaustive_hom_scan(spec):
    """Count bijective additive endomorphisms from generator images directly."""
    n = spec.n
    add = add_table(spec)
    # multiples[x, k] = k*x
    multiples = np.zeros((n, max(spec.p**2, spec.q) + 1), dtype=np.int64)
    for x in range(n):
        acc = 0
        for k in range(1, multiples.shape[1]):
            acc = int(add[acc, x])
            multiples[x, k] = acc
    idx = np.arange(n)
    if spec.kind is Kind.CYCLIC:
        pp = spec.p**2
        coef1, coef2 = idx % pp, idx // pp
        gens_ok1 = [x for x in range(n) if pp % spec.element_order(spec.decode(x)) == 0]
        gens_ok2 = [x for x in range(n) if spec.q % spec.element_order(spec.decode(x)) == 0]
        count = 0
        for im1 in gens_ok1:
            part1 = multiples[im1][coef1]
            for im2 in gens_ok2:
                image = add[part1, multiples[im2][coef2]]
                count += len(np.unique(image)) == n
    else:
        p = spec.p
        coef1, coef2, coef3 = idx % p, (idx // p) % p, idx // (p * p)
        p_ok = [x for x in range(n) if p % spec.element_order(spec.decode(x)) == 0]
        q_ok = [x for x in range(n) if spec.q % spec.element_order(spec.decode(x)) == 0]
        count = 0
        for im1 in p_ok:
            part1 = multiples[im1][coef1]
            for im2 in p_ok:
                part12 = add[part1, multiples[im2][coef2]]
                for im3 in q_ok:
                    image = add[part12, multiples[im3][coef3]]
                    count += len(np.unique(image)) == n
    assert count == spec.n_aut == aut_group_order(spec)


def _scalar_orders(spec):
    """Order of every automorphism, by stepping its descriptor powers."""
    descs = all_descriptors(spec)
    ident = descs[spec.identity_aut]
    out = []
    for d in descs:
        acc, k = d, 1
        while acc != ident:
            acc = compose_desc(spec, acc, d)
            k += 1
        out.append(k)
    return out


# (5, 3) cyclic takes its Aut generator from primitive_root(25), past p = 3.
@pytest.mark.parametrize(
    "spec", SMALL_SPECS + [group_spec(5, 3, Kind.CYCLIC)], ids=repr
)
def test_automorphisms_are_additive_and_compose(spec):
    """The descriptor array, its lookups, and the vectorized arithmetic
    against the scalar reference (all_descriptors, apply_desc,
    compose_desc, invert_desc), exhaustively."""
    descs = all_descriptors(spec)
    every = np.arange(spec.n_aut)
    assert [spec.aut_desc(f) for f in every] == list(descs)
    assert spec.aut_lookup(descs).tolist() == every.tolist()
    add = add_table(spec)
    rows = spec.apply_rows(every)
    assert rows.shape == (spec.n_aut, spec.n) and rows.dtype == np.int32
    for f, d in enumerate(descs):
        row = rows[f]
        want = [spec.encode(apply_desc(spec, d, x)) for x in spec.elements]
        assert row.tolist() == want
        assert row[0] == 0
        assert np.array_equal(row[add], add[row[:, None], row[None, :]])
    table = spec.compose_many(every[:, None], every[None, :])
    index = descriptor_index(spec)
    for f, df in enumerate(descs):
        finv = index[invert_desc(spec, df)]
        assert table[finv, f] == spec.identity_aut
        for g, dg in enumerate(descs):
            want = index[compose_desc(spec, df, dg)]
            assert table[f, g] == want
            assert np.array_equal(rows[want], rows[f][rows[g]])
    orders = _scalar_orders(spec)
    # the torsion pool {f : f^k = id}, for every k up to the exponent and past it
    for k in range(1, max(orders) + 2):
        want = [f for f, o in enumerate(orders) if k % o == 0]
        assert spec.aut_torsion(k).tolist() == want


# (5, 2) mixed has the generator diag(g, 1) with g = primitive_root(5).
@pytest.mark.parametrize(
    "spec", SMALL_SPECS + [group_spec(5, 2, Kind.MIXED)], ids=repr
)
def test_conjugation_maps_match_scalar_conjugation(spec):
    descs, index = all_descriptors(spec), descriptor_index(spec)
    assert len(spec.conj_tables) == len(spec.aut_generators)
    for g, (perm_elt, perm_aut) in zip(spec.aut_generators, spec.conj_tables):
        psi, psi_inv = descs[g], invert_desc(spec, descs[g])
        assert perm_elt.tolist() == [
            spec.encode(apply_desc(spec, psi, x)) for x in spec.elements
        ]
        assert perm_aut.tolist() == [
            index[compose_desc(spec, compose_desc(spec, psi, d), psi_inv)]
            for d in descs
        ]


@pytest.mark.parametrize("k", [1, 2, 5, 12, 55])
def test_permutation_rows_equal_the_sort_test(k):
    rng = np.random.default_rng(k)
    perms = np.array([rng.permutation(k) for _ in range(100)])
    # Permutations with a later entry overwritten by the first one's value.
    near = perms.copy()
    near[np.arange(100), rng.integers(1, max(k, 2), 100) % k] = perms[:, 0]
    c = np.concatenate([perms, near, rng.integers(0, k, size=(300, k))])
    want = (np.sort(c, axis=1) == np.arange(k)).all(axis=1)
    assert np.array_equal(algebra._permutation_rows(c), want)
    assert want[:100].all() and (k == 1 or not want[100:200].any())


# Carriers for the blocked passes, each with a block size: a few cells, so
# that blocks of one to three rows end raggedly, or the default one, which
# splits the larger Aut(A)s into several blocks.
BLOCKED = [
    ((2, 5, "cyclic"), 7),
    ((2, 5, "mixed"), 7),
    ((7, 3, "mixed"), algebra._BLOCK_CELLS),
    ((5, 23, "mixed"), algebra._BLOCK_CELLS),
]


@pytest.mark.parametrize("carrier,cells", BLOCKED, ids=str)
def test_blocked_aut_passes_equal_the_whole_array_references(monkeypatch, carrier, cells):
    monkeypatch.setattr(algebra, "_BLOCK_CELLS", cells)
    spec = GroupSpec(*carrier)  # fresh, so every table is built in blocks
    assert [spec.aut_desc(f) for f in range(spec.n_aut)] == list(all_descriptors(spec))
    every = np.arange(spec.n_aut)
    assert np.array_equal(spec.aut_lookup(all_descriptors(spec)), every)
    for k in sorted({*divisors(gcd(spec.n, spec.n_aut)), 2, 3, 6}):
        assert np.array_equal(spec.aut_torsion(k), aut_torsion_whole(spec, k)), k
    want = conj_tables_whole(spec)
    assert len(spec.conj_tables) == len(want)
    for (elt, aut), (elt_ref, aut_ref) in zip(spec.conj_tables, want):
        assert np.array_equal(elt, elt_ref) and np.array_equal(aut, aut_ref)
    if spec.n_aut * spec.n <= 10_000:
        rows = spec.apply_rows(every)
        for f, d in enumerate(all_descriptors(spec)):
            want_row = [spec.encode(apply_desc(spec, d, x)) for x in spec.elements]
            assert rows[f].tolist() == want_row


def test_aut_classes_of_a_large_mixed_carrier_hold_no_whole_aut_temporary():
    # On (5, 23) mixed, |Aut(A)| = 10 560: a torsion pass or a conjugation
    # table computed over every automorphism at once peaked at 2.1 MB
    # traced; in blocks the order-5 classes, tables included, stay under
    # 1.6 MiB.
    spec = GroupSpec(5, 23, Kind.MIXED)
    tracemalloc.start()
    try:
        subgroup_classes_of_order(spec, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2**20, peak


def _subgroups_by_pool_pairs(spec, k):
    """Every order-k subgroup of Aut(A) by closing each cyclic seed with every
    element of the pool {f != id : f^k = id} (the pool from scalar orders)."""
    if k == 1:
        return [frozenset({spec.identity_aut})]
    orders = _scalar_orders(spec)
    pool = [
        f for f in range(spec.n_aut) if f != spec.identity_aut and k % orders[f] == 0
    ]
    found = {}
    cyclic_seeds = []
    seen_cyclic = set()
    for f in pool:
        S = aut_closure(spec, (f,), cap=k)
        if S is None or S in seen_cyclic:
            continue
        seen_cyclic.add(S)
        cyclic_seeds.append((S, f))
        if len(S) == k:
            found[S] = None
    for S, f in cyclic_seeds:
        if len(S) == k:
            continue
        for g in pool:
            if g in S:
                continue
            T = aut_closure(spec, (f, g), cap=k)
            if T is not None and len(T) == k:
                found.setdefault(T, None)
    return sorted(found, key=lambda s: sorted(s))


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=repr)
def test_aut_subgroups_match_closing_every_pool_pair(spec):
    # The classes found as products of cyclic subgroups against every
    # order-k subgroup found by the exhaustive scan: each representative is
    # one of them, and the classes account for all of them.
    g = gcd(spec.n, spec.n_aut)
    for k in (d for d in range(1, g + 1) if g % d == 0):
        reference = _subgroups_by_pool_pairs(spec, k)
        classes = subgroup_classes_of_order(spec, k)
        assert all(c.elements in reference for c in classes)
        assert sum(c.n_conjugates for c in classes) == len(reference)


# Number of subgroups of Aut(A) of each order k dividing gcd(|A|, |Aut(A)|),
# summed over k; counted by the exhaustive pairwise scan that listed every
# such subgroup before the classes were found by cyclic extension.  The
# (11, 5), (17, 3) and (19, 2) mixed totals are the class sizes summed by
# the cyclic-extension search (closing each pair of generators) that the
# product-set search replaced.
AUT_SUBGROUP_TOTALS = {
    (3, 2, "cyclic"): 4, (3, 2, "mixed"): 30,
    (2, 5, "cyclic"): 7, (2, 5, "mixed"): 15,
    (2, 7, "cyclic"): 5, (2, 7, "mixed"): 11,
    (5, 3, "cyclic"): 2, (5, 3, "mixed"): 17,
    (3, 7, "cyclic"): 6, (3, 7, "mixed"): 18,
    (3, 19, "cyclic"): 9, (3, 19, "mixed"): 27,
    (5, 13, "cyclic"): 2, (5, 13, "mixed"): 7,
    (7, 3, "cyclic"): 4, (7, 3, "mixed"): 126,
    (13, 3, "mixed"): 345,
    (11, 5, "mixed"): 416, (17, 3, "mixed"): 155, (19, 2, "mixed"): 462,
}


@pytest.mark.parametrize("carrier", list(AUT_SUBGROUP_TOTALS), ids=str)
def test_aut_subgroup_class_sizes_sum_to_the_exhaustive_count(carrier):
    spec = group_spec(*carrier)
    g = gcd(spec.n, spec.n_aut)
    total = sum(
        c.n_conjugates
        for k in range(1, g + 1)
        if g % k == 0
        for c in subgroup_classes_of_order(spec, k)
    )
    assert total == AUT_SUBGROUP_TOTALS[carrier]


GENERATOR_CARRIERS = [
    *((p, q, kind) for p, q in DESK_PAIRS for kind in ("cyclic", "mixed")),
    (11, 5, "mixed"), (13, 3, "mixed"), (17, 3, "mixed"), (19, 2, "mixed"),
]


@pytest.mark.parametrize("carrier", GENERATOR_CARRIERS, ids=str)
def test_aut_class_generators_generate_the_representative(carrier):
    # Past the trivial group: at most two generators, one exactly when the
    # class is cyclic, closing (by the scalar reference) to the
    # representative itself.
    spec = group_spec(*carrier)
    for k in divisors(gcd(spec.n, spec.n_aut))[1:]:
        for c in subgroup_classes_of_order(spec, k):
            cyclic = any(len(aut_closure(spec, (f,))) == k for f in c.elements)
            assert len(c.generators) == (1 if cyclic else 2), (k, c.generators)
            assert aut_closure(spec, c.generators) == c.elements


def test_a_missing_cyclic_subgroup_is_reported(monkeypatch):
    # Drop every generator of one non-central order-2 subgroup of GL(2, 3)
    # from the torsion list: its conjugates are still found, so the class
    # sizes exceed the listed count.  A fresh spec keeps the shared one clean.
    spec = GroupSpec(3, 2, Kind.MIXED)
    pool = spec.aut_torsion(2)
    ident = spec.identity_aut
    central = int(spec.aut_lookup([((2, 0, 0, 2), 1)])[0])
    dropped = next(f for f in pool.tolist() if f not in (ident, central))
    monkeypatch.setattr(spec, "aut_torsion", lambda k: pool[pool != dropped])
    with pytest.raises(RuntimeError, match="order 2: 12 cyclic subgroups"):
        subgroup_classes_of_order(spec, 2)


def test_equal_specs_share_no_subgroup_classes():
    # specs compare equal by (p, q, kind), but each finds its own classes
    shared = subgroup_classes_of_order(group_spec(3, 2, Kind.MIXED), 2)
    spec = GroupSpec(3, 2, Kind.MIXED)
    classes = subgroup_classes_of_order(spec, 2)
    assert classes[0].spec is spec
    assert subgroup_classes_of_order(spec, 2) is classes  # found once per spec
    assert [c.elements for c in classes] == [c.elements for c in shared]


def _hol_elements(spec):
    return [
        (spec.decode(a), d) for a in range(spec.n) for d in all_descriptors(spec)
    ]


@pytest.mark.parametrize("kind", [Kind.CYCLIC, Kind.MIXED])
def test_holomorph_group_laws_and_action(kind):
    spec = group_spec(3, 2, kind)
    els = _hol_elements(spec)
    e = hol_identity(spec)
    rng = np.random.default_rng(7)
    sample = [els[i] for i in rng.integers(0, len(els), size=40)]
    for x in sample:
        assert hol_mul(spec, e, x) == x == hol_mul(spec, x, e)
        assert hol_mul(spec, x, hol_inv(spec, x)) == e
        for y in sample[:12]:
            xy = hol_mul(spec, x, y)
            for z in sample[:6]:
                assert hol_mul(spec, xy, z) == hol_mul(spec, x, hol_mul(spec, y, z))
            # action compatibility: (xy).pt == x.(y.pt)
            for pt_idx in (0, 1, spec.n - 1):
                pt = spec.decode(pt_idx)
                assert hol_act(spec, xy, pt) == hol_act(spec, x, hol_act(spec, y, pt))
    # faithful: only the identity fixes every point
    fixers = [
        h for h in els if all(hol_act(spec, h, spec.decode(i)) == spec.decode(i) for i in range(spec.n))
    ]
    assert fixers == [e]


def test_hol_act_spec_example():
    # ((1,0), phi_{8,1}) applied to (0,1) in the cyclic carrier of (3,2)
    spec = group_spec(3, 2, Kind.CYCLIC)
    assert hol_act(spec, ((1, 0), (8, 1)), (0, 1)) == (1, 1)
    assert hol_mul(spec, ((1, 0), (1, 1)), ((1, 0), (1, 1))) == ((2, 0), (1, 1))


def test_closure_known_orders():
    spec = group_spec(3, 2, Kind.CYCLIC)
    ident = spec.aut_desc(spec.identity_aut)
    assert len(hol_closure(spec, [((1, 0), ident)])) == 9
    H = hol_closure(spec, [((1, 0), ident), ((0, 1), (8, 1))])
    assert len(H) == 18
    spec73 = group_spec(7, 3, Kind.MIXED)
    ident73 = spec73.aut_desc(spec73.identity_aut)
    d1 = ((2, 0, 0, 2), 1)  # diag(g, g) with g = 2 of order 3 mod 7
    G = hol_closure(
        spec73,
        [((1, 0, 0), ident73), ((0, 1, 0), ident73), ((0, 0, 1), d1)],
    )
    assert len(G) == 147


def test_closure_properties_and_cap():
    spec = group_spec(3, 2, Kind.MIXED)
    ident = spec.aut_desc(spec.identity_aut)
    ids = hol_closure(spec, [((1, 0, 0), ((1, 1, 0, 1), 1)), ((0, 0, 1), ident)])
    for h in list(ids)[:20]:
        pair = hol_decode(spec, h)
        assert hol_encode(spec, hol_inv(spec, pair)) in ids
        for g in list(ids)[:10]:
            assert hol_encode(spec, hol_mul(spec, pair, hol_decode(spec, g))) in ids
    assert hol_encode(spec, hol_identity(spec)) in ids
    assert hol_closure(spec, [((1, 0, 0), ident)], cap=2) is None
    with pytest.raises(ValueError):
        hol_closure(spec, [])


def test_carrier_subgroup_counts():
    # cyclic carrier: exactly one subgroup per divisor
    spec = group_spec(3, 7, Kind.CYCLIC)
    subs = carrier_subgroups(spec)
    assert sorted(len(S) for S in subs) == [1, 3, 7, 9, 21, 63]
    # mixed carrier: p+1 subgroups of order p (the lines in Z_p x Z_p)
    spec = group_spec(3, 7, Kind.MIXED)
    by_order = {}
    for S in carrier_subgroups(spec):
        by_order[len(S)] = by_order.get(len(S), 0) + 1
    assert by_order == {1: 1, 3: 4, 9: 1, 7: 1, 21: 4, 63: 1}
    # per-order lists keep the whole lattice's (order, elements) sort, which
    # the lift search's kernel indices rely on
    for d in by_order:
        assert carrier_subgroups(spec, d) == sorted(
            (S for S in carrier_subgroups(spec) if len(S) == d),
            key=lambda s: sorted(s),
        )


def _lattice_by_joins(spec):
    """Every subgroup of the carrier: the cyclic subgroups from element
    chains, saturated under pairwise joins (H + C is a subgroup, A abelian)."""
    n = spec.n
    add = add_table(spec)
    cyclics = set()
    for x in range(n):
        chain, y = [0], x
        while y != 0:
            chain.append(y)
            y = int(add[y, x])
        cyclics.add(frozenset(chain))
    subs = set(cyclics)
    frontier = list(subs)
    while frontier:
        new = []
        for H in frontier:
            for C in cyclics:
                if C <= H:
                    continue
                J = frozenset(add[np.ix_(sorted(H), sorted(C))].ravel().tolist())
                if J not in subs:
                    subs.add(J)
                    new.append(J)
        frontier = new
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize(
    "carrier",
    [(p, q, kind) for p, q in DESK_PAIRS for kind in ("cyclic", "mixed")]
    + [(5, 23, "mixed"), (2, 73, "cyclic")],
    ids=str,
)
def test_carrier_lattice_matches_saturating_joins(carrier):
    spec = group_spec(*carrier)
    assert carrier_subgroups(spec) == _lattice_by_joins(spec)


def _conjugate(spec, S, f):
    """f o S o f^-1, by the scalar descriptor code."""
    descs, index = all_descriptors(spec), descriptor_index(spec)
    d, dinv = descs[f], invert_desc(spec, descs[f])
    return frozenset(
        index[compose_desc(spec, compose_desc(spec, d, descs[s]), dinv)] for s in S
    )


def test_aut_subgroup_classes_known_counts():
    spec = group_spec(7, 3, Kind.MIXED)
    k3 = subgroup_classes_of_order(spec, 3)
    assert len(k3) == 3
    # the diagonal generators diag(2, 2^s), s in {0,1,2}, hit all three classes
    hit = set()
    for s in (0, 1, 2):
        d = ((2, 0, 0, pow(2, s, 7)), 1)
        S = aut_closure(spec, spec.aut_lookup([d]).tolist())
        for i, cls in enumerate(k3):
            if any(_conjugate(spec, S, f) == cls.elements for f in range(spec.n_aut)):
                hit.add(i)
                break
    assert hit == {0, 1, 2}
    assert len(subgroup_classes_of_order(spec, 7)) == 1
    assert len(subgroup_classes_of_order(group_spec(3, 19, Kind.CYCLIC), 9)) == 4


def test_aut_subgroup_classes_pairwise_nonconjugate():
    spec = group_spec(3, 2, Kind.MIXED)
    with pytest.raises(ValueError):
        subgroup_classes_of_order(spec, 4)  # 4 does not divide |A| = 18
    for k in (2, 3, 6):
        classes = subgroup_classes_of_order(spec, k)
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                assert all(
                    _conjugate(spec, a.elements, f) != b.elements
                    for f in range(spec.n_aut)
                )


@given(st.integers(0, 17), st.integers(0, 17), st.integers(0, 17))
@settings(max_examples=60, deadline=None)
def test_mixed_addition_componentwise(a, b, c):
    spec = group_spec(3, 2, Kind.MIXED)
    x = spec.decode(a % spec.n)
    y = spec.decode(b % spec.n)
    s = spec.add(x, y)
    assert s == ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3, (x[2] + y[2]) % 2)
    assert neg(spec, x) == ((-x[0]) % 3, (-x[1]) % 3, (-x[2]) % 2)
