"""Brace construction, verification, invariants, and isomorphism."""

import random
import tracemalloc

import numpy as np
import pytest

from braceforge.algebra import Kind, carrier_subgroups, group_spec
from braceforge.brace import (
    _central,
    VerifyResult,
    ZP2Q,
    ZP2xZQ,
    ZQ_RTIMES_ZP2_h,
    ZQ_RTIMES_ZP2_rp,
    SkewBrace,
    brace_from_regular,
    brace_invariants,
    fix_set,
    is_bi_skew,
    ker_lambda,
    lambda_is_additive,
    mult_group_class,
    verify_left_brace,
)
from braceforge.catalog import cyclic_pq_brace, mixed_pq_brace, trivial_brace

from helpers import (
    DESK_PAIRS,
    add_table,
    brace_axiom_scan,
    braces_isomorphic,
    catalog,
    cayley_isomorphic,
    circle_orders_by_stepping,
    circle_table,
    desk_braces,
    hol_closure,
    hol_tables,
    ideal_checks,
    lambda_hom_scan,
    lambda_identities_check,
    orbits,
    regular_from_brace,
)


def test_trivial_brace_is_the_additive_group_twice():
    spec = group_spec(3, 2, Kind.CYCLIC)
    B = trivial_brace(spec)
    assert np.array_equal(circle_table(B), add_table(spec))
    assert verify_left_brace(B).ok
    assert len(ker_lambda(B)) == spec.n
    assert len(fix_set(B)) == spec.n
    assert is_bi_skew(B)
    assert str(brace_invariants(B).mult_class) == "ZP2Q"


def test_brace_round_trip_through_regular_subgroup():
    for p, q, kind in [(3, 2, "cyclic"), (3, 2, "mixed"), (2, 5, "mixed")]:
        for oc in orbits(p, q, kind):
            B = oc.brace
            # brace_from_regular raises unless the subgroup is regular
            assert brace_from_regular(B.spec, regular_from_brace(B)) == B


def test_brace_from_regular_rejects_non_regular():
    spec = group_spec(3, 2, Kind.MIXED)
    ident = spec.aut_desc(spec.identity_aut)
    S = hol_closure(
        spec,
        [((1, 0, 0), ident), ((0, 1, 0), ident), ((0, 0, 0), ((2, 0, 0, 2), 1))],
    )
    with pytest.raises(ValueError):
        brace_from_regular(spec, S)


def test_skewbrace_validates_the_lambda_table():
    spec = group_spec(3, 2, Kind.CYCLIC)
    with pytest.raises(ValueError):
        SkewBrace(spec, [0] * 5)
    with pytest.raises(ValueError):
        SkewBrace(spec, [spec.n_aut] * spec.n)
    with pytest.raises(ValueError):
        SkewBrace(spec, [-1] + [spec.identity_aut] * (spec.n - 1))


def test_verify_left_brace_catches_corruption():
    B = cyclic_pq_brace(3, 2)
    assert verify_left_brace(B).ok
    lam = list(B.lam)
    lam[1] = (lam[1] + 1) % B.spec.n_aut
    res = verify_left_brace(SkewBrace(B.spec, lam))
    assert not res.ok
    assert res.problems  # a decoded witness is reported


def _corruptions(B: SkewBrace, rng: random.Random):
    """Three one-entry corruptions of B's lambda table: an entry moved to
    another value of lambda(A), lambda_0 moved off the identity, and an
    entry moved to an automorphism outside lambda(A) (when one exists)."""
    spec, lam = B.spec, B.lam
    image = set(B.lambda_image)
    a = rng.randrange(1, spec.n)
    changed = list(lam)
    others = sorted(image - {lam[a]})
    changed[a] = rng.choice(others) if others else (lam[a] + 1) % spec.n_aut
    yield "changed entry", changed
    moved0 = list(lam)
    moved0[0] = rng.choice([f for f in range(spec.n_aut) if f != spec.identity_aut])
    yield "non-identity lambda_0", moved0
    outside = [f for f in range(spec.n_aut) if f not in image]
    if outside:
        foreign = list(lam)
        foreign[rng.randrange(1, spec.n)] = rng.choice(outside)
        yield "automorphism outside lambda(A)", foreign


@pytest.mark.parametrize("pair", DESK_PAIRS, ids=str)
def test_verify_left_brace_agrees_with_the_axiom_scan_on_corruptions(pair):
    """The O(n^2) verdict equals the n^3 scan's on corrupted catalog braces
    of both desk carriers, and names a multiplicativity witness."""
    rng = random.Random(repr(pair))
    carriers, rejected = set(), 0
    for e in catalog(*pair):
        carriers.add(e.brace.spec.kind)
        for how, lam in _corruptions(e.brace, rng):
            C = SkewBrace(e.brace.spec, lam)
            res = verify_left_brace(C)
            assert res.ok == brace_axiom_scan(C).ok, (e.family, how, res.problems)
            assert res == lambda_hom_scan(C), (e.family, how)
            if not res.ok:
                rejected += 1
                assert any(
                    msg.startswith("lambda is not multiplicative at ")
                    for msg in res.problems
                ), (e.family, how, res.problems)
    assert carriers == {Kind.CYCLIC, Kind.MIXED}
    assert rejected


def _last_entry_moved(B: SkewBrace) -> SkewBrace:
    """B with lambda at the last element moved to the next automorphism of
    lambda(A)."""
    image = B.lambda_image
    lam = list(B.lam)
    lam[-1] = image[(image.index(lam[-1]) + 1) % len(image)]
    return SkewBrace(B.spec, lam)


@pytest.mark.parametrize("pair", DESK_PAIRS, ids=str)
def test_verify_left_brace_equals_the_pair_scan(pair):
    """The generator check, with its fallback scan in row blocks, gives the
    verdict and problem strings of the scan over every pair of the circle
    table: on every catalog and class brace, and on one corruption of each
    that lists two or more automorphisms."""
    rejected = 0
    for B in desk_braces(*pair):
        assert verify_left_brace(B) == lambda_hom_scan(B) == VerifyResult(True)
        if len(B.lambda_image) >= 2:
            C = _last_entry_moved(B)
            res = verify_left_brace(C)
            assert res == lambda_hom_scan(C), res.problems
            rejected += not res.ok
    assert rejected


def test_verify_and_invariants_make_no_n_by_n_table():
    # With the carrier's tables warm, deciding the axioms and every
    # invariant of the (5, 23) mixed classes allocates less than one n x n
    # int32 table at any moment.
    assert not hasattr(SkewBrace, "circle_np")
    assert not hasattr(SkewBrace, "circle_inv_np")
    classes = orbits(5, 23, "mixed")
    spec = classes[0].brace.spec
    spec.add_idx(0, 0), spec.identity_aut, spec._aut_code_index
    lams = [oc.brace.lam for oc in classes]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for lam in lams:
            B = SkewBrace(spec, lam)  # nothing cached yet
            assert verify_left_brace(B).ok
            brace_invariants(B)
            del B
        growth = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert growth < spec.n**2 * 4, growth


def test_lambda_identities_on_catalog_braces():
    for p, q in [(3, 2), (2, 5)]:
        for e in catalog(p, q):
            assert lambda_identities_check(e.brace), e.family


@pytest.mark.parametrize("pair", DESK_PAIRS, ids=str)
def test_lambda_action_equals_the_sorted_unique_reference(pair):
    for e in catalog(*pair):
        B = e.brace
        used, pos = np.unique(B.lam, return_inverse=True)
        rows, got = B.lambda_action
        assert B.lambda_image == tuple(used.tolist()), e.family
        assert np.array_equal(got, pos), e.family
        assert np.array_equal(rows, B.spec.apply_rows(used)), e.family


def test_lambda_identities_reject_a_corrupted_table():
    # lambda_3 moved to the next automorphism index: (6, 0) lies in ker
    # lambda, so (i) wants lambda of its double (3, 0) to be the identity
    B = cyclic_pq_brace(3, 2)
    lam = list(B.lam)
    lam[3] = (lam[3] + 1) % B.spec.n_aut
    assert not lambda_identities_check(SkewBrace(B.spec, lam))


def test_bi_skew_equals_lambda_additivity():
    # the n^3 bi-skew identity collapses to lambda being additive; the two
    # implementations are independent, so compare them on every catalog brace
    for p, q in [(3, 2), (2, 5), (3, 7), (2, 7)]:
        for e in catalog(p, q):
            assert is_bi_skew(e.brace) == lambda_is_additive(e.brace), e.family


@pytest.mark.parametrize("kind", ["cyclic", "mixed"])
@pytest.mark.parametrize("p,q", DESK_PAIRS)
def test_invariant_bi_skew_matches_the_triple_scan(p, q, kind):
    # brace_invariants takes bi_skew from lambda_is_additive; the n^3 scan
    # stays the independent check on every class representative
    for oc in orbits(p, q, kind):
        assert is_bi_skew(oc.brace) == oc.invariants.bi_skew, str(oc.invariants)


def test_sylow_ideals_follow_the_congruences():
    # p-Sylow is an ideal whenever p = +/-1 mod q; q-Sylow whenever q = 1 mod p.
    # Sylow subgroups of an abelian additive group are characteristic, hence
    # always lambda-invariant (left ideals).
    for p, q, sylow_of, want_ideal in [
        (7, 3, 7, True),   # p = 1 mod q
        (5, 3, 5, True),   # p = -1 mod q
        (3, 7, 7, True),   # q = 1 mod p
    ]:
        for e in catalog(p, q):
            spec = e.brace.spec
            syl = spec.sylow(sylow_of)
            checks = ideal_checks(e.brace, syl)
            assert checks["left_ideal"], (e.family, sylow_of)
            if want_ideal:
                assert checks["ideal"], (e.family, sylow_of)


@pytest.mark.parametrize("p,q", DESK_PAIRS)
def test_sylow_is_an_ideal_iff_normal_in_the_circle_group(p, q):
    # A Sylow subgroup of (A, +) is a left ideal, hence a Sylow subgroup of
    # (A, o); it is normal, so an ideal, iff it holds every element of
    # r-power circle order.
    for e in catalog(p, q):
        spec = e.brace.spec
        orders, _ = _scalar_orders_and_centre(e.brace)
        for r in (p, q):
            syl = spec.sylow(r)
            r_elements = sum(1 for o in orders if len(syl) % o == 0)
            checks = ideal_checks(e.brace, syl)
            assert checks["left_ideal"], (e.family, r)
            assert checks["ideal"] == (r_elements == len(syl)), (e.family, r)


def test_every_sylow_is_a_left_ideal():
    for e in catalog(2, 5):
        spec = e.brace.spec
        for r in (spec.p, spec.q):
            assert ideal_checks(e.brace, spec.sylow(r))["left_ideal"]


def test_ideal_checks_rejects_non_subgroups():
    B = trivial_brace(group_spec(3, 2, Kind.CYCLIC))
    with pytest.raises(ValueError):
        ideal_checks(B, [0, 1])  # {0, 1} is not additively closed in Z_18


def test_ideal_checks_reject_a_subgroup_lambda_moves():
    # lambda_(0,1,0) = C = [[1, 1], [0, 1]] maps (0, 1, 0) to (1, 1, 0)
    B = mixed_pq_brace(3, 7)
    I = {B.spec.encode((0, b, 0)) for b in range(3)}
    assert ideal_checks(B, I) == {"left_ideal": False, "ideal": False}


def _lambda_identities_loop(B):
    """lambda_identities_check as scalar loops over the helpers' tables."""
    spec, lam = B.spec, B.lam
    n, n_aut = spec.n, spec.n_aut
    add, rows, compose = hol_tables(spec)
    for b in range(1, n):
        if rows[lam[b]][b] != b:
            continue
        nb, power, f = b, b, lam[b]
        while nb != 0:
            nb = add[nb * n + b]
            power = add[b * n + rows[lam[b]][power]]
            f = compose[lam[b] * n_aut + f]
            if power != nb or lam[nb] != f:
                return False
    ker = [a for a in range(n) if lam[a] == spec.identity_aut]
    fix = [b for b in range(n) if all(rows[f][b] == b for f in set(lam))]
    return all(
        rows[lam[add[a * n + b]]][c] == rows[lam[b]][c]
        for b in fix
        for a in ker
        for c in ker
    )


def _ideal_flags_loop(B, I):
    """ideal_checks' verdicts as scalar loops over the helpers' tables."""
    spec, lam, n = B.spec, B.lam, B.spec.n
    add, rows, _ = hol_tables(spec)

    def circle(a, b):
        return add[a * n + rows[lam[a]][b]]

    inv = [next(b for b in range(n) if circle(a, b) == 0) for a in range(n)]
    left = all(rows[f][i] in I for f in set(lam) for i in I)
    normal = left and all(circle(circle(a, i), inv[a]) in I for a in range(n) for i in I)
    return {"left_ideal": left, "ideal": normal}


@pytest.mark.parametrize("p,q", [(3, 2), (2, 5), (3, 7)])
def test_lambda_checks_match_the_scalar_loops(p, q):
    # on every catalog brace, each of its one-entry corruptions (lambda_x
    # moved to the next automorphism index) and every carrier subgroup
    for e in catalog(p, q):
        B = e.brace
        spec = B.spec
        for I in carrier_subgroups(spec):
            assert ideal_checks(B, I) == _ideal_flags_loop(B, I), e.family
        for x in range(1, spec.n):
            lam = list(B.lam)
            lam[x] = (lam[x] + 1) % spec.n_aut
            C = SkewBrace(spec, lam)
            assert lambda_identities_check(C) == _lambda_identities_loop(C), (e.family, x)


def test_mult_class_against_cayley_oracle():
    # same multiplicative class <=> isomorphic circle groups; check every
    # pair of catalog braces at two pairs where n <= 200
    for p, q in [(3, 2), (2, 7)]:
        entries = list(catalog(p, q))
        tables = [circle_table(e.brace).tolist() for e in entries]
        classes = [mult_group_class(e.brace) for e in entries]
        for i in range(len(entries)):
            for j in range(i, len(entries)):
                same = cayley_isomorphic(tables[i], tables[j])
                assert same == (classes[i] == classes[j]), (
                    entries[i].family,
                    entries[j].family,
                )


def _scalar_orders_and_centre(B):
    """Orders in (A, o) and its centre as one flag per element, walked
    element by element over a Python copy of the circle table."""
    Z = circle_table(B).tolist()
    n = len(Z)
    orders = []
    for a in range(n):
        o, x = 1, a
        while x != 0:
            x = Z[x][a]
            o += 1
        orders.append(o)
    central = [all(Z[a][b] == Z[b][a] for b in range(n)) for a in range(n)]
    return orders, central


@pytest.mark.parametrize("p,q", DESK_PAIRS)
def test_circle_orders_and_centre_match_the_scalar_walk(p, q):
    # circle_orders takes powers at the divisors of |A| and mult_group_class
    # takes the centre from commutation with the o-generators; the centre is
    # also seen through the labels it decides: abelian, and ZQ_RTIMES_ZP2 rp
    # (centre p) vs h
    for B in desk_braces(p, q):
        orders, central = _scalar_orders_and_centre(B)
        assert list(B.circle_orders) == orders
        assert list(circle_orders_by_stepping(B)) == orders
        assert list(_central(B)) == central
        centre = sum(central)
        label = mult_group_class(B).label
        assert (label in (ZP2Q, ZP2xZQ)) == (centre == B.spec.n), label
        if label in (ZQ_RTIMES_ZP2_rp, ZQ_RTIMES_ZP2_h):
            assert (label == ZQ_RTIMES_ZP2_rp) == (centre == p), label


def test_cayley_isomorphic_guard():
    t = [[(i + j) % 201 for j in range(201)] for i in range(201)]
    with pytest.raises(ValueError):
        cayley_isomorphic(t, t)


def test_lambda_table_is_a_read_only_int32_array():
    B = catalog(7, 3)[-1].brace
    assert B.lam.dtype == np.int32 and B.lam.shape == (B.spec.n,)
    assert not B.lam.flags.writeable
    with pytest.raises(ValueError):
        B.lam[0] = B.spec.identity_aut
    # the table is copied in, so changing the source changes no brace
    source = np.array(B.lam, dtype=np.int64)
    C = SkewBrace(B.spec, source)
    source[0] += 1
    assert C == B and hash(C) == hash(B)
    assert C.key == B.key == B.lam.astype(">u4").tobytes()


def test_catalog_entries_pairwise_nonisomorphic():
    for p, q in [(3, 2), (2, 5)]:
        entries = list(catalog(p, q))
        for i, a in enumerate(entries):
            assert braces_isomorphic(a.brace, a.brace)
            for b in entries[i + 1 :]:
                if a.brace.spec != b.brace.spec:
                    continue
                assert not braces_isomorphic(a.brace, b.brace), (a.family, b.family)


def test_braces_isomorphic_needs_matching_carriers():
    B1 = trivial_brace(group_spec(3, 2, Kind.CYCLIC))
    B2 = trivial_brace(group_spec(3, 2, Kind.MIXED))
    with pytest.raises(ValueError):
        braces_isomorphic(B1, B2)


def test_invariants_are_isomorphism_invariant():
    # braces in the same orbit class must share invariants with the rep
    spec = group_spec(3, 2, Kind.MIXED)
    for oc in orbits(3, 2, "mixed"):
        perm_a, perm_f = spec.conj_tables[0]
        moved = frozenset(
            int(perm_a[h // spec.n_aut]) * spec.n_aut + int(perm_f[h % spec.n_aut])
            for h in regular_from_brace(oc.brace)
        )
        B2 = brace_from_regular(spec, moved)
        assert brace_invariants(B2) == oc.invariants
        assert braces_isomorphic(B2, oc.brace)
