"""Congruence-case classification and the derived constants."""

import pytest

from braceforge.cases import (
    CongruenceCase,
    ExcludedPairError,
    PrimePair,
    bset_for,
    classify_case,
    derive_params,
    ensure_in_scope,
)

C = CongruenceCase


def test_classification_of_known_pairs():
    expected = {
        (2, 3): C.EXCLUDED_12,
        (2, 5): C.FOURQ_1MOD4,
        (2, 13): C.FOURQ_1MOD4,
        (2, 7): C.FOURQ_PLAIN,
        (2, 11): C.FOURQ_PLAIN,
        (3, 2): C.P1Q_Q2,
        (5, 2): C.P1Q_Q2,
        (7, 3): C.P1Q_ODD,
        (11, 5): C.P1Q_ODD,
        (13, 3): C.P1Q_ODD,
        (5, 3): C.PM1Q,
        (11, 3): C.PM1Q,
        (3, 19): C.Q1P2,
        (3, 7): C.Q1P,
        (5, 11): C.Q1P,
        (5, 13): C.ALG_IND,
        (7, 5): C.ALG_IND,
    }
    for pair, case in expected.items():
        assert classify_case(pair) is case, pair


def test_classification_matches_congruences():
    # independent re-derivation of the precedence for all odd valid pairs
    pairs = [
        (p, q)
        for p in (3, 5, 7)
        for q in (3, 5, 7, 11, 13)
        if p != q and p * p * q <= 1000
    ]
    for p, q in pairs:
        case = classify_case((p, q))
        if p % q == 1:
            assert case is C.P1Q_ODD
        elif p % q == q - 1:
            assert case is C.PM1Q
        elif q % (p * p) == 1:
            assert case is C.Q1P2
        elif q % p == 1:
            assert case is C.Q1P
        else:
            assert case is C.ALG_IND


def test_prime_pair_validation():
    with pytest.raises(ValueError):
        PrimePair(4, 3)
    with pytest.raises(ValueError):
        PrimePair(3, 9)
    with pytest.raises(ValueError):
        PrimePair(3, 3)
    with pytest.raises(ValueError):
        PrimePair(11, 13)  # order 1573 over the bound of 1000


def test_excluded_pair():
    assert classify_case((2, 3)) is C.EXCLUDED_12
    with pytest.raises(ExcludedPairError, match="GAP"):
        ensure_in_scope(C.EXCLUDED_12)
    with pytest.raises(ExcludedPairError):
        derive_params((2, 3))
    ensure_in_scope(C.ALG_IND)  # no-op


def test_derived_constants_frozen_values():
    ps = derive_params((7, 3))
    assert (ps.case, ps.g, ps.t, ps.bset) == (C.P1Q_ODD, 2, 18, (0, 1, 2))
    ps = derive_params((3, 2))
    assert (ps.case, ps.g, ps.t, ps.bset) == (C.P1Q_Q2, 2, 8, (0, 1))
    ps = derive_params((3, 7))
    assert (ps.case, ps.r, ps.w) == (C.Q1P, 2, 2)
    ps = derive_params((3, 19))
    assert (ps.case, ps.r, ps.h, ps.w) == (C.Q1P2, 7, 4, 2)
    ps = derive_params((5, 3))
    assert (ps.case, ps.xi_poly, ps.F) == (C.PM1Q, 1, (0, 4, 1, 4))
    ps = derive_params((2, 5))
    assert (ps.case, ps.r, ps.xi4) == (C.FOURQ_1MOD4, 4, 2)
    ps = derive_params((2, 7))
    assert (ps.case, ps.r) == (C.FOURQ_PLAIN, 6)
    assert derive_params((5, 13)).case is C.ALG_IND


def test_constants_satisfy_their_order_predicates():
    for pair in [(7, 3), (3, 2), (3, 7), (3, 19), (5, 3), (2, 5), (2, 7)]:
        p, q = pair
        ps = derive_params(pair)
        if ps.g is not None:
            assert pow(q, _order(ps.g, p), p)  # g is a unit mod p
            assert _order(ps.g, p) == q if q % 2 else 2  # order q (or 2 for q=2)
        if ps.t is not None:
            assert _order(ps.t, p * p) == q
        if ps.r is not None:
            assert _order(ps.r, q) == p
        if ps.h is not None:
            assert _order(ps.h, q) == p * p
        if ps.xi4 is not None:
            assert _order(ps.xi4, q) == 4
        if ps.F is not None:
            m00, m01, m10, m11 = ps.F
            # companion of x^2 + xi*x + 1: det 1, trace -xi, order q in GL2(p)
            assert (m00 * m11 - m01 * m10) % p == 1
            assert (m00 + m11) % p == (-ps.xi_poly) % p


def _order(a, m):
    k, x = 1, a % m
    while x != 1:
        x = x * a % m
        k += 1
    return k


def test_rank_one_constants_differ_when_possible():
    assert derive_params((3, 7), rank=1).r == 4
    assert derive_params((2, 5), rank=1).xi4 == 3
    # deterministic: same call, same answer
    assert derive_params((3, 7), rank=1) == derive_params((3, 7), rank=1)


def test_bset():
    assert bset_for(2) == (0, 1)
    assert bset_for(3) == (0, 1, 2)
    assert bset_for(7) == (0, 1, 2, 3, 6)
    # one of each inverse pair k, 1/k; 0, 1, q-1 always present
    for q in (5, 7, 11, 13, 19):
        bs = bset_for(q)
        assert {0, 1, q - 1} <= set(bs)
        rest = set(bs) - {0, 1, q - 1}
        for k in rest:
            assert min(k, pow(k, -1, q)) == k
        covered = {0, 1, q - 1} | rest | {pow(k, -1, q) for k in rest}
        assert covered == set(range(q))
