"""Explicit brace constructors, one per classification family, and the
per-case catalog assembly.

Every constructor builds the lambda table directly (each lambda_x is given in
closed form as an automorphism descriptor); the circle operation follows as
a o b = a + lambda_a(b).  Families that need a derived constant (an element of
prescribed multiplicative order, a quadratic non-residue, an irreducible
companion matrix) pull it from derive_params; `rank` selects the second
choice of those constants where one exists, which must produce isomorphic
braces.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .algebra import GroupSpec, Kind, group_spec
from .arith import power
from .brace import (
    BraceInvariants,
    G_F,
    G_K,
    MultClass,
    SkewBrace,
    ZP2Q,
    ZP2_RTIMES_ZQ,
    ZP2xZQ,
    ZP_x_ZQ_RTIMES_ZP,
    ZQ_RTIMES_ZP2_h,
    ZQ_RTIMES_ZP2_rp,
)
from .cases import (
    CongruenceCase,
    PrimePair,
    _matmul,
    bset_for,
    classify_case,
    derive_params,
)

__all__ = [
    "CatalogEntry",
    "trivial_brace",
    "cyclic_pq_brace",
    "cyclic_semidirect_brace",
    "mixed_pq_brace",
    "mixed_Bs_brace",
    "mixed_G2_brace",
    "mixed_G0_brace_q2",
    "pm1_mixed_brace",
    "q1p_cyclic_Bjk",
    "q1p_mixed_Bij",
    "q1p_mixed_Bs",
    "f_j",
    "f_j_inverse",
    "q1p2_cyclic_Bj",
    "fourq_cyclic_Bij",
    "fourq_cyclic_kerq",
    "fourq_mixed_Bij",
    "fourq1mod4_cyclic",
    "fourq1mod4_mixed_kerq",
    "catalog_for_case",
    "catalog_for_carrier",
]


class CatalogEntry(NamedTuple):
    """One named family member: the brace plus its expected invariants."""

    case: CongruenceCase
    family: str
    parameters: dict[str, int]
    brace: SkewBrace
    expected: BraceInvariants


def _lam(spec: GroupSpec, desc_of) -> SkewBrace:
    """Brace from a function mapping element tuples to aut descriptors."""
    return SkewBrace(spec, spec.aut_lookup(desc_of(x) for x in spec.elements))


def trivial_brace(spec: GroupSpec) -> SkewBrace:
    """a o b = a + b: the trivial brace on the carrier."""
    return SkewBrace(spec, [spec.identity_aut] * spec.n)


# ---------------- families on the cyclic carrier ----------------


def cyclic_pq_brace(p: int, q: int) -> SkewBrace:
    """lambda_(n,m) = (1 + pn, 1); circle (n,m)o(s,r) = (n + s + pns, m + r)."""
    spec = group_spec(p, q, Kind.CYCLIC)
    p2 = p * p
    return _lam(spec, lambda x: ((1 + p * x[0]) % p2, 1))


def cyclic_semidirect_brace(p: int, q: int, rank: int = 0) -> SkewBrace:
    """lambda_(n,m) = (t^m, 1) with t of order q modulo p^2."""
    spec = group_spec(p, q, Kind.CYCLIC)
    params = derive_params(PrimePair(p, q), rank=rank)
    t, p2 = params.t, p * p
    return _lam(spec, lambda x: (pow(t, x[1], p2), 1))


def q1p_cyclic_Bjk(p: int, q: int, j: int, k: int, rank: int = 0) -> SkewBrace:
    """lambda_(n,m) = (jnp + 1, r^(kn)) with r of order p modulo q."""
    spec = group_spec(p, q, Kind.CYCLIC)
    r = derive_params(PrimePair(p, q), rank=rank).r
    p2 = p * p
    return _lam(spec, lambda x: ((j * x[0] * p + 1) % p2, pow(r, k * x[0], q)))


def f_j(p: int, j: int, m: int) -> int:
    """The twisted bijection m -> m(m-1)/2 * jp + m of Z_(p^2)."""
    return (m * (m - 1) // 2 * j * p + m) % (p * p)


def f_j_inverse(p: int, j: int, n: int) -> int:
    """Inverse of f_j; f_j(m) = m (mod p), so only p candidates need checking."""
    for m in range(n % p, p * p, p):
        if f_j(p, j, m) == n:
            return m
    raise ValueError(f"f_{j} does not attain {n} modulo {p * p}")


def q1p2_cyclic_Bj(p: int, q: int, j: int, rank: int = 0) -> SkewBrace:
    """lambda_(n,m) = (f_j^-1(n) jp + 1, h^(f_j^-1(n))), h of order p^2 mod q."""
    spec = group_spec(p, q, Kind.CYCLIC)
    h = derive_params(PrimePair(p, q), rank=rank).h
    p2 = p * p

    def desc(x):
        m = f_j_inverse(p, j, x[0])
        return ((m * j * p + 1) % p2, pow(h, m, q))

    return _lam(spec, desc)


def fourq_cyclic_Bij(q: int, i: int, j: int) -> SkewBrace:
    """lambda_(a,b) = ((-1)^(ja) mod 4, (-1)^(ia) mod q) on Z_4 x Z_q."""
    spec = group_spec(2, q, Kind.CYCLIC)

    def desc(x):
        a = x[0]
        return (3 if j * a % 2 else 1, q - 1 if i * a % 2 else 1)

    return _lam(spec, desc)


def fourq_cyclic_kerq(q: int) -> SkewBrace:
    """lambda_(a,b) = ((-1)^a mod 4, (-1)^(a(a-1)/2) mod q); kernel of size q."""
    spec = group_spec(2, q, Kind.CYCLIC)

    def desc(x):
        a = x[0]
        return (3 if a % 2 else 1, q - 1 if (a * (a - 1) // 2) % 2 else 1)

    return _lam(spec, desc)


def fourq1mod4_cyclic(q: int, variant: int, rank: int = 0) -> SkewBrace:
    """The two kernel-q braces on Z_4 x Z_q for q = 1 (mod 4).

    Variant 1 reuses the sign formula of fourq_cyclic_kerq; variant 2 is
    lambda_(a,b) = (1, xi^a) with xi of order 4 modulo q.
    """
    if variant == 1:
        return fourq_cyclic_kerq(q)
    if variant != 2:
        raise ValueError("variant must be 1 or 2")
    spec = group_spec(2, q, Kind.CYCLIC)
    xi = derive_params(PrimePair(2, q), rank=rank).xi4
    return _lam(spec, lambda x: (1, pow(xi, x[0], q)))


# ---------------- families on the mixed carrier ----------------

def _c_pow(k: int, p: int) -> tuple[int, int, int, int]:
    """The k-th power of the transvection sigma -> sigma, tau -> sigma tau;
    it adds k*b to a."""
    return (1, k % p, 0, 1)


def mixed_pq_brace(p: int, q: int) -> SkewBrace:
    """lambda_x = (C^(x2), 1); circle adds x2*y2 into the first coordinate."""
    spec = group_spec(p, q, Kind.MIXED)
    return _lam(spec, lambda x: (_c_pow(x[1], p), 1))


def mixed_Bs_brace(p: int, q: int, s: int, rank: int = 0) -> SkewBrace:
    """lambda_x = (D_s^(x3), 1) with D_s = diag(g, g^s), g of order q mod p."""
    spec = group_spec(p, q, Kind.MIXED)
    g = derive_params(PrimePair(p, q), rank=rank).g
    return _lam(
        spec, lambda x: ((pow(g, x[2], p), 0, 0, pow(g, s * x[2], p)), 1)
    )


def mixed_G2_brace(p: int, q: int, rank: int = 0) -> SkewBrace:
    """lambda_x = (C^(x2) D^(x3), 1) with D = diag(g, g^(1/2)); q odd."""
    spec = group_spec(p, q, Kind.MIXED)
    g = derive_params(PrimePair(p, q), rank=rank).g
    half = pow(2, -1, q)

    def desc(x):
        d = (pow(g, x[2], p), 0, 0, pow(g, half * x[2], p))
        return (_matmul(_c_pow(x[1], p), d, p), 1)

    return _lam(spec, desc)


def mixed_G0_brace_q2(p: int) -> SkewBrace:
    """lambda_x = (C^(x2) E^(x3), 1) with E = diag(1, -1), over q = 2."""
    spec = group_spec(p, 2, Kind.MIXED)

    def desc(x):
        e = (1, 0, 0, (p - 1) if x[2] % 2 else 1)
        return (_matmul(_c_pow(x[1], p), e, p), 1)

    return _lam(spec, desc)


def pm1_mixed_brace(p: int, q: int, rank: int = 0) -> SkewBrace:
    """lambda_x = (F^(x3), 1) with F an order-q companion matrix mod p."""
    spec = group_spec(p, q, Kind.MIXED)
    F = derive_params(PrimePair(p, q), rank=rank).F
    mul = partial(_matmul, p=p)
    return _lam(spec, lambda x: (power(mul, (1, 0, 0, 1), F, x[2]), 1))


def q1p_mixed_Bij(p: int, q: int, i: int, j: int, rank: int = 0) -> SkewBrace:
    """lambda_(n,m,l) = (C^(jm), r^(im)) with r of order p modulo q."""
    spec = group_spec(p, q, Kind.MIXED)
    r = derive_params(PrimePair(p, q), rank=rank).r
    return _lam(spec, lambda x: (_c_pow(j * x[1], p), pow(r, i * x[1], q)))


def q1p_mixed_Bs(p: int, q: int, s: int, rank: int = 0) -> SkewBrace:
    """lambda_(n,m,l) = (C^(m/s), r^(n - m(m-s)/(2s))).

    The regular subgroup is generated by (eps, id), (tau^s, C) and
    (sigma, eps -> eps^r); the printed circle formula for this family fails
    the homomorphism law for s != 1, so the lambda map here is the one the
    generators actually produce (the enumeration cross-check pins it down).
    """
    spec = group_spec(p, q, Kind.MIXED)
    r = derive_params(PrimePair(p, q), rank=rank).r
    s_inv = pow(s, -1, p)
    inv2s = pow(2 * s, -1, p)

    def desc(x):
        n, m, _ = x
        return (
            _c_pow(m * s_inv, p),
            pow(r, (n - m * (m - s) * inv2s) % p, q),
        )

    return _lam(spec, desc)


def fourq_mixed_Bij(q: int, i: int, j: int) -> SkewBrace:
    """lambda_x = (C^(j x2), (-1)^(i x2)) on Z_2^2 x Z_q."""
    spec = group_spec(2, q, Kind.MIXED)
    return _lam(
        spec,
        lambda x: (_c_pow(j * x[1], 2), q - 1 if i * x[1] % 2 else 1),
    )


def fourq1mod4_mixed_kerq(q: int, rank: int = 0) -> SkewBrace:
    """lambda_(a,b,c) = (C^b, xi^(2a+b)), xi of order 4 modulo q.

    The printed closed form for this family's circle operation is garbled in
    places; this lambda map is the one derived from the family's regular
    subgroup and is validated against the enumeration.
    """
    spec = group_spec(2, q, Kind.MIXED)
    xi = derive_params(PrimePair(2, q), rank=rank).xi4
    return _lam(
        spec, lambda x: (_c_pow(x[1], 2), pow(xi, (2 * x[0] + x[1]) % 4, q))
    )


# ---------------- catalog assembly ----------------


def _inv(ker: int, fix: int, label, bi: bool) -> BraceInvariants:
    mc = label if isinstance(label, MultClass) else MultClass(label)
    return BraceInvariants(ker_size=ker, fix_size=fix, mult_class=mc, bi_skew=bi)


def _gk(k: int, q: int) -> MultClass:
    kk = k % q
    if kk != 0:
        kk = min(kk, pow(kk, -1, q))
    return MultClass(G_K, kk)


def catalog_for_case(
    p: int, q: int, rank: int = 0, kinds: tuple[Kind, ...] = (Kind.CYCLIC, Kind.MIXED)
) -> list[CatalogEntry]:
    """Every family instance for the pair on the carriers `kinds` names, in
    that order: by default both, cyclic carrier first.  Only those carriers'
    specs are built.

    Entry counts per case match the classification: e.g. 4 when p and q are
    multiplicatively independent, p + 8 when q = 1 (mod p) only, 11 when
    p = 2 and q = 1 (mod 4).
    """
    return [e for kind in kinds for e in catalog_for_carrier(p, q, kind, rank)]


def catalog_for_carrier(
    p: int, q: int, kind: Kind | str, rank: int = 0
) -> list[CatalogEntry]:
    """Every family instance for the pair on one carrier."""
    pair = PrimePair(p, q)
    case = classify_case(pair)
    n = p * p * q
    spec = group_spec(p, q, kind)
    entries: list[CatalogEntry] = []

    def add(family: str, params: dict[str, int], brace: SkewBrace,
            ker: int, fix: int, label, bi: bool) -> None:
        entries.append(
            CatalogEntry(
                case=case,
                family=family,
                parameters=params,
                brace=brace,
                expected=_inv(ker, fix, label, bi),
            )
        )

    if spec.kind is Kind.CYCLIC:
        add("trivial", {}, trivial_brace(spec), n, n, ZP2Q, True)
        if case in (CongruenceCase.P1Q_ODD, CongruenceCase.P1Q_Q2):
            add("cyclic_pq", {}, cyclic_pq_brace(p, q), p * q, p * q, ZP2Q, True)
            add("cyclic_semidirect", {}, cyclic_semidirect_brace(p, q, rank),
                p * p, q, ZP2_RTIMES_ZQ, True)
        elif case in (CongruenceCase.PM1Q, CongruenceCase.ALG_IND):
            add("cyclic_pq", {}, cyclic_pq_brace(p, q), p * q, p * q, ZP2Q, True)
        elif case in (CongruenceCase.Q1P, CongruenceCase.Q1P2):
            add("q1p_cyclic_Bjk", {"j": 1, "k": 0}, q1p_cyclic_Bjk(p, q, 1, 0, rank),
                p * q, p * q, ZP2Q, True)
            for j in range(p):
                add("q1p_cyclic_Bjk", {"j": j, "k": 1},
                    q1p_cyclic_Bjk(p, q, j, 1, rank),
                    p * q, p * p if j == 0 else p, ZQ_RTIMES_ZP2_rp, True)
            if case is CongruenceCase.Q1P2:
                for j in range(p):
                    add("q1p2_cyclic_Bj", {"j": j}, q1p2_cyclic_Bj(p, q, j, rank),
                        q, p * p if j == 0 else p, ZQ_RTIMES_ZP2_h, j == 0)
        elif case in (CongruenceCase.FOURQ_PLAIN, CongruenceCase.FOURQ_1MOD4):
            fixes = {(1, 0): 4, (0, 1): 2 * q, (1, 1): 2}
            labels = {
                (1, 0): ZQ_RTIMES_ZP2_rp,
                (0, 1): ZP2xZQ,
                (1, 1): ZP_x_ZQ_RTIMES_ZP,
            }
            for (i, j), fix in fixes.items():
                add("fourq_cyclic_Bij", {"i": i, "j": j}, fourq_cyclic_Bij(q, i, j),
                    2 * q, fix, labels[(i, j)], True)
            if case is CongruenceCase.FOURQ_PLAIN:
                add("fourq_cyclic_kerq", {}, fourq_cyclic_kerq(q),
                    q, 2, ZP_x_ZQ_RTIMES_ZP, False)
            else:
                add("fourq1mod4_cyclic", {"variant": 1},
                    fourq1mod4_cyclic(q, 1, rank), q, 2, ZP_x_ZQ_RTIMES_ZP, False)
                add("fourq1mod4_cyclic", {"variant": 2},
                    fourq1mod4_cyclic(q, 2, rank), q, 4, ZQ_RTIMES_ZP2_h, True)
        return entries

    add("trivial", {}, trivial_brace(spec), n, n, ZP2xZQ, True)
    if case is CongruenceCase.P1Q_ODD:
        add("mixed_pq", {}, mixed_pq_brace(p, q), p * q, p * q, ZP2xZQ, True)
        for s in bset_for(q):
            add("mixed_Bs", {"s": s}, mixed_Bs_brace(p, q, s, rank),
                p * p, p * q if s == 0 else q, _gk(s, q), True)
        add("mixed_G2", {}, mixed_G2_brace(p, q, rank), p, q, _gk(2, q), False)
    elif case is CongruenceCase.P1Q_Q2:
        add("mixed_pq", {}, mixed_pq_brace(p, q), p * q, p * q, ZP2xZQ, True)
        for s in (0, 1):
            add("mixed_Bs", {"s": s}, mixed_Bs_brace(p, q, s, rank),
                p * p, p * q if s == 0 else q, _gk(s, q), True)
        add("mixed_G0", {}, mixed_G0_brace_q2(p), p, 2 * p, _gk(0, q), False)
    elif case is CongruenceCase.PM1Q:
        add("mixed_pq", {}, mixed_pq_brace(p, q), p * q, p * q, ZP2xZQ, True)
        add("pm1_mixed", {}, pm1_mixed_brace(p, q, rank), p * p, q, G_F, True)
    elif case in (CongruenceCase.Q1P, CongruenceCase.Q1P2):
        fixes = {(0, 1): p * q, (1, 0): p * p, (1, 1): p}
        for (i, j), fix in fixes.items():
            add("q1p_mixed_Bij", {"i": i, "j": j}, q1p_mixed_Bij(p, q, i, j, rank),
                p * q, fix,
                ZP2xZQ if (i, j) == (0, 1) else ZP_x_ZQ_RTIMES_ZP, True)
        w = derive_params(pair, rank=rank).w
        for s in (1, w):
            add("q1p_mixed_Bs", {"s": s}, q1p_mixed_Bs(p, q, s, rank),
                q, p, ZP_x_ZQ_RTIMES_ZP, False)
    elif case in (CongruenceCase.FOURQ_PLAIN, CongruenceCase.FOURQ_1MOD4):
        fixes = {(1, 0): 4, (0, 1): 2 * q, (1, 1): 2}
        labels = {
            (1, 0): ZP_x_ZQ_RTIMES_ZP,
            (0, 1): ZP2Q,
            (1, 1): ZQ_RTIMES_ZP2_rp,
        }
        for (i, j), fix in fixes.items():
            add("fourq_mixed_Bij", {"i": i, "j": j}, fourq_mixed_Bij(q, i, j),
                2 * q, fix, labels[(i, j)], True)
        if case is CongruenceCase.FOURQ_1MOD4:
            add("fourq1mod4_mixed_kerq", {}, fourq1mod4_mixed_kerq(q, rank),
                q, 2, ZQ_RTIMES_ZP2_h, False)
    elif case is CongruenceCase.ALG_IND:
        add("mixed_pq", {}, mixed_pq_brace(p, q), p * q, p * q, ZP2xZQ, True)
    return entries
