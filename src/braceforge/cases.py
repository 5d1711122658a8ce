"""Congruence-case classification of prime pairs and derivation of the fixed
constants (g, t, r, h, w, xi, the set B, the companion matrix F) that the
explicit brace formulas are written in terms of.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .arith import is_prime, legendre, quadratic_nonresidues, unit_of_order

__all__ = [
    "CongruenceCase",
    "ExcludedPairError",
    "PrimePair",
    "ParamSet",
    "classify_case",
    "ensure_in_scope",
    "derive_params",
    "bset_for",
]

# The paper's scope: carrier orders p^2*q up to 1000.
ORDER_BOUND = 1000


class CongruenceCase(str, Enum):
    """Mutually exclusive congruence regimes for a pair of distinct primes."""

    P1Q_ODD = "P1Q_ODD"          # p = 1 mod q, q odd
    P1Q_Q2 = "P1Q_Q2"            # q = 2 (p = 1 mod 2 automatically)
    PM1Q = "PM1Q"                # p = -1 mod q
    Q1P = "Q1P"                  # q = 1 mod p but q != 1 mod p^2
    Q1P2 = "Q1P2"                # q = 1 mod p^2
    FOURQ_PLAIN = "FOURQ_PLAIN"  # p = 2, q = 3 mod 4
    FOURQ_1MOD4 = "FOURQ_1MOD4"  # p = 2, q = 1 mod 4
    ALG_IND = "ALG_IND"          # none of the above congruences holds
    EXCLUDED_12 = "EXCLUDED_12"  # order 12, deliberately out of scope


class ExcludedPairError(ValueError):
    """Raised when asked to process the excluded order-12 pair (2, 3)."""


class _Pair(NamedTuple):
    p: int
    q: int


class PrimePair(_Pair):
    """An ordered pair of distinct primes (p, q); the carrier order is p*p*q."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> PrimePair:
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if not is_prime(q):
            raise ValueError(f"q = {q} is not prime")
        if p == q:
            raise ValueError(f"p and q must be distinct, got {p} twice")
        if p * p * q > ORDER_BOUND:
            raise ValueError(
                f"carrier order {p * p * q} exceeds the bound {ORDER_BOUND}"
            )
        return super().__new__(cls, p, q)


class ParamSet(NamedTuple):
    """Fixed constants for one congruence case.

    Only the constants the case actually uses are populated; the rest stay
    None.  All residues are canonical (smallest valid representative for
    rank 0; rank 1 picks the second-smallest where more than one exists, which
    is what the parameter-independence tests rebuild from).
    """

    pair: PrimePair
    case: CongruenceCase
    g: int | None = None        # order q mod p
    t: int | None = None        # order q mod p^2
    r: int | None = None        # order p mod q
    h: int | None = None        # order p^2 mod q
    w: int | None = None        # quadratic non-residue mod p
    xi4: int | None = None      # order 4 mod q (p = 2, q = 1 mod 4)
    xi_poly: int | None = None  # coefficient of the irreducible x^2 + xi*x + 1 mod p
    F: tuple[int, int, int, int] | None = None  # companion matrix, row-major
    bset: tuple[int, ...] | None = None         # {0, 1, -1} + one of each {k, 1/k}


def ensure_in_scope(case: CongruenceCase) -> None:
    """Raise ExcludedPairError for the one deliberately out-of-scope case."""
    if case is CongruenceCase.EXCLUDED_12:
        raise ExcludedPairError(
            "the pair (2, 3) (order 12) is excluded from this tool; "
            "the GAP braces/YangBaxter databases already cover order 12"
        )


def classify_case(pair: PrimePair | tuple[int, int]) -> CongruenceCase:
    """Assign the unique congruence case of a pair, by fixed precedence."""
    p, q = _unpack(pair)
    if (p, q) == (2, 3):
        return CongruenceCase.EXCLUDED_12
    if p == 2:
        return (
            CongruenceCase.FOURQ_1MOD4 if q % 4 == 1 else CongruenceCase.FOURQ_PLAIN
        )
    if q == 2:
        return CongruenceCase.P1Q_Q2
    if p % q == 1:
        return CongruenceCase.P1Q_ODD
    if p % q == q - 1:
        return CongruenceCase.PM1Q
    if q % (p * p) == 1:
        return CongruenceCase.Q1P2
    if q % p == 1:
        return CongruenceCase.Q1P
    return CongruenceCase.ALG_IND


def bset_for(q: int) -> tuple[int, ...]:
    """Canonical set B in Z_q: 0, 1, -1, and min(k, k^-1) from each pair."""
    if q == 2:
        return (0, 1)
    reps = {0, 1, q - 1}
    for k in range(2, q - 1):
        reps.add(min(k, pow(k, -1, q)))
    out = tuple(sorted(reps))
    if len(out) != (q + 3) // 2:
        raise RuntimeError(
            f"B-set for q = {q} has {len(out)} elements, not (q + 3) / 2"
        )
    return out


def derive_params(pair: PrimePair | tuple[int, int], *, rank: int = 0) -> ParamSet:
    """Derive the constants a case needs; deterministic for a given rank."""
    p, q = _unpack(pair)
    pp = pair if isinstance(pair, PrimePair) else PrimePair(p, q)
    case = classify_case(pp)
    ensure_in_scope(case)

    kw: dict[str, object] = {}
    if case in (CongruenceCase.P1Q_ODD, CongruenceCase.P1Q_Q2):
        kw["g"] = unit_of_order(p, q, rank)
        kw["t"] = unit_of_order(p * p, q, rank)
        kw["bset"] = bset_for(q)
    elif case is CongruenceCase.PM1Q:
        xi, F = _companion_of_order(p, q, rank)
        kw["xi_poly"] = xi
        kw["F"] = F
    elif case in (CongruenceCase.Q1P, CongruenceCase.Q1P2):
        kw["r"] = unit_of_order(q, p, rank)
        kw["w"] = _nonresidue(p, rank)
        if case is CongruenceCase.Q1P2:
            kw["h"] = unit_of_order(q, p * p, rank)
    elif case is CongruenceCase.FOURQ_PLAIN:
        kw["r"] = unit_of_order(q, 2, rank)  # this is q - 1, i.e. -1 mod q
    elif case is CongruenceCase.FOURQ_1MOD4:
        kw["r"] = unit_of_order(q, 2, rank)
        kw["xi4"] = unit_of_order(q, 4, rank)
    # ALG_IND needs no constants.
    return ParamSet(pair=pp, case=case, **kw)  # type: ignore[arg-type]


def _unpack(pair: PrimePair | tuple[int, int]) -> tuple[int, int]:
    if isinstance(pair, PrimePair):
        return pair.p, pair.q
    p, q = pair
    PrimePair(p, q)  # validate
    return p, q


def _nonresidue(p: int, rank: int) -> int:
    found = quadratic_nonresidues(p)
    if not found:
        raise ValueError(f"no quadratic non-residue modulo {p}")
    return found[min(rank, len(found) - 1)]


def _companion_of_order(p: int, q: int, rank: int) -> tuple[int, tuple[int, int, int, int]]:
    """Scan xi making x^2 + xi*x + 1 irreducible mod p with companion of order q."""
    found: list[tuple[int, tuple[int, int, int, int]]] = []
    for xi in range(p):
        if legendre(xi * xi - 4, p) != -1:
            continue  # reducible (or a double root) over Z_p
        F = (0, (-1) % p, 1, (-xi) % p)
        if _matrix_order(F, p, cap=p + 1) == q:
            found.append((xi, F))
    if not found:
        raise ValueError(
            f"no irreducible x^2 + xi*x + 1 over Z_{p} has companion order {q}"
        )
    return found[min(rank, len(found) - 1)]


def _matrix_order(m: tuple[int, int, int, int], p: int, cap: int) -> int:
    ident = (1, 0, 0, 1)
    x = m
    for k in range(1, cap + 1):
        if x == ident:
            return k
        x = _matmul(x, m, p)
    return 0  # order exceeds cap


def _matmul(
    a: tuple[int, int, int, int], b: tuple[int, int, int, int], p: int
) -> tuple[int, int, int, int]:
    return (
        (a[0] * b[0] + a[1] * b[2]) % p,
        (a[0] * b[1] + a[1] * b[3]) % p,
        (a[2] * b[0] + a[3] * b[2]) % p,
        (a[2] * b[1] + a[3] * b[3]) % p,
    )
