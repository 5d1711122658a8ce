"""Cached expensive computations shared across test modules, and the
scalar reference for automorphism and holomorph arithmetic.

Enumerating regular subgroups for the larger pairs takes seconds; the
caches make sure each (pair, carrier) is searched once per pytest run
no matter how many tests look at it.

The reference works on descriptor tuples, (i, j) for the cyclic carrier and
((m00, m01, m10, m11), alpha) for the mixed one, one automorphism at a time,
with formulas written apart from the package's array code so that tests can
compare the two.
"""

from __future__ import annotations

from functools import lru_cache

from braceforge.algebra import Kind, group_spec
from braceforge.brace import SkewBrace
from braceforge.catalog import catalog_for_case
from braceforge.regular import (
    orbit_min_key,
    orbit_partition,
    regular_subgroups_oracle,
    regular_subgroups_structured,
)

# Every desk-scale pair exercised by the acceptance criteria.
DESK_PAIRS = [(3, 2), (2, 5), (2, 7), (5, 3), (3, 7), (3, 19), (5, 13), (7, 3)]

ORACLE_BOUND = 100_000


@lru_cache(maxsize=None)
def structured_subgroups(p: int, q: int, kind: str):
    spec = group_spec(p, q, kind)
    return tuple(regular_subgroups_structured(spec))


@lru_cache(maxsize=None)
def orbits(p: int, q: int, kind: str):
    spec = group_spec(p, q, kind)
    return tuple(orbit_partition(structured_subgroups(p, q, kind), spec=spec))


@lru_cache(maxsize=None)
def oracle_subgroups(p: int, q: int, kind: str):
    spec = group_spec(p, q, kind)
    return tuple(regular_subgroups_oracle(spec, bound=ORACLE_BOUND))


@lru_cache(maxsize=None)
def catalog(p: int, q: int, rank: int = 0):
    return tuple(catalog_for_case(p, q, rank=rank))


def brace_orbit_key(B: SkewBrace) -> tuple[int, ...]:
    """Canonical conjugacy-class key of the brace's regular subgroup."""
    return orbit_min_key(B)[0]


def oracle_eligible(p: int, q: int, kind: str) -> bool:
    return group_spec(p, q, kind).hol_order <= ORACLE_BOUND


# ---------------- scalar automorphism and holomorph reference ----------------


@lru_cache(maxsize=None)
def all_descriptors(spec) -> tuple:
    """Every automorphism descriptor, in ascending order, by plain loops."""
    p, q = spec.p, spec.q
    if spec.kind is Kind.CYCLIC:
        return tuple((i, j) for i in range(1, p * p) if i % p for j in range(1, q))
    return tuple(
        ((m00, m01, m10, m11), alpha)
        for m00 in range(p)
        for m01 in range(p)
        for m10 in range(p)
        for m11 in range(p)
        if (m00 * m11 - m01 * m10) % p
        for alpha in range(1, q)
    )


@lru_cache(maxsize=None)
def descriptor_index(spec) -> dict:
    """Descriptor -> its position in all_descriptors(spec)."""
    return {d: k for k, d in enumerate(all_descriptors(spec))}


def apply_desc(spec, f, x):
    """The automorphism with descriptor f applied to the element tuple x."""
    p, q = spec.p, spec.q
    if spec.kind is Kind.CYCLIC:
        i, j = f
        return (i * x[0] % (p * p), j * x[1] % q)
    (m00, m01, m10, m11), alpha = f
    return (
        (m00 * x[0] + m01 * x[1]) % p,
        (m10 * x[0] + m11 * x[1]) % p,
        alpha * x[2] % q,
    )


def compose_desc(spec, f, g):
    """Descriptor of f then-after g, i.e. x -> f(g(x))."""
    p, q = spec.p, spec.q
    if spec.kind is Kind.CYCLIC:
        return (f[0] * g[0] % (p * p), f[1] * g[1] % q)
    a, b = f[0], g[0]
    return (
        (
            (a[0] * b[0] + a[1] * b[2]) % p,
            (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p,
            (a[2] * b[1] + a[3] * b[3]) % p,
        ),
        f[1] * g[1] % q,
    )


def invert_desc(spec, f):
    p, q = spec.p, spec.q
    if spec.kind is Kind.CYCLIC:
        return (pow(f[0], -1, p * p), pow(f[1], -1, q))
    (m00, m01, m10, m11), alpha = f
    d = pow(m00 * m11 - m01 * m10, -1, p)
    return (
        (m11 * d % p, -m01 * d % p, -m10 * d % p, m00 * d % p),
        pow(alpha, -1, q),
    )


def hol_identity(spec):
    ident = (1, 1) if spec.kind is Kind.CYCLIC else ((1, 0, 0, 1), 1)
    return (spec.decode(0), ident)


def hol_mul(spec, x, y):
    """(a,f)(b,g) = (a + f(b), f o g)."""
    (a, f), (b, g) = x, y
    return (spec.add(a, apply_desc(spec, f, b)), compose_desc(spec, f, g))


def hol_inv(spec, x):
    """(a,f)^-1 = (-f^-1(a), f^-1)."""
    a, f = x
    finv = invert_desc(spec, f)
    return (spec.neg(apply_desc(spec, finv, a)), finv)


def hol_act(spec, x, pt):
    """Natural action on the carrier: (a,f) . x = a + f(x)."""
    a, f = x
    return spec.add(a, apply_desc(spec, f, pt))
