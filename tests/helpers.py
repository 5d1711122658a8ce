"""Cached expensive computations shared across test modules.

Enumerating regular subgroups for the larger pairs takes seconds; the
caches make sure each (pair, carrier) is searched once per pytest run
no matter how many tests look at it.
"""

from __future__ import annotations

from functools import lru_cache

from braceforge.algebra import group_spec
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
