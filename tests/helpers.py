"""Cached expensive computations shared across test modules, the reference
addition table, the scalar reference for automorphism and holomorph
arithmetic, the direct n^3 scan of the brace axioms, the oracle's prescan
over the whole holomorph, and the brace and YBE checks that only the tests
use.

Enumerating regular subgroups for the larger pairs takes seconds; the
caches make sure each (pair, carrier) is searched once per pytest run
no matter how many tests look at it.

The reference works on descriptor tuples, (i, j) for the cyclic carrier and
((m00, m01, m10, m11), alpha) for the mixed one, one automorphism at a time,
with formulas written apart from the package's array code so that tests can
compare the two.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from braceforge.algebra import Kind, group_spec
from braceforge.brace import SkewBrace, VerifyResult, fix_set
from braceforge.catalog import catalog_for_case
from braceforge.regular import (
    orbit_min_key,
    orbit_partition,
    regular_subgroups_oracle,
    regular_subgroups_structured,
)
from braceforge.ybe import Solution

# Every desk-scale pair exercised by the acceptance criteria.
DESK_PAIRS = [(3, 2), (2, 5), (2, 7), (5, 3), (3, 7), (3, 19), (5, 13), (7, 3)]

# The suite's cost cap on naive-oracle runs, not the CLI's bound
# (`regular.ORACLE_BOUND`, 10^6): the oracle tests stay on carriers with
# |Hol(A)| <= 10^5, so the suite's time does not grow with the CLI's reach.
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
    return tuple(regular_subgroups_oracle(spec))


@lru_cache(maxsize=None)
def catalog(p: int, q: int, rank: int = 0):
    return tuple(catalog_for_case(p, q, rank=rank))


def desk_braces(p: int, q: int) -> list[SkewBrace]:
    """Every catalog brace of the pair, then every class representative of
    its two carriers."""
    return [e.brace for e in catalog(p, q)] + [
        oc.brace for kind in ("cyclic", "mixed") for oc in orbits(p, q, kind)
    ]


def brace_orbit_key(B: SkewBrace) -> tuple[int, ...]:
    """Canonical conjugacy-class key of the brace's regular subgroup."""
    return orbit_min_key(B)[0]


def oracle_eligible(p: int, q: int, kind: str) -> bool:
    return group_spec(p, q, kind).hol_order <= ORACLE_BOUND


def add_table(spec) -> np.ndarray:
    """The carrier's whole addition table on indices, shape (n, n), int64:
    each coordinate pair added and reduced, by broadcasting, apart from the
    package's digit codes (`GroupSpec.add_idx`)."""
    p, q = spec.p, spec.q
    idx = np.arange(spec.n)
    if spec.kind is Kind.CYCLIC:
        nn, mm = idx % (p * p), idx // (p * p)
        return (nn[:, None] + nn[None, :]) % (p * p) + p * p * (
            (mm[:, None] + mm[None, :]) % q
        )
    aa, bb, cc = idx % p, (idx // p) % p, idx // (p * p)
    return (
        (aa[:, None] + aa[None, :]) % p
        + p * ((bb[:, None] + bb[None, :]) % p)
        + p * p * ((cc[:, None] + cc[None, :]) % q)
    )


def circle_table(B: SkewBrace) -> np.ndarray:
    """The whole circle table, Z[a, b] = a + lambda_a(b), shape (n, n), from
    the reference addition table and lambda's descriptors directly."""
    spec = B.spec
    rows = spec.apply_rows(B.lam)  # rows[a] = lambda_a on every element
    return add_table(spec)[np.arange(spec.n)[:, None], rows]


def circle_inverses(Z: np.ndarray) -> np.ndarray:
    """inv[a] with a o inv[a] = 0, read off the circle table Z."""
    return np.argmax(Z == 0, axis=1)


def brace_axiom_scan(B: SkewBrace) -> VerifyResult:
    """Circle associativity and the brace axiom a o (b+c) = a o b - a + a o c,
    checked over every triple of the carrier: the reference that
    verify_left_brace's decision is held to.  Reports the first
    violation of each, as a decoded witness."""
    spec = B.spec
    n = spec.n
    Z = circle_table(B)
    add = add_table(spec)
    neg = np.argmax(add == 0, axis=1)
    problems: list[str] = []
    for a in range(n):
        za = Z[a]
        lhs_assoc = za[Z]
        rhs_assoc = Z[za]
        if not np.array_equal(lhs_assoc, rhs_assoc):
            b, c = map(int, np.argwhere(lhs_assoc != rhs_assoc)[0])
            problems.append(
                "associativity fails at "
                f"{spec.decode(a)}, {spec.decode(b)}, {spec.decode(c)}"
            )
            break
    for a in range(n):
        lhs_brace = Z[a][add]
        rhs_brace = add[add[Z[a], int(neg[a])][:, None], Z[a][None, :]]
        if not np.array_equal(lhs_brace, rhs_brace):
            b, c = map(int, np.argwhere(lhs_brace != rhs_brace)[0])
            problems.append(
                "brace axiom fails at "
                f"{spec.decode(a)}, {spec.decode(b)}, {spec.decode(c)}"
            )
            break
    return VerifyResult(ok=not problems, problems=tuple(problems))


def lambda_hom_scan(B: SkewBrace) -> VerifyResult:
    """verify_left_brace's checks over every pair, on the whole circle table:
    lambda(0) = id, and lambda_{a o b} = lambda_a o lambda_b for all a, b.
    The reference for its verdict and its problem strings, which name the
    first violating pair in row-major order."""
    spec = B.spec
    problems: list[str] = []
    if B.lam[0] != spec.identity_aut:
        problems.append(f"lambda(0) is not the identity automorphism (index {B.lam[0]})")
    image = np.asarray(B.lambda_image)
    pos = {f: i for i, f in enumerate(B.lambda_image)}
    comp = spec.compose_many(image[:, None], image[None, :])
    lam = np.asarray(B.lam)
    lam_pos = np.asarray([pos[f] for f in B.lam])
    lhs = lam[circle_table(B)]
    rhs = comp[lam_pos[:, None], lam_pos[None, :]]
    if not np.array_equal(lhs, rhs):
        a, b = map(int, np.argwhere(lhs != rhs)[0])
        problems.append(
            f"lambda is not multiplicative at {spec.decode(a)}, {spec.decode(b)}"
        )
    return VerifyResult(ok=not problems, problems=tuple(problems))


def tau_by_circle_table(B: SkewBrace) -> np.ndarray:
    """tau[y, x] = tau_y(x) = (lambda_x(y))' o x o y, by circle inverses and
    circle products on the whole circle table: the reference for
    solution_from_brace's tau."""
    Z = circle_table(B)
    inv = circle_inverses(Z)
    sigma = B.spec.apply_rows(B.lam)
    return Z[inv[sigma], Z].T


# ---------------- whole-Aut(A) references ----------------


def aut_torsion_whole(spec, k: int) -> np.ndarray:
    """{f : f^k = id}, ascending, by k compositions over all of Aut(A) at
    once: the reference for the blocked GroupSpec.aut_torsion."""
    every = np.arange(spec.n_aut)
    acc = np.full(spec.n_aut, spec.identity_aut)
    for _ in range(k):
        acc = spec.compose_many(acc, every)
    return np.flatnonzero(acc == spec.identity_aut)


def conj_tables_whole(spec) -> list[tuple[np.ndarray, np.ndarray]]:
    """GroupSpec.conj_tables over all of Aut(A) at once: per generator psi,
    psi on elements and f -> psi o f o psi^-1, with psi^-1 read off the row
    psi o f for every f."""
    every = np.arange(spec.n_aut)
    tables = []
    for g in spec.aut_generators:
        left = spec.compose_many(g, every)
        g_inv = int(np.flatnonzero(left == spec.identity_aut)[0])
        tables.append((spec.apply_rows([g])[0], spec.compose_many(left, g_inv)))
    return tables


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


def neg(spec, x):
    """-x for the element tuple x."""
    p, q = spec.p, spec.q
    if spec.kind is Kind.CYCLIC:
        return (-x[0] % (p * p), -x[1] % q)
    return (-x[0] % p, -x[1] % p, -x[2] % q)


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
    return (neg(spec, apply_desc(spec, finv, a)), finv)


def hol_act(spec, x, pt):
    """Natural action on the carrier: (a,f) . x = a + f(x)."""
    a, f = x
    return spec.add(a, apply_desc(spec, f, pt))


def hol_encode(spec, x) -> int:
    """Encoded index a * n_aut + f of the pair (element tuple, descriptor)."""
    a, desc = x
    return spec.encode(a) * spec.n_aut + descriptor_index(spec)[desc]


def hol_decode(spec, h):
    a, f = divmod(h, spec.n_aut)
    return (spec.decode(a), all_descriptors(spec)[f])


class _Memo(dict):
    """A dict that computes a missing value from its key and keeps it."""

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def __missing__(self, key):
        value = self[key] = self._compute(key)
        return value


@lru_cache(maxsize=None)
def aut_compose(spec) -> _Memo:
    """f * n_aut + g -> the index of f o g, from the scalar formula, filled
    for the pairs a caller meets.  Descriptors cross to indices through the
    spec's aut_desc and aut_lookup, so no whole-Aut(A) table is built."""
    n_aut = spec.n_aut

    def compose(key):
        df, dg = (spec.aut_desc(f) for f in divmod(key, n_aut))
        return int(spec.aut_lookup([compose_desc(spec, df, dg)])[0])

    return _Memo(compose)


def aut_closure(
    spec, gens: Iterable[int], cap: int | None = None
) -> frozenset[int] | None:
    """Subgroup of Aut(A) generated by the given indices; None if cap exceeded."""
    gens = list(gens)
    seen = {spec.identity_aut, *gens}
    if cap is not None and len(seen) > cap:
        return None
    n_aut = spec.n_aut
    compose = aut_compose(spec)
    frontier = list(seen)
    while frontier:
        next_frontier = []
        for f in frontier:
            fk = f * n_aut
            for g in gens:
                y = compose[fk + g]
                if y not in seen:
                    seen.add(y)
                    if cap is not None and len(seen) > cap:
                        return None
                    next_frontier.append(y)
        frontier = next_frontier
    return frozenset(seen)


@lru_cache(maxsize=None)
def hol_tables(spec):
    """Holomorph arithmetic on encoded indices, from the scalar formulas:
    add[a * n + b] the index of a + b, rows[f][a] that of f(a), and
    compose[f * n_aut + g] the index of f o g.  rows and compose are filled
    for the automorphisms (and pairs) a caller meets."""
    descs, index, n_aut = all_descriptors(spec), descriptor_index(spec), spec.n_aut
    els = spec.elements
    add = [spec.encode(spec.add(x, y)) for x in els for y in els]
    rows = _Memo(lambda f: [spec.encode(apply_desc(spec, descs[f], x)) for x in els])
    compose = _Memo(
        lambda key: index[compose_desc(spec, descs[key // n_aut], descs[key % n_aut])]
    )
    return add, rows, compose


def regular_from_brace(B: SkewBrace) -> frozenset[int]:
    """The graph {(a, lambda_a)} of the lambda map, a regular subgroup, as
    encoded indices."""
    n_aut = B.spec.n_aut
    return frozenset(a * n_aut + f for a, f in enumerate(B.lam.tolist()))


def hol_join(spec, gens, cap=None, forbid_dup_pi1=False):
    """The subgroup of Hol(A) generated by the encoded indices `gens`, by
    breadth-first products.  None when it passes `cap` elements or, with
    `forbid_dup_pi1`, as soon as two elements share a first projection (so
    no regular subgroup contains it)."""
    add, rows, compose = hol_tables(spec)
    n, n_aut = spec.n, spec.n_aut
    split = [divmod(g, n_aut) for g in gens]
    seen = {hol_encode(spec, hol_identity(spec)), *gens}
    pi1 = {h // n_aut for h in seen}
    frontier = list(seen)
    while frontier:
        new = []
        for h in frontier:
            xa, xf = divmod(h, n_aut)
            for ga, gf in split:
                y = add[xa * n + rows[xf][ga]] * n_aut + compose[xf * n_aut + gf]
                if y not in seen:
                    seen.add(y)
                    pi1.add(y // n_aut)
                    new.append(y)
        if (cap is not None and len(seen) > cap) or (
            forbid_dup_pi1 and len(pi1) != len(seen)
        ):
            return None
        frontier = new
    return frozenset(seen)


def circle_orders_by_stepping(B: SkewBrace) -> np.ndarray:
    """Order of each element in (A, o), every element stepped through its
    powers x -> x o a at once, at most exponent-many steps: the reference
    for SkewBrace.circle_orders."""
    Z = circle_table(B)
    cols = np.arange(B.spec.n)
    orders = np.zeros(B.spec.n, dtype=np.int64)
    x, k = cols, 1
    while True:
        orders[(x == 0) & (orders == 0)] = k
        if orders.all():
            return orders
        x = Z[x, cols]
        k += 1


def whole_hol_prescan(spec, rows, compose):
    """The oracle's prescan started from every element of Hol(A) with a
    nonzero first projection, not only from those whose automorphism has
    order dividing |A|: the qualifying elements, ascending, and their
    orders.  rows and compose are the oracle's whole-Aut arrays."""
    n, n_aut = spec.n, spec.n_aut
    ident = spec.identity_aut
    h = np.arange(n_aut, spec.hol_order)
    a, f = np.divmod(h, n_aut)
    xa, xf = a, f
    add = add_table(spec)
    order = np.zeros(spec.hol_order, dtype=np.int64)
    for k in range(2, n + 1):
        xa, xf = add[xa, rows[xf, a]], compose[xf, f]
        back = xa == 0
        if back.any():
            order[h[back & (xf == ident)]] = k
            keep = ~back
            h, a, f, xa, xf = h[keep], a[keep], f[keep], xa[keep], xf[keep]
            if not h.size:
                break
    cand = np.flatnonzero(order)
    cand = cand[n % order[cand] == 0]
    return cand, order[cand]


def hol_closure(spec, generators, cap=None):
    """The subgroup of Hol(A) generated by (element tuple, descriptor)
    pairs, as encoded indices; None when it passes `cap` elements."""
    if not generators:
        raise ValueError("need at least one generator")
    return hol_join(spec, [hol_encode(spec, x) for x in generators], cap)


# ---------------- brace and YBE checks only the tests use ----------------


def lambda_identities_check(B: SkewBrace) -> bool:
    """Power and kernel/fix identities of the lambda map.

    (i) For every b with lambda_b(b) = b and every n >= 1, the n-th circle
    power of b equals nb and lambda_{nb} = lambda_b^n.

    (ii) For a, c in ker(lambda) and b, d in Fix(B):
    (a+b) o (c+d) = a + b + lambda_b(c) + d.  Since lambda_{a+b} is additive
    and fixes d, this reduces to lambda_{a+b} and lambda_b agreeing on
    ker(lambda), which is what gets checked (exactly, but without looping
    over the full fourth power of the carrier).
    """
    spec = B.spec
    add, Z = add_table(spec), circle_table(B)
    lam = np.asarray(B.lam)
    rows = B.lambda_rows
    # (i), for every such b at once: step nb = kb, its circle power and
    # lambda_b^k until nb returns to 0.
    b = np.flatnonzero(rows.diagonal() == np.arange(spec.n))[1:]
    nb, power, f = b, b, lam[b]
    while b.size:
        nb, power, f = add[nb, b], Z[b, power], spec.compose_many(lam[b], f)
        if (power != nb).any() or (lam[nb] != f).any():
            return False
        more = nb != 0
        b, nb, power, f = b[more], nb[more], power[more], f[more]
    # (ii): lambda_{a+b} agrees with lambda_b on ker for a in ker, b in Fix.
    ker = np.flatnonzero(lam == spec.identity_aut)
    for b in sorted(fix_set(B)):
        if (rows[np.ix_(add[ker, b], ker)] != rows[b, ker]).any():
            return False
    return True


def ideal_checks(B: SkewBrace, I: Iterable[int]) -> dict[str, bool]:
    """Left-ideal and ideal flags for an additive subgroup I (element indices).

    left_ideal: I is lambda-invariant; ideal: additionally normal in (A, o).
    Raises if I is not a subgroup of the additive group.
    """
    spec = B.spec
    members = np.unique(np.fromiter(I, dtype=np.intp))
    in_I = np.zeros(spec.n, dtype=bool)
    in_I[members] = True
    if not in_I[0] or not in_I[add_table(spec)[np.ix_(members, members)]].all():
        raise ValueError("I is not an additive subgroup")
    left = bool(in_I[spec.apply_rows(B.lambda_image)[:, members]].all())
    Z = circle_table(B)
    # a o i o a' for every a and every i in I
    conj = Z[Z[:, members], circle_inverses(Z)[:, None]]
    normal = left and bool(in_I[conj].all())
    return {"left_ideal": left, "ideal": normal}


def braces_isomorphic(B1: SkewBrace, B2: SkewBrace) -> bool:
    """True iff the braces' regular subgroups are Aut(A)-conjugate."""
    if B1.spec != B2.spec:
        raise ValueError("braces live over different carriers")
    if B1 == B2:
        return True
    return orbit_min_key(B1)[0] == orbit_min_key(B2)[0]


def cayley_isomorphic(t1: Sequence[Sequence[int]], t2: Sequence[Sequence[int]]) -> bool:
    """Generic backtracking isomorphism test on two Cayley tables.

    Debug oracle for the invariant-based classifier; meant for orders <= 200.
    Tables use indices 0..n-1 with 0 the identity.
    """
    n = len(t1)
    if len(t2) != n:
        return False
    if n > 200:
        raise ValueError("cayley_isomorphic is a small-order debug oracle (n <= 200)")
    T1 = [list(r) for r in t1]
    T2 = [list(r) for r in t2]

    def orders(T: list[list[int]]) -> list[int]:
        out = []
        for a in range(n):
            o, x = 1, a
            while x != 0:
                x = T[x][a]
                o += 1
            out.append(o)
        return out

    o1, o2 = orders(T1), orders(T2)
    if sorted(o1) != sorted(o2):
        return False
    # Greedy generating chain of G1 with the subgroup closed at each step.
    gens: list[int] = []
    sub = {0}
    while len(sub) < n:
        g = min(a for a in range(n) if a not in sub)
        gens.append(g)
        frontier = [0]
        sub = {0}
        while frontier:
            new = []
            for x in frontier:
                for h in gens:
                    y = T1[x][h]
                    if y not in sub:
                        sub.add(y)
                        new.append(y)
            frontier = new
    by_order: dict[int, list[int]] = {}
    for a in range(n):
        by_order.setdefault(o2[a], []).append(a)

    def extend(k: int, images: list[int]) -> bool:
        if k == len(gens):
            # Build the full map from the generator images and verify it.
            phi = {0: 0}
            frontier = [0]
            while frontier:
                new = []
                for x in frontier:
                    for g, img in zip(gens, images):
                        y = T1[x][g]
                        fy = T2[phi[x]][img]
                        if y in phi:
                            if phi[y] != fy:
                                return False
                        else:
                            phi[y] = fy
                            new.append(y)
                frontier = new
            if len(set(phi.values())) != n:
                return False
            return all(
                phi[T1[a][b]] == T2[phi[a]][phi[b]] for a in range(n) for b in range(n)
            )
        for cand in by_order[o1[gens[k]]]:
            if extend(k + 1, images + [cand]):
                return True
        return False

    return extend(0, [])


def flip_solution(n: int) -> Solution:
    """r(x, y) = (y, x), the solution of the trivial brace."""
    rows = np.tile(np.arange(n, dtype=np.int32), (n, 1))
    return Solution(rows, rows)
