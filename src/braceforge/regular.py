"""Enumeration of regular subgroups of Hol(A) up to Aut(A)-conjugacy.

A regular subgroup is the graph {(a, lambda_a)} of a brace's lambda map
(Guarnieri-Vendramin), so both routes return each one as a `SkewBrace`
holding its lambda table:

* the structured enumerator walks projection images K <= Aut(A) and
  kernels N <= A.  A regular subgroup with that projection and kernel is the
  graph of a bijective 1-cocycle K -> A/N, so it extends each tuple of coset
  values on K's generators along K's Cayley graph and reads lambda off the
  cocycles that are bijective, and
* the naive oracle grows subgroups from at most three cyclic pieces of the
  holomorph, with only order-arithmetic pruning, the rule that a subgroup
  of a regular group repeats no first projection, which also keeps every
  join at most |A| elements, and invariance under Aut(A)-conjugation: it
  grows from one piece per conjugation orbit and expands what it finds to
  whole orbits, conjugating with its own whole-Aut tables.  It closes
  subgroups as sets of encoded indices a * |Aut(A)| + f, in the one Hol(A)
  closure of the package (`_oracle_join`), and turns each one it keeps
  into its table with `brace_from_regular`, its regularity check.

Ordering by table is ordering by the subgroup's sorted encoded indices.

Survivors are partitioned into conjugation orbits.  Conjugating by psi in
Aut(A) scatters the table, lambda'[psi(a)] = psi lambda_a psi^-1; each orbit
is represented by its smallest table, a brace carrying its invariants.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from .arith import divisors, power
from .algebra import (
    GroupSpec,
    _blocks,
    _distinct,
    _greedy_generators,
    _key_array,
    _permutation_rows,
    aut_orbits,
    carrier_subgroups,
    subgroup_classes_of_order,
)
from .brace import BraceInvariants, SkewBrace, brace_from_regular, brace_invariants
from .cases import CongruenceCase, PrimePair, classify_case
from .reference import expected_cells, headline_total

__all__ = [
    "ORACLE_BOUND",
    "OrbitClass",
    "EnumerationReport",
    "OracleBoundError",
    "regular_subgroups_structured",
    "regular_subgroups_oracle",
    "orbit_partition",
    "orbit_min_key",
    "tabulate",
]


# The naive oracle refuses holomorphs larger than this.  The largest carriers
# within it, all 96 with |Hol(A)| > 10^5, each finish `enumerate --method
# both` in under a minute and a 1.5 GiB address space (BENCH_29.json).
ORACLE_BOUND = 1_000_000


class OracleBoundError(RuntimeError):
    """The holomorph is too large for the naive oracle's bound."""


def _check_oracle_bound(spec: GroupSpec) -> None:
    """Refuse the naive oracle on a carrier with |Hol(A)| > ORACLE_BOUND."""
    if spec.hol_order > ORACLE_BOUND:
        raise OracleBoundError(
            f"|Hol| = {spec.hol_order} exceeds the oracle bound {ORACLE_BOUND}"
        )


class OrbitClass(NamedTuple):
    """One Aut(A)-conjugacy class of regular subgroups of Hol(A), represented
    by the brace of its orbit-minimal member."""

    brace: SkewBrace
    orbit_size: int
    pi2_order: int
    invariants: BraceInvariants


# ---------------- conjugation orbits ----------------


def _conjugate_lambda(lam, perm_elt, perm_aut):
    """The lambda table of psi G psi^-1: lambda'[psi(a)] = psi lambda_a psi^-1."""
    img = np.empty_like(lam)
    img[perm_elt] = perm_aut[lam]
    return img


def orbit_min_key(B: SkewBrace) -> tuple[bytes, int]:
    """The key (`SkewBrace.key`) of the orbit-minimal lambda table of the
    conjugation orbit of a brace's regular subgroup, and the orbit's size.
    Two braces are isomorphic iff their keys match."""
    [(min_key, size)] = aut_orbits(B.spec, [B.key], _conjugate_lambda)
    return min_key, size


def orbit_partition(braces, spec: GroupSpec) -> list[OrbitClass]:
    """Partition the regular subgroups of the given braces into conjugacy
    classes.

    Each class is represented by its orbit-minimal member; orbit_size counts
    every conjugate (not just the supplied ones).  Classes are sorted by
    (|pi2|, representative lambda table).
    """
    top = gcd(spec.n, spec.n_aut)
    out: list[OrbitClass] = []
    for min_key, size in aut_orbits(spec, (B.key for B in braces), _conjugate_lambda):
        B = SkewBrace(spec, _key_array(min_key))
        pi2_order = len(B.lambda_image)
        if top % pi2_order != 0:
            # |pi2| = |A| / |ker lambda| divides both |A| and |Aut(A)|.
            raise RuntimeError(
                f"|pi2| = {pi2_order} of a regular subgroup does not divide "
                f"gcd(|A|, |Aut(A)|) = {top}"
            )
        out.append(
            OrbitClass(
                brace=B,
                orbit_size=size,
                pi2_order=pi2_order,
                invariants=brace_invariants(B),
            )
        )
    out.sort(key=lambda oc: (oc.pi2_order, oc.brace.key))
    return out


# ---------------- structured enumerator ----------------


def _coset_tables(spec: GroupSpec, N: np.ndarray, elems: list[int]) -> tuple:
    """For the cosets of a subgroup N invariant under K = elems: each
    element's coset id, each coset's smallest element (ids ascend with it,
    so N is coset 0), coset addition cadd[x, y] = x + y, and K's action
    act[i, x] = elems[i](x).

    The elements are labelled in ascending order: the first one without a
    label is the smallest of its coset, which takes the next id."""
    cid = np.full(spec.n, -1, dtype=np.intp)
    reps = np.empty(spec.n // len(N), dtype=np.intp)
    x = 0
    for c in range(len(reps)):
        while cid[x] >= 0:
            x += 1
        reps[c] = x
        cid[spec.add_idx(x, N)] = c
    cadd = cid[spec.add_idx(reps[:, None], reps)]
    act = cid[spec.apply_rows(elems)[:, reps]]
    return cid, reps, cadd, act


def _cayley_walk(spec: GroupSpec, gens: tuple[int, ...]) -> tuple[list[int], list]:
    """K = <gens> walked breadth-first from the identity: its elements in the
    order met (the identity first), and each edge (i, j, h, new), element h
    = element i o gens[j], `new` on the edge that met h.  Each edge comes
    after the one that met its source."""
    elems, local = [spec.identity_aut], {spec.identity_aut: 0}
    edges, frontier = [], elems[:]
    while frontier and gens:
        prods = spec.compose_many(np.array(frontier)[:, None], np.array(gens))
        met = []
        for f, row in zip(frontier, prods.tolist()):
            for j, h in enumerate(row):
                new = h not in local
                if new:
                    local[h] = len(elems)
                    elems.append(h)
                    met.append(h)
                edges.append((local[f], j, local[h], new))
        frontier = met
    return elems, edges


def _check_subgroup_graphs(spec, lam, lifted, gens, N, where) -> None:
    """Raise unless each row's graph {(a, lam[r, a])} is a subgroup of
    Hol(A), checked without the coset tables that built it.

    The graph must hold the identity and be closed under right
    multiplication, (a, f)(u, g) = (a + f(u), f o g), by each lifted
    generator (lifted[r, j], gens[j]) and by (t, id) for generators t of N.
    Those generate a group H with N x {id} inside and all of <gens> (order
    k) as its projection, so |H| >= k |N| = n, and an n-element set S
    holding the identity with S H = S is H: a regular subgroup.  Rows are
    checked a block at a time (`algebra._blocks`).
    """
    every = np.arange(spec.n)
    translations = _greedy_generators(spec.add_idx, spec.n, N.tolist())
    ok = bool((lam[:, 0] == spec.identity_aut).all())
    for i, block in _blocks(lam, spec.n):
        image = _distinct(block, spec.n_aut)
        loc = np.searchsorted(image, block)
        rows = spec.apply_rows(image)
        lifts = lifted[i : i + len(block)].T
        moves = [(u, spec.compose_many(image, g)[loc]) for u, g in zip(lifts, gens)]
        moves += [(np.full(len(block), t), block) for t in translations]
        for u, want in moves:
            target = spec.add_idx(every, rows[loc, u[:, None]])
            ok = ok and np.array_equal(np.take_along_axis(block, target, axis=1), want)
    if not ok:
        raise RuntimeError(
            f"{where} built a lambda table whose graph is not a subgroup of Hol(A)"
        )


def _lift_search(
    spec: GroupSpec, gens: tuple[int, ...], N: np.ndarray, where: str
) -> list[SkewBrace]:
    """Every regular subgroup with projection K = <gens> and kernel N (an
    ascending index array, |K| |N| = |A|), each returned once as its brace;
    `where` names the pair in errors.

    Such a subgroup G is the graph of a bijective 1-cocycle c: K -> A/N,
    c(f) = {a : (a, f) in G}, c(f o g) = c(f) + f(c(g)) (Guarnieri-
    Vendramin): G meets A x {id} in N x {id}, so each fibre A x {f} of G is
    one coset of N, and N is K-invariant (the (K) test).  Conversely the
    graph {(a, f) : a in c(f)} of such a cocycle is a regular subgroup with
    that projection and kernel.  c is fixed by its values on K's generators,
    nonzero cosets since c(id) = N.  So every tuple of nonzero cosets is
    extended at once along K's Cayley graph; a tuple drops out on an edge
    whose two values disagree, or when a coset repeats.  Each subgroup is
    met by exactly one tuple, its own c on the generators, and lambda_a is
    the f with a in c(f).
    """
    k = spec.n // len(N)
    in_N = np.zeros(spec.n, dtype=bool)
    in_N[N] = True
    if not in_N[spec.apply_rows(gens)[:, N]].all():
        return []  # (K): N is not invariant under K
    elems, edges = _cayley_walk(spec, gens)
    if len(elems) != k:
        raise RuntimeError(f"{where}: its generators generate {len(elems)} elements")
    cid, reps, cadd, act = _coset_tables(spec, N, elems)
    tuples = np.array([*itertools.product(range(1, k), repeat=len(gens))], dtype=int)
    c = np.zeros((len(tuples), k), dtype=np.intp)  # c[t, i]: coset over elems[i]
    ok = np.ones(len(tuples), dtype=bool)
    for i, j, h, new in edges:
        value = cadd[c[:, i], act[i, tuples[:, j]]]
        if new:
            c[:, h] = value
        else:
            ok &= c[:, h] == value
    ok &= _permutation_rows(c)
    if not ok.any():
        return []
    # owner[t, x]: the automorphism over coset x, int32 like SkewBrace.lam
    owner = np.empty(c[ok].shape, dtype=np.int32)
    np.put_along_axis(owner, c[ok], np.array(elems)[None, :], axis=1)
    lam = owner[:, cid]
    _check_subgroup_graphs(spec, lam, reps[tuples[ok]], gens, N, where)
    return [SkewBrace(spec, row) for row in lam]


def regular_subgroups_structured(spec: GroupSpec) -> list[SkewBrace]:
    """Every regular subgroup of Hol(A) reachable from some (K, N) pair, as
    its brace, sorted by lambda table.

    K runs over Aut(A)-class representatives of each projection order, so the
    output holds at least one member of every conjugacy class (a conjugate of
    any regular subgroup appears for the conjugated data).  Distinct (K, N)
    pairs give disjoint subgroups, so nothing is found twice.
    """
    found: list[SkewBrace] = []
    for k in divisors(gcd(spec.n, spec.n_aut)):
        kernels = [np.array(sorted(N)) for N in carrier_subgroups(spec, spec.n // k)]
        for ci, K in enumerate(subgroup_classes_of_order(spec, k)):
            for ni, N in enumerate(kernels):
                where = f"lift search (k={k}, class {ci}, kernel {ni})"
                found += _lift_search(spec, K.generators, N, where)
    return sorted(found, key=lambda B: B.key)


# ---------------- naive oracle ----------------


def _whole_aut_tables(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """Action rows of all of Aut(A), shape (n_aut, n), and its composition
    table, shape (n_aut, n_aut), entry [f, g] the index of f o g."""
    every = np.arange(spec.n_aut)
    compose = np.empty((spec.n_aut, spec.n_aut), dtype=np.intp)
    # Blocks of rows bound compose_many's temporaries (several int64 arrays
    # of the block's size times the descriptor width).
    for i, block in _blocks(every, spec.n_aut):
        compose[i : i + len(block)] = spec.compose_many(block[:, None], every)
    return spec.apply_rows(every), compose


def _hol_times(spec: GroupSpec, rows, compose, xa, xf, a, f):
    """(xa, xf)(a, f) = (xa + xf(a), xf o f), elementwise over index arrays."""
    return spec.add_idx(xa, rows[xf, a]), compose[xf, f]


def _oracle_prescan(
    spec: GroupSpec, rows: np.ndarray, compose: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The holomorph elements whose cyclic subgroup could sit inside a regular
    subgroup, ascending, and their orders.

    h qualifies when its order divides |A| and no non-identity power of h is
    a pure automorphism (first projection 0): such a power fixes 0, and two
    powers sharing a first projection differ by one.  h = (a, f) with
    h^m = 1 has f^m = 1, so the scan starts only from the f with f^|A| = id,
    read off the compose table, and from a != 0 (the identity and the pure
    automorphisms do not qualify).

    The exponents k with h^k at first projection 0 (in the stabilizer of 0,
    a subgroup) are the multiples of some e, and the order of h is one of
    those multiples.  So h qualifies exactly when the least divisor d of |A|
    with h^d at first projection 0 has h^d = 1, and then its order is d.
    Each candidate's power at each divisor is taken by square-and-multiply,
    for every candidate still undecided at once.
    """
    n, n_aut = spec.n, spec.n_aut
    ident = spec.identity_aut
    every = np.arange(n_aut)
    f_power = power(lambda u, v: compose[u, v], np.full_like(every, ident), every, n)
    h = (np.arange(1, n)[:, None] * n_aut + np.flatnonzero(f_power == ident)).ravel()
    order = np.zeros(spec.hol_order, dtype=np.int64)

    def times(x, y):
        return _hol_times(spec, rows, compose, *x, *y)

    for d in divisors(n):
        a, f = np.divmod(h, n_aut)
        xa, xf = power(times, (np.zeros_like(a), np.full_like(f, ident)), (a, f), d)
        back = xa == 0
        order[h[back & (xf == ident)]] = d
        h = h[~back]
        if not h.size:
            break
    cand = np.flatnonzero(order)
    return cand, order[cand]


def _oracle_cyclic_subgroups(
    spec: GroupSpec, rows: np.ndarray, compose: np.ndarray, add: list[int]
) -> list[tuple[int, frozenset[int]]]:
    """Each cyclic subgroup generated by a prescan candidate, once, as
    (smallest generator, elements), ascending by generator.

    The candidates are met in ascending order, and one that is no generator
    h^k (k prime to the order) of an earlier subgroup is the smallest
    generator of its own, whose powers are walked once.  The translations
    always qualify, so there is at least one candidate.  `add` is the
    join's flat addition list, add[a * n + b] the index of a + b.
    """
    n, n_aut = spec.n, spec.n_aut
    cand, order = _oracle_prescan(spec, rows, compose)
    # One scalar read per table and step: cheaper than list copies of the
    # action and compose tables for the few entries a walk meets.
    act, then = rows.item, compose.item
    met: set[int] = set()
    out = []
    for h, m in zip(cand.tolist(), order.tolist()):
        if h in met:
            continue
        ha, hf = divmod(h, n_aut)
        powers, xa, xf = [spec.identity_aut], ha, hf
        for _ in range(1, m):
            powers.append(xa * n_aut + xf)
            xa, xf = add[xa * n + act(xf, ha)], then(xf, hf)
        met.update(x for k, x in enumerate(powers) if gcd(k, m) == 1)
        out.append((h, frozenset(powers)))
    return out


def _oracle_join(spec: GroupSpec, tables: tuple, seed, gens) -> frozenset[int] | None:
    """The subgroup of Hol(A) generated by the encoded indices `gens`, which
    include generators of the subgroup `seed` (empty: the trivial group), or
    None as soon as two of its elements share a first projection: they
    differ by a non-identity element fixing 0, so the join has no regular
    overgroup.  The identity, at first projection 0, is always present, so a
    pure automorphism is rejected too, and a join that survives has at most
    |A| elements.

    Right products by `gens` from any one element g of the join reach all
    of g*T = T, so the walk starts at the generators outside the seed; the
    seed's elements are only marked seen, never multiplied.

    `tables` = (add, rows, compose) is the oracle's whole-Aut arithmetic as
    Python lists: add[a * n + b], rows[f][a] = f(a) and compose[f * n_aut + g]
    the index of f o g.
    """
    add, rows, compose = tables
    n, n_aut = spec.n, spec.n_aut
    split = [divmod(g, n_aut) for g in gens]
    seen = {spec.identity_aut, *seed}
    frontier = [g for g in gens if g not in seen]
    seen.update(frontier)
    pi1_seen = {h // n_aut for h in seen}
    if len(pi1_seen) != len(seen):
        return None
    while frontier:
        next_frontier = []
        for h in frontier:
            xa, xf = divmod(h, n_aut)
            xan, row, xfk = xa * n, rows[xf], xf * n_aut
            for ga, gf in split:
                y = add[xan + row[ga]] * n_aut + compose[xfk + gf]
                if y not in seen:
                    ya = y // n_aut
                    if ya in pi1_seen:
                        return None
                    pi1_seen.add(ya)
                    seen.add(y)
                    next_frontier.append(y)
        frontier = next_frontier
    return frozenset(seen)


def _oracle_conjugates(aut: tuple, x) -> np.ndarray:
    """psi h psi^-1 = (psi(a), psi f psi^-1) for each encoded index
    h = a * n_aut + f in x, one row per psi in Aut(A).

    `aut` = (rows, compose, inverse) is the oracle's whole-Aut arithmetic as
    arrays, inverse[psi] the index of psi^-1.
    """
    rows, compose, inverse = aut
    n_aut = len(inverse)
    a, f = np.divmod(np.asarray(x), n_aut)
    psi = np.arange(n_aut)[:, None]
    return rows[psi, a] * n_aut + compose[compose[psi, f], inverse[:, None]]


def regular_subgroups_oracle(spec: GroupSpec) -> list[SkewBrace]:
    """Exhaustive regular-subgroup scan with no structural assumptions.

    Joins up to three cyclic subgroups of Hol(A), pruning only by Lagrange
    bounds, the fact that a subgroup of a regular group has pairwise
    distinct first projections (two elements sharing one differ by a pure
    automorphism, which fixes 0), the fact that the second projection of an
    element of order dividing |A| has order dividing |A|, and invariance
    under Aut(A)-conjugation, (a, f) -> (psi(a), psi f psi^-1), which maps
    regular subgroups to regular subgroups.  Distinct first projections also
    cap every join it keeps at |A| elements (`_oracle_join`).

    * A vectorized prescan (`_oracle_prescan`) keeps the elements of order
      dividing |A| with no pure-automorphism power.  Each cyclic subgroup
      they generate is then tried once, by its smallest generator: the join
      <S, h> depends only on <h>.
    * Depth 2 joins one cyclic subgroup per conjugation orbit with every
      cyclic subgroup; depth 3 joins one non-cyclic depth-2 join of order
      below |A| per orbit with every cyclic subgroup.  A regular subgroup
      built from a chain of cyclic subgroups has a conjugate built from the
      conjugated chain, which starts at the chosen representatives.
    * Joining a right-coset mate s*h of an already-tried generator gives the
      same subgroup, so cosets are skipped wholesale.
    * Those products s*h are the first layer of the join's closure: one
      outside S whose first projection S already has rejects the join
      before the closure starts.

    Every regular subgroup found is expanded to its whole conjugation orbit,
    and each member becomes a brace through `brace_from_regular`, which
    checks its regularity; they are returned sorted by lambda table.
    """
    _check_oracle_bound(spec)
    n, n_aut = spec.n, spec.n_aut
    # The oracle visits all of Hol(A), so it tabulates all of Aut(A): action
    # rows (|Hol| entries, within the bound) and the compose table
    # f * n_aut + g -> f o g (|Aut|^2 entries, up to 16.3 M on (7, 3)
    # mixed), as numpy arrays for the prescan and the conjugations and lists
    # for the joins.  Nothing else tabulates Aut(A) whole.
    rows_np, compose_np = _whole_aut_tables(spec)
    every = np.arange(n)
    add = spec.add_idx(every[:, None], every).ravel().tolist()
    cyclic = _oracle_cyclic_subgroups(spec, rows_np, compose_np, add)
    rows, compose = rows_np.tolist(), compose_np.ravel().tolist()
    tables = (add, rows, compose)
    aut = (rows_np, compose_np, np.nonzero(compose_np == spec.identity_aut)[1])
    # owner[x]: the position in `cyclic` of <x>, the smallest listed subgroup
    # holding x, so every generator of a listed subgroup leads to it.
    owner = np.full(spec.hol_order, -1, dtype=np.intp)
    for i in sorted(range(len(cyclic)), key=lambda i: -len(cyclic[i][1])):
        owner[list(cyclic[i][1])] = i
    owner[spec.identity_aut] = -1
    smallest = np.array([h for h, _ in cyclic])
    sizes = np.array([len(C) for _, C in cyclic])

    results: set[frozenset[int]] = set()
    seeds: list[tuple[frozenset[int], tuple[int, ...]]] = []
    met = np.zeros(len(cyclic), dtype=bool)
    for i, (h, C) in enumerate(cyclic):
        if len(C) == n:
            results.add(C)
        elif not met[i]:
            met[owner[_oracle_conjugates(aut, [h])[:, 0]]] = True
            seeds.append((C, (h,)))

    for depth in (2, 3):
        grown: dict[frozenset[int], tuple[int, ...]] = {}
        for S, gens in seeds:
            members = [divmod(s, n_aut) for s in S]
            pi1_S = {sa for sa, _ in members}
            covered: set[int] = set()
            for h, ch in cyclic:
                if h in S or h in covered:
                    continue
                if len(S) * len(ch) // len(S & ch) > n:
                    continue
                if n % lcm(len(S), len(ch)) != 0:
                    # The join contains both subgroups, so its order is a
                    # multiple of the lcm; Lagrange inside an order-n group.
                    continue
                ha, hf = divmod(h, n_aut)
                products = [
                    add[sa * n + rows[sf][ha]] * n_aut + compose[sf * n_aut + hf]
                    for sa, sf in members
                ]
                covered.update(products)
                # No s*h lies in S, since h does not; one sharing a first
                # projection with S puts a pure automorphism in the join.
                if any(x // n_aut in pi1_S for x in products):
                    continue
                T = _oracle_join(spec, tables, S, gens + (h,))
                if T is None:
                    continue
                if len(T) == n:
                    results.add(T)
                elif depth == 2 and n % len(T) == 0:
                    grown.setdefault(T, gens + (h,))
        # One grown join per orbit, each held as the positions of the cyclic
        # subgroups inside it.  A cyclic one is some listed subgroup, whose
        # orbit already seeded depth 2 against every cyclic subgroup.
        seeds, met_joins = [], set()
        for T, gens in grown.items():
            owners = owner[list(T)]  # owner[identity] = -1
            inside = _distinct(owners[owners >= 0], len(cyclic))
            if sizes[inside].max() == len(T) or tuple(inside.tolist()) in met_joins:
                continue
            seeds.append((T, gens))
            images = owner[_oracle_conjugates(aut, smallest[inside])]
            met_joins.update(tuple(sorted(row)) for row in images.tolist())

    orbit_members: set[frozenset[int]] = set()
    for G in results:
        if G not in orbit_members:
            orbit_members.update(map(frozenset, _oracle_conjugates(aut, list(G)).tolist()))
    try:
        survivors = [brace_from_regular(spec, T) for T in orbit_members]
    except ValueError as exc:
        # A ValueError would read as a usage error at the command line.
        raise RuntimeError(
            f"naive oracle closed a non-regular subgroup: {exc}"
        ) from exc
    return sorted(survivors, key=lambda B: B.key)


# ---------------- top level + reporting ----------------


class EnumerationReport(NamedTuple):
    """Computed class counts for one carrier, checked cell-by-cell.

    Cells are keyed by (|ker lambda|, multiplicative class label).  `matches`
    compares against the stored per-family tables; `headline` records the
    coarse total claimed for the whole congruence case (both carriers), which
    for one case disagrees with the per-family tables -- the computed count is
    the ground truth either way.
    """

    spec: GroupSpec
    case: CongruenceCase
    orbits: tuple[OrbitClass, ...]
    cells: dict[tuple[int, str], int]
    expected: dict[tuple[int, str], int]
    matches: bool
    total: int
    expected_total: int
    warnings: tuple[str, ...] = ()

    def cell_rows(self) -> list[tuple[int, str, int, int]]:
        """(ker size, class label, computed, expected) rows, sorted."""
        keys = sorted(set(self.cells) | set(self.expected))
        return [
            (ker, label, self.cells.get((ker, label), 0),
             self.expected.get((ker, label), 0))
            for ker, label in keys
        ]


def tabulate(orbits, spec: GroupSpec) -> EnumerationReport:
    """Cross-tabulate the orbit classes of the carrier `spec` and compare
    with the stored tables."""
    orbits = tuple(orbits)
    case = classify_case(PrimePair(spec.p, spec.q))
    cells: dict[tuple[int, str], int] = {}
    for oc in orbits:
        key = (oc.invariants.ker_size, str(oc.invariants.mult_class))
        cells[key] = cells.get(key, 0) + 1
    expected = expected_cells(case, spec.kind, spec.p, spec.q)
    warnings: list[str] = []
    expected_total = sum(expected.values())
    if case is CongruenceCase.P1Q_ODD:
        head = headline_total(case, spec.p, spec.q)
        warnings.append(
            f"case {case.value}: the headline total for the pair "
            f"({spec.p}, {spec.q}) is {head}, but the per-family tables sum "
            "differently across both carriers; the computed count is "
            "authoritative"
        )
    return EnumerationReport(
        spec=spec,
        case=case,
        orbits=orbits,
        cells=cells,
        expected=expected,
        matches=cells == expected,
        total=len(orbits),
        expected_total=expected_total,
        warnings=tuple(warnings),
    )
