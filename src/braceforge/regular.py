"""Enumeration of regular subgroups of Hol(A) up to Aut(A)-conjugacy.

Two independent routes produce the same classes:

* the structured enumerator walks projection images K <= Aut(A) and kernels
  N <= A and closes lifted generator tuples, and
* the naive oracle grows subgroups from at most three cyclic pieces of the
  holomorph, with only order-arithmetic pruning.

Both close subgroups of Hol(A) as sets of encoded indices a * |Aut(A)| + f
and turn each one they keep straight into its lambda table with
`brace_from_regular`, the one regularity check.  A regular subgroup is the
graph {(a, lambda_a)} of a brace's lambda map (Guarnieri-Vendramin), so the
`SkewBrace` holds it.  Ordering by table is ordering by the subgroup's sorted
encoded indices.

Survivors are partitioned into conjugation orbits.  Conjugating by psi in
Aut(A) scatters the table, lambda'[psi(a)] = psi lambda_a psi^-1; each orbit
is represented by its smallest table, a brace carrying its invariants.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .algebra import (
    GroupSpec,
    _hol_closure,
    _small_generating_set,
    aut_orbits,
    carrier_subgroups,
    group_spec,
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


# The naive oracle refuses holomorphs larger than this by default.
ORACLE_BOUND = 100_000


class OracleBoundError(RuntimeError):
    """The holomorph is too large for the naive oracle's stated bound."""


@dataclass
class OrbitClass:
    """One Aut(A)-conjugacy class of regular subgroups of Hol(A), represented
    by the brace of its orbit-minimal member."""

    brace: SkewBrace
    orbit_size: int
    pi2_order: int
    ker_order: int
    invariants: BraceInvariants


def _survivor_brace(spec: GroupSpec, elements: frozenset[int], where: str) -> SkewBrace:
    """The brace of a closure a search kept as regular.

    `brace_from_regular` is the one regularity check.  Its ValueError would
    read as a usage error at the command line, so a failure here is a
    RuntimeError naming the search instead.
    """
    try:
        return brace_from_regular(spec, elements)
    except ValueError as exc:
        raise RuntimeError(f"{where} closed a non-regular subgroup: {exc}") from exc


# ---------------- conjugation orbits ----------------


def _conjugate_lambda(lam, perm_elt, perm_aut):
    """The lambda table of psi G psi^-1: lambda'[psi(a)] = psi lambda_a psi^-1."""
    img = np.empty_like(lam)
    img[perm_elt] = perm_aut[lam]
    return img


def orbit_min_key(B: SkewBrace) -> tuple[tuple[int, ...], int]:
    """Canonical (orbit-minimal) lambda table of the conjugation orbit of a
    brace's regular subgroup, and the orbit's size.  Two braces are
    isomorphic iff their keys match."""
    [(min_lam, size)] = aut_orbits(B.spec, [B.lam], _conjugate_lambda)
    return min_lam, size


def orbit_partition(braces, spec: GroupSpec | None = None) -> list[OrbitClass]:
    """Partition the regular subgroups of the given braces into conjugacy
    classes.

    Each class is represented by its orbit-minimal member; orbit_size counts
    every conjugate (not just the supplied ones).  Classes are sorted by
    (|pi2|, representative lambda table).
    """
    braces = list(braces)
    if spec is None:
        if not braces:
            return []
        spec = braces[0].spec
    top = gcd(spec.n, spec.n_aut)
    out: list[OrbitClass] = []
    for min_lam, size in aut_orbits(spec, (B.lam for B in braces), _conjugate_lambda):
        B = SkewBrace(spec, min_lam)
        pi2_order = len(B.lambda_image)
        if top % pi2_order != 0:
            # |pi2| = |A| / |ker lambda| divides both |A| and |Aut(A)|.
            raise RuntimeError(
                f"|pi2| = {pi2_order} of a regular subgroup does not divide "
                f"gcd(|A|, |Aut(A)|) = {top}"
            )
        inv = brace_invariants(B)
        out.append(
            OrbitClass(
                brace=B,
                orbit_size=size,
                pi2_order=pi2_order,
                ker_order=inv.ker_size,
                invariants=inv,
            )
        )
    out.sort(key=lambda oc: (oc.pi2_order, oc.brace.lam))
    return out


# ---------------- structured enumerator ----------------


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _kernel_transversal(spec: GroupSpec, N: frozenset[int]) -> list[int]:
    """Smallest representative of each nonzero coset of N in the carrier."""
    n = spec.n
    add = spec.add_flat
    reps = []
    for a in range(n):
        if min(add[a * n + t] for t in N) == a and a not in N:
            reps.append(a)
    return reps


def _work_items(spec: GroupSpec) -> list[tuple[int, int, int]]:
    """(k, class index, kernel index) triples covering every projection order."""
    items = []
    for k in _divisors(gcd(spec.n, spec.n_aut)):
        n_classes = len(subgroup_classes_of_order(spec, k))
        n_kernels = len(carrier_subgroups(spec, spec.n // k))
        items.extend(
            (k, ci, ni)
            for ci in range(n_classes)
            for ni in range(n_kernels)
        )
    return items


def _lift_search(
    spec: GroupSpec,
    k: int,
    class_index: int,
    kernel_index: int,
    pruning: bool,
    lifts: str,
) -> list[SkewBrace]:
    """Every regular subgroup with projection in the given Aut-class and the
    given kernel, each returned once as its brace, found by closing lifted
    generator tuples.

    Each generator's lift ranges over a transversal of the kernel N
    ("transversal").  Replacing a lift u by a coset mate u + t (t in N) gives
    (t, 1)(u, alpha), which the seed N already supplies, so it closes to the
    same subgroup; a regular subgroup meets A x {alpha} in exactly one coset
    of N, so every such subgroup is closed exactly once.  "full" ranges over
    the whole carrier instead; it is a cross-check that returns the same set
    after |N|^g times the closures, not a production mode.  The (K)/(R)
    prunes (kernel invariance, power relations landing in the kernel) only
    skip tuples whose closure would fail anyway.
    """
    n, n_aut = spec.n, spec.n_aut
    ident = spec.identity_aut
    cls = subgroup_classes_of_order(spec, k)[class_index]
    N = carrier_subgroups(spec, n // k)[kernel_index]
    add = spec.add_flat
    gens_aut = cls.generators

    if pruning:
        # (K): N must be invariant under the projection image, i.e. under
        # its generators.
        if any(spec.aut_row(f)[a] not in N for f in gens_aut for a in N):
            return []
        # Rows of alpha, alpha^2, ..., alpha^(ord-1) for each generator alpha.
        power_rows = []
        for f0 in gens_aut:
            powers = [f0]
            for _ in range(spec.aut_order(f0) - 2):
                powers.append(spec.compose_idx(powers[-1], f0))
            power_rows.append([spec.aut_row(f) for f in powers])

    N_hol = frozenset(a * n_aut + ident for a in N)
    seed_gens = _small_generating_set(spec, N_hol)
    domain = list(range(n)) if lifts == "full" else _kernel_transversal(spec, N)
    found: dict[frozenset[int], SkewBrace] = {}
    for tup in itertools.product(domain, repeat=len(gens_aut)):
        if pruning:
            # (R): (u, alpha)^ord(alpha) = (u + alpha(u) + ... +
            # alpha^(ord-1)(u), id) is a pure translation; it must lie in N.
            ok = True
            for u, rows in zip(tup, power_rows):
                xa = u
                for row in rows:
                    xa = add[xa * n + row[u]]
                if xa not in N:
                    ok = False
                    break
            if not ok:
                continue
        gens_hol = tuple(u * n_aut + f for u, f in zip(tup, gens_aut))
        got = _hol_closure(
            spec,
            gens_hol,
            cap=n,
            seed=N_hol,
            seed_gens=seed_gens,
            forbid_dup_pi1=True,
        )
        if got is not None and len(got) == n and got not in found:
            found[got] = _survivor_brace(
                spec, got,
                f"lift search (k={k}, class {class_index}, kernel {kernel_index})",
            )
    return list(found.values())


def _lift_worker(args: tuple) -> list[tuple[int, ...]]:
    p, q, kind, k, ci, ni, pruning, lifts = args
    spec = group_spec(p, q, kind)
    return [B.lam for B in _lift_search(spec, k, ci, ni, pruning, lifts)]


_LIFT_MODES = ("transversal", "full")


def regular_subgroups_structured(
    spec: GroupSpec,
    *,
    pruning: bool = True,
    lifts: str = "transversal",
    jobs: int = 1,
) -> list[SkewBrace]:
    """Every regular subgroup of Hol(A) reachable from some (K, N) pair, as
    its brace, sorted by lambda table.

    K runs over Aut(A)-class representatives of each projection order, so the
    output holds at least one member of every conjugacy class (a conjugate of
    any regular subgroup appears for the conjugated data).  `lifts` picks the
    lift domain of `_lift_search`: "transversal" (the default) or "full", a
    cross-check that returns the same list more slowly.
    """
    if lifts not in _LIFT_MODES:
        raise ValueError(f"unknown lift mode {lifts!r}; expected one of {_LIFT_MODES}")
    items = _work_items(spec)
    found: dict[tuple[int, ...], SkewBrace] = {}
    if jobs > 1:
        # Touch the cached tables the lift search reads before forking so
        # children share them.
        spec.add_flat, spec.aut_index, spec.aut_array
        argv = [
            (spec.p, spec.q, spec.kind.value, k, ci, ni, pruning, lifts)
            for (k, ci, ni) in items
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for lams in pool.map(_lift_worker, argv):
                for lam in lams:
                    if lam not in found:
                        found[lam] = SkewBrace(spec, lam)
    else:
        for k, ci, ni in items:
            for B in _lift_search(spec, k, ci, ni, pruning, lifts):
                found.setdefault(B.lam, B)
    return [found[lam] for lam in sorted(found)]


# ---------------- naive oracle ----------------


def _whole_aut_tables(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """Action rows of all of Aut(A), shape (n_aut, n), and its composition
    table, shape (n_aut, n_aut), entry [f, g] the index of f o g."""
    every = np.arange(spec.n_aut)
    compose = np.empty((spec.n_aut, spec.n_aut), dtype=np.intp)
    # Blocks of rows bound compose_many's temporaries (several int64 arrays
    # of the block's size times the descriptor width).
    for i in range(0, spec.n_aut, 64):
        compose[i : i + 64] = spec.compose_many(every[i : i + 64, None], every)
    return spec.apply_rows(every), compose


def _hol_times(spec: GroupSpec, rows, compose, xa, xf, a, f):
    """(xa, xf)(a, f) = (xa + xf(a), xf o f), elementwise over index arrays."""
    return spec.add_np[xa, rows[xf, a]], compose[xf, f]


def _oracle_prescan(
    spec: GroupSpec, rows: np.ndarray, compose: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The holomorph elements whose cyclic subgroup could sit inside a regular
    subgroup, ascending, and their orders.

    h qualifies when its order divides |A| and no non-identity power of h is
    a pure automorphism (first projection 0): such a power fixes 0, and two
    powers sharing a first projection differ by one.  Every element steps
    through its powers at once, at most |A| steps; it leaves the scan when a
    power reaches first projection 0, and one still in it after |A| steps has
    order above |A|.
    """
    n, n_aut = spec.n, spec.n_aut
    ident = spec.identity_aut
    # Elements below n_aut have first projection 0: the identity and the
    # pure automorphisms, none of which qualifies.
    h = np.arange(n_aut, spec.hol_order)
    a, f = np.divmod(h, n_aut)
    xa, xf = a, f
    order = np.zeros(spec.hol_order, dtype=np.int64)
    for k in range(2, n + 1):
        xa, xf = _hol_times(spec, rows, compose, xa, xf, a, f)
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


def _oracle_cyclic_subgroups(
    spec: GroupSpec, rows: np.ndarray, compose: np.ndarray
) -> list[tuple[int, frozenset[int]]]:
    """Each cyclic subgroup generated by a prescan candidate, once, as
    (smallest generator, elements), ascending by generator.

    The translations always qualify, so there is at least one candidate.
    Only the candidates' powers are held, one row each.
    """
    n_aut = spec.n_aut
    cand, m = _oracle_prescan(spec, rows, compose)
    # powers[i, k] = cand[i]^k; past its order a row just cycles.
    powers = np.empty((cand.size, int(m.max())), dtype=np.int64)
    powers[:, 0] = spec.identity_aut
    a, f = np.divmod(cand, n_aut)
    xa, xf = a, f
    for k in range(1, powers.shape[1]):
        powers[:, k] = xa * n_aut + xf
        xa, xf = _hol_times(spec, rows, compose, xa, xf, a, f)
    ks = np.arange(powers.shape[1])
    is_generator = (np.gcd(ks, m[:, None]) == 1) & (ks < m[:, None])
    smallest = np.where(is_generator, powers, spec.hol_order).min(axis=1)
    return [
        (int(cand[i]), frozenset(powers[i, : m[i]].tolist()))
        for i in np.flatnonzero(smallest == cand)
    ]


def regular_subgroups_oracle(
    spec: GroupSpec, bound: int = ORACLE_BOUND
) -> list[SkewBrace]:
    """Exhaustive regular-subgroup scan with no structural assumptions.

    Joins up to three cyclic subgroups of Hol(A), pruning only by Lagrange
    bounds, the size cap and the fact that a subgroup of a regular group has
    pairwise distinct first projections (two elements sharing one differ by
    a pure automorphism, which fixes 0).

    * A vectorized prescan (`_oracle_prescan`) keeps the elements of order
      dividing |A| with no pure-automorphism power.  Each cyclic subgroup
      they generate is then tried once, by its smallest generator: the join
      <S, h> depends only on <h>.
    * Depth 2 joins each unordered pair of distinct cyclic subgroups once
      (the added generator above the seed's); depth 3 joins every depth-2
      join of order below |A| with every cyclic subgroup.
    * Joining a right-coset mate s*h of an already-tried generator gives the
      same subgroup, so cosets are skipped wholesale.
    * Those products s*h are the first layer of the join's closure: one
      outside S whose first projection S already has rejects the join
      before the closure starts.

    Each survivor becomes a brace through `brace_from_regular`, which
    checks its regularity; they are returned sorted by lambda table.
    """
    if spec.hol_order > bound:
        raise OracleBoundError(
            f"|Hol| = {spec.hol_order} exceeds the oracle bound {bound}"
        )
    n, n_aut = spec.n, spec.n_aut
    add = spec.add_flat
    # The oracle visits all of Hol(A), so it tabulates all of Aut(A): action
    # rows (|Hol| entries, within the bound) and the compose table
    # f * n_aut + g -> f o g (|Aut|^2 entries, under a million at the default
    # bound), as numpy arrays for the prescan and lists for the closures.
    # Nothing else tabulates Aut(A) whole.
    rows_np, compose_np = _whole_aut_tables(spec)
    cyclic = _oracle_cyclic_subgroups(spec, rows_np, compose_np)
    rows, compose = rows_np.tolist(), compose_np.ravel().tolist()
    tables = (rows, compose)

    results: set[frozenset[int]] = set()
    partial: dict[tuple[int, ...], tuple[frozenset[int], tuple[int, ...]]] = {}
    for h, C in cyclic:
        if len(C) == n:
            results.add(C)
        else:
            partial[tuple(sorted(C))] = (C, (h,))

    processed: set[tuple[int, ...]] = set()
    current = partial
    for depth in (2, 3):
        grown: dict[tuple[int, ...], tuple[frozenset[int], tuple[int, ...]]] = {}
        for key in sorted(current):
            if key in processed:
                continue
            processed.add(key)
            S, gens = current[key]
            members = [divmod(s, n_aut) for s in S]
            pi1_S = {sa for sa, _ in members}
            # <<a>, <b>> = <<b>, <a>>: at depth 2 each pair is tried once,
            # from the seed with the smaller generator.  An order-|A| cyclic
            # subgroup never seeds, but a join with one is that subgroup or
            # too large, so skipping it here loses nothing.
            low = gens[0] if depth == 2 else -1
            covered: set[int] = set()
            for h, ch in cyclic:
                if h <= low or h in S or h in covered:
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
                T = _hol_closure(
                    spec, (h,), cap=n, seed=S, seed_gens=gens,
                    forbid_dup_pi1=True, tables=tables,
                )
                if T is None:
                    continue
                if len(T) == n:
                    results.add(T)
                elif depth < 3 and n % len(T) == 0:
                    grown.setdefault(tuple(sorted(T)), (T, gens + (h,)))
        current = grown

    survivors = [_survivor_brace(spec, T, "naive oracle") for T in results]
    return sorted(survivors, key=lambda B: B.lam)


# ---------------- top level + reporting ----------------


@dataclass
class EnumerationReport:
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


def tabulate(
    orbits, case: CongruenceCase | None = None, spec: GroupSpec | None = None
) -> EnumerationReport:
    """Cross-tabulate orbit classes and compare with the stored tables."""
    orbits = tuple(orbits)
    if spec is None:
        if not orbits:
            raise ValueError("cannot infer the carrier from an empty orbit list")
        spec = orbits[0].brace.spec
    if case is None:
        case = classify_case(PrimePair(spec.p, spec.q))
    cells: dict[tuple[int, str], int] = {}
    for oc in orbits:
        key = (oc.ker_order, str(oc.invariants.mult_class))
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
