"""Regular-subgroup enumeration: both routes, orbit partition, tabulation."""

import ast
import gc
import inspect
import itertools
import multiprocessing.process
import sys
import textwrap
import tracemalloc
import weakref
from math import gcd

import numpy as np
import pytest

from braceforge import algebra, cli, regular
from braceforge.arith import divisors
from braceforge.algebra import (
    GroupSpec,
    Kind,
    carrier_subgroups,
    group_spec,
    subgroup_classes_of_order,
)
from braceforge.brace import brace_from_regular
from braceforge.catalog import catalog_for_case
from braceforge.cases import CongruenceCase
from braceforge.io import report_to_json
from braceforge.regular import (
    OracleBoundError,
    _lift_search,
    orbit_min_key,
    orbit_partition,
    regular_subgroups_oracle,
    regular_subgroups_structured,
    tabulate,
)

from helpers import (
    DESK_PAIRS,
    add_table,
    all_descriptors,
    hol_closure,
    hol_decode,
    hol_encode,
    hol_inv,
    hol_join,
    hol_mul,
    hol_tables,
    oracle_eligible,
    oracle_subgroups,
    orbits,
    regular_from_brace,
    structured_subgroups,
    whole_hol_prescan,
)

SMALL = [(3, 2, "cyclic"), (3, 2, "mixed"), (2, 5, "cyclic"), (2, 5, "mixed")]


def _translations(spec):
    ident = spec.aut_desc(spec.identity_aut)
    if spec.kind is Kind.CYCLIC:
        gens = [((1, 0), ident), ((0, 1), ident)]
    else:
        gens = [((1, 0, 0), ident), ((0, 1, 0), ident), ((0, 0, 1), ident)]
    return hol_closure(spec, gens)


def _order_n_subgroup_with_pure_automorphism(spec):
    # the translations of Z_3 x Z_3 with (0, -1 on the p-part): 18 elements
    # on the (3, 2) mixed carrier, with every first projection twice
    ident = spec.aut_desc(spec.identity_aut)
    return hol_closure(
        spec,
        [((1, 0, 0), ident), ((0, 1, 0), ident), ((0, 0, 0), ((2, 0, 0, 2), 1))],
    )


@pytest.mark.parametrize("p,q,kind", SMALL)
def test_translation_subgroup_is_regular(p, q, kind):
    spec = group_spec(p, q, kind)
    T = _translations(spec)
    assert len(T) == spec.n
    assert {h // spec.n_aut for h in T} == set(range(spec.n))
    # brace_from_regular raises unless T is regular; lambda(A) is the second
    # projection
    B = brace_from_regular(spec, T)
    assert set(B.lam) == {spec.identity_aut}


def test_order_n_subgroup_with_pure_automorphism_is_not_regular():
    spec = group_spec(3, 2, Kind.MIXED)
    ident = spec.aut_desc(spec.identity_aut)
    S = _order_n_subgroup_with_pure_automorphism(spec)
    assert len(S) == spec.n
    with pytest.raises(ValueError, match="repeated first projection"):
        brace_from_regular(spec, S)
    # undersized subgroups are never regular
    with pytest.raises(ValueError, match="order 3 is not regular"):
        brace_from_regular(spec, hol_closure(spec, [((1, 0, 0), ident)]))


@pytest.mark.parametrize("p,q,kind", SMALL)
def test_oracle_covers_structured_and_orbits_agree(p, q, kind):
    """The naive oracle sees every subgroup; the structured search sees at
    least one per conjugacy orbit (it fixes a representative pi2 subgroup per
    class, so conjugates with other pi2 images are deliberately skipped).
    """
    got_s = {B.key for B in structured_subgroups(p, q, kind)}
    got_o = {B.key for B in oracle_subgroups(p, q, kind)}
    assert got_s <= got_o
    if kind == "cyclic":
        # abelian Aut: conjugation cannot move pi2, so the raw sets coincide
        assert got_s == got_o
    keys_s = {orbit_min_key(B)[0] for B in structured_subgroups(p, q, kind)}
    keys_o = {orbit_min_key(B)[0] for B in oracle_subgroups(p, q, kind)}
    assert keys_s == keys_o
    spec = group_spec(p, q, kind)
    assert all(
        brace_from_regular(spec, regular_from_brace(B)) == B
        for B in structured_subgroups(p, q, kind)
    )


def _kernel_transversal(spec, N):
    """Smallest representative of each nonzero coset of N in the carrier."""
    n = spec.n
    add = hol_tables(spec)[0]
    return [
        a for a in range(n) if a not in N and min(add[a * n + t] for t in N) == a
    ]


def _generating_set(spec, S):
    """Greedy generators of the subgroup S of Hol(A): each element, smallest
    first, that the earlier ones do not generate."""
    gens, have = [], {spec.identity_aut}
    for h in sorted(S):
        if h not in have:
            gens.append(h)
            have = hol_join(spec, gens)
    return gens


def _lift_pairs(spec):
    """Each (K, N) pair the structured search tries, as (K's generators, N
    as an ascending index array)."""
    return [
        (K.generators, np.array(sorted(N)))
        for k in divisors(gcd(spec.n, spec.n_aut))
        for K in subgroup_classes_of_order(spec, k)
        for N in carrier_subgroups(spec, spec.n // k)
    ]


def _closure_lift_search(spec, gens, N):
    """The lift search the cocycle walk replaced, kept as its reference: join
    N x {id} with every tuple of the generators gens of K lifted over the
    kernel's transversal, by the reference closure in Hol(A), and keep each
    regular closure once."""
    n, n_aut = spec.n, spec.n_aut
    N = frozenset(N.tolist())
    N_gens = _generating_set(spec, {a * n_aut + spec.identity_aut for a in N})
    found = {}
    for tup in itertools.product(_kernel_transversal(spec, N), repeat=len(gens)):
        got = hol_join(
            spec,
            N_gens + [u * n_aut + f for u, f in zip(tup, gens)],
            cap=n,
            forbid_dup_pi1=True,
        )
        if got is not None and len(got) == n and got not in found:
            found[got] = brace_from_regular(spec, got)
    return list(found.values())


def closure_search(spec):
    """The key of every lambda table the reference lift search finds,
    sorted."""
    return sorted(
        B.key for pair in _lift_pairs(spec) for B in _closure_lift_search(spec, *pair)
    )


DESK_CARRIERS = [(p, q, kind) for p, q in DESK_PAIRS for kind in ("cyclic", "mixed")]


@pytest.mark.parametrize(
    "p,q,kind",
    [(3, 2, "cyclic"), (3, 2, "mixed"), (2, 5, "mixed"), (3, 7, "cyclic")],
)
def test_pruning_and_lift_mode_do_not_change_the_result(p, q, kind):
    # the cocycle walk (with its kernel-invariance precondition) finds what
    # the unpruned closure search over the kernel transversal finds
    base = [B.key for B in structured_subgroups(p, q, kind)]
    assert base == closure_search(group_spec(p, q, kind))


@pytest.mark.parametrize("p,q,kind", DESK_CARRIERS)
def test_each_lift_search_returns_every_subgroup_once(p, q, kind):
    # each tuple of coset lifts extends to at most one cocycle, so no (K, N)
    # pair may repeat a subgroup, and each must find the reference's
    spec = group_spec(p, q, kind)
    for gens, N in _lift_pairs(spec):
        got = [B.key for B in _lift_search(spec, gens, N, "lift search")]
        assert len(set(got)) == len(got)
        want = [B.key for B in _closure_lift_search(spec, gens, N)]
        assert sorted(got) == sorted(want), (gens, N.tolist())


@pytest.mark.parametrize("jobs", [1, 2])
def test_unknown_lift_mode_is_rejected_up_front(monkeypatch, jobs):
    # the lift domain, the prunes and the worker count are no longer
    # options; the removed keywords are refused before any work starts,
    # the worker count even at its old serial value 1
    spec = group_spec(3, 2, Kind.CYCLIC)
    monkeypatch.setattr(regular, "_lift_search", lambda *args: pytest.fail("work started"))
    for removed in ({"lifts": "transversal"}, {"pruning": False}, {"jobs": jobs}):
        with pytest.raises(TypeError, match=next(iter(removed))):
            regular_subgroups_structured(spec, **removed)


# The survivor check is an exception, not an assert, so python -O keeps it,
# and not a ValueError, which the command line reports as a usage error.
def test_oracle_refuses_a_non_regular_survivor(monkeypatch):
    spec = group_spec(3, 2, Kind.MIXED)
    S = _order_n_subgroup_with_pure_automorphism(spec)
    monkeypatch.setattr(regular, "_oracle_join", lambda *args, **kwargs: S)
    with pytest.raises(RuntimeError, match="naive oracle closed a non-regular subgroup"):
        regular_subgroups_oracle(spec)


def test_lift_search_refuses_a_non_regular_survivor(monkeypatch):
    # a fault in the coset tables: K acts trivially on the cosets.  The
    # cocycles walked over it are homomorphisms K -> A/N, whose graphs are
    # not subgroups where K really moves the cosets; the closedness check
    # uses no coset table, so it catches them.
    spec = group_spec(3, 2, Kind.MIXED)
    real = regular._coset_tables

    def trivial_action(*args):
        cid, reps, cadd, act = real(*args)
        return cid, reps, cadd, np.broadcast_to(np.arange(act.shape[1]), act.shape)

    monkeypatch.setattr(regular, "_coset_tables", trivial_action)
    with pytest.raises(
        RuntimeError,
        match=r"lift search \(k=\d+, class \d+, kernel \d+\) built a lambda table "
        "whose graph is not a subgroup",
    ):
        regular_subgroups_structured(spec)


def test_structured_search_leaves_the_list_addition_table_unbuilt(monkeypatch):
    # The oracle's joins read a flat addition list of their own; the lift
    # search, the carrier lattice, the orbit partition and the JSON report
    # add through add_idx's O(n) digit codes.  A fresh spec holds every
    # table it uses, so it builds everything anew; group_spec hands it to
    # the catalog too.
    spec = GroupSpec(3, 7, Kind.MIXED)
    monkeypatch.setitem(algebra._SPEC_CACHE, (3, 7, Kind.MIXED), spec)
    ocs = orbit_partition(regular_subgroups_structured(spec), spec=spec)
    report_to_json(tabulate(ocs, spec=spec))
    catalog_for_case(3, 7)
    big = [
        name
        for name, value in vars(spec).items()
        if isinstance(value, np.ndarray) and value.size >= spec.n**2
    ]
    assert big == []
    assert "add_flat" not in vars(spec)
    # No per-automorphism or per-pair memo: the one memo a spec may cache is
    # the per-order class memo of the Aut-class layer.
    memos = {name for name, value in vars(spec).items() if isinstance(value, dict)}
    assert memos <= {"_aut_classes"}
    # Aut(A) is held once, as the descriptor array: no cached Python
    # tuple, list or plain dict with an entry per automorphism.
    per_aut = [
        name
        for name, value in vars(spec).items()
        if type(value) in (tuple, list, dict) and len(value) == spec.n_aut
    ]
    assert per_aut == []


@pytest.mark.parametrize("kind", ["cyclic", "mixed"])
def test_structured_search_stays_under_one_addition_table(kind):
    # On a fresh spec at the edge of the scope, building the carrier's
    # tables, the lift search and the orbit partition together raise the
    # traced peak by less than one n x n int32 table.
    spec = GroupSpec(3, 109, kind)
    table = spec.n**2 * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        orbit_partition(regular_subgroups_structured(spec), spec=spec)
        growth = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert growth < table, f"peak grew {growth} bytes, one table is {table}"


@pytest.mark.parametrize("p,q,kind", DESK_CARRIERS)
def test_structured_order_is_the_order_of_lambda_tuples(p, q, kind):
    # byte keys of equal-length tables sort as the tables do as int tuples
    subs = structured_subgroups(p, q, kind)
    assert list(subs) == sorted(subs, key=lambda B: tuple(B.lam.tolist()))
    ocs = orbits(p, q, kind)
    want = sorted(ocs, key=lambda oc: (oc.pi2_order, tuple(oc.brace.lam.tolist())))
    assert [oc.brace for oc in ocs] == [oc.brace for oc in want]


def test_search_and_partition_of_7_3_mixed_stay_small():
    # 97 subgroups and 6 orbits on a fresh spec: with int32 lambda tables
    # and blocked passes over Aut(A) and over the found tables, the traced
    # peak stays under 1.7 MiB (about 1.9 MiB with tuple tables).
    spec = GroupSpec(7, 3, Kind.MIXED)
    tracemalloc.start()
    try:
        orbit_partition(regular_subgroups_structured(spec), spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * 2**20, peak


def test_a_dropped_spec_is_freed():
    # every table of the structured search and the orbit partition is kept
    # on the spec itself, so no module-level cache keeps a spec alive
    spec = GroupSpec(5, 3, Kind.MIXED)
    orbit_partition(regular_subgroups_structured(spec), spec=spec)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_parallel_jobs_agree_with_serial(monkeypatch, tmp_path):
    # `--jobs` is accepted and changes nothing: every op runs in one
    # process, so a run that may start no process still gives the same bytes
    argv = ["enumerate", "--p", "3", "--q", "2", "--additive", "mixed", "--format", "json"]
    serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
    assert cli.main([*argv, "--jobs", "1", "--out", str(serial)]) == 0

    def refuse(self):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    assert cli.main([*argv, "--jobs", "2", "--out", str(parallel)]) == 0
    assert parallel.read_bytes() == serial.read_bytes()


def test_oracle_bound_refusal():
    spec = group_spec(5, 13, Kind.MIXED)
    with pytest.raises(OracleBoundError):
        regular_subgroups_oracle(spec)


@pytest.mark.parametrize("p,q,kind", SMALL)
def test_orbit_sizes_account_for_every_subgroup(p, q, kind):
    # orbit_size counts all conjugates, so the class sizes must add up to
    # the oracle's raw subgroup count
    ocs = orbits(p, q, kind)
    assert sum(oc.orbit_size for oc in ocs) == len(oracle_subgroups(p, q, kind))
    # representative is orbit-minimal and the classes are disjoint
    keys = [orbit_min_key(oc.brace)[0] for oc in ocs]
    assert len(set(keys)) == len(ocs)


def test_orbit_partition_conjugation_invariance():
    ocs = orbits(3, 2, "mixed")
    subs = structured_subgroups(3, 2, "mixed")
    rep_keys = {orbit_min_key(oc.brace)[0] for oc in ocs}
    # every raw subgroup's orbit-minimal key is one of the class keys
    for B in subs:
        assert orbit_min_key(B)[0] in rep_keys


def _sorted_index_orbit_scan(spec, elements):
    """The orbit scan the lambda scatter replaced: conjugate the encoded
    holomorph indices (a, f) -> (psi(a), psi f psi^-1) and key each conjugate
    by its sorted index tuple.  Returns the orbit size and the smallest key."""
    n_aut = spec.n_aut
    perms = spec.conj_tables
    start = np.fromiter(sorted(elements), count=len(elements), dtype=np.int64)
    key0 = start.astype(">i8").tobytes()
    keys = {key0}
    frontier = [start]
    min_key = key0
    while frontier:
        new = []
        for arr in frontier:
            a_part, f_part = np.divmod(arr, n_aut)
            for perm_elt, perm_aut in perms:
                img = np.sort(perm_elt[a_part] * n_aut + perm_aut[f_part])
                key = img.astype(">i8").tobytes()
                if key not in keys:
                    keys.add(key)
                    if key < min_key:
                        min_key = key
                    new.append(img)
        frontier = new
    return len(keys), np.frombuffer(min_key, dtype=">i8")


@pytest.mark.parametrize(
    "p,q,kind", [(p, q, kind) for p, q in DESK_PAIRS for kind in ("cyclic", "mixed")]
)
def test_lambda_orbit_scan_matches_the_sorted_index_scan(p, q, kind):
    spec = group_spec(p, q, kind)
    subs = structured_subgroups(p, q, kind)

    def element_key(B):
        return sorted(regular_from_brace(B))

    # ordering by lambda table is ordering by sorted element indices
    assert sorted(subs, key=element_key) == list(subs)
    if oracle_eligible(p, q, kind):
        got = oracle_subgroups(p, q, kind)
        assert sorted(got, key=element_key) == list(got)
    for B in subs:
        size, min_elements = _sorted_index_orbit_scan(spec, regular_from_brace(B))
        # the smallest sorted index tuple, decoded to its lambda table
        a_part, f_part = np.divmod(min_elements, spec.n_aut)
        assert a_part.tolist() == list(range(spec.n))
        assert orbit_min_key(B) == (f_part.astype(">u4").tobytes(), size)


def test_known_class_counts_small():
    assert len(orbits(3, 2, "cyclic")) == 3
    assert len(orbits(3, 2, "mixed")) == 5
    assert len(orbits(2, 5, "cyclic")) == 6
    assert len(orbits(2, 5, "mixed")) == 5


def test_pi2_order_no_go_patterns():
    # cyclic carrier, p = 1 mod q odd: no class has |pi2| = pq
    assert all(oc.pi2_order != 21 for oc in orbits(7, 3, "cyclic"))
    # cyclic carrier, q = 1 mod p but not mod p^2: no |pi2| = p^2
    assert all(oc.pi2_order != 9 for oc in orbits(3, 7, "cyclic"))
    # mixed carrier, p = -1 mod q: no |pi2| = pq
    assert all(oc.pi2_order != 15 for oc in orbits(5, 3, "mixed"))
    # mixed carrier, q = 3 mod 4: no |pi2| = 4
    assert all(oc.pi2_order != 4 for oc in orbits(2, 7, "mixed"))


def test_tabulate_small_pairs():
    for p, q, kind, total in [
        (3, 2, "cyclic", 3),
        (3, 2, "mixed", 5),
        (2, 5, "cyclic", 6),
        (5, 3, "mixed", 3),
    ]:
        report = tabulate(orbits(p, q, kind), group_spec(p, q, kind))
        assert report.total == total
        assert report.matches, report.cell_rows()
        assert report.expected_total == total
        assert not report.warnings


def test_tabulate_flags_the_headline_discrepancy():
    report = tabulate(orbits(7, 3, "cyclic"), group_spec(7, 3, "cyclic"))
    assert report.case is CongruenceCase.P1Q_ODD
    assert report.matches
    assert any("authoritative" in w for w in report.warnings)


def _oracle_tables(spec):
    """The whole-Aut list tables the oracle hands its joins."""
    rows, compose = regular._whole_aut_tables(spec)
    return add_table(spec).ravel().tolist(), rows.tolist(), compose.ravel().tolist()


def test_closure_duplicate_projection_prune_is_sound():
    # the oracle's join must not reject any genuinely regular subgroup: a
    # regular subgroup never repeats a projection, so the pruned closure of
    # its elements is itself.
    spec = group_spec(2, 5, Kind.MIXED)
    tables = _oracle_tables(spec)
    for B in structured_subgroups(2, 5, "mixed"):
        G = regular_from_brace(B)
        firsts = {h // spec.n_aut for h in G}
        assert len(firsts) == len(G)
        assert regular._oracle_join(spec, tables, frozenset(), sorted(G)) == G


def test_closure_duplicate_projection_prune_rejects_pure_automorphisms():
    # the identity (first projection 0) is always in the join, so the
    # prune rejects a pure automorphism (0, f), f != id, wherever it shows up
    spec = group_spec(3, 2, Kind.MIXED)
    tables = _oracle_tables(spec)
    n_aut = spec.n_aut
    neg = int(spec.aut_lookup([((2, 0, 0, 2), 1)])[0])  # -1 on the p-part
    x = spec.encode((1, 0, 0))
    minus_x = spec.encode((2, 0, 0))
    pure = neg
    assert regular._oracle_join(spec, tables, frozenset(), (pure,)) is None
    # (-x, id)(x, -1) = (0, -1): a product of two generators with distinct,
    # nonzero first projections
    gens = (x * n_aut + neg, minus_x * n_aut + spec.identity_aut)
    assert pure in hol_join(spec, gens)
    assert regular._oracle_join(spec, tables, frozenset(), gens) is None
    # a seed already holding the translation by -x: the one new generator
    # still meets the pure automorphism
    seed = hol_join(spec, gens[1:])
    assert regular._oracle_join(spec, tables, seed, gens) is None


# Every regular subgroup of Hol(A) (not one per class) on each desk carrier
# within the suite's oracle cost cap.
ORACLE_COUNTS = {
    (3, 2, "cyclic"): 4, (3, 2, "mixed"): 46,
    (2, 5, "cyclic"): 8, (2, 5, "mixed"): 16,
    (2, 7, "cyclic"): 6, (2, 7, "mixed"): 10,
    (5, 3, "cyclic"): 5, (5, 3, "mixed"): 45,
    (3, 7, "cyclic"): 9, (3, 7, "mixed"): 81,
    (3, 19, "cyclic"): 27, (5, 13, "cyclic"): 5, (7, 3, "cyclic"): 9,
}


def test_oracle_counts_cover_every_eligible_desk_carrier():
    eligible = {
        (p, q, kind)
        for p, q in DESK_PAIRS
        for kind in ("cyclic", "mixed")
        if oracle_eligible(p, q, kind)
    }
    assert eligible == set(ORACLE_COUNTS)


@pytest.mark.parametrize("p,q,kind", list(ORACLE_COUNTS))
def test_oracle_finds_every_regular_subgroup(p, q, kind):
    # criterion 12 compares orbit keys only, which an oracle that dropped
    # conjugates would still pass; the orbit sizes count every conjugate
    got = oracle_subgroups(p, q, kind)
    assert len({B.key for B in got}) == len(got)
    assert len(got) == sum(oc.orbit_size for oc in orbits(p, q, kind))
    assert len(got) == ORACLE_COUNTS[(p, q, kind)]


def _chain_walk(spec):
    """The per-element prescan the vectorized one replaced: walk each
    element's powers, rejecting a repeated first projection (which quotients
    to a stabilizer element) or a chain longer than |A|.  Returns each
    qualifying h with <h>."""
    n, n_aut = spec.n, spec.n_aut
    ident = spec.identity_aut
    add, rows, compose = hol_tables(spec)

    def mul(x, y):
        xa, xf = divmod(x, n_aut)
        ya, yf = divmod(y, n_aut)
        return add[xa * n + rows[xf][ya]] * n_aut + compose[xf * n_aut + yf]

    cyc = {}
    for h in range(spec.hol_order):
        if h == ident:
            continue
        chain, pi1_chain, x, ok = {ident}, {0}, h, True
        while x != ident:
            xa = x // n_aut
            if xa in pi1_chain:
                ok = False
                break
            pi1_chain.add(xa)
            chain.add(x)
            if len(chain) > n:
                ok = False
                break
            x = mul(x, h)
        if ok and n % len(chain) == 0:
            cyc[h] = frozenset(chain)
    return cyc


@pytest.mark.parametrize("p,q,kind", SMALL)
def test_vectorized_prescan_matches_the_chain_walk(p, q, kind):
    spec = group_spec(p, q, kind)
    rows, compose = regular._whole_aut_tables(spec)
    ref_add, ref_rows, ref_compose = hol_tables(spec)
    every = range(spec.n_aut)
    assert rows.tolist() == [ref_rows[f] for f in every]
    assert compose.ravel().tolist() == [ref_compose[k] for k in range(spec.n_aut**2)]
    cyc = _chain_walk(spec)
    cand, order = regular._oracle_prescan(spec, rows, compose)
    assert cand.tolist() == sorted(cyc)
    assert order.tolist() == [len(cyc[h]) for h in sorted(cyc)]
    # each distinct cyclic subgroup once, by its smallest generator
    smallest = {}
    for h in sorted(cyc):
        smallest.setdefault(cyc[h], h)
    want = sorted((h, C) for C, h in smallest.items())
    assert regular._oracle_cyclic_subgroups(spec, rows, compose, ref_add) == want


@pytest.mark.parametrize("p,q,kind", list(ORACLE_COUNTS))
def test_prescan_pruned_by_automorphism_order_matches_the_whole_hol_scan(p, q, kind):
    # h = (a, f) with h^m = 1 has f^m = 1: starting only from the f of order
    # dividing |A| loses no candidate and changes no order
    spec = group_spec(p, q, kind)
    rows, compose = regular._whole_aut_tables(spec)
    cand, order = regular._oracle_prescan(spec, rows, compose)
    want_cand, want_order = whole_hol_prescan(spec, rows, compose)
    assert cand.tolist() == want_cand.tolist()
    assert order.tolist() == want_order.tolist()


@pytest.mark.parametrize("p,q,kind", [(3, 2, "mixed"), (2, 7, "mixed")])
def test_oracle_output_is_closed_under_conjugation(p, q, kind):
    # psi (a, f) psi^-1 = (psi(a), psi f psi^-1) for every automorphism psi,
    # by the scalar Hol(A) arithmetic, maps the oracle's output to itself
    spec = group_spec(p, q, kind)
    found = {regular_from_brace(B) for B in oracle_subgroups(p, q, kind)}
    zero = spec.decode(0)
    for psi in all_descriptors(spec):
        x = (zero, psi)
        x_inv = hol_inv(spec, x)
        for G in found:
            image = frozenset(
                hol_encode(spec, hol_mul(spec, hol_mul(spec, x, hol_decode(spec, h)), x_inv))
                for h in G
            )
            assert image in found, (psi, sorted(G))


# The structured search's reasoning (Sylow subgroups, kernels, projection
# classes, Aut torsion pools, its conjugation-orbit code); the oracle is a
# check on it only while it borrows none of it.
STRUCTURED_NAMES = {
    "carrier_subgroups", "carrier_lattice", "subgroup_classes_of_order",
    "_aut_classes", "sylow", "aut_torsion", "_lift_search", "_coset_tables", "_cayley_walk",
    "_greedy_generators", "_check_subgroup_graphs", "conj_tables", "aut_orbits",
    "orbit_min_key", "_conjugate_lambda",
}


def _names_in(func) -> set[str]:
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_oracle_borrows_nothing_from_the_structured_search():
    # the scan sees them
    assert _names_in(regular.regular_subgroups_structured) & STRUCTURED_NAMES
    # the oracle and every braceforge function it reaches by name
    todo, seen = [regular.regular_subgroups_oracle], set()
    while todo:
        func = todo.pop()
        if func in seen:
            continue
        seen.add(func)
        names = _names_in(func)
        assert not names & STRUCTURED_NAMES, (func.__qualname__, names & STRUCTURED_NAMES)
        module = sys.modules[func.__module__]
        for name in names:
            obj = getattr(module, name, None)
            if inspect.isfunction(obj) and obj.__module__.startswith("braceforge"):
                todo.append(obj)
    assert regular._oracle_prescan in seen and regular._oracle_join in seen
