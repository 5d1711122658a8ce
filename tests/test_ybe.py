"""Yang-Baxter solutions: construction, braid relation, properties."""

import itertools

import numpy as np
import pytest

from braceforge import ybe
from braceforge.algebra import Kind, group_spec
from braceforge.brace import ker_lambda
from braceforge.catalog import cyclic_semidirect_brace, q1p_mixed_Bs, trivial_brace
from braceforge.ybe import (
    Solution,
    braid_scan,
    sigma_group_order,
    solution_from_brace,
    solution_properties,
    verify_ybe,
)

from helpers import DESK_PAIRS, catalog, desk_braces, flip_solution, tau_by_circle_table


def test_trivial_brace_gives_the_flip():
    spec = group_spec(3, 2, Kind.CYCLIC)
    sol = solution_from_brace(trivial_brace(spec))
    assert sol == flip_solution(spec.n)
    assert sol.r(5, 11) == (11, 5)
    assert verify_ybe(sol).ok
    assert solution_properties(sol) == {"nondegenerate": True, "involutive": True}
    assert sigma_group_order(sol) == 1


def test_semidirect_brace_solution_18_cubed():
    sol = solution_from_brace(cyclic_semidirect_brace(3, 2))
    assert braid_scan(sol).ok  # checks all 18^3 triples
    assert verify_ybe(sol).ok
    assert solution_properties(sol) == {"nondegenerate": True, "involutive": True}


def test_bw_brace_solution_63_cubed():
    sol = solution_from_brace(q1p_mixed_Bs(3, 7, 2))
    assert braid_scan(sol).ok  # checks all 63^3 triples
    assert verify_ybe(sol).ok
    assert solution_properties(sol) == {"nondegenerate": True, "involutive": True}


@pytest.mark.parametrize("pair", [(3, 2), (2, 7), (3, 7)], ids=str)
def test_catalog_solutions_all_pass(pair):
    for e in catalog(*pair):
        B = e.brace
        sol = solution_from_brace(B)
        assert braid_scan(sol).ok, e.family
        assert verify_ybe(sol).ok, e.family
        assert solution_properties(sol) == {
            "nondegenerate": True,
            "involutive": True,
        }, e.family
        # |<sigma_x>| = |lambda(A)| = |A| / |ker lambda|
        assert sigma_group_order(sol) == B.spec.n // len(ker_lambda(B)), e.family


@pytest.mark.parametrize("pair", DESK_PAIRS, ids=str)
def test_tau_from_inverse_rows_equals_the_circle_table_tau(pair):
    # tau_y(x) = lambda^{-1}_{lambda_x(y)}(x) against (lambda_x(y))' o x o y
    for B in desk_braces(*pair):
        sol = solution_from_brace(B)
        assert np.array_equal(sol.tau, tau_by_circle_table(B))


def test_corrupted_sigma_fails_with_witness():
    sol = solution_from_brace(cyclic_semidirect_brace(3, 2))
    sigma = sol.sigma.copy()
    sigma[2, [0, 1]] = sigma[2, [1, 0]]
    res = verify_ybe(Solution(sigma, sol.tau))
    assert not res.ok
    assert "braid relation fails at" in res.problems[0]


def test_solution_validation():
    with pytest.raises(ValueError):
        Solution(np.zeros((2, 3), dtype=int), np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        Solution([[0, 1], [1, 0]], [[0, 2], [1, 0]])  # entry out of range
    # non-integer tables are refused, not truncated or read as 0/1
    good = np.array([[0, 1], [1, 0]])
    for bad in (np.array([[0.9, 1.5], [1.2, 0.0]]), np.array([[False, True], [True, False]])):
        with pytest.raises(ValueError, match="sigma entries must be integers"):
            Solution(bad, good)
        with pytest.raises(ValueError, match="tau entries must be integers"):
            Solution(good, bad)
    # a degenerate "solution" is detected
    const = np.zeros((3, 3), dtype=int)
    props = solution_properties(Solution(const, const))
    assert props["nondegenerate"] is False


def test_non_solution_fails_braid():
    # sigma_x = x-th power of a 3-cycle, tau = identity: not a YBE solution
    n = 3
    cyc = np.array([1, 2, 0])
    sigma = np.stack([np.arange(n), cyc, cyc[cyc]])
    tau = np.tile(np.arange(n), (n, 1))
    assert not verify_ybe(Solution(sigma, tau)).ok


def _involutive_family(sigma) -> Solution:
    """sigma with tau_y(x) := sigma^-1_{sigma_x(y)}(x), which makes r involutive."""
    sigma = np.asarray(sigma)
    inv = np.argsort(sigma, axis=1)  # inv[u] = sigma_u^-1
    x = np.arange(len(sigma))[:, None]
    return Solution(sigma, inv[sigma, x].T)  # tau[y, x] = inv[sigma[x, y], x]


def _assert_agrees_with_the_scan(sol: Solution) -> bool:
    got, ref = verify_ybe(sol), braid_scan(sol)
    assert got.ok == ref.ok
    if not got.ok:
        assert "braid relation fails at" in got.problems[0]
    return got.ok


def _n3_families() -> list[Solution]:
    """All 216 involutive families on 3 points, one per choice of sigma rows."""
    rows = itertools.product(itertools.permutations(range(3)), repeat=3)
    return [_involutive_family(r) for r in rows]


def _an_involutive_non_solution() -> Solution:
    """An involutive non-degenerate family that fails the braid relation."""
    return next(
        s for s in _n3_families()
        if solution_properties(s)["nondegenerate"] and not braid_scan(s).ok
    )


def test_criterion_agrees_with_the_scan_on_every_n3_family():
    nondegenerate = failing = 0
    for sol in _n3_families():
        props = solution_properties(sol)
        assert props["involutive"]
        ok = _assert_agrees_with_the_scan(sol)
        if props["nondegenerate"]:
            nondegenerate += 1
            failing += not ok
    assert (nondegenerate, failing) == (24, 12)


def test_criterion_agrees_with_the_scan_on_sampled_n4_families():
    rng = np.random.default_rng(4)
    perms = np.array(list(itertools.permutations(range(4))))
    verdicts = set()
    for _ in range(3000):
        sol = _involutive_family(perms[rng.integers(0, len(perms), 4)])
        ok = _assert_agrees_with_the_scan(sol)
        if solution_properties(sol)["nondegenerate"]:
            verdicts.add(ok)
    assert verdicts == {True, False}  # the sample reaches both criterion verdicts


@pytest.mark.parametrize(
    "sigma,tau,props",
    [
        # sigma_x is the constant map to x: involutive, degenerate
        ([[0, 0], [1, 1]], [[0, 1], [1, 0]], {"nondegenerate": False, "involutive": True}),
        # sigma_x = id, tau_1 the swap: non-degenerate, not involutive
        ([[0, 1], [0, 1]], [[0, 1], [1, 0]], {"nondegenerate": True, "involutive": False}),
    ],
    ids=["degenerate", "non-involutive"],
)
def test_preconditions_are_checked_not_trusted(sigma, tau, props):
    # sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)} holds on every
    # pair of both maps, but neither satisfies the braid relation
    sol = Solution(sigma, tau)
    assert solution_properties(sol) == props
    assert not _assert_agrees_with_the_scan(sol)


def test_criterion_rejection_the_scan_cannot_confirm_raises(monkeypatch):
    sol = _an_involutive_non_solution()
    monkeypatch.setattr(ybe, "braid_scan", lambda sol: ybe.VerifyResult(True))
    with pytest.raises(RuntimeError, match="cycle-set criterion rejects"):
        verify_ybe(sol)


@pytest.mark.parametrize("rows,distinct,width", [(1, 1, 3), (40, 5, 7), (300, 60, 12), (500, 500, 2)])
def test_distinct_rows_equals_the_sorted_unique_reference(rows, distinct, width):
    rng = np.random.default_rng(rows)
    pool = rng.integers(0, 9, size=(distinct, width), dtype=np.int32)
    table = pool[rng.integers(0, distinct, size=rows)]
    got, ids = ybe._distinct_rows(table)
    _, first = np.unique(ids, return_index=True)
    assert np.array_equal(got, table[first])
    assert np.all(np.diff(first) > 0)  # first seen first
    # The partition of np.unique(axis=0), labelled in order of first sight.
    _, inverse = np.unique(table, axis=0, return_inverse=True)
    pairs = set(zip(ids.tolist(), inverse.ravel().tolist()))
    assert len(pairs) == len(got) == len(set(inverse.ravel().tolist()))


def test_oversized_composite_table_falls_back_to_the_scan(monkeypatch):
    good = solution_from_brace(cyclic_semidirect_brace(3, 2))
    bad = _an_involutive_non_solution()
    monkeypatch.setattr(ybe, "_COMPOSITE_CELLS", 0)
    calls = []
    monkeypatch.setattr(ybe, "braid_scan", lambda sol: calls.append(sol) or braid_scan(sol))
    assert verify_ybe(good).ok
    assert not verify_ybe(bad).ok
    assert calls == [good, bad]
