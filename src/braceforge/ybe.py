"""Set-theoretic Yang-Baxter solutions attached to braces.

The solution on the carrier is r(x, y) = (sigma_x(y), tau_y(x)) with
sigma_x = lambda_x and tau_y(x) = (sigma_x(y))' o x o y (circle inverse and
circle product).  Over an abelian additive group that collapses to
tau_y(x) = lambda^{-1}_{lambda_x(y)}(x): with u = lambda_x(y), the inverse
u' = -lambda_u^{-1}(u) and lambda_{u'} = lambda_u^{-1} give
u' o x o y = u' + lambda_u^{-1}(x + u) = lambda_u^{-1}(x).  So tau is read
off the inverses of lambda(A)'s m action rows, with no circle table, and
everything downstream is gated on an exhaustive check of the braid
relation.

verify_ybe decides the braid relation.  It checks non-degeneracy and
involutivity itself, in O(n^2), once per solution (solution_properties
reads the same result); when both hold, the braid relation is
equivalent to sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)} for all
x, y (Etingof-Schedler-Soloviev; Rump's cycle sets), which it checks in
O(n^2 + m^2 n) for m distinct sigma rows.  braid_scan, the n^3 scan over
all triples, runs when a precondition fails or the criterion rejects (it
gives the witness triple), and is the reference the criterion is tested
against.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import _permutation_rows
from .brace import SkewBrace, VerifyResult

__all__ = [
    "Solution",
    "solution_from_brace",
    "verify_ybe",
    "braid_scan",
    "solution_properties",
    "sigma_group_order",
]


class Solution:
    """An n x n pair of permutation families (sigma_x)_x and (tau_y)_y.

    ``sigma[x]`` and ``tau[y]`` are rows of int32; ``r(x, y)`` is the map
    (x, y) |-> (sigma[x][y], tau[y][x]).  Nothing here assumes the rows came
    from a brace -- verify_ybe / solution_properties re-check everything.
    The arrays are read-only copies, so the precondition checks, computed
    once per solution, cannot go stale.
    """

    __slots__ = ("_sigma", "_tau", "__dict__")

    def __init__(self, sigma, tau):
        sigma, tau = np.asarray(sigma), np.asarray(tau)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square table of rows")
        if tau.shape != sigma.shape:
            raise ValueError("tau must have the same shape as sigma")
        n = sigma.shape[0]
        # Type- and range-check before narrowing to int32, which would
        # truncate 1.5 to 1, read a bool as 0/1 and wrap 2**32 to 0.
        for name, table in (("sigma", sigma), ("tau", tau)):
            if not np.issubdtype(table.dtype, np.integer):
                raise ValueError(f"{name} entries must be integers")
            if table.size and not (0 <= table.min() and table.max() < n):
                raise ValueError(f"{name} entries out of range")
        sigma = np.array(sigma, dtype=np.int32, order="C")
        tau = np.array(tau, dtype=np.int32, order="C")
        sigma.flags.writeable = tau.flags.writeable = False
        self._sigma = sigma
        self._tau = tau

    sigma = property(lambda self: self._sigma)
    tau = property(lambda self: self._tau)

    @cached_property
    def _preconditions(self) -> dict[str, bool]:
        """Non-degeneracy and involutivity, for verify_ybe and solution_properties."""
        return {"nondegenerate": _nondegenerate(self), "involutive": _involutive(self)}

    @property
    def n(self) -> int:
        return int(self.sigma.shape[0])

    def r(self, x: int, y: int) -> tuple[int, int]:
        return int(self.sigma[x, y]), int(self.tau[y, x])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Solution)
            and np.array_equal(self.sigma, other.sigma)
            and np.array_equal(self.tau, other.tau)
        )

    def __hash__(self) -> int:
        return hash((self.sigma.tobytes(), self.tau.tobytes()))

    def __repr__(self) -> str:
        return f"Solution(n={self.n})"


def solution_from_brace(B: SkewBrace) -> Solution:
    """The solution r(x, y) = (lambda_x(y), (lambda_x(y))' o x o y), with
    tau_y(x) = lambda^{-1}_{lambda_x(y)}(x) (module docstring)."""
    rows, pos = B.lambda_action
    m, n = rows.shape
    inv = np.empty_like(rows)  # inv[i] the inverse permutation of rows[i]
    inv[np.arange(m)[:, None], rows] = np.arange(n, dtype=rows.dtype)
    sigma = B.lambda_rows
    # tau[y, x] = tau_y(x) = inv[pos[sigma[x, y]], x]
    tau = inv[pos[sigma.T], np.arange(n)]
    return Solution(sigma, tau)


# Entries of the m x m table of composed sigma rows (m^2 n int32, 16 MiB)
# above which verify_ybe leaves the criterion to braid_scan.  The largest
# in-scope brace, mixed_G2 on (11, 5) with m = 55 and n = 605, needs 1.8e6.
_COMPOSITE_CELLS = 1 << 22


def verify_ybe(sol: Solution) -> VerifyResult:
    """Decide the braid relation, by the cycle-set criterion where it applies.

    verify_ybe first checks, exhaustively in O(n^2), that r is non-degenerate
    (every sigma and tau row a permutation) and involutive (r o r = id); it
    takes neither on trust, and keeps the result on the read-only solution
    for solution_properties.  When both hold, r satisfies the braid relation
    if and only if sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)} for
    all x, y (Etingof-Schedler-Soloviev 1999; Rump's cycle sets 2005).  The
    m distinct sigma rows are composed pairwise (m^2 n work, m = |lambda(A)|
    for a brace), each distinct composite gets an id, and the identity is
    compared by id over the n^2 pairs.

    braid_scan, the exhaustive n^3 scan, runs instead when either
    precondition fails or the m x m composite table would exceed
    _COMPOSITE_CELLS entries, and after the criterion rejects, to produce
    the (x, y, z) witness.  A rejection the scan cannot confirm raises
    RuntimeError.
    """
    pre = sol._preconditions
    if not (pre["nondegenerate"] and pre["involutive"]):
        return braid_scan(sol)
    rows, rid = _distinct_rows(sol.sigma)
    if len(rows) ** 2 * sol.n > _COMPOSITE_CELLS:
        return braid_scan(sol)
    if _sigma_identity_holds(sol, rows, rid):
        return VerifyResult(True)
    res = braid_scan(sol)
    if res.ok:
        raise RuntimeError(
            "cycle-set criterion rejects an involutive non-degenerate solution "
            "on which the n^3 braid scan finds no violating triple"
        )
    return res


def _distinct_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of table, first seen first, and each row's index among them.

    Rows are told apart by their bytes in a dict, which also records where
    each was first seen.  A row sort (np.unique(axis=0)) gives the same
    partition, but was most of verify_ybe's time on the n = 981 solutions
    of (3, 109).
    """
    seen: dict[bytes, int] = {}
    first: list[int] = []
    ids = np.empty(len(table), dtype=np.intp)
    for i, row in enumerate(table):
        ids[i] = seen.setdefault(row.tobytes(), len(seen))
        if len(seen) > len(first):
            first.append(i)
    return table[first], ids


def _sigma_identity_holds(sol: Solution, rows: np.ndarray, rid: np.ndarray) -> bool:
    """sigma_x sigma_y == sigma_{sigma_x(y)} sigma_{tau_y(x)} for all x, y.

    rows are the m distinct sigma rows and rid[x] the index of sigma_x among
    them; composites are compared by the id _distinct_rows gives each.
    """
    m, n = rows.shape
    composite = rows[:, rows].reshape(m * m, n)  # [a*m + b] = rows[a] o rows[b]
    cid = _distinct_rows(composite)[1].reshape(m, m)
    lhs = cid[rid[:, None], rid[None, :]]
    rhs = cid[rid[sol.sigma], rid[sol.tau.T]]  # tau.T[x, y] = tau_y(x)
    return bool(np.array_equal(lhs, rhs))


def braid_scan(sol: Solution) -> VerifyResult:
    """Exhaustively check the braid relation over all n^3 triples.

    (r x id)(id x r)(r x id) = (id x r)(r x id)(id x r) on (x, y, z); the
    scan vectorizes over (y, z) for each fixed x and reports the first
    violating triple with both images.  It assumes nothing of r and is the
    reference verify_ybe is tested against.
    """
    sig = sol.sigma
    T = np.ascontiguousarray(sol.tau.T)  # T[x, y] = tau_y(x)
    n = sol.n
    z_grid = np.arange(n, dtype=np.intp)[None, :]
    for x in range(n):
        # Left side: r on (x, y) first, then middle, then front again.
        a1 = sig[x].astype(np.intp)[:, None]
        b1 = T[x].astype(np.intp)[:, None]
        s2 = sig[b1, z_grid].astype(np.intp)
        t2 = T[b1, z_grid]
        lhs0 = sig[a1, s2]
        lhs1 = T[a1, s2]
        lhs2 = t2
        # Right side: r on (y, z) first.
        b2 = sig.astype(np.intp)
        c2 = T.astype(np.intp)
        a3 = sig[x][b2]
        b3 = T[x][b2].astype(np.intp)
        rhs0 = a3
        rhs1 = sig[b3, c2]
        rhs2 = T[b3, c2]
        bad = (lhs0 != rhs0) | (lhs1 != rhs1) | (lhs2 != rhs2)
        if bad.any():
            y, z = map(int, np.argwhere(bad)[0])
            lhs = (int(lhs0[y, z]), int(lhs1[y, z]), int(lhs2[y, z]))
            rhs = (int(rhs0[y, z]), int(rhs1[y, z]), int(rhs2[y, z]))
            return VerifyResult(
                False,
                (
                    f"braid relation fails at ({x}, {y}, {z}): "
                    f"left {lhs} != right {rhs}",
                ),
            )
    return VerifyResult(True)


def _nondegenerate(sol: Solution) -> bool:
    return bool(_permutation_rows(sol.sigma).all() and _permutation_rows(sol.tau).all())


def _involutive(sol: Solution) -> bool:
    """r(r(x, y)) == (x, y) for all x, y."""
    sig = sol.sigma
    T = sol.tau.T  # T[x, y] = tau_y(x)
    x2 = sig[sig, T]
    y2 = T[sig, T]
    idx = np.arange(sol.n, dtype=x2.dtype)
    return bool((x2 == idx[:, None]).all() and (y2 == idx[None, :]).all())


def solution_properties(sol: Solution) -> dict[str, bool]:
    """Direct exhaustive checks: {"nondegenerate": ..., "involutive": ...}."""
    return dict(sol._preconditions)


def sigma_group_order(sol: Solution) -> int:
    """Order of the permutation group generated by the sigma rows.

    For a brace solution this equals |lambda(A)| = |A| / |ker lambda|.
    """
    gens = {tuple(map(int, row)) for row in sol.sigma}
    ident = tuple(range(sol.n))
    seen = {ident}
    frontier = [ident]
    gens_np = [np.asarray(g, dtype=np.intp) for g in gens]
    while frontier:
        nxt = []
        for h in frontier:
            h_np = np.asarray(h, dtype=np.intp)
            for g in gens_np:
                prod = tuple(map(int, g[h_np]))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)
