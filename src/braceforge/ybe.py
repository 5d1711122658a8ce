"""Set-theoretic Yang-Baxter solutions attached to braces.

The solution on the carrier is r(x, y) = (sigma_x(y), tau_y(x)) with
sigma_x = lambda_x.  tau is not given by a separate formula: since r must be
bijective with r(x, y) determined by the circle group, tau_y(x) is computed
as (sigma_x(y))' o x o y (circle inverse and circle product), and everything
downstream is gated on the exhaustive braid-relation check.
"""

from __future__ import annotations

import numpy as np

from .brace import SkewBrace, VerifyResult

__all__ = [
    "Solution",
    "solution_from_brace",
    "flip_solution",
    "verify_ybe",
    "solution_properties",
    "sigma_group_order",
]


class Solution:
    """An n x n pair of permutation families (sigma_x)_x and (tau_y)_y.

    ``sigma[x]`` and ``tau[y]`` are rows of int32; ``r(x, y)`` is the map
    (x, y) |-> (sigma[x][y], tau[y][x]).  Nothing here assumes the rows came
    from a brace -- verify_ybe / solution_properties re-check everything.
    """

    __slots__ = ("sigma", "tau")

    def __init__(self, sigma, tau):
        sigma = np.ascontiguousarray(np.asarray(sigma, dtype=np.int32))
        tau = np.ascontiguousarray(np.asarray(tau, dtype=np.int32))
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square table of rows")
        if tau.shape != sigma.shape:
            raise ValueError("tau must have the same shape as sigma")
        n = sigma.shape[0]
        if sigma.size and not (0 <= sigma.min() and sigma.max() < n):
            raise ValueError("sigma entries out of range")
        if tau.size and not (0 <= tau.min() and tau.max() < n):
            raise ValueError("tau entries out of range")
        self.sigma = sigma
        self.tau = tau

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
    """The solution r(x, y) = (lambda_x(y), (lambda_x(y))' o x o y)."""
    Z = B.circle_np
    inv = B.circle_inv_np
    sigma = B.lambda_rows
    # T[x, y] = tau_y(x); tau rows are the transpose.
    T = Z[inv[sigma], Z]
    return Solution(sigma, T.T)


def flip_solution(n: int) -> Solution:
    """r(x, y) = (y, x), the solution of the trivial brace."""
    rows = np.tile(np.arange(n, dtype=np.int32), (n, 1))
    return Solution(rows, rows)


def verify_ybe(sol: Solution) -> VerifyResult:
    """Exhaustively check the braid relation over all n^3 triples.

    (r x id)(id x r)(r x id) = (id x r)(r x id)(id x r) on (x, y, z); the
    scan vectorizes over (y, z) for each fixed x and reports the first
    violating triple with both images.
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


def _rows_are_permutations(rows: np.ndarray) -> bool:
    n = rows.shape[1]
    return bool(np.all(np.sort(rows, axis=1) == np.arange(n, dtype=rows.dtype)))


def solution_properties(sol: Solution) -> dict[str, bool]:
    """Direct exhaustive checks: {"nondegenerate": ..., "involutive": ...}."""
    nondeg = _rows_are_permutations(sol.sigma) and _rows_are_permutations(sol.tau)
    sig = sol.sigma.astype(np.intp)
    T = sol.tau.T.astype(np.intp)  # T[x, y] = tau_y(x)
    n = sol.n
    u, v = sig, T
    x2 = sol.sigma[u, v]
    y2 = sol.tau.T[u, v]
    idx = np.arange(n, dtype=x2.dtype)
    involutive = bool((x2 == idx[:, None]).all() and (y2 == idx[None, :]).all())
    return {"nondegenerate": nondeg, "involutive": involutive}


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
