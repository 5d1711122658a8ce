"""The benchmark's workloads: fixed lists of braceforge CLI ops.

Every op carries the result it must produce at this commit.  ``classes`` is
the number of Aut(A)-classes the op reports (``compare`` and ``enumerate``);
``solutions`` is the number of solutions in the ``ybe`` JSON document.
Brace files for ``verify`` ops are made at set-up from ``verify_pairs`` (see
run.py), so their ops are not listed here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    classes: int | None = None
    solutions: int | None = None


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    verify_pairs: tuple[tuple[int, int], ...] = ()


def _pair(cmd: str, p: int, q: int, *extra: str) -> tuple[str, ...]:
    return (cmd, "--p", str(p), "--q", str(q), *extra, "--jobs", "1")


def compare(p: int, q: int, classes: int, additive: str = "both") -> Op:
    return Op(_pair("compare", p, q, "--additive", additive), classes=classes)


def crosscheck(p: int, q: int, additive: str, classes: int) -> Op:
    return Op(
        _pair("enumerate", p, q, "--method", "both", "--additive", additive),
        classes=classes,
    )


def ybe(p: int, q: int, solutions: int) -> Op:
    return Op(
        _pair("ybe", p, q, "--format", "json", "--out", "solutions.json"),
        solutions=solutions,
    )


# The desk pairs are the acceptance gate's pairs (tests/helpers.py).
DESK = ((3, 2, 8), (2, 5, 11), (2, 7, 9), (5, 3, 5), (3, 7, 11), (3, 19, 14),
        (5, 13, 4), (7, 3, 9))

WORKLOADS: dict[str, Workload] = {
    # Every op runs the lift search and the orbit partition.  On the desk
    # pairs the per-call import cost and the Aut-class layer ((5,3), (7,3),
    # (3,19) mixed) carry real weight.  Two large carriers show where the
    # design blows up: on (2,73) cyclic the lift search closes and keeps
    # every kernel-coset duplicate (about 270 MiB); on (5,23) mixed the full
    # |Aut| x n action table takes about 200 MiB and the orbit partition's
    # brace invariants dominate the time.
    "classify": Workload(
        ops=tuple(compare(p, q, n) for p, q, n in DESK)
        + (compare(2, 73, 6, "cyclic"), compare(5, 23, 2, "mixed")),
    ),
    # The only workload with the n^3 braid scan, JSON out and in, the
    # early-exit witness path of verify and the naive oracle.  Its lift
    # searches (inside the cross-checks) take about 1% of its time.  The
    # oracle's cost does not follow |Hol|: (7,3) cyclic (|Hol| 12 348) is
    # slower than (5,13) cyclic (|Hol| 78 000); (2,7) mixed adds the other
    # carrier kind.
    "export_crosscheck": Workload(
        ops=(ybe(3, 2, 8), ybe(2, 5, 11), ybe(2, 7, 9), ybe(7, 3, 9),
             ybe(3, 19, 14), crosscheck(7, 3, "cyclic", 3),
             crosscheck(5, 13, "cyclic", 2), crosscheck(2, 7, "mixed", 4)),
        verify_pairs=((7, 3),),
    ),
}
