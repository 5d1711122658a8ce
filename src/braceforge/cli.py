"""Command-line front end: enumerate, catalog, verify, ybe, compare.

Exit codes: 0 = success (including the one documented count discrepancy,
which is reported as a warning); 1 = a comparison mismatched or a
verification failed; 2 = bad usage (an unwritable --out path included),
malformed input, or a refused pair.

Output is byte-deterministic for a fixed configuration.  Every op runs in
one process; --jobs is accepted for compatibility and changes nothing.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from collections.abc import Iterable

from .algebra import GroupSpec, Kind, group_spec
from .brace import brace_invariants, verify_left_brace
from .cases import ExcludedPairError, PrimePair, classify_case, ensure_in_scope
from .catalog import catalog_for_case
from .io import (
    SchemaError,
    brace_from_json,
    canonical_dumps,
    catalog_entry_to_json,
    invariants_from_json,
    invariants_to_json,
    load_json_file,
    report_to_json,
    solution_document_chunks,
    solution_to_json,
)
from .reference import headline_total, per_family_total
from .regular import (
    ORACLE_BOUND,
    OracleBoundError,
    orbit_min_key,
    orbit_partition,
    regular_subgroups_oracle,
    regular_subgroups_structured,
    tabulate,
)
from .ybe import Solution, solution_from_brace, solution_properties, verify_ybe

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# The carriers each --additive choice names.
_KINDS = {
    "cyclic": (Kind.CYCLIC,),
    "mixed": (Kind.MIXED,),
    "both": (Kind.CYCLIC, Kind.MIXED),
}


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or an iterable of text chunks as they come, to `out`
    (or stdout).

    If making or writing a chunk fails, the partly written `out` is removed
    before the error propagates, so a failed run leaves no file; a write
    error becomes ValueError("cannot write ...").  Only a regular file is
    removed, never a device, a pipe or a symlink.  Text already on stdout
    cannot be taken back.
    """
    chunks = [text] if isinstance(text, str) else text
    if out is None:
        try:
            sys.stdout.writelines(chunks)
        except BrokenPipeError:
            # The reader left early (`| head`): the rest goes to the null
            # device, so every chunk is still made and the exit code still
            # reports every check.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            sys.stdout.writelines(chunks)
        return
    try:
        fh = open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
    removable = not os.path.islink(out) and stat.S_ISREG(
        os.fstat(fh.fileno()).st_mode
    )
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException as exc:
        if removable:
            try:
                os.remove(out)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
        raise


def _enumerate_kind(
    spec: GroupSpec, args: argparse.Namespace
) -> tuple[list, bool | None]:
    """Run the configured enumerator(s); returns (orbits, methods_agree)."""
    structured = oracle = None
    if args.method in ("structured", "both"):
        structured = regular_subgroups_structured(spec)
    if args.method in ("oracle", "both"):
        oracle = regular_subgroups_oracle(spec, bound=args.oracle_bound)
    agree: bool | None = None
    if structured is not None and oracle is not None:
        keys_s = {orbit_min_key(B)[0] for B in structured}
        keys_o = {orbit_min_key(B)[0] for B in oracle}
        agree = keys_s == keys_o
    subgroups = structured if structured is not None else oracle
    return orbit_partition(subgroups, spec=spec), agree


def _format_report_table(report, agree: bool | None) -> list[str]:
    spec = report.spec
    lines = [
        f"pair ({spec.p}, {spec.q})  case {report.case.value}  "
        f"carrier {spec.kind.value}  |Hol| {spec.hol_order}"
    ]
    rows = report.cell_rows()
    labels = sorted({label for _, label, _, _ in rows})
    kers = sorted({ker for ker, _, _, _ in rows})
    by_cell = {(ker, label): (got, want) for ker, label, got, want in rows}
    widths = [max(len(lab), 6) for lab in labels]
    head = "  ker\\class".ljust(12) + "".join(
        f"  {lab:>{w}}" for lab, w in zip(labels, widths)
    )
    lines.append(head)
    for ker in kers:
        cells = []
        for lab, w in zip(labels, widths):
            got, want = by_cell.get((ker, lab), (0, 0))
            cell = str(got) if got == want else f"{got}!={want}"
            cells.append(f"  {cell:>{w}}")
        lines.append(f"  {ker}".ljust(12) + "".join(cells))
    verdict = "all cells match" if report.matches else "CELL MISMATCH"
    lines.append(
        f"  total {report.total}  expected {report.expected_total}  {verdict}"
    )
    if agree is not None:
        lines.append(
            "  structured and oracle enumerations agree"
            if agree
            else "  STRUCTURED/ORACLE DISAGREEMENT"
        )
    for w in report.warnings:
        lines.append(f"  warning: {w}")
    return lines


def cmd_enumerate(args: argparse.Namespace) -> int:
    reports = []
    agrees = []
    for kind in _KINDS[args.additive]:
        spec = group_spec(args.p, args.q, kind)
        orbits, agree = _enumerate_kind(spec, args)
        reports.append(tabulate(orbits, spec=spec))
        agrees.append(agree)
    ok = all(r.matches for r in reports) and all(a is not False for a in agrees)
    case = reports[0].case
    lines: list[str] = []
    docs = []
    diag: list[str] = []
    if args.additive == "both":
        combined = sum(r.total for r in reports)
        head = headline_total(case, args.p, args.q)
        per_family = per_family_total(case, args.p, args.q)
        diag.append(f"combined classes across both carriers: {combined}")
        diag.append(
            f"stored per-family total: {per_family} "
            + ("(match)" if combined == per_family else "(MISMATCH)")
        )
        if head == per_family:
            diag.append(f"stored headline total: {head} (match)")
        else:
            diag.append(
                f"warning: stored headline total {head} != per-family total "
                f"{per_family}; the computed count is authoritative"
            )
        if combined != per_family:
            ok = False
    for report, agree in zip(reports, agrees):
        if args.format == "table":
            lines.extend(_format_report_table(report, agree))
            lines.append("")
        else:
            doc = report_to_json(report)
            if agree is not None:
                doc["methods_agree"] = agree
            docs.append(doc)
    if args.format == "table":
        lines.extend(diag)
        _emit("\n".join(lines).rstrip("\n") + "\n", args.out)
    else:
        _emit(
            canonical_dumps(
                {"p": args.p, "q": args.q, "reports": docs, "diagnostics": diag}
            ),
            args.out,
        )
    return EXIT_OK if ok else EXIT_MISMATCH


def _catalog_entries(args: argparse.Namespace) -> list:
    """The catalog entries of the pair on the carriers --additive names; no
    other carrier is built."""
    return catalog_for_case(args.p, args.q, kinds=_KINDS[args.additive])


def _entry_head(e, good: bool) -> str:
    """A table line's head: verdict, carrier, family(params)."""
    params = ",".join(f"{k}={v}" for k, v in sorted(e.parameters.items()))
    return (
        f"{'ok ' if good else 'BAD'} {e.brace.spec.kind.value:<6} "
        f"{e.family}({params})"
    )


def cmd_catalog(args: argparse.Namespace) -> int:
    entries = _catalog_entries(args)
    ok = True
    lines = []
    docs = []
    for e in entries:
        res = verify_left_brace(e.brace)
        good = bool(res) and brace_invariants(e.brace) == e.expected
        ok = ok and good
        if args.format == "table":
            inv = e.expected
            lines.append(
                f"{_entry_head(e, good)}  ker={inv.ker_size} fix={inv.fix_size} "
                f"class={inv.mult_class} bi_skew={inv.bi_skew}"
            )
            if not res:
                lines.extend(f"    problem: {p}" for p in res.problems)
        else:
            doc = catalog_entry_to_json(e)
            doc["verified"] = good
            docs.append(doc)
    if args.format == "table":
        lines.append(
            f"{len(entries)} entries, all verified"
            if ok
            else f"{len(entries)} entries, VERIFICATION FAILURES"
        )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(canonical_dumps({"p": args.p, "q": args.q, "entries": docs}), args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_verify(args: argparse.Namespace) -> int:
    obj = load_json_file(args.path)
    B = brace_from_json(obj)
    res = verify_left_brace(B)
    inv = brace_invariants(B) if res.ok else None
    stored = invariants_from_json(obj["invariants"]) if "invariants" in obj else None
    inv_match = None
    if inv is not None and stored is not None:
        inv_match = inv == stored
    ok = res.ok and inv_match is not False
    if args.format == "table":
        lines = [f"{args.path}: {'ok' if res.ok else 'FAILED'}"]
        lines.extend(f"  problem: {p}" for p in res.problems)
        if inv is not None:
            lines.append(
                f"  invariants: ker={inv.ker_size} fix={inv.fix_size} "
                f"class={inv.mult_class} bi_skew={inv.bi_skew}"
            )
        if inv_match is not None:
            lines.append(
                "  stored invariants match"
                if inv_match
                else "  STORED INVARIANTS DIFFER"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(
            canonical_dumps(
                {
                    "path": args.path,
                    "ok": ok,
                    "problems": list(res.problems),
                    "invariants": invariants_to_json(inv) if inv else None,
                    "invariants_match": inv_match,
                }
            ),
            args.out,
        )
    return EXIT_OK if ok else EXIT_MISMATCH


def _checked_solution(brace) -> tuple[Solution, dict[str, bool]]:
    sol = solution_from_brace(brace)
    checks = solution_properties(sol)
    checks["ybe"] = verify_ybe(sol).ok
    return sol, checks


def cmd_ybe(args: argparse.Namespace) -> int:
    entries = _catalog_entries(args)
    ok = True
    if args.format == "json":

        def documents():
            # One solution at a time: each is dropped before the next is
            # derived, and the document is written as it goes.
            nonlocal ok
            for e in entries:
                sol, checks = _checked_solution(e.brace)
                ok = ok and all(checks.values())
                yield {
                    "family": e.family,
                    "params": dict(e.parameters),
                    "additive": e.brace.spec.kind.value,
                    "solution": solution_to_json(sol, checks),
                }
                del sol

        _emit(solution_document_chunks(args.p, args.q, documents()), args.out)
        return EXIT_OK if ok else EXIT_MISMATCH
    lines = []
    for e in entries:
        sol, checks = _checked_solution(e.brace)
        good = all(checks.values())
        ok = ok and good
        lines.append(
            f"{_entry_head(e, good)}  n={sol.n} ybe={checks['ybe']} "
            f"involutive={checks['involutive']} "
            f"nondegenerate={checks['nondegenerate']}"
        )
    lines.append(
        f"{len(entries)} solutions, all checks pass"
        if ok
        else f"{len(entries)} solutions, CHECK FAILURES"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_compare(args: argparse.Namespace) -> int:
    entries = _catalog_entries(args)
    lines = []
    docs = []
    total = 0
    perfect = True
    for kind in _KINDS[args.additive]:
        spec = group_spec(args.p, args.q, kind)
        orbits, agree = _enumerate_kind(spec, args)
        if agree is False:
            perfect = False
        kind_entries = [e for e in entries if e.brace.spec.kind is kind]
        # Each class brace is its orbit's minimal lambda table.
        by_key = {oc.brace.key: i for i, oc in enumerate(orbits)}
        claimed: dict[int, str] = {}
        unmatched_entries = []
        for e in kind_entries:
            key = orbit_min_key(e.brace)[0]
            name = f"{e.family}{dict(sorted(e.parameters.items()))}"
            idx = by_key.get(key)
            if idx is None or idx in claimed:
                unmatched_entries.append(name)
                perfect = False
            else:
                claimed[idx] = name
        missing = [i for i in range(len(orbits)) if i not in claimed]
        if missing:
            perfect = False
        total += len(orbits)
        if args.format == "table":
            lines.append(f"carrier {kind.value}: {len(orbits)} classes")
            for i, oc in enumerate(orbits):
                name = claimed.get(i, "UNMATCHED")
                inv = oc.invariants
                lines.append(
                    f"  class {i}: ker={inv.ker_size} mult={inv.mult_class} "
                    f"<- {name}"
                )
            lines.extend(
                f"  catalog entry without an orbit: {name}"
                for name in unmatched_entries
            )
        else:
            docs.append(
                {
                    "additive": kind.value,
                    "classes": [
                        {
                            "ker": oc.invariants.ker_size,
                            "mult_class": str(oc.invariants.mult_class),
                            "catalog": claimed.get(i),
                        }
                        for i, oc in enumerate(orbits)
                    ],
                    "unmatched_catalog": unmatched_entries,
                }
            )
    verdict = (
        f"perfect bijection, {total} classes"
        if perfect
        else "MISMATCH between enumeration and catalog"
    )
    if args.format == "table":
        lines.append(verdict)
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(
            canonical_dumps(
                {
                    "p": args.p,
                    "q": args.q,
                    "perfect_bijection": perfect,
                    "classes": total,
                    "carriers": docs,
                }
            ),
            args.out,
        )
    return EXIT_OK if perfect else EXIT_MISMATCH


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["table", "json"], default="table")
    sub.add_argument("--out", default=None, help="write output here instead of stdout")


def _add_pair_args(sub: argparse.ArgumentParser, cmd, with_method: bool) -> None:
    sub.set_defaults(run=cmd)
    sub.add_argument("--p", type=int, required=True, help="the squared prime")
    sub.add_argument("--q", type=int, required=True, help="the other prime")
    sub.add_argument(
        "--additive",
        choices=["cyclic", "mixed", "both"],
        default="both",
        help="which additive carrier(s) to use",
    )
    if with_method:
        sub.add_argument(
            "--method",
            choices=["structured", "oracle", "both"],
            default="structured",
            help="enumeration strategy; 'both' cross-checks the two",
        )
        sub.add_argument(
            "--oracle-bound",
            type=_positive_int,
            default=ORACLE_BOUND,
            help="refuse the naive oracle above this |Hol(A)|",
        )
    _add_output_args(sub)
    sub.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="accepted for compatibility; every op runs in one process",
    )


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="braceforge",
        description=(
            "Enumerate, classify, and verify the skew braces of order p^2*q "
            "with abelian additive group, and export their Yang-Baxter "
            "solutions."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    enum_p = sub.add_parser(
        "enumerate",
        help="count conjugacy classes of regular subgroups / braces per carrier",
    )
    _add_pair_args(enum_p, cmd_enumerate, with_method=True)
    cat_p = sub.add_parser("catalog", help="emit and verify the named brace families")
    _add_pair_args(cat_p, cmd_catalog, with_method=False)
    ver_p = sub.add_parser("verify", help="re-verify a stored brace file")
    ver_p.add_argument("path", help="a braceforge-v1 JSON file")
    _add_output_args(ver_p)
    ver_p.set_defaults(run=cmd_verify)
    ybe_p = sub.add_parser(
        "ybe", help="export checked Yang-Baxter solutions for the catalog braces"
    )
    _add_pair_args(ybe_p, cmd_ybe, with_method=False)
    cmp_p = sub.add_parser(
        "compare", help="match enumerated classes against the catalog, one by one"
    )
    _add_pair_args(cmp_p, cmd_compare, with_method=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command != "verify":
            ensure_in_scope(classify_case(PrimePair(args.p, args.q)))
        return args.run(args)
    except (ExcludedPairError, SchemaError, OracleBoundError, ValueError) as exc:
        print(f"braceforge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The program entry: run main() on sys.argv and exit with its code.

    Every import is done by now, so the collector's tracked objects are
    almost all module state: numpy's and braceforge's, about 22 k objects
    that live until exit.  Freezing them moves them out of every later
    collection, the full ones at interpreter shutdown included, which would
    otherwise walk the whole import heap again (README: "What one CLI
    process costs").  Objects made by the run stay collectable.  main()
    itself leaves the collector alone, so in-process callers keep their own
    GC state.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
