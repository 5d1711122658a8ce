"""Command-line front end: enumerate, catalog, verify, ybe, compare.

Each command computes in one loop, then picks table or JSON once, at the
end.  `enumerate` and `compare` read each carrier's classes off one carrier
loop, `_classes`; `catalog` and `ybe` check each catalog entry once.  The
`ybe` loop renders each solution as it goes, so its JSON is written one
solution at a time.

Exit codes: 0 = success (including the one documented count discrepancy,
which is reported as a warning); 1 = a comparison mismatched or a
verification failed; 2 = bad usage (an unwritable --out path included),
malformed input, or a refused pair: one outside the paper's scope, or,
when the naive oracle would run, a carrier with |Hol(A)| above its bound
of 10^6 (regular.ORACLE_BOUND).

Output is byte-deterministic for a fixed configuration.  Every op runs in
one process; --jobs is accepted for compatibility and changes nothing.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from collections.abc import Iterable, Iterator

from .algebra import Kind, group_spec
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
    OracleBoundError,
    _check_oracle_bound,
    orbit_min_key,
    orbit_partition,
    regular_subgroups_oracle,
    regular_subgroups_structured,
    tabulate,
)
from .ybe import solution_from_brace, solution_properties, verify_ybe

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


def _classes(args: argparse.Namespace) -> Iterator[tuple]:
    """(spec, Aut(A)-classes, agree) for each carrier --additive names.

    The classes come from the structured search unless --method is oracle;
    under --method both, `agree` says whether the oracle found the same
    classes, and is None otherwise.  When the oracle runs, every carrier is
    checked against the oracle's bound before any search; the searches run
    as the carriers are iterated.
    """
    specs = [group_spec(args.p, args.q, kind) for kind in _KINDS[args.additive]]
    if args.method != "structured":
        for spec in specs:
            _check_oracle_bound(spec)
    return (_carrier_classes(spec, args) for spec in specs)


def _carrier_classes(spec, args: argparse.Namespace) -> tuple:
    """One carrier's item of `_classes`.  Each subgroup list is freed once
    it is partitioned or keyed, so none stays alive while the caller works
    on the classes.  A class brace is its orbit's minimal lambda table, so
    the classes' keys are the searched side's orbit keys."""
    oracle = args.method == "oracle"
    search = regular_subgroups_oracle if oracle else regular_subgroups_structured
    classes = orbit_partition(search(spec), spec=spec)
    agree = None
    if args.method == "both":
        oracle_keys = {orbit_min_key(B)[0] for B in regular_subgroups_oracle(spec)}
        agree = {oc.brace.key for oc in classes} == oracle_keys
    return spec, classes, agree


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
    found = [
        (tabulate(classes, spec=spec), agree)
        for spec, classes, agree in _classes(args)
    ]
    ok = all(r.matches and a is not False for r, a in found)
    case = found[0][0].case
    diag: list[str] = []
    if args.additive == "both":
        combined = sum(r.total for r, _ in found)
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
    if args.format == "table":
        lines: list[str] = []
        for report, agree in found:
            lines += _format_report_table(report, agree) + [""]
        text = "\n".join(lines + diag).rstrip("\n") + "\n"
    else:
        docs = [
            report_to_json(r) | ({} if agree is None else {"methods_agree": agree})
            for r, agree in found
        ]
        text = canonical_dumps(
            {"p": args.p, "q": args.q, "reports": docs, "diagnostics": diag}
        )
    _emit(text, args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def _entry_head(e, good: bool) -> str:
    """A table line's head: verdict, carrier, family(params)."""
    params = ",".join(f"{k}={v}" for k, v in sorted(e.parameters.items()))
    return (
        f"{'ok ' if good else 'BAD'} {e.brace.spec.kind.value:<6} "
        f"{e.family}({params})"
    )


def _invariants_text(inv) -> str:
    return (
        f"ker={inv.ker_size} fix={inv.fix_size} "
        f"class={inv.mult_class} bi_skew={inv.bi_skew}"
    )


def cmd_catalog(args: argparse.Namespace) -> int:
    checked = []
    for e in catalog_for_case(args.p, args.q, kinds=_KINDS[args.additive]):
        res = verify_left_brace(e.brace)
        good = bool(res) and brace_invariants(e.brace) == e.expected
        checked.append((e, res.problems, good))
    ok = all(good for _, _, good in checked)
    if args.format == "table":
        lines = []
        for e, problems, good in checked:
            lines.append(f"{_entry_head(e, good)}  {_invariants_text(e.expected)}")
            lines.extend(f"    problem: {p}" for p in problems)
        lines.append(
            f"{len(checked)} entries, "
            + ("all verified" if ok else "VERIFICATION FAILURES")
        )
        text = "\n".join(lines) + "\n"
    else:
        docs = [
            catalog_entry_to_json(e) | {"verified": good} for e, _, good in checked
        ]
        text = canonical_dumps({"p": args.p, "q": args.q, "entries": docs})
    _emit(text, args.out)
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
    doc = {
        "path": args.path,
        "ok": res.ok and inv_match is not False,
        "problems": list(res.problems),
        "invariants": invariants_to_json(inv) if inv else None,
        "invariants_match": inv_match,
    }
    if args.format == "table":
        lines = [f"{args.path}: {'ok' if res.ok else 'FAILED'}"]
        lines.extend(f"  problem: {p}" for p in res.problems)
        if inv is not None:
            lines.append(f"  invariants: {_invariants_text(inv)}")
        if inv_match is not None:
            lines.append(
                "  stored invariants match"
                if inv_match
                else "  STORED INVARIANTS DIFFER"
            )
        text = "\n".join(lines) + "\n"
    else:
        text = canonical_dumps(doc)
    _emit(text, args.out)
    return EXIT_OK if doc["ok"] else EXIT_MISMATCH


def cmd_ybe(args: argparse.Namespace) -> int:
    entries = catalog_for_case(args.p, args.q, kinds=_KINDS[args.additive])
    ok = True

    def checked(render):
        # One solution at a time: each is rendered, then dropped before the
        # next is derived, so the JSON document is written as it goes.
        nonlocal ok
        for e in entries:
            sol = solution_from_brace(e.brace)
            checks = solution_properties(sol)
            checks["ybe"] = verify_ybe(sol).ok
            ok = ok and all(checks.values())
            yield render(e, sol, checks)
            del sol

    if args.format == "json":
        docs = checked(
            lambda e, sol, checks: {
                "family": e.family,
                "params": dict(e.parameters),
                "additive": e.brace.spec.kind.value,
                "solution": solution_to_json(sol, checks),
            }
        )
        text = solution_document_chunks(args.p, args.q, docs)
    else:
        lines = list(
            checked(
                lambda e, sol, checks: f"{_entry_head(e, all(checks.values()))}  "
                f"n={sol.n} ybe={checks['ybe']} involutive={checks['involutive']} "
                f"nondegenerate={checks['nondegenerate']}"
            )
        )
        lines.append(
            f"{len(entries)} solutions, "
            + ("all checks pass" if ok else "CHECK FAILURES")
        )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_compare(args: argparse.Namespace) -> int:
    found = _classes(args)
    entries = catalog_for_case(args.p, args.q, kinds=_KINDS[args.additive])
    carriers = []
    perfect = True
    for spec, classes, agree in found:
        # Each class brace is its orbit's minimal lambda table.
        by_key = {oc.brace.key: i for i, oc in enumerate(classes)}
        claimed: dict[int, str] = {}
        unmatched = []
        for e in entries:
            if e.brace.spec.kind is not spec.kind:
                continue
            key = orbit_min_key(e.brace)[0]
            name = f"{e.family}{dict(sorted(e.parameters.items()))}"
            idx = by_key.get(key)
            if idx is None or idx in claimed:
                unmatched.append(name)
            else:
                claimed[idx] = name
        record = {
            "additive": spec.kind.value,
            "classes": [
                {
                    "ker": oc.invariants.ker_size,
                    "mult_class": str(oc.invariants.mult_class),
                    "catalog": claimed.get(i),
                }
                for i, oc in enumerate(classes)
            ],
            "unmatched_catalog": unmatched,
        }
        if agree is False:
            record["methods_agree"] = False
        if agree is False or unmatched or len(claimed) < len(classes):
            perfect = False
        carriers.append(record)
    doc = {
        "p": args.p,
        "q": args.q,
        "perfect_bijection": perfect,
        "classes": sum(len(r["classes"]) for r in carriers),
        "carriers": carriers,
    }
    if args.format == "table":
        lines = []
        for r in carriers:
            lines.append(f"carrier {r['additive']}: {len(r['classes'])} classes")
            lines.extend(
                f"  class {i}: ker={c['ker']} mult={c['mult_class']} "
                f"<- {c['catalog'] or 'UNMATCHED'}"
                for i, c in enumerate(r["classes"])
            )
            lines.extend(
                f"  catalog entry without an orbit: {name}"
                for name in r["unmatched_catalog"]
            )
            if "methods_agree" in r:
                lines.append("  STRUCTURED/ORACLE DISAGREEMENT")
        lines.append(
            f"perfect bijection, {doc['classes']} classes"
            if perfect
            else "MISMATCH between enumeration and catalog"
        )
        text = "\n".join(lines) + "\n"
    else:
        text = canonical_dumps(doc)
    _emit(text, args.out)
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
