"""JSON serialization: braces, catalog entries, YBE solutions, reports.

The brace format is "braceforge-v1".  Element indices follow the carrier
encoding (CYCLIC: n + p^2*m; MIXED: a + p*b + p^2*c) and automorphisms are
stored as descriptors -- CYCLIC ``{"i": ..., "j": ...}``, MIXED
``{"m": [[..,..],[..,..]], "alpha": ...}`` -- so files are readable and
independent of any internal numbering.  ``lambda`` holds, per element index,
an index into the file's own ``auts`` list.

Every document is written in one layout, ``json.dumps(sort_keys=True,
indent=2)`` plus a trailing newline, so identical inputs produce identical
bytes.  :func:`canonical_dumps` builds it as one string; the ``ybe`` solution
document, whose integer matrices are by far the largest output, is written
in chunks by :func:`solution_document_chunks`, one solution at a time.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from typing import Any

import numpy as np

from .algebra import Kind, group_spec
from .brace import (
    G_K, MULT_LABELS, BraceInvariants, MultClass, SkewBrace, brace_invariants,
)
from .cases import classify_case, ensure_in_scope
from .regular import EnumerationReport
from .ybe import Solution

__all__ = [
    "SCHEMA_FORMAT",
    "SchemaError",
    "canonical_dumps",
    "load_json_file",
    "descriptor_to_json",
    "descriptor_from_json",
    "mult_class_from_str",
    "invariants_to_json",
    "invariants_from_json",
    "brace_to_json",
    "brace_from_json",
    "catalog_entry_to_json",
    "solution_to_json",
    "solution_from_json",
    "solution_document_chunks",
    "subgroup_to_json",
    "report_to_json",
]

SCHEMA_FORMAT = "braceforge-v1"


class SchemaError(ValueError):
    """A JSON document does not match the expected schema."""


def canonical_dumps(obj: Any) -> str:
    """Byte-deterministic JSON text (sorted keys, indent 2, newline)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json_file(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _expect(obj: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    val = obj[key]
    if kind is int and isinstance(val, bool):
        raise SchemaError(f"{where}: key {key!r} must be an integer")
    if not isinstance(val, kind):
        raise SchemaError(f"{where}: key {key!r} must be {kind.__name__}")
    return val


def _int_matrix(obj: Any, key: str, n: int, where: str) -> list:
    """obj[key] as an n x n matrix of integers (lists of lists, no bools)."""
    table = _expect(obj, key, list, where)
    if len(table) != n or any(
        not isinstance(row, list)
        or len(row) != n
        or any(isinstance(x, bool) or not isinstance(x, int) for x in row)
        for row in table
    ):
        raise SchemaError(f"{where}: {key!r} must be a {n}x{n} integer matrix")
    return table


# ---------------- automorphism descriptors ----------------


def descriptor_to_json(kind: Kind | str, desc) -> dict:
    if Kind(kind) is Kind.CYCLIC:
        i, j = desc
        return {"i": int(i), "j": int(j)}
    (m00, m01, m10, m11), alpha = desc
    return {"m": [[int(m00), int(m01)], [int(m10), int(m11)]], "alpha": int(alpha)}


def descriptor_from_json(kind: Kind | str, obj: Any):
    where = "automorphism descriptor"
    if Kind(kind) is Kind.CYCLIC:
        i = _expect(obj, "i", int, where)
        j = _expect(obj, "j", int, where)
        return (i, j)
    m = _int_matrix(obj, "m", 2, where)
    alpha = _expect(obj, "alpha", int, where)
    return ((m[0][0], m[0][1], m[1][0], m[1][1]), alpha)


# ---------------- invariants ----------------


def mult_class_from_str(s: str) -> MultClass:
    if s.endswith(")") and "(" in s:
        base, _, rest = s.partition("(")
        try:
            k = int(rest[:-1])
        except ValueError:
            raise SchemaError(f"bad multiplicative class {s!r}") from None
        if base != G_K:
            raise SchemaError(f"bad multiplicative class {s!r}")
        return MultClass(base, k)
    if s not in MULT_LABELS:
        raise SchemaError(f"unknown multiplicative class {s!r}")
    if s == G_K:
        raise SchemaError("G_K requires a parameter, e.g. 'G_K(2)'")
    return MultClass(s)


def invariants_to_json(inv: BraceInvariants) -> dict:
    return {
        "ker": inv.ker_size,
        "fix": inv.fix_size,
        "mult_class": str(inv.mult_class),
        "bi_skew": inv.bi_skew,
    }


def invariants_from_json(obj: Any) -> BraceInvariants:
    where = "invariants"
    ker = _expect(obj, "ker", int, where)
    fix = _expect(obj, "fix", int, where)
    mc = mult_class_from_str(_expect(obj, "mult_class", str, where))
    bi = _expect(obj, "bi_skew", bool, where)
    return BraceInvariants(ker, fix, mc, bi)


# ---------------- braces ----------------


def brace_to_json(B: SkewBrace, invariants: BraceInvariants | None = None) -> dict:
    """Serialize a brace; invariants are computed when not supplied."""
    if invariants is None:
        invariants = brace_invariants(B)
    spec = B.spec
    lam = B.lam.tolist()
    used = sorted(set(lam))
    local = {g: i for i, g in enumerate(used)}
    return {
        "format": SCHEMA_FORMAT,
        "p": spec.p,
        "q": spec.q,
        "additive": spec.kind.value,
        "order": spec.n,
        "auts": [descriptor_to_json(spec.kind, spec.aut_desc(g)) for g in used],
        "lambda": [local[g] for g in lam],
        "invariants": invariants_to_json(invariants),
    }


def brace_from_json(obj: Any) -> SkewBrace:
    """Parse and validate a braceforge-v1 brace document.

    Raises SchemaError for anything malformed: wrong format tag, composite
    p or q, descriptors that are not automorphisms of the stated carrier,
    or a lambda table of the wrong shape; ExcludedPairError for the
    out-of-scope pair (2, 3).  Brace axioms are *not* checked here; run
    verify_left_brace on the result.
    """
    where = "brace"
    fmt = _expect(obj, "format", str, where)
    if fmt != SCHEMA_FORMAT:
        raise SchemaError(f"{where}: unsupported format {fmt!r}")
    p = _expect(obj, "p", int, where)
    q = _expect(obj, "q", int, where)
    additive = _expect(obj, "additive", str, where)
    if additive not in (Kind.CYCLIC.value, Kind.MIXED.value):
        raise SchemaError(f"{where}: additive must be 'cyclic' or 'mixed'")
    try:
        spec = group_spec(p, q, additive)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    ensure_in_scope(classify_case(spec.pair))
    order = _expect(obj, "order", int, where)
    if order != spec.n:
        raise SchemaError(f"{where}: order {order} != p^2*q = {spec.n}")
    auts = _expect(obj, "auts", list, where)
    aut_ids: list[int] = []
    for k, desc_obj in enumerate(auts):
        f = int(spec.aut_lookup([descriptor_from_json(spec.kind, desc_obj)])[0])
        if f < 0:
            raise SchemaError(
                f"{where}: auts[{k}] = {desc_obj!r} is not an automorphism of "
                f"the {additive} carrier for ({p}, {q})"
            )
        aut_ids.append(f)
    lam_local = _expect(obj, "lambda", list, where)
    if len(lam_local) != spec.n:
        raise SchemaError(
            f"{where}: lambda has {len(lam_local)} entries, expected {spec.n}"
        )
    lam: list[int] = []
    for x, k in enumerate(lam_local):
        if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < len(aut_ids):
            raise SchemaError(f"{where}: lambda[{x}] = {k!r} is not an auts index")
        lam.append(aut_ids[k])
    if "invariants" in obj:
        invariants_from_json(obj["invariants"])
    return SkewBrace(spec, lam)


def catalog_entry_to_json(entry) -> dict:
    """Brace JSON extended with the family name and its parameters."""
    doc = brace_to_json(entry.brace, entry.expected)
    doc["family"] = entry.family
    doc["params"] = dict(entry.parameters)
    doc["case"] = entry.case.value
    return doc


# ---------------- YBE solutions ----------------


class _Rows(list):
    """The rows of an n x n integer matrix whose entries lie in range(n), as
    a Solution guarantees: :func:`solution_document_chunks` writes them from
    a table of n decimal tokens."""


def solution_to_json(sol: Solution, checks: dict[str, bool]) -> dict:
    return {
        "n": sol.n,
        "sigma": _Rows(sol.sigma.tolist()),
        "tau": _Rows(sol.tau.tolist()),
        "checks": {
            "ybe": bool(checks["ybe"]),
            "involutive": bool(checks["involutive"]),
            "nondegenerate": bool(checks["nondegenerate"]),
        },
    }


def solution_document_chunks(
    p: int, q: int, solutions: Iterable[dict]
) -> Iterator[str]:
    """The text of ``canonical_dumps({"p": p, "q": q, "solutions": [...]})``
    in chunks, with the solution documents taken from `solutions` one at a
    time: the next is asked for only once the previous one is written, and
    no reference to it is kept.
    """
    yield f'{{\n  "p": {json.dumps(p)},\n  "q": {json.dumps(q)},\n  "solutions": '
    sep = "[\n    "
    for doc in solutions:
        yield sep
        yield from _chunks(doc, 2)
        sep = ",\n    "
        del doc
    yield ("[]" if sep == "[\n    " else "\n  ]") + "\n}\n"


def _chunks(obj: Any, level: int) -> Iterator[str]:
    """``json.dumps(obj, sort_keys=True, indent=2)`` as it appears `level`
    levels deep in an indented document, in chunks.

    Dicts with string keys are written item by item; a solution matrix
    (`_Rows`) is one chunk per row, each entry looked up in a token table
    made once per matrix.  Anything else is one ``json.dumps``,
    re-indented: JSON strings hold no raw newline, so every newline in it
    is layout.
    """
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        sep = "{" + pad
        for key in sorted(obj):
            yield sep + json.dumps(key) + ": "
            yield from _chunks(obj[key], level + 1)
            sep = "," + pad
        yield pad[:-2] + "}"
    elif type(obj) is _Rows and obj:
        token = list(map(str, range(len(obj)))).__getitem__
        inner = pad + "  "
        sep, comma = "[" + pad, "," + inner
        for row in obj:
            yield sep + "[" + inner + comma.join(map(token, row)) + pad + "]"
            sep = "," + pad
        yield pad[:-2] + "]"
    else:
        yield json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad[:-2])


def solution_from_json(obj: Any) -> tuple[Solution, dict[str, bool]]:
    where = "solution"
    n = _expect(obj, "n", int, where)
    sigma = _int_matrix(obj, "sigma", n, where)
    tau = _int_matrix(obj, "tau", n, where)
    checks = _expect(obj, "checks", dict, where)
    try:
        sol = Solution(np.asarray(sigma), np.asarray(tau))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    out = {}
    for key in ("ybe", "involutive", "nondegenerate"):
        out[key] = _expect(checks, key, bool, f"{where}.checks")
    return sol, out


# ---------------- enumeration reports ----------------


def subgroup_to_json(B: SkewBrace) -> list:
    """Generators of the brace's regular subgroup {(a, lambda_a)}, as a list
    of (element index, automorphism descriptor) pairs.

    a -> (a, lambda_a) is an isomorphism from the circle group (A, o) onto
    the subgroup, so the generators are the circle group's,
    SkewBrace.circle_generators: each element, smallest first, that the
    earlier ones do not generate.
    """
    spec = B.spec
    return [
        [a, descriptor_to_json(spec.kind, spec.aut_desc(B.lam[a]))]
        for a in B.circle_generators
    ]


def report_to_json(report: EnumerationReport) -> dict:
    spec = report.spec
    return {
        "p": spec.p,
        "q": spec.q,
        "additive": spec.kind.value,
        "case": report.case.value,
        "total": report.total,
        "expected_total": report.expected_total,
        "matches": report.matches,
        "warnings": list(report.warnings),
        "cells": [
            {"ker": ker, "class": label, "computed": got, "expected": want}
            for ker, label, got, want in report.cell_rows()
        ],
        "classes": [
            {
                "pi2_order": oc.pi2_order,
                "ker": oc.invariants.ker_size,
                "orbit_size": oc.orbit_size,
                "invariants": invariants_to_json(oc.invariants),
                "generators": subgroup_to_json(oc.brace),
            }
            for oc in report.orbits
        ],
    }
