"""Traced run of one braceforge CLI op, in a fresh interpreter.

    python3 perfbench/trace_op.py --trace-out SPANS.json -- compare --p 7 --q 3

The arguments after ``--`` are a ``braceforge`` command line, and the op is
the CLI's own ``braceforge.cli.main``: its output, exit code and call order
are those of an untraced op.  Before ``braceforge.cli`` is imported, each
public function named in ``LAYERS`` is replaced, in every braceforge module
that holds it, by a wrapper that records a span around the real call and
takes counts from its return value.  A call made while a span of the same
layer is open is not recorded again.

One span is a probe, not a call the CLI makes: before the real
``regular_subgroups_structured`` runs, ``algebra.aut_classes`` asks
``subgroup_classes_of_order`` (cached) for every order the lift search will
ask for, so the Aut classes are timed cold and the search reuses them.

Spans are kept in memory and written, with the counts and the tracer's own
time (patching, and each wrapper's work outside the real call), when the op
ends.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import sys
import time
from math import gcd

from braceforge.algebra import aut_group_order, subgroup_classes_of_order

MIB = 1024 * 1024

# (module, public function) -> layer.  ``orbit_min_key`` is the matching
# step under ``compare`` and the cross-check of the two enumerations under
# ``enumerate``.
LAYERS = {
    ("braceforge.catalog", "catalog_for_case"): "catalog.build",
    ("braceforge.regular", "regular_subgroups_structured"): "regular.lift_search",
    ("braceforge.regular", "regular_subgroups_oracle"): "regular.oracle",
    ("braceforge.regular", "orbit_partition"): "regular.orbit_partition",
    ("braceforge.regular", "orbit_min_key"): "regular.orbit_min_key",
    ("braceforge.brace", "brace_invariants"): "brace.invariants",
    ("braceforge.brace", "verify_left_brace"): "brace.verify",
    ("braceforge.ybe", "solution_from_brace"): "ybe.derive",
    ("braceforge.ybe", "solution_properties"): "ybe.properties",
    ("braceforge.ybe", "verify_ybe"): "ybe.verify",
    ("braceforge.io", "solution_to_json"): "io.write",
    ("braceforge.io", "canonical_dumps"): "io.write",
    ("braceforge.io", "load_json_file"): "io.read",
    ("braceforge.io", "brace_from_json"): "io.read",
}
MODULES = ("braceforge", "braceforge.algebra", "braceforge.brace", "braceforge.catalog",
           "braceforge.io", "braceforge.regular", "braceforge.ybe")


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _count(t: Tracer, layer: str, args: tuple, result) -> None:
    if layer == "regular.lift_search":
        t.count("regular.subgroups", len(result))
    elif layer == "regular.oracle":
        t.count("regular.oracle_survivors", len(result))
    elif layer == "regular.orbit_partition":
        t.count("regular.classes", len(result))
        t.count("regular.orbit_members", sum(oc.orbit_size for oc in result))
    elif layer == "ybe.verify":
        t.count("ybe.solutions", 1)
        t.count("ybe.triples", args[0].n ** 3)
    elif layer == "brace.verify" and not result.ok and result.problems:
        t.count("brace.witnesses", 1)
    elif layer == "io.write" and isinstance(result, str):
        t.count("io.write_mb", len(result.encode()) / MIB)


class Tracer:
    """In-memory spans (name, start, end, parent), counts and own time."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.own_s = 0.0
        self._open: list[int] = []

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        """fn(*args, **kwargs) inside a span; its bookkeeping goes to own_s."""
        t0 = time.perf_counter()
        if any(self.spans[i]["name"] == name for i in self._open):
            self.own_s += time.perf_counter() - t0
            return fn(*args, **kwargs)
        rec = {"name": name, "parent": self._open[-1] if self._open else None,
               "start": None, "end": None, "rss_growth_mib": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rss0 = _peak_rss_mib()
        t1 = time.perf_counter()
        rec["start"] = t1
        try:
            result = fn(*args, **kwargs)
        finally:
            t2 = rec["end"] = time.perf_counter()
            rec["rss_growth_mib"] = _peak_rss_mib() - rss0
            self._open.pop()
        _count(self, name, args, result)
        self.own_s += (t1 - t0) + (time.perf_counter() - t2)
        return result


def _aut_classes_probe(t: Tracer, spec) -> None:
    top = gcd(spec.n, aut_group_order(spec))

    def probe() -> list:
        return [c for k in range(1, top + 1) if top % k == 0
                for c in subgroup_classes_of_order(spec, k)]

    classes = t.call("algebra.aut_classes", probe, (), {})
    t.count("algebra.aut_classes", len(classes))
    t.count("algebra.aut_subgroups", sum(c.n_conjugates for c in classes))


def install(t: Tracer, modules: list) -> None:
    """Wrap every LAYERS function in each of modules that holds it."""
    for (home, fname), layer in LAYERS.items():
        real = getattr(sys.modules[home], fname)

        def make(real=real, layer=layer):
            @functools.wraps(real)
            def traced(*args, **kwargs):
                if layer == "regular.lift_search":
                    _aut_classes_probe(t, args[0] if args else kwargs["spec"])
                return t.call(layer, real, args, kwargs)
            return traced

        wrapper = make()
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is real:
                    setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-out", required=True)
    ap.add_argument("op", nargs=argparse.REMAINDER)
    ns = ap.parse_args(argv)
    op = ns.op[1:] if ns.op[:1] == ["--"] else ns.op
    t = Tracer()
    modules = [importlib.import_module(m) for m in MODULES]
    t0 = time.perf_counter()
    install(t, modules)
    t.own_s += time.perf_counter() - t0
    import braceforge.cli

    code = t.call("cli." + op[0], braceforge.cli.main, (op,), {})
    with open(ns.trace_out, "w", encoding="utf-8") as fh:
        json.dump({"spans": t.spans, "counts": t.counts, "own_s": t.own_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
