"""Self-test of the benchmark, about half a minute on two cores.

    python3 -m pytest perfbench -q

Runs the smallest op of each subcommand in each workload once, untraced and
traced, and checks that every metric BENCHMARK.json names is reported with
its unit, that no op fails, that the traced op's counts agree with the
untraced op, and that a corrupted verify input counts as handled.
"""

from __future__ import annotations

import ast
import importlib
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import trace_op  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


# Per-layer times each workload's smallest ops must show, so that a wrapper
# the CLI bypasses is caught.
LAYERS_THAT_RUN = {
    "classify": ("catalog.build_s", "algebra.aut_classes_s",
                 "regular.lift_search_s", "regular.orbit_partition_s",
                 "brace.invariants_s", "regular.match_s", "cli.self_s",
                 "trace.overhead_s"),
    "export_crosscheck": ("catalog.build_s", "regular.lift_search_s",
                          "regular.oracle_s", "regular.crosscheck_keys_s",
                          "ybe.derive_s", "ybe.properties_s", "ybe.verify_s",
                          "io.write_s", "io.read_s", "brace.verify_s",
                          "brace.invariants_s", "cli.self_s",
                          "trace.overhead_s"),
}


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def _order(op) -> int:
    p = int(op.argv[op.argv.index("--p") + 1])
    q = int(op.argv[op.argv.index("--q") + 1])
    return p * p * q


def test_declared_workloads_are_the_defined_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_tracer_wraps_only_public_names():
    for module, name in trace_op.LAYERS:
        assert name in importlib.import_module(module).__all__, f"{module}.{name}"
    tree = ast.parse((BENCH / "trace_op.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("braceforge"):
            public = importlib.import_module(node.module).__all__
            for alias in node.names:
                assert alias.name in public, f"{node.module}.{alias.name}"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smallest_op_of_each_workload(name):
    full = WORKLOADS[name]
    smallest = {}
    for op in sorted(full.ops, key=_order, reverse=True):
        smallest[op.argv[0]] = op
    small = Workload(
        ops=tuple(smallest.values()),
        # (3, 2) has the smallest catalog; with 8 braces, 2 get corrupted.
        verify_pairs=((3, 2),) if full.verify_pairs else (),
    )
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(f"selftest-{name}", small, 5, 0, trace, ROOT)
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _units(section)
        if trace:
            for metric in LAYERS_THAT_RUN[name]:
                assert result["metrics"][metric]["value"] > 0, metric
        if trace and full.verify_pairs:
            assert result["metrics"]["brace.witnesses"]["value"] == 2


def test_corrupted_verify_input_counts_as_handled():
    runner_dir = ROOT / ".perfbench" / "selftest-corrupt"
    shutil.rmtree(runner_dir, ignore_errors=True)
    runner_dir.mkdir(parents=True)
    runner = run.Runner(ROOT, runner_dir, seed=1)
    ops, corruptions = run.make_verify_ops(runner, ((3, 2),), random.Random(1))
    bad = {c["file"] for c in corruptions}
    assert len(bad) == 2
    for op in ops:
        corrupted = Path(op.argv[1]).name in bad
        rec = run.run_op(runner, op, corrupted)
        assert rec["failure"] is None, rec
        assert rec["found"] == {"ok": not corrupted, "witness": corrupted}
        # The same output checked against the wrong expectation must fail.
        wrong = run.run_op(runner, op, not corrupted)
        assert wrong["failure"] is not None
    shutil.rmtree(runner_dir)
