"""Closed-loop benchmark of the braceforge CLI.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 50 --trace 0

Run from anywhere; the program under test is the ``src/`` tree next to this
directory.  One client runs the workload's CLI ops one after another, each
in a fresh interpreter with its own empty HOME, TMPDIR, XDG_CACHE_HOME and
working directory, and checks every op's output against the result stored
in workloads.py.  The seed fixes PYTHONHASHSEED, the op order and which
verify inputs are corrupted.

``--trace 0`` runs every op once, then repeats ops while another fits in
``--seconds``, and reports the end-to-end metrics:

* ``wall_s``: one pass over the op list, as the sum of each op's median
  wall time;
* ``peak_rss_mb``: the largest peak RSS of any op process;
* ``setup_s``: the median time of a fresh interpreter that imports
  ``braceforge.cli`` and exits, the cost every CLI call pays.

``--trace 1`` runs one untraced pass, then runs every op again through
trace_op.py, which times the CLI's calls into each layer, and reports the
per-layer metrics, each summed over the ops.  Metric names and units are
read from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything a run
leaves behind, including its spans, goes under ``.perfbench/`` next to
``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Op, Workload

BENCH_DIR = Path(__file__).resolve().parent
OP_TIMEOUT_S = 60
SETUP_SAMPLES = 15


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or set-up failed)."""


def declared_units(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, as BENCHMARK.json names them."""
    path = root / "BENCHMARK.json"
    try:
        declared = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    return tuple(
        {m["name"]: m["unit"] for m in declared[section]}
        for section in ("end_to_end", "per_layer")
    )


# ---------------- running one process ----------------


def run_process(argv: list[str], env: dict, cwd: Path) -> dict:
    """Run argv to completion in cwd, stdout and stderr to files there.

    Returns wall seconds, CPU seconds and peak RSS (from wait4), the exit
    code, and whether the per-op time limit killed it.
    """
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        killer = threading.Timer(OP_TIMEOUT_S, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "timed_out": killed.is_set(),
        "stdout": (cwd / "stdout").read_text(errors="replace"),
        "stderr": (cwd / "stderr").read_text(errors="replace"),
    }


class Runner:
    """Fresh, isolated working directories and environments for one run."""

    def __init__(self, root: Path, run_dir: Path, seed: int) -> None:
        self.root = root
        self.run_dir = run_dir
        self.seed = seed
        self._n = 0

    def op_dir(self) -> Path:
        self._n += 1
        d = self.run_dir / "ops" / f"{self._n:04d}"
        d.mkdir(parents=True)
        return d

    def env(self, home: Path) -> dict:
        return {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(self.root / "src"),
            "PYTHONHASHSEED": str(self.seed % 2**32),
            "PYTHONNOUSERSITE": "1",
            "HOME": str(home),
            "TMPDIR": str(home),
            "XDG_CACHE_HOME": str(home),
        }

    def python(self, args: list[str], keep: bool = False) -> tuple[dict, Path]:
        """Run ``python3 args`` in a fresh op directory."""
        d = self.op_dir()
        res = run_process([sys.executable, *args], self.env(d), d)
        if not keep:
            shutil.rmtree(d)
        return res, d


# ---------------- set-up ----------------


def check_program(runner: Runner) -> dict:
    """Compile the package's bytecode (untimed) and report versions."""
    res, _ = runner.python(
        ["-c", "import braceforge.cli, numpy, sys; "
         "print(braceforge.cli.__file__); print(numpy.__version__); "
         "print(sys.version.split()[0])"]
    )
    lines = res["stdout"].split()
    if res["exit"] != 0 or len(lines) != 3:
        raise BenchError(f"cannot import braceforge.cli: {res['stderr'][-500:]}")
    if Path(lines[0]).resolve() != (runner.root / "src/braceforge/cli.py").resolve():
        raise BenchError(f"braceforge.cli imported from {lines[0]}, not src/")
    return {"numpy": lines[1], "python": lines[2], "nproc": os.cpu_count()}


def time_import(runner: Runner) -> float:
    """Seconds for a fresh interpreter to import braceforge.cli and exit."""
    res, _ = runner.python(["-c", "import braceforge.cli"])
    if res["exit"] != 0:
        raise BenchError("importing braceforge.cli failed")
    return res["seconds"]


def make_verify_ops(runner: Runner, pairs, rng: random.Random) -> tuple[list[Op], list]:
    """Brace files from ``braceforge catalog --format json``, one per entry.

    About a quarter of the files (at least one) get one lambda entry changed
    to another automorphism the file lists; only braces with two or more
    distinct automorphisms can be corrupted that way.  A subgroup of order
    n > 2 cannot differ from another in one element, so every corrupted file
    must fail verification with a witness.
    """
    if not pairs:
        return [], []
    inputs = runner.run_dir / "inputs"
    inputs.mkdir()
    files = []
    for p, q in pairs:
        res, d = runner.python(
            ["-m", "braceforge.cli", "catalog", "--p", str(p), "--q", str(q),
             "--format", "json", "--out", "catalog.json"],
            keep=True,
        )
        if res["exit"] != 0:
            raise BenchError(f"catalog ({p}, {q}) failed: {res['stderr'][-500:]}")
        entries = json.loads((d / "catalog.json").read_text())["entries"]
        shutil.rmtree(d)
        for i, doc in enumerate(entries):
            files.append((inputs / f"brace_{p}_{q}_{i}.json", doc))
    eligible = [k for k, (_, doc) in enumerate(files) if len(doc["auts"]) > 1]
    bad = set(rng.sample(eligible, max(1, round(len(files) / 4))))
    ops, corruptions = [], []
    for k, (path, doc) in enumerate(files):
        if k in bad:
            x = rng.randrange(len(doc["lambda"]))
            old = doc["lambda"][x]
            doc["lambda"][x] = rng.choice(
                [a for a in range(len(doc["auts"])) if a != old]
            )
            corruptions.append({"file": path.name, "x": x, "old": old,
                                "new": doc["lambda"][x]})
        path.write_text(json.dumps(doc))
        ops.append(Op(("verify", str(path))))
    return ops, corruptions


# ---------------- checking outputs ----------------

TOTAL_RE = re.compile(r"^  total (\d+)  expected (\d+)  all cells match$", re.M)


def check_op(op: Op, res: dict, cwd: Path, corrupted: bool) -> tuple[str | None, dict]:
    """(failure reason or None, what the op reported)."""
    if res["timed_out"]:
        return f"over the {OP_TIMEOUT_S} s op limit", {}
    if "Traceback" in res["stderr"] or "MemoryError" in res["stderr"]:
        return "crashed: " + res["stderr"].strip().splitlines()[-1], {}
    out = res["stdout"]
    cmd = op.argv[0]
    want_exit = 1 if corrupted else 0
    if res["exit"] != want_exit:
        return f"exit {res['exit']}, expected {want_exit}", {}
    if cmd == "compare":
        m = re.search(r"^perfect bijection, (\d+) classes$", out, re.M)
        if not m:
            return "no 'perfect bijection' verdict", {}
        found = {"classes": int(m.group(1))}
    elif cmd == "enumerate":
        carriers = len(TOTAL_RE.findall(out))
        if carriers == 0 or out.count(
            "structured and oracle enumerations agree"
        ) != carriers:
            return "no 'enumerations agree' verdict per carrier", {}
        found = {"classes": sum(int(t) for t, _ in TOTAL_RE.findall(out))}
    elif cmd == "ybe":
        try:
            doc = json.loads((cwd / "solutions.json").read_text())
        except (OSError, ValueError) as exc:
            return f"unreadable ybe output: {exc}", {}
        sols = doc.get("solutions", [])
        n = int(op.argv[op.argv.index("--p") + 1]) ** 2 * int(
            op.argv[op.argv.index("--q") + 1]
        )
        try:
            good = all(
                s["solution"]["n"] == n and all(s["solution"]["checks"].values())
                for s in sols
            )
        except (KeyError, TypeError):
            good = False
        if not good:
            return "a solution is malformed, the wrong size or fails a check", {}
        found = {"solutions": len(sols)}
    elif corrupted:
        if "FAILED" not in out or "  problem: " not in out:
            return "corrupted input not reported with a witness", {}
        return None, {"ok": False, "witness": True}
    else:
        if ": ok\n" not in out or "stored invariants match" not in out:
            return "valid brace not verified", {}
        return None, {"ok": True, "witness": False}
    for key in ("classes", "solutions"):
        want = getattr(op, key)
        if want is not None and found.get(key) != want:
            return f"{key} {found.get(key)}, expected {want}", found
    return None, found


def traced_matches(op: Op, found: dict, traced_found: dict, counts: dict) -> bool:
    """Whether the traced op reported what the timed op did, and whether the
    counts taken from return values agree with it."""
    if traced_found != found:
        return False
    if op.argv[0] in ("compare", "enumerate"):
        return counts.get("regular.classes") == found["classes"]
    if op.argv[0] == "ybe":
        return counts.get("ybe.solutions") == found["solutions"]
    return True


# ---------------- the run ----------------


def run_op(runner: Runner, op: Op, corrupted: bool, trace_out: Path | None = None):
    """Run one op, untraced or through trace_op.py, and check its output."""
    d = runner.op_dir()
    if trace_out is None:
        argv = [sys.executable, "-m", "braceforge.cli", *op.argv]
    else:
        argv = [sys.executable, str(BENCH_DIR / "trace_op.py"),
                "--trace-out", str(trace_out), "--", *op.argv]
    res = run_process(argv, runner.env(d), d)
    reason, found = check_op(op, res, d, corrupted)
    rec = {
        "argv": list(op.argv),
        "seconds": res["seconds"],
        "cpu_s": res["cpu_s"],
        "peak_rss_mib": res["peak_rss_mib"],
        "failure": reason,
        "found": found,
    }
    if reason is None:
        shutil.rmtree(d)
    else:
        rec["dir"] = str(d)
    return rec


def layer_metrics(names, untraced: list[dict], traces: list[tuple[str, dict]]) -> dict:
    """Per-layer metrics summed over ops, from (subcommand, trace) pairs.

    A layer's time is the sum of its spans; ``_rss_mb`` sums the spans'
    growth of peak RSS.  ``orbit_min_key`` spans count as the matching step
    under ``compare`` and as the cross-check under ``enumerate``.
    """
    m = dict.fromkeys(names, 0)
    key_layer = {"compare": "regular.match", "enumerate": "regular.crosscheck_keys"}
    classes_lift = classes_oracle = 0
    for command, tr in traces:
        spans = tr["spans"]
        for i, s in enumerate(spans):
            dur = s["end"] - s["start"]
            name = s["name"]
            if s["parent"] is None:
                name = "cli.self"
                dur -= sum(c["end"] - c["start"] for c in spans if c["parent"] == i)
            elif name == "regular.orbit_min_key":
                name = key_layer[command]
            m[name + "_s"] += dur
            if name + "_rss_mb" in m:
                m[name + "_rss_mb"] += s["rss_growth_mib"]
        counts = tr["counts"]
        for name, value in counts.items():
            m[name] += value
        if "regular.subgroups" in counts:
            classes_lift += counts.get("regular.classes", 0)
        if "regular.oracle_survivors" in counts:
            classes_oracle += counts.get("regular.classes", 0)
        m["trace.overhead_s"] += tr["own_s"]
    if m["regular.subgroups"]:
        m["regular.lift_yield"] = classes_lift / m["regular.subgroups"]
    if m["regular.oracle_survivors"]:
        m["regular.oracle_yield"] = classes_oracle / m["regular.oracle_survivors"]
    m["cli.cpu_s"] = sum(r["cpu_s"] for r in untraced)
    return m


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
        root: Path) -> dict:
    """One benchmark run; returns the result object and writes its record."""
    end_to_end_units, per_layer_units = declared_units(root)
    if not (root / "src" / "braceforge" / "cli.py").is_file():
        raise BenchError(f"no braceforge program under {root / 'src'}")
    work = root / ".perfbench"
    run_dir = work / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(root, run_dir, seed)
    rng = random.Random(seed)

    env_info = check_program(runner)
    verify_ops, corruptions = make_verify_ops(runner, workload.verify_pairs, rng)
    bad = {c["file"] for c in corruptions}
    ops = list(workload.ops) + verify_ops

    def corrupted(op: Op) -> bool:
        return op.argv[0] == "verify" and Path(op.argv[1]).name in bad

    # The set-up samples are spread over the whole run, one before the
    # first op due after each seconds / SETUP_SAMPLES, so that a slow spell
    # of the host does not fall on all of them.
    t0 = time.perf_counter()
    setup_times, records = [], []
    next_setup = t0

    def sample_setup() -> None:
        nonlocal next_setup
        if time.perf_counter() >= next_setup:
            setup_times.append(time_import(runner))
            next_setup = time.perf_counter() + seconds / SETUP_SAMPLES

    order = rng.sample(ops, len(ops))
    for op in order:
        sample_setup()
        records.append(run_op(runner, op, corrupted(op)))
    durations = {op.argv: [rec["seconds"]] for op, rec in zip(order, records)}
    traced, traces = [], []
    if trace:
        for i, op in enumerate(order):
            path = run_dir / f"trace-{i:04d}.json"
            rec = run_op(runner, op, corrupted(op), trace_out=path)
            if rec["failure"] is None:
                tr = json.loads(path.read_text())
                path.unlink()
                if records[i]["failure"] is None and not traced_matches(
                    op, records[i]["found"], rec["found"], tr["counts"]
                ):
                    rec["failure"] = f"traced op reported {rec['found']}, {tr['counts']}"
                for s in tr["spans"]:
                    s["op"] = i
                rec["counts"] = tr["counts"]
                traces.append((op.argv[0], tr))
            traced.append(rec)
    else:
        # Closed loop: repeat the op with the fewest samples, the longest
        # first since it weighs most in wall_s, among those expected to end
        # inside the run's time.
        deadline = t0 + seconds
        while True:
            now = time.perf_counter()
            fits = [op for op in ops
                    if now + statistics.median(durations[op.argv]) <= deadline]
            if not fits:
                break
            op = min(fits, key=lambda o: (len(durations[o.argv]),
                                          -statistics.median(durations[o.argv])))
            sample_setup()
            rec = run_op(runner, op, corrupted(op))
            records.append(rec)
            durations[op.argv].append(rec["seconds"])

    everything = records + traced
    failed = sum(r["failure"] is not None for r in everything)
    if trace:
        units = per_layer_units
        values = layer_metrics(units, records, traces)
    else:
        values = {
            "wall_s": sum(statistics.median(v) for v in durations.values()),
            "peak_rss_mb": max(r["peak_rss_mib"] for r in records),
            "setup_s": statistics.median(setup_times),
        }
        units = end_to_end_units
    result = {
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env_info,
        "corruptions": corruptions,
        "ops": records,
        "traced_ops": traced,
        "traced_minus_untraced_s": (sum(r["seconds"] for r in traced)
                                    - sum(r["seconds"] for r in records)),
        "spans": [s for _, tr in traces for s in tr["spans"]],
        "result": result,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    if not failed:
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)
        shutil.rmtree(run_dir / "ops", ignore_errors=True)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Closed-loop braceforge CLI benchmark.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = BENCH_DIR.parent
    try:
        result = run(args.workload, WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"record {root / '.perfbench'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
