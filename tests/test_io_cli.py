"""JSON round-trips, schema rejection, and the command-line surface."""

import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from braceforge import cli
from braceforge.algebra import Kind, group_spec
from braceforge.arith import is_prime
from braceforge.brace import MultClass
from braceforge.cases import ORDER_BOUND
from braceforge.catalog import cyclic_pq_brace, trivial_brace
from braceforge.io import (
    SchemaError,
    brace_from_json,
    brace_to_json,
    canonical_dumps,
    catalog_entry_to_json,
    descriptor_from_json,
    descriptor_to_json,
    mult_class_from_str,
    report_to_json,
    solution_document_chunks,
    solution_from_json,
    solution_to_json,
    subgroup_to_json,
)
from braceforge.regular import tabulate
from braceforge.ybe import Solution, solution_from_brace, solution_properties, verify_ybe

from helpers import (
    DESK_PAIRS,
    catalog,
    flip_solution,
    hol_encode,
    hol_join,
    orbits,
    regular_from_brace,
)

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------- serialization ----------------


def test_descriptor_round_trip():
    cyc = group_spec(3, 2, Kind.CYCLIC)
    mix = group_spec(3, 2, Kind.MIXED)
    for spec in (cyc, mix):
        for desc in map(spec.aut_desc, range(spec.n_aut)):
            doc = descriptor_to_json(spec.kind, desc)
            assert descriptor_from_json(spec.kind, doc) == desc
    assert descriptor_to_json(Kind.CYCLIC, (8, 1)) == {"i": 8, "j": 1}
    doc = descriptor_to_json(Kind.MIXED, ((1, 1, 0, 1), 1))
    assert doc == {"m": [[1, 1], [0, 1]], "alpha": 1}
    with pytest.raises(SchemaError):
        descriptor_from_json(Kind.MIXED, {"m": [[1, 1], [0]], "alpha": 1})
    with pytest.raises(SchemaError):
        descriptor_from_json(Kind.CYCLIC, {"i": 1})


def test_mult_class_string_round_trip():
    for s in ("ZP2Q", "ZP2xZQ", "G_F", "G_K(2)", "ZQ_RTIMES_ZP2_h"):
        assert str(mult_class_from_str(s)) == s
    assert mult_class_from_str("G_K(0)") == MultClass("G_K", 0)
    for bad in ("nope", "G_K", "G_K(x)", "ZP2Q(1)"):
        with pytest.raises(SchemaError):
            mult_class_from_str(bad)


def _shifted(desc, k, p, q):
    """The descriptor document with every entry moved by k times its modulus."""
    if "i" in desc:
        return {"i": desc["i"] + k * p * p, "j": desc["j"] + k * q}
    m = [[x + k * p for x in row] for row in desc["m"]]
    return {"m": m, "alpha": desc["alpha"] + k * q}


def test_brace_json_round_trip_all_small_catalogs():
    for pair in [(3, 2), (2, 5)]:
        for e in catalog(*pair):
            doc = json.loads(canonical_dumps(brace_to_json(e.brace, e.expected)))
            assert brace_from_json(doc) == e.brace
            # entries are reduced as integers, however large or negative
            for k in (10**30, -(10**30), -1):
                shifted = dict(doc, auts=[_shifted(a, k, *pair) for a in doc["auts"]])
                assert brace_from_json(shifted) == e.brace
            cat_doc = catalog_entry_to_json(e)
            assert cat_doc["family"] == e.family
            assert cat_doc["params"] == dict(e.parameters)
            assert brace_from_json(cat_doc) == e.brace


def test_brace_json_rejects_malformed_documents():
    good = brace_to_json(cyclic_pq_brace(3, 2))
    cases = []
    d = dict(good); d["format"] = "other"; cases.append(d)
    d = dict(good); d.pop("lambda"); cases.append(d)
    d = dict(good); d["order"] = 17; cases.append(d)
    d = dict(good); d["p"] = 4; cases.append(d)
    d = dict(good); d["additive"] = "dihedral"; cases.append(d)
    d = json.loads(canonical_dumps(good)); d["auts"][0] = {"i": 3, "j": 1}; cases.append(d)
    d = json.loads(canonical_dumps(good)); d["lambda"][0] = 99; cases.append(d)
    d = json.loads(canonical_dumps(good)); d["lambda"] = d["lambda"][:-1]; cases.append(d)
    for bad in cases:
        with pytest.raises(SchemaError):
            brace_from_json(bad)
    # a descriptor that is no automorphism is named by its place in auts
    mixed = next(
        brace_to_json(e.brace)
        for e in catalog(3, 2)
        if e.brace.spec.kind is Kind.MIXED and len(set(e.brace.lam)) > 1
    )
    for doc, desc in (
        (good, {"i": 6, "j": 1}),  # i = 0 (mod p)
        (mixed, {"m": [[1, 2], [2, 1]], "alpha": 1}),  # singular m
        (mixed, {"m": [[1, 0], [0, 1]], "alpha": 4}),  # alpha = 0 (mod q)
    ):
        d = json.loads(canonical_dumps(doc))
        k = len(d["auts"]) - 1
        d["auts"][k] = desc
        with pytest.raises(SchemaError, match=rf"auts\[{k}\] = .* is not an automorphism"):
            brace_from_json(d)


def test_solution_json_round_trip():
    B = cyclic_pq_brace(3, 2)
    sol = solution_from_brace(B)
    checks = solution_properties(sol)
    checks["ybe"] = verify_ybe(sol).ok
    doc = json.loads(canonical_dumps(solution_to_json(sol, checks)))
    sol2, checks2 = solution_from_json(doc)
    assert sol2 == sol
    assert checks2 == {"ybe": True, "involutive": True, "nondegenerate": True}
    doc["n"] = 5
    with pytest.raises(SchemaError):
        solution_from_json(doc)
    doc["n"] = sol.n
    # a float, a bool or a numeric string in a table is refused, not
    # converted; an integer out of range is refused, not narrowed to int32
    for key, bad in (
        ("tau", 0.9), ("sigma", True), ("tau", "1"),
        ("sigma", 2**32), ("tau", 2**64), ("sigma", -1),
    ):
        d = json.loads(canonical_dumps(doc))
        d[key][0][1] = bad
        with pytest.raises(SchemaError, match=key):
            solution_from_json(d)


def test_report_json_structure():
    report = tabulate(orbits(3, 2, "mixed"), group_spec(3, 2, "mixed"))
    doc = json.loads(canonical_dumps(report_to_json(report)))
    assert doc["total"] == 5 and doc["matches"] is True
    assert doc["additive"] == "mixed" and doc["case"] == "P1Q_Q2"
    assert len(doc["classes"]) == 5
    for cls in doc["classes"]:
        assert cls["generators"], "every representative serializes generators"
    got = {(c["ker"], c["class"]): c["computed"] for c in doc["cells"]}
    assert got[(9, "G_K(0)")] == 1


def test_subgroup_generators_decode_back():
    # on every class of every desk carrier, the JSON generators generate the
    # class's regular subgroup under the tests' own Hol(A) closure, and none
    # lies in the subgroup the ones before it generate
    for p, q in DESK_PAIRS:
        for kind in ("cyclic", "mixed"):
            spec = group_spec(p, q, kind)
            for oc in orbits(p, q, kind):
                gens = [
                    hol_encode(
                        spec, (spec.decode(a), descriptor_from_json(spec.kind, d))
                    )
                    for a, d in subgroup_to_json(oc.brace)
                ]
                assert hol_join(spec, gens) == regular_from_brace(oc.brace)
                for i, h in enumerate(gens):
                    assert h not in hol_join(spec, gens[:i])


# ---------------- command line ----------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_table(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--p", "3", "--q", "2")
    assert code == 0
    assert "total 3  expected 3  all cells match" in out
    assert "total 5  expected 5  all cells match" in out
    assert "combined classes across both carriers: 8" in out


def test_enumerate_methods_cross_check(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--p", "3", "--q", "2", "--method", "both"
    )
    assert code == 0
    assert out.count("structured and oracle enumerations agree") == 2


@pytest.mark.parametrize(
    "command,count",
    [
        ("enumerate", lambda doc: [r["total"] for r in doc["reports"]]),
        ("compare", lambda doc: [len(c["classes"]) for c in doc["carriers"]]),
        (
            "catalog",
            lambda doc: [
                sum(e["additive"] == kind for e in doc["entries"])
                for kind in ("cyclic", "mixed")
            ],
        ),
    ],
    ids=["enumerate", "compare", "catalog"],
)
def test_enumerate_json_is_canonical(capsys, command, count):
    code, out, _ = run_cli(capsys, command, "--p", "3", "--q", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert count(doc) == [3, 5]  # classes or entries, per carrier
    assert out == canonical_dumps(doc)


def test_enumerate_refuses_the_excluded_pair(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--p", "2", "--q", "3")
    assert code == 2
    assert "GAP" in err


def test_enumerate_rejects_composite_p(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--p", "9", "--q", "2")
    assert code == 2
    assert "not prime" in err


def test_oracle_bound_refusal_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "enumerate", "--p", "5", "--q", "13", "--additive", "mixed",
        "--method", "oracle",
    )
    assert code == 2
    assert "exceeds the oracle bound" in err


def _refuse_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the oracle bound was checked")

    for name in ("regular_subgroups_structured", "regular_subgroups_oracle",
                 "catalog_for_case"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("command", ["enumerate", "compare"])
def test_oracle_bound_is_checked_before_any_work(capsys, monkeypatch, command):
    # (5, 13): the cyclic carrier is within the bound, the mixed one is not.
    _refuse_work(monkeypatch)
    code, out, err = run_cli(
        capsys, command, "--p", "5", "--q", "13", "--method", "both"
    )
    assert (code, out) == (2, "")
    assert err == (
        "braceforge: error: |Hol| = 1872000 exceeds the oracle bound 1000000\n"
    )


def _over_the_oracle_bound():
    primes = [k for k in range(2, ORDER_BOUND // 4 + 1) if is_prime(k)]
    return [
        spec
        for p in primes
        for q in primes
        if p != q and p * p * q <= ORDER_BOUND
        for spec in (group_spec(p, q, Kind.CYCLIC), group_spec(p, q, Kind.MIXED))
        if spec.hol_order > 1_000_000
    ]


@pytest.mark.parametrize("method", ["oracle", "both"])
@pytest.mark.parametrize("command", ["enumerate", "compare"])
def test_every_carrier_over_the_oracle_bound_is_refused(
    capsys, monkeypatch, command, method
):
    # The 44 carriers with |Hol| > 10^6, all mixed, are refused with exit 2
    # before any catalog build or search.
    carriers = _over_the_oracle_bound()
    assert len(carriers) == 44
    assert all(spec.kind is Kind.MIXED for spec in carriers)
    _refuse_work(monkeypatch)
    for spec in carriers:
        code, out, err = run_cli(
            capsys, command, "--p", str(spec.p), "--q", str(spec.q),
            "--additive", "mixed", "--method", method,
        )
        assert (code, out) == (2, ""), (spec.p, spec.q)
        assert err == (
            f"braceforge: error: |Hol| = {spec.hol_order} exceeds the oracle "
            "bound 1000000\n"
        )


def test_oracle_crosschecks_a_carrier_past_one_hundred_thousand(capsys):
    # (17, 3) cyclic, |Hol| = 471 648: within the oracle's bound of 10^6
    code, out, _ = run_cli(
        capsys, "enumerate", "--p", "17", "--q", "3", "--additive", "cyclic",
        "--method", "both",
    )
    assert code == 0
    assert "|Hol| 471648" in out
    assert "structured and oracle enumerations agree" in out


def test_catalog_command(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--p", "3", "--q", "7")
    assert code == 0
    assert "11 entries, all verified" in out


def test_ybe_command_json(capsys):
    code, out, _ = run_cli(
        capsys, "ybe", "--p", "3", "--q", "2", "--format", "json",
        "--additive", "cyclic",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["solutions"]) == 3
    for item in doc["solutions"]:
        sol, checks = solution_from_json(item["solution"])
        assert checks == {"ybe": True, "involutive": True, "nondegenerate": True}
        assert verify_ybe(sol).ok


@pytest.mark.parametrize("p,q", DESK_PAIRS)
def test_ybe_json_stream_equals_canonical_dumps(capsys, p, q):
    # the streamed document has the bytes of the one-string writer, fed
    # the same solutions built whole from the library
    docs = []
    for e in catalog(p, q):
        sol = solution_from_brace(e.brace)
        checks = solution_properties(sol)
        checks["ybe"] = verify_ybe(sol).ok
        docs.append(
            {
                "family": e.family,
                "params": dict(e.parameters),
                "additive": e.brace.spec.kind.value,
                "solution": solution_to_json(sol, checks),
            }
        )
    for additive in ("cyclic", "mixed", "both"):
        code, out, _ = run_cli(
            capsys, "ybe", "--p", str(p), "--q", str(q), "--format", "json",
            "--additive", additive,
        )
        kept = [d for d in docs if additive in ("both", d["additive"])]
        want = canonical_dumps({"p": p, "q": q, "solutions": kept})
        assert code == 0
        # not `assert out == want`: pytest's diff of multi-MB strings is slow
        if out != want:
            at = len(os.path.commonprefix([out, want]))
            pytest.fail(f"{additive}: differs from canonical_dumps at offset {at}")


def test_solution_document_chunks_match_canonical_dumps():
    # the layout of every JSON value, not only of integer matrices: empty
    # containers, bools and floats among ints, non-string keys, tuples
    odd = [
        {"params": {}, "e": [], "b": [True, 1, 2.5, None, "s\n\u00e9", [1, False]]},
        {"z": {1: 2, 0: 3}, "y": (1, 2), "w": [[[]], [[1], [2, 3]]], "v": -5},
    ]
    for k in range(len(odd) + 1):
        doc = {"p": 3, "q": 2, "solutions": odd[:k]}
        assert "".join(solution_document_chunks(3, 2, odd[:k])) == canonical_dumps(doc)
    # solution matrices, written from a token table: 1 x 1, and entries past
    # 100; beside them, int lists that keep the generic path
    checks = {"ybe": True, "involutive": True, "nondegenerate": True}
    shifted = np.roll(np.tile(np.arange(103), (103, 1)), 1, axis=1)
    matrices = [
        {"solution": solution_to_json(Solution([[0]], [[0]]), checks)},
        {"solution": solution_to_json(flip_solution(101), checks)},
        {"solution": solution_to_json(Solution(shifted, shifted[::-1]), checks)},
        {"negative": [[-1, 0], [2, -300]], "bools": [[True, False], [0, 1]],
         "mixed": [[1, 2.0], [3, "4"], [None, 5]]},
    ]
    doc = {"p": 3, "q": 2, "solutions": matrices}
    assert "".join(solution_document_chunks(3, 2, matrices)) == canonical_dumps(doc)


def test_ybe_json_unwritable_out_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "ybe", "--p", "3", "--q", "2", "--format", "json", "--out", str(path)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"braceforge: error: cannot write {path}: ")
    assert "Traceback" not in err
    assert not path.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_ybe_json_write_error_mid_stream_is_a_usage_error(capsys):
    # the file opens, the writes fail; a device is never removed
    code, out, err = run_cli(
        capsys, "ybe", "--p", "3", "--q", "2", "--format", "json", "--out", "/dev/full"
    )
    assert (code, out) == (2, "")
    assert err.startswith("braceforge: error: cannot write /dev/full: ")
    assert os.path.exists("/dev/full")


def test_ybe_json_reader_leaving_early_is_not_an_error():
    # `braceforge ybe ... | head -1`: the document (about 0.5 MB) outgrows
    # the pipe buffer, so the writes go on after the reader has gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "braceforge.cli", "ybe", "--p", "7", "--q", "3",
         "--additive", "cyclic", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0, err.decode()[-2000:]
    assert b"Traceback" not in err


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_ybe_json_failure_mid_stream_leaves_no_file(tmp_path, capsys, monkeypatch, error):
    path = tmp_path / "solutions.json"
    calls = []

    def failing(brace):
        calls.append(brace)
        if len(calls) == 2:
            assert path.exists()  # the document is under way
            raise error("derivation failed")
        return solution_from_brace(brace)

    monkeypatch.setattr(cli, "solution_from_brace", failing)
    argv = ["ybe", "--p", "3", "--q", "2", "--format", "json", "--out", str(path)]
    if error is ValueError:
        # reported as a usage error, like any ValueError
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "derivation failed" in err
    else:
        with pytest.raises(RuntimeError, match="derivation failed"):
            cli.main(argv)
    assert len(calls) == 2
    assert not path.exists()


def test_compare_command(capsys):
    code, out, _ = run_cli(capsys, "compare", "--p", "5", "--q", "3")
    assert code == 0
    assert "perfect bijection, 5 classes" in out


def test_verify_command_round_trip(tmp_path, capsys):
    path = tmp_path / "brace.json"
    path.write_text(canonical_dumps(brace_to_json(cyclic_pq_brace(3, 2))))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "ok" in out and "stored invariants match" in out


def test_verify_command_catches_corruption(tmp_path, capsys):
    doc = brace_to_json(cyclic_pq_brace(3, 2))
    doc["lambda"][1] = (doc["lambda"][1] + 1) % len(doc["auts"])
    path = tmp_path / "bad.json"
    path.write_text(canonical_dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "problem" in out


def test_verify_command_refuses_the_excluded_pair(tmp_path, capsys):
    doc = brace_to_json(trivial_brace(group_spec(2, 3, "mixed")))
    path = tmp_path / "order12.json"
    path.write_text(canonical_dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert "GAP" in err


def test_verify_command_malformed_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{this is not json")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "junk.json" in err


def test_verify_command_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format": "braceforge-v1", "note": "\xe9"}')
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"braceforge: error: {path}: ")


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(
        capsys, "catalog", "--p", "3", "--q", "2", "--out", str(path)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"braceforge: error: cannot write {path}: ")
    assert not path.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_rejected(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--p", "3", "--q", "2", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


# Every option string of each subcommand, in parser order.  A new option,
# or one brought back, must be added here.
OPTION_SURFACE = {
    "enumerate": ["-h", "--p", "--q", "--additive", "--method", "--format",
                  "--out", "--jobs"],
    "catalog": ["-h", "--p", "--q", "--additive", "--format", "--out", "--jobs"],
    "verify": ["-h", "path", "--format", "--out"],
    "ybe": ["-h", "--p", "--q", "--additive", "--format", "--out", "--jobs"],
    "compare": ["-h", "--p", "--q", "--additive", "--method", "--format",
                "--out", "--jobs"],
}


def test_option_surface_is_pinned():
    ap = cli._parser()
    [sub] = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    assert [a.option_strings for a in ap._actions] == [["-h", "--help"], []]
    surface = {
        name: [
            opt
            for a in parser._actions
            for opt in (a.option_strings or [a.dest])
            if opt != "--help"
        ]
        for name, parser in sub.choices.items()
    }
    assert surface == OPTION_SURFACE


def test_output_identical_across_jobs(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert cli.main(["enumerate", "--p", "3", "--q", "2", "--out", str(a)]) == 0
    assert cli.main(
        ["enumerate", "--p", "3", "--q", "2", "--jobs", "3", "--out", str(b)]
    ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # no op starts a process pool, so the CLI never imports one
    probe = "import sys, braceforge.cli; print('concurrent.futures' in sys.modules)"
    res = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout == "False\n"


def test_main_leaves_the_collector_alone(capsys):
    # only the program entry, run(), freezes the import heap; in-process
    # callers of main() keep their own GC state
    before = gc.get_freeze_count()
    assert cli.main(["compare", "--p", "3", "--q", "2"]) == 0
    assert gc.get_freeze_count() == before


def test_run_freezes_the_import_heap_and_importing_does_not():
    probe = "\n".join([
        "import gc, sys, braceforge.cli as cli",
        "print('after import', gc.get_freeze_count(), file=sys.stderr)",
        "sys.argv = ['braceforge', 'compare', '--p', '3', '--q', '2']",
        "try:",
        "    cli.run()",
        "except SystemExit as exc:",
        "    print('after run', exc.code, gc.get_freeze_count(), file=sys.stderr)",
    ])
    res = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert "perfect bijection" in res.stdout
    imported, ran = res.stderr.splitlines()[-2:]
    assert imported == "after import 0"
    _, _, code, frozen = ran.split()
    assert code == "0" and int(frozen) > 0, ran


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--p", "3", "--q", "2"],
        ["enumerate", "--p", "2", "--q", "7", "--method", "both", "--additive", "mixed"],
    ],
)
def test_ops_leave_numpy_ma_unloaded(argv):
    # a bare np.unique imports numpy.ma, about a megabyte and 10-18 ms a process
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "braceforge.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    loaded = {
        line.rsplit("|", 1)[-1].strip()
        for line in res.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "numpy" in loaded and "braceforge.regular" in loaded
    assert "numpy.ma" not in loaded


def test_trivial_brace_file_verifies(tmp_path, capsys):
    # the smallest possible stored artifact: the flip brace
    spec = group_spec(2, 5, Kind.MIXED)
    path = tmp_path / "trivial.json"
    path.write_text(canonical_dumps(brace_to_json(trivial_brace(spec))))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
