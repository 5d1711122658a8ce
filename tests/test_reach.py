"""Reach: pairs past the desk pairs finish inside a fixed memory cap and time.

ROADMAP rule: an in-scope pair ends with an answer or a clean refusal,
never a MemoryError or an hours-long run.  (17, 3) mixed has |Aut(A)| =
156 672; tabulating the automorphism action for all of Aut(A) (|Aut| x n =
1.4e8 entries) does not fit in 1.5 GiB of address space, while computing it
per automorphism peaks near 350 MiB of address space.  (2, 241), n = 964,
is the second-largest order in scope: checking its YBE solutions by the n^3
braid scan alone ran for over 400 s, by the cycle-set criterion it takes a
few seconds.  Its JSON export is a 346 MB file: built as one string it
peaked at 2.7 GiB, streamed one solution at a time it stays near 150 MiB.
(3, 109), n = 981, is the largest order in scope: verifying its 14 catalog
braces by scanning every triple for associativity and the brace axiom took
about 185 s, deciding both from lambda being a homomorphism takes about a
second.  (2, 109) cyclic, |Hol| = 94 176, is the largest carrier with
|Hol| <= 10^5, the suite's cost cap on oracle runs: joining every pair of
cyclic subgroups took 325 s there, joining from one cyclic subgroup per
Aut(A)-orbit takes a few seconds.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

ADDRESS_CAP = 3 << 29  # 1.5 GiB
# sha256 of `ybe --p 2 --q 241 --format json`, as the whole-document writer
# produced it; the file is too large to commit.
P2_Q241_YBE_JSON_SHA256 = (
    "99ad344f3d7e95d668cdee7fb22a1f7eeb131981eb102f3da13806eb3205e444"
)
SRC = Path(__file__).resolve().parents[1] / "src"


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))


def _run_cli(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "braceforge.cli", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_cap_address_space,
    )


def test_p17_q3_mixed_compare_fits_the_memory_cap():
    res = _run_cli("compare", "--p", "17", "--q", "3", "--additive", "mixed",
                   "--jobs", "1", timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    assert "perfect bijection, 3 classes" in res.stdout


def test_p2_q241_ybe_export_finishes():
    res = _run_cli("ybe", "--p", "2", "--q", "241", "--jobs", "1", timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    assert "11 solutions, all checks pass" in res.stdout


def test_p2_q241_ybe_json_export_fits_the_memory_cap(tmp_path):
    out = tmp_path / "solutions.json"
    try:
        res = _run_cli("ybe", "--p", "2", "--q", "241", "--format", "json",
                       "--out", str(out), "--jobs", "1", timeout=300)
        assert res.returncode == 0, res.stderr[-2000:]
        digest = hashlib.sha256()
        with open(out, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        assert digest.hexdigest() == P2_Q241_YBE_JSON_SHA256
    finally:
        out.unlink(missing_ok=True)


def test_p3_q109_catalog_verifies_inside_the_memory_cap():
    res = _run_cli("catalog", "--p", "3", "--q", "109", timeout=60)
    assert res.returncode == 0, res.stderr[-2000:]
    assert "14 entries, all verified" in res.stdout


def test_p2_q109_cyclic_oracle_crosscheck_fits_the_memory_cap():
    res = _run_cli("enumerate", "--p", "2", "--q", "109", "--additive", "cyclic",
                   "--method", "both", timeout=60)
    assert res.returncode == 0, res.stderr[-2000:]
    assert "structured and oracle enumerations agree" in res.stdout
