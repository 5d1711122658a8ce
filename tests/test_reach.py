"""Reach: a carrier past the desk pairs finishes inside a fixed memory cap.

ROADMAP rule: an in-scope pair ends with an answer or a clean refusal,
never a MemoryError.  (17, 3) mixed has |Aut(A)| = 156 672; tabulating the
automorphism action for all of Aut(A) (|Aut| x n = 1.4e8 entries) does not
fit in 1.5 GiB of address space, while computing it per automorphism peaks
near 350 MiB of address space.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

ADDRESS_CAP = 3 << 29  # 1.5 GiB
SRC = Path(__file__).resolve().parents[1] / "src"


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))


def test_p17_q3_mixed_compare_fits_the_memory_cap():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-m", "braceforge.cli", "compare",
         "--p", "17", "--q", "3", "--additive", "mixed", "--jobs", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=_cap_address_space,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert "perfect bijection, 3 classes" in res.stdout
