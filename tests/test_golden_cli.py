"""CLI output must stay byte-identical to the stored golden files.

The files under data/golden hold the stdout of each command line below;
regenerate one only for a change that means to alter the output, e.g.
``braceforge compare --p 7 --q 3 > tests/data/golden/compare_p7_q3.txt``.
"""

from pathlib import Path

import pytest

from braceforge import cli

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = [
    ("compare_p7_q3.txt", ["compare", "--p", "7", "--q", "3"]),
    (
        "compare_p3_q19_mixed.txt",
        ["compare", "--p", "3", "--q", "19", "--additive", "mixed"],
    ),
    (
        "enumerate_p5_q13.json",
        ["enumerate", "--p", "5", "--q", "13", "--format", "json"],
    ),
    (
        "enumerate_p7_q3.json",
        ["enumerate", "--p", "7", "--q", "3", "--format", "json"],
    ),
    (
        "enumerate_p3_q2_both.json",
        ["enumerate", "--p", "3", "--q", "2", "--method", "both", "--format", "json"],
    ),
    # the centre count separates ZQ_RTIMES_ZP2_rp from ZQ_RTIMES_ZP2_h here
    (
        "enumerate_p3_q19.json",
        ["enumerate", "--p", "3", "--q", "19", "--format", "json"],
    ),
    (
        "compare_p5_q23_mixed.txt",
        ["compare", "--p", "5", "--q", "23", "--additive", "mixed"],
    ),
    # 331 regular subgroups: the largest lift search among the cases
    (
        "compare_p5_q23_mixed.json",
        ["compare", "--p", "5", "--q", "23", "--additive", "mixed", "--format", "json"],
    ),
    (
        "compare_p2_q73_cyclic.txt",
        ["compare", "--p", "2", "--q", "73", "--additive", "cyclic"],
    ),
    (
        "compare_p13_q3_mixed.txt",
        ["compare", "--p", "13", "--q", "3", "--additive", "mixed"],
    ),
    ("catalog_p7_q3.txt", ["catalog", "--p", "7", "--q", "3"]),
    ("ybe_p3_q2.txt", ["ybe", "--p", "3", "--q", "2"]),
    (
        "catalog_p3_q2_mixed.json",
        ["catalog", "--p", "3", "--q", "2", "--additive", "mixed", "--format", "json"],
    ),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(capsys, name, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
