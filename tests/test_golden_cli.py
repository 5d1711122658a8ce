"""CLI output must stay byte-identical to the stored golden files.

The files under data/golden hold the stdout of each command line below;
regenerate one only for a change that means to alter the output, e.g.
``braceforge compare --p 7 --q 3 > tests/data/golden/compare_p7_q3.txt``.
Outputs too large to store are pinned by their sha256 in ``SHA256``.

``FAILURES`` reaches the failure renderings: each case patches one name
the command reads (a corrupted catalog entry, a failing check, a search
that misses a class) and pins stdout, in both formats, of a run that must
exit 1.
"""

import hashlib
from pathlib import Path

import pytest

from braceforge import cli, regular
from braceforge.brace import SkewBrace
from braceforge.catalog import trivial_brace
from braceforge.ybe import verify_ybe

GOLDEN = Path(__file__).parent / "data" / "golden"

# name -> sha256 of the output, for outputs not stored under data/golden
SHA256 = {
    "ybe_p3_q2_cyclic.json":
        "9d18209f43ae89564a7faf1395440d47caf936b1a5d0c9e6d3fa71796c8e4d8d",
    "fail_ybe_p3_q2_cyclic_check.json":
        "514fb25e80300224f190bf4de5d3f02b40a7baf63604b5be16ef71f79a1c4d25",
}

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
    # P1Q_ODD: the per-carrier warnings and the headline diagnostic
    ("enumerate_p7_q3.txt", ["enumerate", "--p", "7", "--q", "3"]),
    (
        "enumerate_p2_q7_mixed_both.txt",
        [
            "enumerate", "--p", "2", "--q", "7", "--additive", "mixed",
            "--method", "both",
        ],
    ),
    ("compare_p3_q2.json", ["compare", "--p", "3", "--q", "2", "--format", "json"]),
    (
        "catalog_p5_q3_mixed.txt",
        ["catalog", "--p", "5", "--q", "3", "--additive", "mixed"],
    ),
    (
        "ybe_p3_q2_cyclic.json",
        ["ybe", "--p", "3", "--q", "2", "--additive", "cyclic", "--format", "json"],
    ),
]


def assert_golden(name: str, out: str) -> None:
    if name in SHA256:
        assert hashlib.sha256(out.encode()).hexdigest() == SHA256[name]
    else:
        assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(capsys, name, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert_golden(name, out)


def corrupt_one_lambda(monkeypatch):
    """The second catalog entry gets one wrong lambda value."""
    real = cli.catalog_for_case

    def corrupted(*args, **kwargs):
        entries = real(*args, **kwargs)
        e = entries[1]
        lam = e.brace.lam.copy()
        lam[1] = (lam[1] + 1) % e.brace.spec.n_aut
        entries[1] = e._replace(brace=SkewBrace(e.brace.spec, lam))
        return entries

    monkeypatch.setattr(cli, "catalog_for_case", corrupted)


def fail_second_ybe_check(monkeypatch):
    calls = []

    def failing(sol):
        calls.append(None)
        res = verify_ybe(sol)
        return res._replace(ok=False) if len(calls) == 2 else res

    monkeypatch.setattr(cli, "verify_ybe", failing)


def duplicate_and_drop_entries(monkeypatch):
    """The second catalog entry twice, the third not at all."""
    real = cli.catalog_for_case

    def shuffled(*args, **kwargs):
        entries = real(*args, **kwargs)
        return entries[:2] + entries[1:2] + entries[3:]

    monkeypatch.setattr(cli, "catalog_for_case", shuffled)


def oracle_misses_the_trivial_brace(monkeypatch):
    real = cli.regular_subgroups_oracle

    def missing(spec, *args, **kwargs):
        trivial = trivial_brace(spec).key
        return [B for B in real(spec, *args, **kwargs) if B.key != trivial]

    monkeypatch.setattr(cli, "regular_subgroups_oracle", missing)


def expect_one_more_class(monkeypatch):
    """Every stored cell table claims one more class in its first cell."""
    real = regular.expected_cells

    def shifted(*args, **kwargs):
        cells = dict(real(*args, **kwargs))
        cells[min(cells)] += 1
        return cells

    monkeypatch.setattr(regular, "expected_cells", shifted)


FAILURES = [
    (
        "catalog_p3_q2_bad_lambda",
        ["catalog", "--p", "3", "--q", "2"],
        corrupt_one_lambda,
    ),
    (
        "ybe_p3_q2_cyclic_check",
        ["ybe", "--p", "3", "--q", "2", "--additive", "cyclic"],
        fail_second_ybe_check,
    ),
    (
        "compare_p3_q2_duplicate_and_drop",
        ["compare", "--p", "3", "--q", "2"],
        duplicate_and_drop_entries,
    ),
    (
        "enumerate_p3_q2_cyclic_oracle_gap",
        [
            "enumerate", "--p", "3", "--q", "2", "--additive", "cyclic",
            "--method", "both",
        ],
        oracle_misses_the_trivial_brace,
    ),
    # compare names the carrier whose searches disagree, not only the verdict
    (
        "compare_p3_q2_cyclic_oracle_gap",
        [
            "compare", "--p", "3", "--q", "2", "--additive", "cyclic",
            "--method", "both",
        ],
        oracle_misses_the_trivial_brace,
    ),
    (
        "enumerate_p3_q2_cells",
        ["enumerate", "--p", "3", "--q", "2"],
        expect_one_more_class,
    ),
]


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    "name,argv,patch", FAILURES, ids=[c[0] for c in FAILURES]
)
def test_cli_failure_output_matches_golden(capsys, monkeypatch, name, argv, patch, fmt):
    patch(monkeypatch)
    code = cli.main(argv + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 1
    assert_golden(f"fail_{name}.{'txt' if fmt == 'table' else 'json'}", out)
