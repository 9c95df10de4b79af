"""Golden reports: byte-for-byte digests of CLI output.

Criterion 12 compares two runs of the same build, so it cannot see a change
that alters a report.  These digests pin the reports themselves, so any
refactor that changes a byte of output fails here.  Each case also pins the
exit status (``mltest validate --test count101`` reports a failed level).
"""

from __future__ import annotations

import csv
import hashlib
import json

import pytest

from randlab.cli import _cell, main
from randlab.complexity import prefix_k
from randlab.machine import clear_code_table, install_code_table

GOLDEN = [
    (["enum", "--count", "64"], 0,
     "967cfc42d918b786ae59dcb4d858c56d46b7aaddd30c20a43539833836e38e16"),
    (["pfz", "0", "00", "01", "1"], 0,
     "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae"),
    (["kraft", "--lengths", "1,2,2"], 0,
     "50ec8eb948d8ed9efd98522f72aa4a818b8eef36480044e484dbc7759f85a214"),
    (["measure", "0", "10", "11"], 0,
     "6c322359c0aa443602ffb95da1294de2ca0103fbcc049ab17758efce6a42ca75"),
    (["complexity", "scan", "--max-len", "1", "--len-limit", "8", "--budget", "1000"], 0,
     "bc7639aaa2c8c8d24cf0e87623ebf8add91d4bf04cb3dbf85c1ab0bdaebcf97e"),
    (["complexity", "census", "--max-n", "3", "--budget", "100"], 0,
     "f543d5bad3a772225eebe5d46bb08ba1f034eef54080850846453103c00ea1b2"),
    (["complexity", "subadd", "--max-n", "1"], 0,
     "eb7ebac155a894fb0725b3c88b7d0e59d9397e5ac37e5aad7cb6e376a34b60fd"),
    (["complexity", "subadd"], 0,
     "846298681dc33e38f6278b35cad2b890d687f0a2a57a3cdad1393baba59dbe1f"),
    (["complexity", "census"], 0,
     "89c1b99db84768fdcd04f5fe0ba775d5ed6190587ad4d4705a09a988ec6dfa5d"),
    (["omega"], 0,
     "ab51ebc84d83617d8c0854e40c9d47b2a4ac6bd0a38991353940103185de938b"),
    (["omega", "--until-mass", "0", "--stage", "5"], 0,
     "affcca15083797a44de4f7af848057b89256a98b20532b405a128a8fd2b02497"),
    (["mltest", "validate", "--test", "count101", "--levels", "3"], 1,
     "b8c47575c1b6b316de6c04a3fc892ab8f821ce20db5c4479159e9c0da9c6a132"),
    (["mltest", "convert", "--test", "leading-zeros", "--levels", "2", "--depth", "3"], 0,
     "bcd2b1bb54c926145a2fff86145ac5640bf774a27372956d478eea9f6ceb59a1"),
    (["mltest", "universal", "--level", "2", "--depth", "6"], 0,
     "94e0d70151ae73546d5350fe04bcd1bc363372d48cc2daef98ad6a0aeebcc678"),
    (["mltest", "score", "--subject", "0" * 12], 0,
     "c44a085a58dcb7972580fb91621b8c8f6c7b54796469c2e656e1e7b441fb65e3"),
    (["mltest", "bridge", "--test", "leading-zeros", "--n-max", "2", "--depth", "8"], 0,
     "0563b1aaa63232697c3f605eb53819e45bfa2e5c21be1387389518d9e5eec64c"),
    (["enum", "--count", "65536"], 0,
     "8887e055e0c663ba71f474a5b1931a5525d4ea468eca65710ec321ac5c20c6cd"),
    (["mltest", "convert", "--test", "even-ones", "--levels", "4"], 0,
     "31f886605f5dcc9dfc14d04e7fcd5e076be93243c15a4b7ed7949c8baab7dbf5"),
    (["enum", "--count", "64", "--format", "json"], 0,
     "7f5bf45d6565ec1e6d40b55e595883d0e37e3258839ce384df196cb5c8c3aaa2"),
    (["complexity", "pad", "--k", "2"], 0,
     "0cc8ef1b315502856c3175cd96bfa518ae124e5dc99f2e2612398f669b111374"),
    # JSON reports whose cells are Dyadics, spelled by json.dumps(default=str)
    (["measure", "0", "10", "11", "--format", "json"], 0,
     "b737c74809b54ffc855388b4371e15344ce917102319792a270297d16d56214e"),
    (["omega", "--format", "json"], 0,
     "ae31e4bf28bdd22609944bb8372f413975cef977d33fd51471f407d67f5e926b"),
    (["mltest", "validate", "--test", "count101", "--levels", "3", "--format", "json"], 1,
     "e30af874cf53c6ca61b224ff02eb20833742a18ebab2ae07738ad6d73ed0583c"),
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_golden_report(argv, code, digest, tmp_path) -> None:
    out = tmp_path / "report.txt"
    assert main(argv + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("k", ["0", "1"])
def test_horizon_without_report_exits_one(k, tmp_path) -> None:
    # at default flags no horizon has a report: nothing is compressible by a
    # margin k >= 0, and a negative k is a usage error
    out = tmp_path / "report.txt"
    assert main(["complexity", "horizon", "--k", k, "--out", str(out)]) == 1
    assert not out.exists()


TABLES = [(argv, code) for argv, code, _ in GOLDEN if argv[0] not in ("pfz", "kraft")]


@pytest.mark.parametrize("argv, code", TABLES, ids=[" ".join(argv) for argv, _ in TABLES])
def test_csv_and_json_reports_hold_the_same_cells(argv, code, tmp_path) -> None:
    reports = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"report.{fmt}"
        assert main(argv + ["--format", fmt, "--out", str(out)]) == code
        reports[fmt] = out.read_text()
    lines = [line for line in reports["csv"].splitlines() if not line.startswith("# ")]
    header, *rows = csv.reader(lines)
    results = json.loads(reports["json"])["results"]
    assert rows and len(rows) == len(results)
    for row, result in zip(rows, results):
        assert len(row) == len(header)
        assert sorted(result) == sorted(header)
        assert row == [_cell(result[column]) for column in header]


UNIVERSE_READERS = [
    case for case in GOLDEN
    if case[0][0] in ("complexity", "omega") or case[0][:2] == ["mltest", "score"]
]


@pytest.mark.parametrize(
    "argv, code, digest", UNIVERSE_READERS, ids=[" ".join(argv) for argv, _, _ in UNIVERSE_READERS]
)
def test_golden_report_after_a_retired_table(argv, code, digest, tmp_path) -> None:
    # the default universes rebuilt after another table was installed, used
    # and cleared answer as a fresh process does
    install_code_table({"0": "111"})
    prefix_k("", 13)
    clear_code_table()
    out = tmp_path / "report.txt"
    assert main(argv + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


MLTEST = [case for case in GOLDEN if case[0][0] == "mltest"]


@pytest.mark.parametrize("first", ["forward", "reversed"])
def test_mltest_reports_in_a_warm_process(first, tmp_path) -> None:
    """Each mltest command twice in one process, once in each order: the
    level tables shared across commands and depths change no report."""
    orders = [MLTEST, MLTEST[::-1]]
    if first == "reversed":
        orders.reverse()
    for i, cases in enumerate(orders):
        for j, (argv, code, digest) in enumerate(cases):
            out = tmp_path / f"report-{i}-{j}.txt"
            assert main(argv + ["--out", str(out)]) == code, argv
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv
