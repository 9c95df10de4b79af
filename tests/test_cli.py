"""End-to-end command-line tests: exact report bytes, exit codes, formats."""

from __future__ import annotations

import csv
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import randlab
from conftest import UNIVERSE_FLAGS, universe_flags
from randlab.bitstr import Dyadic, parse_dyadic
from randlab.cli import _build_parser, _report_text, main, unspell
from randlab.machine import current_code_table
from randlab.prefixfree import cover_measure, kraft_sum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def split_report(text: str):
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("# ")]
    table = [line for line in lines if not line.startswith("# ")]
    return comments, table[0], table[1:]


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_enum_csv_report(capsys):
    code, out, err = run(capsys, "enum", "--count", "7")
    assert (code, err) == (0, "")
    comments, header, rows = split_report(out)
    assert header == "index,string"
    assert rows == ["0,-", "1,0", "2,1", "3,00", "4,01", "5,10", "6,11"]
    keys = [c.split("=")[0] for c in comments]
    assert keys == [
        "# budget",
        "# depth",
        "# len_limit",
        "# registry_fingerprint",
        "# stage",
    ]
    assert "# budget=100000" in comments
    assert "# len_limit=12" in comments
    assert "# depth=15" in comments
    assert "# stage=4096" in comments


def test_enum_json_report(capsys):
    code, out, _ = run(capsys, "enum", "--count", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"config", "results"}
    assert payload["results"][3] == {"index": 3, "string": "00"}
    fp = payload["config"]["registry_fingerprint"]
    assert len(fp) == 64 and set(fp) <= set("0123456789abcdef")
    # reports are emitted in canonical JSON form
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_reports_are_byte_identical_across_runs(capsys, tmp_path):
    argv = ["omega", "--stage", "64", "--format", "csv"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    out_file = tmp_path / "report.csv"
    code, _, _ = run(capsys, *argv, "--out", str(out_file))
    assert code == 0
    data = out_file.read_bytes()
    assert data.decode("ascii") == first[1]
    assert b"\r" not in data and data.endswith(b"\n")


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "mltest", "validate")[0] == 2  # missing --test
    assert run(capsys, "complexity")[0] == 2  # missing subcommand
    assert run(capsys, "mltest", "score", "--subject", "012")[0] == 2
    assert run(capsys, "--help")[0] == 0


# ---------------------------------------------------------------------------
# set-format subcommands
# ---------------------------------------------------------------------------


def test_pfz_emits_the_covering_antichain(capsys):
    code, out, _ = run(capsys, "pfz", "0", "00", "01", "1")
    assert (code, out) == (0, "0\n1\n")
    code, out, _ = run(capsys, "pfz", "-", "101")
    assert (code, out) == (0, "-\n")


def test_pfz_reads_set_files(capsys, tmp_path):
    src = tmp_path / "set.txt"
    src.write_text("# comment\n\n01\n-\n", encoding="ascii")
    code, out, _ = run(capsys, "pfz", "0", "--in", str(src))
    assert (code, out) == (0, "-\n")


def test_kraft_codewords_and_overflow(capsys):
    code, out, err = run(capsys, "kraft", "--lengths", "1,2,2")
    assert (code, out, err) == (0, "0\n10\n11\n", "")
    code, out, err = run(capsys, "kraft", "--lengths", "1,1,1")
    assert (code, out) == (1, "")
    assert "length 1 at index 2" in err


def test_unspell_reads_the_report_spelling():
    assert unspell("-") == ""
    assert unspell("0110") == "0110"
    with pytest.raises(ValueError, match="not a binary string: '012'"):
        unspell("012")


def test_measure_report(capsys):
    code, out, _ = run(capsys, "measure", "0", "10", "11")
    _, header, rows = split_report(out)
    assert (code, header) == (0, "metric,value")
    assert rows == [
        "members,3",
        "prefix_free,true",
        "kraft_sum,1",
        "cover_measure,1",
    ]
    code, out, _ = run(capsys, "measure", "0", "01")
    assert split_report(out)[2] == [
        "members,2",
        "prefix_free,false",
        "kraft_sum,3/4",
        "cover_measure,1/2",
    ]


@pytest.mark.parametrize("strings", [["0", "10", "11"], ["0", "01"], ["", "1101", "011"]])
def test_measure_fraction_cells_parse_back(capsys, strings):
    code, out, _ = run(capsys, "measure", *(s or "-" for s in strings))
    cells = dict(row.split(",") for row in split_report(out)[2])
    assert code == 0
    assert parse_dyadic(cells["kraft_sum"]) == kraft_sum(strings)
    assert parse_dyadic(cells["cover_measure"]) == cover_measure(strings)


# ---------------------------------------------------------------------------
# complexity reports
# ---------------------------------------------------------------------------


def test_complexity_scan(capsys):
    code, out, _ = run(
        capsys, "complexity", "scan", "--max-len", "1", "--len-limit", "8",
        "--budget", "1000",
    )
    assert code == 0
    _, header, rows = split_report(out)
    assert header == "string,c_value,c_witness,c_exhaustive,k_value,k_witness,k_exhaustive"
    assert rows == [
        "-,1,0,true,1,0,true",
        "0,2,00,true,7,1110100,true",
        "1,2,01,true,7,1110101,true",
    ]


def test_complexity_census(capsys):
    code, out, _ = run(capsys, "complexity", "census", "--max-n", "3", "--budget", "100")
    _, header, rows = split_report(out)
    assert (code, header) == (0, "n,incompressible,strings")
    assert rows == ["0,1,1", "1,2,2", "2,4,4", "3,8,8"]


def test_complexity_pad(capsys):
    code, out, _ = run(capsys, "complexity", "pad", "--k", "0")
    comments, header, rows = split_report(out)
    assert (code, header) == (0, "stream,k,n,value,witness,overhead")
    assert rows == ["zeros,0,19,18," + "10" + "0" * 16 + ",3"]
    assert "# len_limit=256" in comments  # pad scans use the wide default
    code, _, err = run(capsys, "complexity", "pad", "--k", "0", "--len-limit", "10")
    assert code == 1 and "no pad witness" in err


def test_complexity_horizon_exhaustion(capsys):
    code, _, err = run(capsys, "complexity", "horizon", "--k", "0", "--max-m", "4")
    assert code == 1 and "no horizon" in err


def test_complexity_horizon_report(capsys, monkeypatch):
    # no margin k >= 0 has a horizon at limits a test can reach, so the
    # search is stubbed to reach the report; its values are tested against
    # a scanning oracle in tests/test_complexity.py
    monkeypatch.setattr(randlab.cli, "horizon_search", lambda k, m_max, len_limit, budget: 2)
    code, out, err = run(capsys, "complexity", "horizon", "--k", "0", "--max-m", "4")
    assert (code, err) == (0, "")
    assert split_report(out)[1:] == ("k,m", ["0,2"])


def test_complexity_subadd(capsys):
    code, out, _ = run(capsys, "complexity", "subadd", "--max-n", "1")
    _, header, rows = split_report(out)
    assert code == 0
    assert header == (
        "n_max,pair_overhead,plain_gap_max,plain_pairs,"
        "prefix_violations,prefix_pairs,m_id,c_echo,k_pad,k_pair"
    )
    assert rows == ["1,3,-1,9,0,9,1,5,2,3"]


# ---------------------------------------------------------------------------
# omega reports
# ---------------------------------------------------------------------------


def test_omega_contribution_table(capsys):
    code, out, _ = run(capsys, "omega")
    _, header, rows = split_report(out)
    assert code == 0
    assert header == "program,stage,status,output,lower_bound,lower_bound_decimal"
    assert rows == [
        "0,4,halted,-,1/2,0.5",
        "100,147,halted,-,5/8,0.625",
        "11100,2204,halted,-,21/32,0.65625",
        "11000,2401,halted,-,11/16,0.6875",
        "10100,2466,halted,-,23/32,0.71875",
    ]


def test_omega_fraction_cells_parse_back(capsys):
    code, out, _ = run(capsys, "omega", "--stage", "65536")
    _, header, rows = split_report(out)
    assert code == 0 and len(rows) > 5
    running = Dyadic(0)
    for program, _, _, _, bound, decimal in csv.reader(rows):
        running = running + Dyadic(1, len(unspell(program)))
        assert parse_dyadic(bound) == running
        assert decimal == running.decimal()


def test_omega_until_mass(capsys):
    code, out, _ = run(capsys, "omega", "--until-mass", "0", "--stage", "5")
    assert code == 0
    assert split_report(out)[1:] == ("program", ["0"])
    code, out, _ = run(capsys, "omega", "--until-mass", "-", "--stage", "5")
    assert code == 0
    assert split_report(out)[1:] == ("program", [])
    code, _, err = run(capsys, "omega", "--until-mass", "1", "--stage", "5")
    assert code == 1 and "never exceeds" in err


def test_omega_until_mass_in_a_settled_universe_returns_at_once():
    # at len_limit 0 V diverges on every program, so the replay settles
    # before its first pair and the stage is reached without asking; a
    # subprocess keeps this process's universes out of it
    env = {**os.environ, "PYTHONPATH": str(Path(randlab.__file__).parents[1])}
    argv = ["omega", "--until-mass", "1", "--stage", str(10**12), "--len-limit", "0"]
    done = subprocess.run(
        [sys.executable, "-m", "randlab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        f"randlab: halted mass within {10**12} stages never exceeds the threshold 1\n"
    )


# ---------------------------------------------------------------------------
# mltest reports
# ---------------------------------------------------------------------------


def test_mltest_validate_rejects_count101(capsys):
    code, out, _ = run(capsys, "mltest", "validate", "--test", "count101", "--levels", "3")
    assert code == 1
    _, header, rows = split_report(out)
    assert header == "m,verdict,measure,bound,depth"
    assert rows == [
        "0,pass,1,1,0",
        "1,pass,11/32,1/2,5",
        "2,fail,277/1024,1/4,10",
        "3,fail,7205/32768,1/8,15",
    ]


def test_mltest_validate_passes_leading_zeros(capsys):
    code, out, _ = run(
        capsys, "mltest", "validate", "--test", "leading-zeros", "--levels", "4"
    )
    assert code == 0
    rows = split_report(out)[2]
    assert rows == [
        "0,pass,1,1,0",
        "1,pass,1/2,1/2,1",
        "2,pass,1/4,1/4,2",
        "3,pass,1/8,1/8,3",
        "4,pass,1/16,1/16,4",
    ]


def test_mltest_convert(capsys):
    code, out, _ = run(
        capsys, "mltest", "convert", "--test", "leading-zeros",
        "--levels", "2", "--depth", "3",
    )
    _, header, rows = split_report(out)
    assert (code, header) == (0, "n,member")
    assert rows == ["1,00", "1,000", "1,001", "2,000"]


def test_mltest_universal(capsys):
    code, out, _ = run(
        capsys, "mltest", "universal", "--level", "2", "--depth", "6",
        "--tests", "leading-zeros",
    )
    rows = split_report(out)[2]
    assert code == 0
    assert rows == ["0000", "00000", "00001", "000000", "000001", "000010", "000011"]


def test_mltest_score(capsys):
    code, out, _ = run(capsys, "mltest", "score", "--subject", "0" * 12)
    _, header, rows = split_report(out)
    assert (code, header) == (0, "name,level,verdict")
    assert rows == [
        "leading-zeros,12,fail-at-depth",
        "even-ones,0,pass-at-depth",
        "zeros-after-111,0,pass-at-depth",
        "compression-deficiency,-1,",
    ]
    code, out, _ = run(
        capsys, "mltest", "score", "--subject", "-", "--format", "json"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results[-1] == {
        "name": "compression-deficiency", "level": -1, "verdict": None,
    }
    assert all(r["verdict"] == "indeterminate" for r in results[:-1])


def test_mltest_bridge(capsys):
    code, out, _ = run(
        capsys, "mltest", "bridge", "--test", "leading-zeros",
        "--n-max", "2", "--depth", "8",
    )
    _, header, rows = split_report(out)
    assert (code, header) == (0, "codeword,length,n,target")
    assert rows == ["00,2,1,000", "010,3,2,00000"]
    assert current_code_table() == {}  # reporting must not install


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_validate_formats_share_data(capsys, fmt):
    code, out, _ = run(
        capsys, "mltest", "validate", "--test", "even-ones", "--levels", "2",
        "--format", fmt,
    )
    assert code == 0
    if fmt == "json":
        rows = json.loads(out)["results"]
        assert rows[2] == {
            "m": 2, "verdict": "pass", "measure": "1/4", "bound": "1/4", "depth": 3,
        }
    else:
        assert split_report(out)[2][2] == "2,pass,1/4,1/4,3"


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("complexity", "census", "--budget", "-5"),
        ("omega", "--stage", "-4"),
        ("mltest", "score", "--subject", "01", "--depth", "-1"),
        ("complexity", "scan", "--len-limit", "-1"),
        ("complexity", "scan", "--max-len", "-2"),
        ("enum", "--count", "-1"),
        ("complexity", "census", "--max-n", "-1"),
        ("complexity", "subadd", "--max-n", "-1"),
        ("complexity", "horizon", "--k", "1", "--max-m", "-1"),
        ("complexity", "pad", "--k", "-1"),
        ("mltest", "validate", "--test", "leading-zeros", "--levels", "-1"),
        ("mltest", "universal", "--level", "-2"),
        ("mltest", "universal", "--tests", "nope"),
        ("mltest", "bridge", "--test", "leading-zeros", "--n-max", "-3"),
        ("complexity", "census", "--budget", "many"),
        ("kraft", "--lengths", "1,-2"),
        ("kraft", "--lengths", "1,x"),
        ("kraft", "--lengths", "2,,1.5"),
        ("complexity", "horizon", "--max-m", "3", "--k", "-1"),
    ],
)
def test_negative_or_malformed_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument {argv[-2]}:" in err


# ---------------------------------------------------------------------------
# universe flags: a report subcommand takes only those its computation reads
# ---------------------------------------------------------------------------

DEFAULTS = {"budget": "100000", "len_limit": "12", "depth": "15", "stage": "4096"}

# each report subcommand: a cheap valid invocation, and the universe flags it
# reads, each with a value off its default
READS = {
    "enum": (["--count", "1"], {}),
    "measure": ([], {}),
    "complexity scan": (["--max-len", "0"], {"--budget": "3", "--len-limit": "2"}),
    "complexity census": (["--max-n", "0"], {"--budget": "3", "--len-limit": "2"}),
    "complexity pad": (["--k", "0"], {"--budget": "60", "--len-limit": "18"}),
    "complexity horizon": (["--k", "0", "--max-m", "1"], {"--budget": "3", "--len-limit": "2"}),
    "complexity subadd": (["--max-n", "0"], {"--budget": "3", "--len-limit": "2"}),
    "omega": ([], {"--len-limit": "2", "--stage": "5"}),
    "mltest validate": (["--test", "even-ones", "--levels", "1"], {"--depth": "4"}),
    "mltest convert": (["--test", "even-ones", "--levels", "1"], {"--depth": "4"}),
    "mltest universal": ([], {"--depth": "4"}),
    "mltest score": (["--subject", "0"], {"--budget": "3", "--len-limit": "2", "--depth": "4"}),
    "mltest bridge": (["--test", "leading-zeros", "--n-max", "1"], {"--depth": "4"}),
}
UNREAD = [(cmd, flag) for cmd, (_, reads) in READS.items() for flag in UNIVERSE_FLAGS
          if flag not in reads]


def test_each_subcommand_takes_the_universe_flags_it_reads():
    flags = dict(universe_flags(_build_parser()))
    assert flags == {"pfz": set(), "kraft": set()} | {c: set(r) for c, (_, r) in READS.items()}
    assert (sum(map(len, flags.values())), len(UNREAD)) == (19, 33)


@pytest.mark.parametrize("command, flag", UNREAD, ids=[" ".join(pair) for pair in UNREAD])
def test_unread_universe_flags_are_usage_errors(capsys, command, flag):
    code, out, err = run(capsys, *command.split(), *READS[command][0], flag, "1")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("command", READS)
def test_read_universe_flags_are_named_in_the_header(capsys, monkeypatch, command):
    # no horizon exists at limits a test can reach (see the horizon report test)
    monkeypatch.setattr(randlab.cli, "horizon_search", lambda k, m_max, len_limit, budget: 2)
    args, reads = READS[command]
    code, out, _ = run(capsys, *command.split(), *args, *itertools.chain(*reads.items()))
    assert code == 0
    comments = [c for c in split_report(out)[0] if "registry_fingerprint" not in c]
    header = DEFAULTS | {flag[2:].replace("-", "_"): value for flag, value in reads.items()}
    assert comments == [f"# {key}={value}" for key, value in sorted(header.items())]


def test_csv_rows_are_streamed_into_the_report(tmp_path):
    # one dict per row held at once would peak at about 24 MiB here
    out = tmp_path / "enum.csv"
    tracemalloc.start()
    try:
        assert main(["enum", "--count", "65536", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert out.read_text().splitlines()[-1] == "65535," + "0" * 16


JSON_REPORTS = [
    ["enum", "--count", "0"],
    ["enum", "--count", "5"],
    ["measure", "0", "10", "111"],
    ["complexity", "census", "--max-n", "3"],
    ["complexity", "pad", "--k", "2"],
    ["omega", "--stage", "0"],
    ["omega", "--stage", "64"],
    ["mltest", "convert", "--test", "even-ones", "--levels", "2", "--depth", "3"],
    ["mltest", "score", "--subject", "0" * 8],
]


@pytest.mark.parametrize("argv", JSON_REPORTS, ids=" ".join)
def test_json_reports_are_one_dumped_payload(capsys, argv):
    # the rows are spelled a batch at a time, but the text is what dumping
    # the whole payload at once wrote
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", code


def test_json_rows_spell_as_one_dumped_payload():
    config = {"budget": 3, "stage": None}
    columns = ["i", "on", "b", "a", "z"]
    odd = [([1, [], {}], "x\ny\u00e9", None), ({}, "", {"k": [2, {"m": None}]}), ([], 0, True)]
    for n in (0, 1, 3, 1023, 1024, 2049):  # batches of 1024 rows
        rows = [(i, i % 2 == 0, *odd[i % 3]) for i in range(n)]
        results = [dict(zip(columns, row)) for row in rows]
        expected = json.dumps({"config": config, "results": results}, indent=2, sort_keys=True)
        assert _report_text("json", config, columns, iter(rows)) == expected + "\n"


def test_dyadic_cells_are_spelled_by_str():
    rows = [(Dyadic(3, 2), Dyadic(5)), (Dyadic(0, 9), Dyadic(1, 64))]
    csv_text = _report_text("csv", {}, ["a", "b"], iter(rows))
    assert csv_text == "a,b\n3/4,5\n0,1/18446744073709551616\n"
    results = json.loads(_report_text("json", {}, ["a", "b"], iter(rows)))["results"]
    assert results == [{"a": str(a), "b": str(b)} for a, b in rows]


@pytest.mark.parametrize("bad", [(1,), (1, 2, 3)], ids=["too-few", "too-many"])
@pytest.mark.parametrize("before", [0, 1024, 1500])
def test_json_row_with_a_wrong_cell_count_raises(bad, before):
    rows = [(0, 0)] * before + [bad]
    with pytest.raises(ValueError):
        _report_text("json", {}, ["a", "b"], iter(rows))


def test_json_rows_are_streamed_into_the_report(tmp_path):
    # one list holding every row dict peaked at about 54 MiB here
    out = tmp_path / "enum.json"
    tracemalloc.start()
    try:
        assert main(["enum", "--count", "65536", "--format", "json", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert json.loads(out.read_text())["results"][-1] == {"index": 65535, "string": "0" * 16}


def test_zero_counts_are_accepted(capsys):
    code, out, _ = run(capsys, "omega", "--stage", "0")
    assert code == 0
    assert split_report(out)[2] == []
    code, out, _ = run(capsys, "complexity", "census", "--max-n", "0", "--budget", "0")
    assert code == 0
    assert "# budget=0" in split_report(out)[0]


@pytest.mark.parametrize(
    "argv, err",
    [
        (("complexity", "pad", "--k", "0", "--len-limit", "10"),
         "randlab: no pad witness for k=0 within len_limit=10\n"),
        (("complexity", "horizon", "--k", "0", "--max-m", "4"),
         "randlab: no horizon for k=0 below m=4 at these limits\n"),
        (("omega", "--until-mass", "1", "--stage", "5"),
         "randlab: halted mass within 5 stages never exceeds the threshold 1\n"),
    ],
)
def test_searches_that_find_nothing_end_with_one_line(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


def test_file_errors_end_with_one_line(capsys, tmp_path):
    missing = str(tmp_path / "missing.txt")
    unwritable = str(tmp_path / "no-such-dir" / "report.csv")
    for argv in (
        ("pfz", "--in", missing),
        ("measure", "--in", missing),
        ("enum", "--count", "3", "--out", unwritable),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("randlab: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_a_recursion_error_ends_with_one_line(capsys, monkeypatch):
    def overflow(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(randlab.cli, "_cmd_enum", overflow)
    # the parser binds its handler when built, so patch before main builds it
    assert run(capsys, "enum", "--count", "3") == (
        1, "", "randlab: maximum recursion depth exceeded\n"
    )


def test_a_stack_overflow_ends_with_one_line():
    # the status engine's depth still grows with the budget here; whatever
    # the command returns, it ends without a traceback.  A subprocess keeps
    # this process's memo from answering in its place
    env = {**os.environ, "PYTHONPATH": str(Path(randlab.__file__).parents[1])}
    argv = ["mltest", "score", "--subject", "0000", "--budget", "1500000"]
    done = subprocess.run(
        [sys.executable, "-m", "randlab.cli", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode in (0, 1)
    assert "Traceback" not in done.stderr
    if done.returncode == 1:
        assert done.stdout == ""
        assert done.stderr.startswith("randlab: ") and done.stderr.count("\n") == 1
