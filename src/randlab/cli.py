"""Deterministic command-line reports over the workbench.

Every report embeds the full run configuration (budget, length limit, depth,
stage, registry fingerprint), so identical invocations produce byte-identical
output.  A report subcommand takes only the universe flags its computation
reads; the header still names the whole universe, each unread value at its
default.  CSV reports start with ``# key=value`` configuration comments and
use LF line endings; JSON reports are a single object with ``config`` and
``results`` keys, sorted.  Bitstrings are ASCII ``0``/``1`` with the empty
string spelled ``-`` on the command line, in files, and in report cells.
Exact dyadic cells are ``str(Dyadic)``, reduced fractions over powers of two; decimal
columns are annotations (dyadic decimals terminate, so they are exact too).

Exit status: 0 on success, 1 on domain errors, definite failures (Kraft
overflow, bridge mass violations, failed test levels, exhausted searches)
and unreadable or unwritable files, 2 on usage errors (including negative
budgets, stages, depths, limits, counts and codeword lengths, and universe
flags the subcommand does not read).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from collections.abc import Iterable

from .bitstr import Dyadic, _check_bits, all_strings, index_to_string
from .complexity import (
    PAD_SCAN_LIMIT,
    census_incompressible,
    horizon_search,
    pad_witness,
    plain_c,
    prefix_k,
    registry_constants,
    subadditivity_probe,
)
from .machine import (
    DEFAULT_BUDGET,
    DEFAULT_LEN_LIMIT,
    dovetail_events,
    registry_fingerprint,
)
from .mltest import (
    DEFAULT_DEPTH,
    DEFAULT_K_LEN_LIMIT,
    builtin_tests,
    ml_to_kc_decoder,
    registered_tests,
    score,
    sense1_to_sense2,
    universal_test,
    validate_sense1,
)
from .omega import psi_reconstruct
from .prefixfree import cover_measure, is_prefix_free, kraft_code, kraft_sum, prefix_freeize

DEFAULT_STAGE = 4096

# the universe every report header names, at its defaults
_UNIVERSE = {
    "budget": DEFAULT_BUDGET,
    "len_limit": DEFAULT_LEN_LIMIT,
    "depth": DEFAULT_DEPTH,
    "stage": DEFAULT_STAGE,
}
_KC = ("budget", "len_limit")  # what the budgeted complexity searches read

STREAMS = {
    "zeros": lambda n: "0" * n,
    "ones": lambda n: "1" * n,
    "alternating": lambda n: ("01" * n)[:n],
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def spell(bits: str) -> str:
    """The report spelling of a bitstring: '-' for the empty string."""
    return bits if bits else "-"


def unspell(text: str) -> str:
    return "" if text == "-" else _check_bits(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _report_text(fmt: str, config: dict, columns: list[str], rows: Iterable[tuple]) -> str:
    """The report text; each row holds its cells in `columns` order."""
    if fmt == "json":
        # json.dumps(payload, indent=2, sort_keys=True) spelled 1024 rows per
        # call: no list of every row dict is held, and a call per row is 2.6x slower
        head = json.dumps({"config": config, "results": []}, indent=2, sort_keys=True)
        rows, batches = iter(rows), []
        while batch := [dict(zip(columns, r, strict=True)) for r in itertools.islice(rows, 1024)]:
            # "[\n  {...},\n  {...}\n]", a Dyadic cell spelled by str as in CSV
            text = json.dumps(batch, indent=2, sort_keys=True, default=str)
            batches.append("  " + text[2:-2].replace("\n", "\n  "))
        if not batches:
            return head + "\n"
        return head[: -len("[]\n}")] + "[\n" + ",\n".join(batches) + "\n  ]\n}\n"
    buf = io.StringIO()
    for key, value in sorted(config.items()):
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_cell, row) for row in rows)
    return buf.getvalue()


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _emit(args, columns: list[str], rows: Iterable[tuple]) -> None:
    config = {key: getattr(args, key) for key in _UNIVERSE}
    config["registry_fingerprint"] = registry_fingerprint()
    _write(_report_text(args.format, config, columns, rows), args.out)


def _emit_set(args, strings: list[str]) -> None:
    text = "".join(spell(b) + "\n" for b in strings)
    _write(text, args.out)


def _canonical(strings) -> list[str]:
    return sorted(set(strings), key=lambda b: (len(b), b))


def _gather_strings(args) -> list[str]:
    strings = list(args.strings)
    if args.in_file is not None:
        with open(args.in_file, encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    strings.append(unspell(line))
    return strings


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_enum(args) -> int:
    rows = ((m, spell(index_to_string(m))) for m in range(args.count))
    _emit(args, ["index", "string"], rows)
    return 0


def _cmd_pfz(args) -> int:
    antichain = prefix_freeize(_canonical(_gather_strings(args)))
    _emit_set(args, _canonical(antichain))
    return 0


def _cmd_kraft(args) -> int:
    _emit_set(args, kraft_code(args.lengths))
    return 0


def _cmd_measure(args) -> int:
    strings = _canonical(_gather_strings(args))
    rows = [
        ("members", len(strings)),
        ("prefix_free", is_prefix_free(strings)),
        ("kraft_sum", kraft_sum(strings)),
        ("cover_measure", cover_measure(strings)),
    ]
    _emit(args, ["metric", "value"], rows)
    return 0


def _cmd_complexity_scan(args) -> int:
    rows = []
    for b in all_strings(args.max_len):
        row = [spell(b)]
        for op in (plain_c, prefix_k):
            bound = op(b, args.len_limit, args.budget)
            row += (bound.value, spell(bound.witness), bound.exhaustive) if bound else (None,) * 3
        rows.append(row)
    columns = ["string"] + [f"{t}_{f}" for t in "ck" for f in ("value", "witness", "exhaustive")]
    _emit(args, columns, rows)
    return 0


def _cmd_complexity_census(args) -> int:
    rows = [
        (n, census_incompressible(n, args.len_limit, args.budget), 2**n)
        for n in range(args.max_n + 1)
    ]
    _emit(args, ["n", "incompressible", "strings"], rows)
    return 0


def _cmd_complexity_pad(args) -> int:
    witness = pad_witness(STREAMS[args.stream], args.k, args.len_limit, args.budget)
    if witness is None:
        raise ValueError(f"no pad witness for k={args.k} within len_limit={args.len_limit}")
    bound = witness.bound
    row = (args.stream, args.k, witness.n, bound.value, spell(bound.witness), witness.overhead)
    _emit(args, ["stream", "k", "n", "value", "witness", "overhead"], [row])
    return 0


def _cmd_complexity_horizon(args) -> int:
    m = horizon_search(args.k, args.max_m, args.len_limit, args.budget)
    if m is None:
        raise ValueError(f"no horizon for k={args.k} below m={args.max_m} at these limits")
    _emit(args, ["k", "m"], [(args.k, m)])
    return 0


def _cmd_complexity_subadd(args) -> int:
    r = subadditivity_probe(args.max_n, args.len_limit, args.budget)
    constants = registry_constants()
    columns = ["n_max", "pair_overhead", "plain_gap_max", "plain_pairs", "prefix_violations"]
    row = [r.n_max, r.pair_overhead, r.plain_gap_max, r.plain_pairs, len(r.prefix_violations)]
    columns += ["prefix_pairs", *constants]
    row += [r.prefix_pairs, *constants.values()]
    _emit(args, columns, [row])
    return 0


def _cmd_omega(args) -> int:
    if args.until_mass is not None:
        halted = psi_reconstruct(args.until_mass, args.stage, args.len_limit)
        if halted is None:
            raise ValueError(
                f"halted mass within {args.stage} stages never exceeds "
                f"the threshold {spell(args.until_mass)}"
            )
        _emit(args, ["program"], [(spell(p),) for p in _canonical(halted)])
        return 0
    events = list(dovetail_events(args.stage, args.len_limit))
    bounds = itertools.accumulate(Dyadic(1, len(e.program)) for e in events)
    rows = [
        (spell(e.program), e.stage, e.outcome.status, spell(e.outcome.output))
        + (running, running.decimal())
        for e, running in zip(events, bounds)
    ]
    columns = ["program", "stage", "status", "output", "lower_bound", "lower_bound_decimal"]
    _emit(args, columns, rows)
    return 0


def _cmd_mltest_validate(args) -> int:
    verdicts = validate_sense1(registered_tests()[args.test], args.levels, args.depth)
    rows = [(v.m, v.verdict, v.measure, v.bound, v.depth) for v in verdicts]
    _emit(args, ["m", "verdict", "measure", "bound", "depth"], rows)
    return 1 if any(v.verdict == "fail" for v in verdicts) else 0


def _cmd_mltest_convert(args) -> int:
    conv = sense1_to_sense2(registered_tests()[args.test], args.depth)
    rows = (
        (n, spell(b))
        for n in range(1, args.levels + 1)
        for b in _canonical(conv.enumerate(n, args.depth))
    )
    _emit(args, ["n", "member"], rows)
    return 0


def _cmd_mltest_universal(args) -> int:
    tests = registered_tests()
    battery = [sense1_to_sense2(tests[name], args.depth) for name in args.tests]
    cover = universal_test(battery, args.level, args.depth)
    _emit(args, ["member"], [(spell(b),) for b in _canonical(cover)])
    return 0


def _cmd_mltest_score(args) -> int:
    report = score(
        args.subject,
        len_limit=args.len_limit,
        budget=args.budget,
        depth=args.depth,
    )
    verdicts = dict(report.verdicts)
    rows = [(name, level, verdicts[name]) for name, level in report.levels]
    rows.append(("compression-deficiency", report.compression_deficiency, None))
    _emit(args, ["name", "level", "verdict"], rows)
    return 0


def _cmd_mltest_bridge(args) -> int:
    conv = sense1_to_sense2(registered_tests()[args.test], args.depth)
    # reporting only: the in-process registry is left untouched
    result = ml_to_kc_decoder(conv, args.n_max, args.depth, install=False)
    rows = [
        (codeword, ell, n, spell(b))
        for (codeword, _), (ell, n, b) in zip(result.decoder, result.triples)
    ]
    _emit(args, ["codeword", "length", "n", "target"], rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _bits_arg(text: str) -> str:
    try:
        return unspell(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _count_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {value}")
    return value


def _lengths_arg(text: str) -> list[int]:
    return [_count_arg(part) for part in text.split(",") if part]


def _test_names_arg(text: str) -> list[str]:
    names = [part for part in text.split(",") if part]
    known = registered_tests()
    for name in names:
        if name not in known:
            raise argparse.ArgumentTypeError(f"unknown test: {name!r}")
    return names


def _report(sub, name: str, handler, help: str, reads=(), **defaults) -> argparse.ArgumentParser:
    """A report subcommand: it takes only the universe flags in `reads`, yet
    its header names the whole universe, unread values at their defaults."""
    p = sub.add_parser(name, help=help)
    for key in reads:
        p.add_argument("--" + key.replace("_", "-"), type=_count_arg)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=handler, **{**_UNIVERSE, **defaults})
    return p


def _build_parser() -> argparse.ArgumentParser:
    test_names = sorted(registered_tests())
    parser = argparse.ArgumentParser(
        prog="randlab",
        description="exact workbench reports: enumerations, antichains, "
        "budgeted complexity, halting mass, and Martin-Löf tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _report(sub, "enum", _cmd_enum, "length-lex enumeration rows")
    p.add_argument("--count", type=_count_arg, required=True)

    p = sub.add_parser("pfz", help="reduce a set to its covering antichain")
    p.add_argument("strings", nargs="*", type=_bits_arg)
    p.add_argument("--in", dest="in_file", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_pfz)

    p = sub.add_parser("kraft", help="leftmost codewords for a length list")
    p.add_argument("--lengths", type=_lengths_arg, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_kraft)

    p = _report(sub, "measure", _cmd_measure, "exact mass of a string set")
    p.add_argument("strings", nargs="*", type=_bits_arg)
    p.add_argument("--in", dest="in_file", default=None)

    p = sub.add_parser("complexity", help="budgeted complexity reports")
    csub = p.add_subparsers(dest="subcommand", required=True)
    q = _report(csub, "scan", _cmd_complexity_scan, "C_t/K_t bounds for short strings", _KC)
    q.add_argument("--max-len", dest="max_len", type=_count_arg, default=4)
    q = _report(csub, "census", _cmd_complexity_census, "incompressible string counts", _KC)
    q.add_argument("--max-n", dest="max_n", type=_count_arg, default=8)
    q = _report(csub, "pad", _cmd_complexity_pad, "pad-compressed stream prefixes", _KC,
                len_limit=PAD_SCAN_LIMIT)
    q.add_argument("--stream", choices=sorted(STREAMS), default="zeros")
    q.add_argument("--k", type=_count_arg, required=True)
    q = _report(csub, "horizon", _cmd_complexity_horizon, "compressible-prefix horizon", _KC)
    q.add_argument("--k", type=_count_arg, required=True)
    q.add_argument("--max-m", dest="max_m", type=_count_arg, default=6)
    q = _report(csub, "subadd", _cmd_complexity_subadd, "pairing constants and gaps", _KC)
    q.add_argument("--max-n", dest="max_n", type=_count_arg, default=3)

    p = _report(sub, "omega", _cmd_omega, "halting-mass lower bounds", ("len_limit", "stage"))
    p.add_argument("--until-mass", dest="until_mass", type=_bits_arg, default=None)

    p = sub.add_parser("mltest", help="Martin-Löf test reports")
    msub = p.add_subparsers(dest="subcommand", required=True)
    q = _report(msub, "validate", _cmd_mltest_validate, "per-level measure verdicts", ("depth",))
    q.add_argument("--test", choices=test_names, required=True)
    q.add_argument("--levels", type=_count_arg, default=3)
    q = _report(msub, "convert", _cmd_mltest_convert, "materialized sense-2 levels", ("depth",))
    q.add_argument("--test", choices=test_names, required=True)
    q.add_argument("--levels", type=_count_arg, default=3)
    q = _report(msub, "universal", _cmd_mltest_universal, "battery-universal cover", ("depth",))
    q.add_argument("--level", type=_count_arg, default=1)
    q.add_argument(
        "--tests",
        type=_test_names_arg,
        default=[t.name for t in builtin_tests()],
    )
    q = _report(msub, "score", _cmd_mltest_score, "levels and deficiency of a subject",
                (*_KC, "depth"), len_limit=DEFAULT_K_LEN_LIMIT)
    q.add_argument("--subject", type=_bits_arg, required=True)
    q = _report(msub, "bridge", _cmd_mltest_bridge, "Kraft decoder for test slices", ("depth",))
    q.add_argument("--test", choices=test_names, required=True)
    q.add_argument("--n-max", dest="n_max", type=_count_arg, default=2)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"randlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
