"""Complexity bounds: witness soundness, census, pad compression, horizons,
subadditivity, minimal programs.

The oracle for witness searches is a brute-force sweep written directly
against the machine runners; expected values frozen below were computed with
it (or traced by hand where noted) before the assertions were written.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from conftest import fresh_universes
from randlab import complexity, machine
from randlab.bitstr import all_strings, index_to_string
from randlab.complexity import (
    ComplexityBound,
    budget_short_programs,
    census_incompressible,
    horizon_search,
    pad_witness,
    plain_c,
    prefix_k,
    registry_constants,
    subadditivity_probe,
)
from randlab.machine import (
    clear_code_table,
    install_code_table,
    prefix_universal_run,
    prefix_universal_status,
    universal_run,
    universal_status,
)
from randlab.mltest import compression_test, score

BIG = 100_000

CONSTANTS = registry_constants()


def strings_up_to(n: int) -> list[str]:
    return list(all_strings(n))


def brute_best(b: str, prefix: bool, len_limit: int, budget: int) -> str | None:
    runner = prefix_universal_run if prefix else universal_run
    for p in strings_up_to(len_limit):
        out = runner(p, budget, len_limit)
        if out.halted and out.output == b:
            return p
    return None


# ---------------------------------------------------------------------------
# plain_c / prefix_k
# ---------------------------------------------------------------------------


def test_plain_c_of_empty_string() -> None:
    bound = plain_c("")
    assert bound is not None
    assert (bound.value, bound.witness) == (1, "0")
    assert bound.exhaustive  # the empty program certifiably diverges


def test_plain_c_identity_dispatch_bound() -> None:
    m_id = CONSTANTS["m_id"]
    for b in strings_up_to(6):
        bound = plain_c(b)
        assert bound is not None
        assert bound.value <= len(b) + m_id
        rerun = universal_run(bound.witness, bound.budget, bound.len_limit)
        assert rerun.halted and rerun.output == b


def test_plain_c_matches_brute_force() -> None:
    for b in strings_up_to(4):
        bound = plain_c(b, len_limit=8, budget=10_000)
        witness = brute_best(b, prefix=False, len_limit=8, budget=10_000)
        assert bound is not None and witness is not None
        assert bound.witness == witness
        assert bound.value == len(witness)


def test_plain_c_absent_under_tiny_limits() -> None:
    assert plain_c("0110", len_limit=2, budget=1) is None


def test_prefix_k_matches_brute_force() -> None:
    for b in strings_up_to(3):
        bound = prefix_k(b, len_limit=13, budget=BIG)
        witness = brute_best(b, prefix=True, len_limit=13, budget=BIG)
        assert bound is not None and witness is not None
        assert bound.witness == witness


def test_prefix_k_echo_bound() -> None:
    c_echo = CONSTANTS["c_echo"]
    for b in strings_up_to(4):
        bound = prefix_k(b, len_limit=13, budget=BIG)
        assert bound is not None
        assert bound.value <= 2 * len(b) + c_echo
        rerun = prefix_universal_run(bound.witness, bound.budget, bound.len_limit)
        assert rerun.halted and rerun.output == b


def test_prefix_k_frozen_values() -> None:
    # V's domain within length 6 outputs only the empty string, so the echo
    # programs at length 7 are the true optima for single bits
    assert prefix_k("") == ComplexityBound(1, "0", BIG, 12, True)
    assert prefix_k("0") == ComplexityBound(7, "1110100", BIG, 12, True)
    assert prefix_k("1") == ComplexityBound(7, "1110101", BIG, 12, True)


def test_prefix_k_absent_at_zero_budget() -> None:
    assert prefix_k("0", budget=0) is None


def test_bounds_monotone_in_limits() -> None:
    for b in ["", "0", "01", "110"]:
        values = []
        for budget in [0, 10, 100, BIG]:
            bound = plain_c(b, len_limit=10, budget=budget)
            values.append(None if bound is None else bound.value)
        defined = [v for v in values if v is not None]
        assert defined == sorted(defined, reverse=True)
        for i in range(len(values) - 1):
            assert values[i] is None or values[i + 1] is not None
        by_len = [
            plain_c(b, len_limit=limit, budget=BIG) for limit in [2, 6, 10, 12]
        ]
        defined_len = [bound.value for bound in by_len if bound is not None]
        assert defined_len == sorted(defined_len, reverse=True)


def test_target_validation() -> None:
    with pytest.raises(ValueError):
        plain_c("012")


def test_budgets_must_be_natural_numbers() -> None:
    # prefix_k("0", 13, 1e5) used to die inside the pair machine with an
    # AttributeError; and once a table exists at budget 100, 100.0 hashes to
    # the same key, so the check must come before the table lookup, as
    # must the check of a negative budget
    with pytest.raises(TypeError):
        prefix_k("0", 13, 1e5)
    assert prefix_k("0", 8, 100) is not None
    for bound in (plain_c, prefix_k):
        with pytest.raises(TypeError):
            bound("0", 8, 100.0)
        with pytest.raises(ValueError):
            bound("0", 8, -1)


def rescan_exhaustive(witness: str, prefix: bool, len_limit: int, budget: int) -> bool:
    # the oracle for `exhaustive`: every program shorter than the witness is
    # resolved (halted or certified diverging) at this budget
    classify = prefix_universal_status if prefix else universal_status
    return all(
        classify(p, budget, len_limit) != "unresolved"
        for p in all_strings(len(witness) - 1)
    )


def test_exhaustive_matches_the_rescan_oracle() -> None:
    seen = set()
    cases = [(plain_c, False, limit) for limit in (6, 9, 12)]
    cases += [(prefix_k, True, limit) for limit in (6, 9, 13)]
    for op, prefix, len_limit in cases:
        for budget in (5, 30, 100, 1000, BIG):
            for b in strings_up_to(6):
                bound = op(b, len_limit, budget)
                if bound is None:
                    continue
                expected = rescan_exhaustive(bound.witness, prefix, len_limit, budget)
                assert bound.exhaustive == expected, (prefix, len_limit, budget, b)
                seen.add(expected)
    assert seen == {True, False}


def spy_statuses(monkeypatch) -> list:
    """Record every top-level U and V status call a universe answers; the
    calls the engine makes from inside one are left out."""
    calls, depth = [], [0]
    for name in ("u_status", "v_status"):
        def spy(self, prog, cap, fn=getattr(machine._Context, name), name=name):
            if not depth[0]:
                calls.append((name, prog, cap))
            depth[0] += 1
            try:
                return fn(self, prog, cap)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(machine._Context, name, spy)
    return calls


def test_bounds_make_no_status_call_once_the_table_is_built(monkeypatch) -> None:
    plain_c("", 8, BIG)
    prefix_k("", 8, BIG)
    calls = spy_statuses(monkeypatch)
    for b in strings_up_to(6):
        plain_c(b, 8, BIG)
        prefix_k(b, 8, BIG)
    assert calls == []
    # a cold sweep asks the universe once per program in length-lex order,
    # and V's only below programs proven to diverge
    with fresh_universes():
        asked = [p for p, _ in runner_programs(True, 7, BIG)]
    assert len(asked) == 81  # of 255
    with fresh_universes():
        for bound, name, programs in (
            (plain_c, "u_status", list(all_strings(7))),
            (prefix_k, "v_status", asked),
        ):
            calls.clear()
            bound("", 7, BIG)
            assert calls == [(name, p, BIG) for p in programs]


def test_witness_tables_follow_the_installed_code_table(monkeypatch) -> None:
    plain = prefix_k("111", 8, BIG)
    install_code_table({"0": "111"})
    assert prefix_k("111", 8, BIG) == ComplexityBound(6, "111100", BIG, 8, True)
    clear_code_table()
    with fresh_universes():
        asked = [p for p, _ in runner_programs(True, 8, BIG)]
    assert len(asked) == 139  # of 511
    calls = spy_statuses(monkeypatch)
    # installing a table freed the default universes, so the table is swept
    # again, once per program below only proven divergences, to the same
    # answer
    assert prefix_k("111", 8, BIG) == plain
    assert calls == [("v_status", p, BIG) for p in asked]


@pytest.mark.parametrize("budget,error", [(-1, ValueError), (2.5, TypeError)])
def test_sweeps_refuse_a_bad_budget_before_their_first_program(budget, error) -> None:
    # census_incompressible(0, budget=-1) ran no program, so it answered 1
    for len_limit in (0, 3):
        for sweep in (
            lambda: census_incompressible(0, len_limit, budget),
            lambda: census_incompressible(2, len_limit, budget),
            lambda: budget_short_programs(len_limit, budget),
            lambda: plain_c("", len_limit, budget),
            lambda: prefix_k("", len_limit, budget),
        ):
            with pytest.raises(error):
                sweep()


@pytest.mark.parametrize("budget,error", [(-1, ValueError), (2.5, TypeError), (1e5, TypeError)])
def test_a_bad_budget_is_refused_whatever_the_len_limit(budget, error) -> None:
    # subadditivity_probe(0, -1, 1e5) returned a float budget in its report,
    # and pad_witness with an empty scan never looked at its budget
    for entry in (
        lambda: plain_c("", -1, budget),
        lambda: prefix_k("", -1, budget),
        lambda: census_incompressible(3, -1, budget),
        lambda: budget_short_programs(-1, budget),
        lambda: horizon_search(0, 2, -1, budget),
        lambda: subadditivity_probe(0, -1, budget),
        lambda: pad_witness(zeros, 300, -1, budget),
        lambda: score("0", None, -1, budget),
        lambda: compression_test(0, -1, budget),
        lambda: universal_run("", budget, -1),
        lambda: prefix_universal_run("", budget, -1),
        lambda: universal_status("", budget, -1),
        lambda: prefix_universal_status("", budget, -1),
    ):
        with pytest.raises(error):
            entry()


def test_negative_len_limit_has_no_programs() -> None:
    # nor a universe to run them in
    with fresh_universes() as registry:
        assert plain_c("0", -1) is None
        assert prefix_k("0", -1) is None
        for budget in (0, BIG):
            assert census_incompressible(0, -1, budget) == 1
            assert census_incompressible(3, -2, budget) == 8
            assert budget_short_programs(-1, budget) == []
            assert plain_c("", -1, budget) is None
            assert prefix_k("", -3, budget) is None
    assert registry.contexts == {}
    report = subadditivity_probe(1, len_limit=-1)
    assert (report.plain_pairs, report.prefix_pairs) == (0, 0)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_zero_budget_is_everything() -> None:
    assert census_incompressible(3, budget=0) == 8


def test_census_length_zero() -> None:
    assert census_incompressible(0) == 1


def test_census_desk_scale_fixed_points() -> None:
    # no program shorter than n can emit a length-n string at these limits:
    # identity and echo witnesses are longer, pad only wins once the
    # enumeration header has four characters (outputs of length >= 19), and
    # the short pair programs all emit the empty string
    for n in range(7):
        assert census_incompressible(n, budget=BIG) == 2**n


def test_census_oracle_cross_check() -> None:
    for n in range(5):
        short = [p for p in strings_up_to(n - 1)] if n else []
        produced = {
            out.output
            for p in short
            if (out := universal_run(p, BIG, 12)).halted and len(out.output) == n
        }
        assert census_incompressible(n, budget=BIG) == 2**n - len(produced)


def test_census_always_positive() -> None:
    for n in range(9):
        for budget in [100, 10_000]:
            assert census_incompressible(n, budget=budget) >= 1


# ---------------------------------------------------------------------------
# pad witnesses
# ---------------------------------------------------------------------------


def zeros(n: int) -> str:
    return "0" * n


def alternating(n: int) -> str:
    return ("01" * n)[:n]


def test_pad_witness_zeros_k1() -> None:
    # the length-5 prefix 00000 has rank 31, so the witness 10 0 0^31
    # rebuilds the length-36 prefix from 34 characters
    found = pad_witness(zeros, 1)
    assert found is not None
    assert found.n == 36
    assert found.overhead == 3
    assert found.bound.value == 34
    assert found.bound.value < found.n - 1
    rerun = universal_run(found.bound.witness, found.bound.budget, found.bound.len_limit)
    assert rerun.halted and rerun.output == zeros(36)


def test_pad_witness_zeros_k0() -> None:
    # weaker demand, shorter prefix: rank of 0000 is 15, n = 19
    found = pad_witness(zeros, 0)
    assert found is not None
    assert found.n == 19
    assert found.bound.value == 18


def test_pad_witness_alternating_stream() -> None:
    found = pad_witness(alternating, 1)
    assert found is not None
    assert found.n == 46  # rank of 01010 is 41
    rerun = universal_run(found.bound.witness, BIG, found.bound.len_limit)
    assert rerun.halted and rerun.output == alternating(46)


def test_pad_witness_exhaustion() -> None:
    # ranks at L >= 24 exceed any length-20 witness allowance
    assert pad_witness(zeros, 20, len_limit=20) is None


def test_pad_witness_rejects_inconsistent_stream() -> None:
    calls: list[int] = []

    def flaky(n: int) -> str:
        calls.append(n)
        return ("1" if len(calls) > 1 else "0") * n

    with pytest.raises(ValueError):
        pad_witness(flaky, 0)


def test_negative_counts_and_short_prefixes_are_refused() -> None:
    with pytest.raises(ValueError, match="n must be nonnegative"):
        census_incompressible(-1)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        pad_witness(zeros, -1)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        horizon_search(-1, 3)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        compression_test(-2, 12, 10**5, 6)
    with pytest.raises(ValueError, match="prefixes of the asked length"):
        pad_witness(lambda n: zeros(n - 1), 0)


# ---------------------------------------------------------------------------
# horizons
# ---------------------------------------------------------------------------


def test_horizon_absent_at_desk_limits() -> None:
    # oracle: scan every string of length < 7 for budget-compressibility;
    # the best witnesses at these limits never undercut the length
    compressible = [
        s
        for s in strings_up_to(6)
        if (w := brute_best(s, prefix=False, len_limit=12, budget=BIG)) is not None
        and len(w) <= len(s)
    ]
    assert compressible == []
    for k in [0, 1, 3]:
        assert horizon_search(k, m_max=6) is None


def test_horizon_absent_for_large_k() -> None:
    assert horizon_search(12, m_max=4) is None


def scanning_horizon_search(k, m_max, len_limit, budget):
    """Oracle: the horizon as first written, testing every length-m string
    for a compressible proper prefix."""
    compressible = complexity._compressible(False, k, m_max, len_limit, budget)
    for m in range(m_max + 1):
        if all(
            any("".join(bits)[:i] in compressible for i in range(m))
            for bits in itertools.product("01", repeat=m)
        ):
            return m
    return None


def test_horizon_matches_the_scanning_oracle() -> None:
    # 5 limits x 4 budgets x 4 margins x 9 horizons = 720 cases
    found = Counter()
    for len_limit in (4, 6, 8, 10, 12):
        for budget in (5, 100, 10_000, BIG):
            for k in range(4):
                for m_max in range(9):
                    m = horizon_search(k, m_max, len_limit, budget)
                    assert m == scanning_horizon_search(k, m_max, len_limit, budget), (
                        len_limit, budget, k, m_max,
                    )
                    found[m] += 1
    # at these limits nothing is compressible by a margin k >= 0 (only ""
    # is, by a negative margin, which horizon_search refuses)
    assert found == Counter({None: 720})


def random_cover(rng, max_len):
    """A random split of the whole space into cylinders of length <= max_len,
    with some leaves dropped and some extensions added."""
    leaves, out = [""], set()
    while leaves:
        b = leaves.pop()
        if len(b) < max_len and rng.random() < 0.6:
            leaves += [b + "0", b + "1"]
        elif rng.random() < 0.9:
            out.add(b)
    for b in list(out):
        if rng.random() < 0.3:
            out.add(b + "".join(rng.choice("01") for _ in range(rng.randint(0, 2))))
    return frozenset(out)


def test_horizon_matches_the_scanning_oracle_on_random_covers(monkeypatch) -> None:
    # the desk limits only ever give horizon 1, so feed both searches the
    # same random compressible sets to reach every horizon up to m_max
    rng = random.Random(20121)
    found = Counter()
    for _ in range(400):
        m_max = rng.randint(0, 8)
        members = random_cover(rng, rng.randint(0, m_max))
        monkeypatch.setattr(
            complexity,
            "_compressible",
            lambda prefix, k, max_len, *_: frozenset(b for b in members if len(b) <= max_len),
        )
        m = horizon_search(0, m_max, 4, 5)
        assert m == scanning_horizon_search(0, m_max, 4, 5), (members, m_max)
        found[m] += 1
    assert found[None] and all(found[m] for m in range(1, 8))


# ---------------------------------------------------------------------------
# subadditivity
# ---------------------------------------------------------------------------


def test_subadditivity_small_exhaustive() -> None:
    report = subadditivity_probe(2, len_limit=13, budget=BIG)
    assert report.pair_overhead == CONSTANTS["k_pair"] == 3
    assert report.prefix_pairs == 49  # all pairs of the 7 strings
    assert report.prefix_violations == ()
    # every string here costs exactly its length + 1 under U, so the plain
    # gap is identically -1
    assert report.plain_pairs == 49
    assert report.plain_gap_max == -1


def test_subadditivity_lists_every_pair_program_with_a_wrong_output(monkeypatch) -> None:
    # a pair program that halts with the wrong output is a violation
    wrong = machine.BudgetedOutcome("halted", "", 1, 1)
    monkeypatch.setattr(complexity, "prefix_universal_run", lambda prog, budget, len_limit: wrong)
    strings = list(all_strings(1))
    report = subadditivity_probe(1, 12)
    assert report.prefix_pairs == 9
    assert report.prefix_violations == tuple(
        (a, b) for a, b in itertools.product(strings, strings) if a + b
    )


def test_subadditivity_pair_witness_runs() -> None:
    # reproduce one table entry end to end: the pair program for ("0", "1")
    a = prefix_k("0", 13, BIG)
    b = prefix_k("1", 13, BIG)
    assert a is not None and b is not None
    prog = "110" + a.witness + b.witness
    out = prefix_universal_run(prog, 1 << (len(prog) + 1), len_limit=len(prog))
    assert out.halted and out.output == "01"
    assert len(prog) == a.value + b.value + 3


def two_pass_subadditivity_probe(n_max, len_limit, budget):
    """Oracle: the probe as first written, one pass over the pairs for the
    plain gaps and a second that looks both prefix bounds up again."""
    strings = list(all_strings(n_max))
    plain, _ = complexity._witness_table(False, len_limit, budget)
    pair_overhead = complexity.REG_PAIR + 1
    gaps = []
    for a, b in itertools.product(strings, strings):
        witnesses = (plain.get(a), plain.get(b), plain.get(a + b))
        if all(w is not None for w in witnesses):
            gaps.append(len(witnesses[2]) - len(witnesses[0]) - len(witnesses[1]))
    violations = []
    checked = 0
    for a, b in itertools.product(strings, strings):
        ka = prefix_k(a, len_limit, budget)
        kb = prefix_k(b, len_limit, budget)
        if ka is None or kb is None:
            continue
        checked += 1
        prog = "1" * complexity.REG_PAIR + "0" + ka.witness + kb.witness
        wide_budget = 8 * budget + (1 << (len(prog) + 1))
        out = prefix_universal_run(prog, wide_budget, max(len_limit, len(prog)))
        certified = (
            out.halted
            and out.output == a + b
            and len(prog) <= ka.value + kb.value + pair_overhead
        )
        if not certified:
            violations.append((a, b))
    return complexity.SubadditivityReport(
        n_max, len_limit, budget, pair_overhead,
        max(gaps) if gaps else None, len(gaps), tuple(violations), checked,
    )


@pytest.mark.parametrize("len_limit", [8, 10])
@pytest.mark.parametrize("budget", [10_000, BIG])
def test_subadditivity_matches_the_two_pass_oracle(len_limit, budget) -> None:
    for n_max in range(4):
        report = subadditivity_probe(n_max, len_limit, budget)
        assert report == two_pass_subadditivity_probe(n_max, len_limit, budget)


# ---------------------------------------------------------------------------
# minimal programs
# ---------------------------------------------------------------------------


def test_short_programs_at_length_eight() -> None:
    # halting programs within length 8 emit only the empty string and the
    # single bits; the echoes are minimal for the bits, the identity
    # dispatch for the empty string
    assert budget_short_programs(8, BIG) == ["0", "1110100", "1110101"]


def test_short_programs_properties() -> None:
    listed = budget_short_programs(8, BIG)
    by_output: dict[str, set[int]] = {}
    for p in listed:
        out = prefix_universal_run(p, BIG, 8)
        assert out.halted
        by_output.setdefault(out.output, set()).add(len(p))
        assert brute_best(out.output, prefix=True, len_limit=8, budget=BIG) is not None
    for lengths in by_output.values():
        assert len(lengths) == 1  # one length class per output


def test_short_programs_budget_monotone() -> None:
    def min_lengths(budget: int) -> dict[str, int]:
        table: dict[str, int] = {}
        for p in budget_short_programs(8, budget):
            out = prefix_universal_run(p, budget, 8)
            table[out.output] = len(p)
        return table

    small, large = min_lengths(20), min_lengths(BIG)
    for output, length in small.items():
        assert output in large and large[output] <= length


@pytest.mark.parametrize("len_limit,budget", [(8, 20), (8, BIG), (9, 1000), (10, BIG)])
def test_short_programs_match_a_per_output_rescan(len_limit, budget) -> None:
    # the witness table's first program per output against a fresh scan
    best: dict[str, int] = {}
    halted = []
    for p in all_strings(len_limit):
        out = prefix_universal_run(p, budget, len_limit)
        if out.halted:
            best.setdefault(out.output, len(p))
            halted.append((p, out.output))
    expected = [p for p, output in halted if best[output] == len(p)]
    assert budget_short_programs(len_limit, budget) == expected


# ---------------------------------------------------------------------------
# registry constants
# ---------------------------------------------------------------------------


def test_registry_constants_values() -> None:
    assert CONSTANTS == {"m_id": 1, "c_echo": 5, "k_pad": 2, "k_pair": 3}


def test_lengthened_map_constant() -> None:
    # prepending the enumeration string of the length costs at most k_pad
    # extra characters, exhaustively for |b| <= 6
    k_pad = CONSTANTS["k_pad"]
    for b in strings_up_to(6):
        image = index_to_string(len(b)) + b
        direct = plain_c(b, 12, BIG)
        padded = plain_c(image, 12, BIG)
        assert direct is not None and padded is not None
        assert padded.value <= direct.value + k_pad


# ---------------------------------------------------------------------------
# the sweeps against the runner-plus-classifier oracle
# ---------------------------------------------------------------------------


def runner_programs(prefix: bool, len_limit: int, budget: int):
    """The programs a sweep asks, in length-lex order, each with its public
    runner outcome: every program for U; for V, every program each of whose
    proper prefixes the public classifier said diverges."""
    runner = prefix_universal_run if prefix else universal_run
    diverging: set[str] = set()
    for p in all_strings(len_limit):
        if prefix and not all(p[:k] in diverging for k in range(len(p))):
            continue
        out = runner(p, budget, len_limit)
        if prefix and prefix_universal_status(p, budget, len_limit) == "diverges":
            diverging.add(p)
        yield p, out


def runner_witness_table(prefix: bool, len_limit: int, budget: int, through=None):
    """Oracle: the witness table through the public runners, one call per
    program asked, and the public classifier for each one that did not halt.
    It is swept to the end on first use, whatever length `through` asks."""
    if len_limit < 0:
        return {}, None
    tables = machine._context(len_limit).tables
    entry = tables.get((prefix, budget))
    if entry is None:
        classify = prefix_universal_status if prefix else universal_status
        table: dict[str, str] = {}
        frontier = None
        for p, out in runner_programs(prefix, len_limit, budget):
            if out.halted:
                table.setdefault(out.output, p)
            elif frontier is None and classify(p, budget, len_limit) == "unresolved":
                frontier = p
        entry = tables[(prefix, budget)] = (table, frontier)
    return entry


def runner_census(n: int, len_limit: int, budget: int) -> int:
    """Oracle: the census as first written, through the public runner."""
    produced = set()
    for p in all_strings(min(n - 1, len_limit)):
        out = universal_run(p, budget, len_limit)
        if out.halted and len(out.output) == n:
            produced.add(out.output)
    return 2**n - len(produced)


def runner_short_programs(len_limit: int, budget: int) -> list[str]:
    """Oracle: budget_short_programs through the public runner."""
    table, _ = runner_witness_table(True, len_limit, budget)
    runs = runner_programs(True, len_limit, budget)
    return [p for p, out in runs if out.halted and len(table[out.output]) == len(p)]


SWEEPS = {
    "engine": (complexity._witness_table, census_incompressible, budget_short_programs),
    "oracle": (runner_witness_table, runner_census, runner_short_programs),
}
SWEEP_BUDGETS = (0, 5, 100, 10_000, BIG)
SWEEP_TABLE = {"0": "1", "10": "", "110": "0101", "111": "1"}


def sweep_answers(side: str, prefix: bool, len_limit: int, budget: int):
    table_of, census, short_programs = SWEEPS[side]
    table, frontier = table_of(prefix, len_limit, budget)
    answers = [list(table.items()), frontier]
    if prefix:
        answers.append(short_programs(len_limit, budget))
    else:
        answers += [census(n, len_limit, budget) for n in (len_limit // 2, len_limit + 1)]
    return answers


def table_parts(entry) -> tuple[list, str | None]:
    # the engine keeps a resumable sweep per table, the oracles (table, frontier)
    is_sweep = isinstance(entry, complexity._Sweep)
    table, frontier = (entry.table, entry.frontier) if is_sweep else entry
    return list(table.items()), frontier


def universes() -> dict:
    # every universe's memos and tables, in insertion order
    return {
        key: (
            list(ctx._machine.items()),
            list(ctx._v.items()),
            [(k, *table_parts(entry)) for k, entry in ctx.tables.items()],
        )
        for key, ctx in machine._REGISTRY.contexts.items()
    }


@pytest.mark.parametrize("code_table", [{}, SWEEP_TABLE], ids=["no-table", "table"])
@pytest.mark.parametrize("len_limit", [*range(11), 12, 13])
def test_sweeps_match_the_runner_oracle(len_limit, code_table) -> None:
    # the same status calls at the same caps in the same order: equal answers
    # and byte-equal memos, from a cold universe per query and from one warm
    # universe that answers the whole grid in turn
    grid = [(prefix, budget) for budget in SWEEP_BUDGETS for prefix in (False, True)]
    install_code_table(code_table)
    warm = {side: None for side in SWEEPS}
    for cold in (True, False):
        for prefix, budget in grid:
            seen = {}
            for side in SWEEPS:
                with fresh_universes(None if cold else warm[side]) as registry:
                    seen[side] = sweep_answers(side, prefix, len_limit, budget), universes()
                if not cold:
                    warm[side] = registry
            assert seen["engine"] == seen["oracle"], (cold, prefix, budget)


# ---------------------------------------------------------------------------
# the pruned V sweep against the full sweep
# ---------------------------------------------------------------------------


def full_sweep_answers(len_limit: int, budget: int):
    """Oracle: V's witness table, frontier and short programs from the sweep
    that asked every program, those extending a halting one included."""
    ctx = machine._context(len_limit)
    statuses = [(p, ctx.v_status(p, budget)) for p in all_strings(len_limit)]
    table: dict[str, str] = {}
    for p, st in statuses:
        if st[0] == "h":
            table.setdefault(st[2], p)
    frontier = next((p for p, st in statuses if st[0] == "u"), None)
    short = [p for p, st in statuses if st[0] == "h" and len(table[st[2]]) == len(p)]
    return list(table.items()), frontier, short


def pruned_sweep_answers(len_limit: int, budget: int):
    table, frontier = complexity._witness_table(True, len_limit, budget)
    return list(table.items()), frontier, budget_short_programs(len_limit, budget)


@pytest.mark.parametrize("code_table", [{}, SWEEP_TABLE], ids=["no-table", "table"])
@pytest.mark.parametrize("len_limit", range(14))
def test_pruned_v_sweep_matches_the_full_sweep(len_limit, code_table) -> None:
    # budgets rising and falling in a universe of their own, and each inner
    # budget in a cold one (the first rising and the first falling budgets,
    # 0 and BIG, are cold already)
    install_code_table(code_table)
    runs = [SWEEP_BUDGETS, SWEEP_BUDGETS[::-1], *([b] for b in SWEEP_BUDGETS[1:-1])]
    for run in runs:
        seen = {}
        for answers in (pruned_sweep_answers, full_sweep_answers):
            with fresh_universes():
                seen[answers] = [answers(len_limit, budget) for budget in run]
        assert seen[pruned_sweep_answers] == seen[full_sweep_answers], run


@pytest.mark.parametrize("code_table", [{}, SWEEP_TABLE], ids=["no-table", "table"])
@pytest.mark.parametrize("len_limit", range(14))
def test_no_extension_of_a_program_the_v_sweep_left_unresolved_halts(len_limit, code_table) -> None:
    # the certificate the V sweep rests on when it skips the extensions of
    # unresolved programs: walking below every program that did not halt,
    # each extension of an unresolved one within the length cap, asked at
    # the sweep's budget in a universe of its own, does not halt
    install_code_table(code_table)
    items = machine._REGISTRY.code_table
    for budget in (100, 10_000, BIG):
        ctx, level, swept = machine._Context(len_limit, items), [""], []
        for _ in range(len_limit + 1):
            statuses = [(p, ctx.v_status(p, budget)) for p in level]
            level = [p + bit for p, st in statuses if st[0] != "h" for bit in "01"]
            swept += statuses
        unresolved = [p for p, st in swept if st[0] == "u"]
        fresh = machine._Context(len_limit, items)
        for p in unresolved:
            for e in all_strings(len_limit - len(p)):
                if e:
                    assert fresh.v_status(p + e, budget)[0] != "h", (budget, p, e)


def test_short_programs_read_the_swept_table(monkeypatch) -> None:
    # one walk of V's program tree: once the table is swept, the short
    # programs ask nothing (their own walk made 2,919 calls here), and a U
    # sweep keeps no short programs, since nothing reads them
    with fresh_universes():
        prefix_k("", 13, BIG)
        plain_c("", 13, BIG)
        calls = spy_statuses(monkeypatch)
        short = budget_short_programs(13, BIG)
        assert calls == []
        assert len(short) == 53
        assert machine._context(13).tables[(False, BIG)].short is None


def test_a_program_the_sweep_skipped_keeps_its_fresh_answer() -> None:
    # README's example: "0" halts, so the table sweep never asks "0000", and
    # a small budget later reads it unresolved, as a fresh process does
    with fresh_universes():
        assert prefix_universal_status("0000", 1, 12) == "unresolved"
    with fresh_universes():
        prefix_k("", 12, BIG)
        assert prefix_universal_status("0000", 1, 12) == "unresolved"
        assert prefix_universal_status("0000", BIG, 12) == "diverges"


# ---------------------------------------------------------------------------
# tables swept as far as their reader needs against the runner oracle
# ---------------------------------------------------------------------------


def table_readers(census, len_limit: int, budget: int) -> list:
    """Each reader's answers in turn, the ones that sweep a table part of the
    way first and the two whole tables last.  Nothing here is compressible by
    a margin k >= 0, so the compressible sets also take a negative k, each
    asking a longer sweep than the one before; compression_test refuses one,
    so its k = -5 goes to the _compressible it wraps."""
    return [
        lambda: [census(n, len_limit, budget) for n in range(len_limit + 2)],
        lambda: [
            complexity._compressible(prefix, k, max_len, len_limit, budget)
            for prefix in (False, True) for max_len in (4, len_limit) for k in (1, 0, -1, -3)
        ],
        lambda: [horizon_search(k, 6, len_limit, budget) for k in (0, 1)],
        lambda: [
            complexity._compressible(True, -5, 8, len_limit, budget),
            compression_test(0, len_limit, budget, 8),
        ],
        lambda: [subadditivity_probe(n_max, len_limit, budget) for n_max in range(3)],
        lambda: [
            list(complexity._witness_table(prefix, len_limit, budget)[0].items())
            for prefix in (False, True)
        ],
    ]


@pytest.mark.parametrize("code_table", [{}, SWEEP_TABLE], ids=["no-table", "table"])
@pytest.mark.parametrize("len_limit", range(14))
def test_partial_sweeps_answer_as_the_runner_oracle(len_limit, code_table, monkeypatch) -> None:
    # halting statuses do not depend on what a universe already holds, so a
    # table swept as far as each reader needs gives the oracle's answers,
    # each reader in a cold universe, or all in one before the whole tables
    # or after them
    install_code_table(code_table)
    for budget in SWEEP_BUDGETS:
        with fresh_universes(), monkeypatch.context() as patch:
            patch.setattr(complexity, "_witness_table", runner_witness_table)
            expected = [read() for read in table_readers(runner_census, len_limit, budget)]
        readers = table_readers(census_incompressible, len_limit, budget)
        for read, answer in zip(readers, expected):
            with fresh_universes():
                assert read() == answer, budget
        with fresh_universes():
            assert [read() for read in readers] == expected, budget
        with fresh_universes():
            assert [read() for read in readers[::-1]] == expected[::-1], budget


def test_the_subadditivity_probe_runs_u_only_as_far_as_its_outputs(monkeypatch) -> None:
    # identity dispatch gives every string of length <= 8 a witness of
    # length <= 9, so the plain side asks U 1,023 of the 16,383 programs, and
    # a bound query later sweeps on from length 10
    calls = spy_statuses(monkeypatch)
    with fresh_universes():
        subadditivity_probe(4, 13, BIG)
        asked = [call for call in calls if call[0] == "u_status"]
        assert asked == [("u_status", p, BIG) for p in all_strings(9)]
        calls.clear()
        plain_c("0110", 13, BIG)
        assert calls == [("u_status", p, BIG) for p in all_strings(13) if len(p) >= 10]
        calls.clear()
        plain_c("1", 13, BIG)
        assert calls == []


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("prefix", [False, True], ids=["U", "V"])
@pytest.mark.parametrize("through", [None, 7])
def test_a_sweep_a_raise_cut_short_resumes_as_a_cold_one(prefix, through, monkeypatch) -> None:
    # a raise on the second program asked at length 5 leaves the sweep at
    # length 4; asking again sweeps on to the cold sweep's table, frontier,
    # and V's next level and short programs
    name = "v_status" if prefix else "u_status"
    fn, asked = getattr(machine._Context, name), []

    def interrupt_once(self, prog, cap):
        if len(prog) == 5 and cap == 100:
            asked.append(prog)
            if len(asked) == 2:
                raise Interrupted(prog)
        return fn(self, prog, cap)

    def state(sweep) -> tuple:
        return list(sweep.table.items()), sweep.frontier, sweep.swept, sweep.level, sweep.short

    with fresh_universes():
        complexity._witness_table(prefix, 10, 100)
        cold = state(machine._context(10).tables[(prefix, 100)])
    if prefix:
        assert cold[3] is None  # a finished V sweep holds no level
        assert cold[4] == budget_short_programs(10, 100)
    else:
        assert cold[4] is None  # nothing reads U's short programs
    with fresh_universes(), monkeypatch.context() as patch:
        patch.setattr(machine._Context, name, interrupt_once)
        with pytest.raises(Interrupted):
            complexity._witness_table(prefix, 10, 100, through)
        sweep = machine._context(10).tables[(prefix, 100)]
        assert sweep.swept == 4
        complexity._witness_table(prefix, 10, 100, through)
        complexity._witness_table(prefix, 10, 100)
        assert state(sweep) == cold
