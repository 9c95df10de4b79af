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

from randlab import complexity
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
    # the same key, so the check must come before the table lookup.  A
    # negative budget is refused by the runners that build the table
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


def test_bounds_make_no_status_call_once_the_table_is_built(monkeypatch) -> None:
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append((fn.__name__, args))
            return fn(*args)

        return wrapper

    plain_c("", 8, BIG)
    prefix_k("", 8, BIG)
    for name in (
        "universal_run",
        "prefix_universal_run",
        "universal_status",
        "prefix_universal_status",
    ):
        monkeypatch.setattr(complexity, name, counted(getattr(complexity, name)))
    for b in strings_up_to(6):
        plain_c(b, 8, BIG)
        prefix_k(b, 8, BIG)
    assert calls == []
    plain_c("", 7, BIG)  # a new table does go through the counted runners
    assert calls


def test_witness_tables_follow_the_installed_code_table(monkeypatch) -> None:
    calls = []
    plain = prefix_k("111", 8, BIG)
    try:
        install_code_table({"0": "111"})
        assert prefix_k("111", 8, BIG) == ComplexityBound(6, "111100", BIG, 8, True)
        clear_code_table()
        for name in ("prefix_universal_run", "prefix_universal_status"):
            fn = getattr(complexity, name)
            monkeypatch.setattr(
                complexity, name, lambda *args, fn=fn: calls.append(args) or fn(*args)
            )
        # the default universe kept its table across the install
        assert prefix_k("111", 8, BIG) == plain
        assert calls == []
    finally:
        clear_code_table()


def test_negative_len_limit_has_no_programs() -> None:
    assert plain_c("0", -1) is None
    assert prefix_k("0", -1) is None
    assert budget_short_programs(-1) == []
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
    # 5 limits x 4 budgets x 7 offsets x 9 horizons = 1,260 cases
    found = Counter()
    for len_limit in (4, 6, 8, 10, 12):
        for budget in (5, 100, 10_000, BIG):
            for k in range(-3, 4):
                for m_max in range(9):
                    m = horizon_search(k, m_max, len_limit, budget)
                    assert m == scanning_horizon_search(k, m_max, len_limit, budget), (
                        len_limit, budget, k, m_max,
                    )
                    found[m] += 1
    assert sum(found.values()) == 1260
    # at these limits only "" is compressible, and only for k < 0
    assert found == Counter({None: 780, 1: 480})


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
