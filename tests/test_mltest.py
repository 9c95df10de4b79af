"""Tests for Martin-Löf test validation, conversions, and the complexity
bridges.

Measures are cross-checked against direct Fraction arithmetic over
materialized leaf sets, and the bridge fixtures are re-run on the machine to
confirm the advertised program lengths and costs.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import islice
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randlab
from randlab import mltest
from randlab.bitstr import DYADIC_ONE, DYADIC_ZERO, Dyadic, all_strings, index_to_string
from randlab.complexity import prefix_k
from randlab.machine import (
    clear_code_table,
    current_code_table,
    install_code_table,
    prefix_universal_run,
    registry_fingerprint,
)
from randlab.mltest import (
    BridgeMassError,
    BridgeResult,
    LevelVerdict,
    Sense1Test,
    Sense2Test,
    builtin_tests,
    chain,
    compression_test,
    level_sense1,
    ml_to_kc_decoder,
    normalize,
    registered_tests,
    score,
    sense1_to_sense2,
    sense2_to_sense1,
    universal_test,
    validate_sense1,
)
from randlab.mltest import _count_101, _event, _mask, _segment
from randlab.prefixfree import cover_measure, is_prefix_free, kraft_code, prefix_freeize

BIG = 100_000


def as_fraction(r: Dyadic) -> Fraction:
    return Fraction(r.num, 2**r.scale)


def leaves_below(members, depth: int) -> set[str]:
    """All length-`depth` strings lying in some member's cylinder."""
    return {
        leaf
        for leaf in all_strings(depth)
        if len(leaf) == depth and any(leaf.startswith(b) for b in members)
    }


def brute_measure(members, depth: int) -> Fraction:
    return Fraction(len(leaves_below(members, depth)), 2**depth)


def by_name(tests):
    return {t.name: t for t in tests}


# ---------------------------------------------------------------------------
# built-in level functions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,subject,expected",
    [
        ("leading-zeros", "", 0),
        ("leading-zeros", "1", 0),
        ("leading-zeros", "000", 3),
        ("leading-zeros", "0001", 3),
        ("leading-zeros", "0100", 1),
        ("even-ones", "", 0),
        ("even-ones", "1", 1),
        ("even-ones", "01", 0),
        ("even-ones", "10101", 3),
        ("even-ones", "10100", 2),
        ("even-ones", "11011", 1),
        ("zeros-after-111", "", None),
        ("zeros-after-111", "01100", None),
        ("zeros-after-111", "111", 0),
        ("zeros-after-111", "11100", 2),
        ("zeros-after-111", "111001", 2),
        ("zeros-after-111", "1111", 0),
    ],
)
def test_builtin_levels(name, subject, expected):
    assert by_name(builtin_tests())[name].evaluate(subject) == expected


@pytest.mark.parametrize(
    "subject,expected",
    [("", 0), ("101", 1), ("10101", 2), ("1010101", 3), ("1101011", 2)],
)
def test_count101_levels(subject, expected):
    # occurrences may overlap: "10101" holds two
    assert registered_tests()["count101"].evaluate(subject) == expected


def sliced_count_101(b):
    """Oracle: _count_101 as it was, slicing every 3-character window."""
    return sum(1 for i in range(len(b) - 2) if b[i : i + 3] == "101")


def test_count_101_matches_the_slicing_count():
    assert all(_count_101(b) == sliced_count_101(b) for b in all_strings(16))


def test_registry_of_tests():
    tests = registered_tests()
    assert set(tests) == {
        "leading-zeros",
        "even-ones",
        "zeros-after-111",
        "count101",
    }
    assert tests["count101"].horizon(2) == 10
    assert by_name(builtin_tests())["even-ones"].horizon(3) == 5
    assert by_name(builtin_tests())["even-ones"].horizon(0) == 0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_leading_zeros_levels_are_exactly_dyadic():
    for v in validate_sense1(by_name(builtin_tests())["leading-zeros"], 10):
        assert v.verdict == "pass"
        assert v.measure == Dyadic(1, v.m)
        assert v.depth == v.m


def test_even_ones_levels_are_exactly_dyadic():
    verdicts = validate_sense1(by_name(builtin_tests())["even-ones"], 8)
    for v in verdicts:
        assert v.verdict == "pass"
        assert v.measure == Dyadic(1, v.m)
    # the level-m event is settled only at depth 2m-1; beyond the
    # materialization depth nothing is visible yet
    deeper = validate_sense1(by_name(builtin_tests())["even-ones"], 10)
    for v in deeper[9:]:
        assert v.verdict == "indeterminate"
        assert v.measure == DYADIC_ZERO
        assert v.depth == 15


def test_zeros_after_111_levels_are_exactly_dyadic():
    for v in validate_sense1(by_name(builtin_tests())["zeros-after-111"], 8):
        assert v.verdict == "pass"
        assert v.measure == Dyadic(1, v.m + 3)
        assert v.bound == Dyadic(1, v.m)


def test_builtin_measures_match_brute_force():
    t = by_name(builtin_tests())["even-ones"]
    for v in validate_sense1(t, 5):
        event = [
            b
            for b in all_strings(v.depth)
            if (lev := t.evaluate(b)) is not None and lev >= v.m
        ]
        assert as_fraction(v.measure) == brute_measure(event, max(v.depth, 1))


def test_count101_is_rejected():
    verdicts = validate_sense1(registered_tests()["count101"], 3)
    assert [v.verdict for v in verdicts] == ["pass", "pass", "fail", "fail"]
    assert verdicts[1].measure == Dyadic(11, 5)
    assert verdicts[2].measure == Dyadic(277, 10)
    assert verdicts[3].measure == Dyadic(7205, 15)
    assert [v.depth for v in verdicts] == [0, 5, 10, 15]


def test_count101_shallow_materialization_is_indeterminate():
    # at depth 10 the level-3 event is not yet settled and still under bound
    v = validate_sense1(registered_tests()["count101"], 3, depth=10)[3]
    assert v.verdict == "indeterminate"
    assert v.measure == Dyadic(67, 10)
    assert v.depth == 10


@pytest.mark.parametrize("depth", [-1, -2, -5])
def test_negative_depth_materializes_nothing(depth):
    verdicts = validate_sense1(registered_tests()["count101"], 1, depth=depth)
    assert [(v.verdict, v.measure, v.depth) for v in verdicts] == [
        ("indeterminate", DYADIC_ZERO, depth)
    ] * 2


def test_failure_needs_no_horizon():
    # covers only grow with depth, so exceeding the bound early is final
    t = Sense1Test("length", lambda b: len(b), lambda m: None)
    v = validate_sense1(t, 2, depth=4)[2]
    assert v.verdict == "fail"
    assert v.measure == DYADIC_ONE


def test_unsettled_within_bound_is_indeterminate():
    t = Sense1Test("spot", lambda b: 5 if b == "00000" else None, lambda m: None)
    verdicts = validate_sense1(t, 6)
    assert verdicts[5].verdict == "indeterminate"
    assert verdicts[5].measure == Dyadic(1, 5)
    assert verdicts[6].verdict == "indeterminate"
    assert verdicts[6].measure == DYADIC_ZERO


# ---------------------------------------------------------------------------
# levels of finite subjects
# ---------------------------------------------------------------------------


def test_level_is_max_over_initial_segments():
    tests = by_name(builtin_tests())
    assert level_sense1(tests["leading-zeros"], "0001") == 3
    assert level_sense1(tests["leading-zeros"], "") == 0
    assert level_sense1(tests["even-ones"], "10101") == 3
    # the peak can occur at a proper prefix
    assert level_sense1(tests["zeros-after-111"], "1110011") == 2
    assert level_sense1(tests["zeros-after-111"], "0101") == 0


def test_level_is_monotone_under_extension():
    rng = random.Random(1307)
    tests = list(registered_tests().values())
    for _ in range(50):
        b = "".join(rng.choice("01") for _ in range(rng.randrange(12)))
        for t in tests:
            assert level_sense1(t, b + rng.choice("01")) >= level_sense1(t, b)


# ---------------------------------------------------------------------------
# sense conversions
# ---------------------------------------------------------------------------


def test_sense1_to_sense2_materializes_strict_events():
    conv = sense1_to_sense2(by_name(builtin_tests())["leading-zeros"])
    assert conv.enumerate(2, 4) == {"000", "0000", "0001"}
    assert cover_measure(conv.enumerate(2, 4)) == Dyadic(1, 3)
    # level 0 is the full space, not the strict event
    assert conv.enumerate(0, 2) == set(all_strings(2))
    assert cover_measure(conv.enumerate(0, 2)) == DYADIC_ONE


def test_sense1_to_sense2_caps_at_construction_depth():
    conv = sense1_to_sense2(by_name(builtin_tests())["leading-zeros"], depth=5)
    assert conv.enumerate(2, 9) == conv.enumerate(2, 5)


def test_sense1_to_sense2_levels_match_brute_force():
    t = by_name(builtin_tests())["leading-zeros"]
    conv = sense1_to_sense2(t)
    expected = {
        b
        for b in all_strings(15)
        if (lev := t.evaluate(b)) is not None and lev > 5
    }
    assert conv.enumerate(5, 15) == expected
    assert cover_measure(conv.enumerate(5, 15)) == Dyadic(1, 6)


def test_sense2_to_sense1_applies_the_shifted_diagonal():
    # a hand-made family with members at the diagonal lengths
    f = Sense2Test(
        "diag",
        lambda n, d: frozenset({"1" * (n - 1)}) if 0 < n <= d + 1 else frozenset(),
    )
    t = sense2_to_sense1(f)
    assert t.name == "diag.sense1"
    assert t.evaluate("") == 0  # epsilon sits in the shifted level-1 cover
    assert t.evaluate("11") == 2
    assert t.evaluate("0") is None
    assert t.evaluate("10") is None
    assert t.horizon(3) is None


def test_sense2_to_sense1_of_valid_tests_is_nowhere_defined():
    # a length-n member of a valid level-(n+1) cover would alone weigh
    # 2^-n > 2^-(n+1), so the diagonal never fires on valid input families
    for t in builtin_tests():
        back = sense2_to_sense1(sense1_to_sense2(t))
        assert all(back.evaluate(b) is None for b in all_strings(8))
        for v in validate_sense1(back, 4, depth=8)[1:]:
            assert v.verdict == "indeterminate"
            assert v.measure == DYADIC_ZERO


# ---------------------------------------------------------------------------
# the rank-indexed level table, against the per-string oracle
# ---------------------------------------------------------------------------


def slow_validate_sense1(t, m_max, depth):
    """Oracle: validate_sense1 evaluating every string again for every
    level, as it did before the level table."""
    verdicts = []
    for m in range(m_max + 1):
        h = t.horizon(m)
        settled = h is not None and h <= depth
        eval_depth = h if settled else depth
        event = [
            b
            for b in all_strings(eval_depth)
            if (v := t.evaluate(b)) is not None and v >= m
        ]
        measure = cover_measure(event)
        bound = Dyadic(1, m)
        if measure > bound:
            verdict = "fail"
        elif settled:
            verdict = "pass"
        else:
            verdict = "indeterminate"
        verdicts.append(LevelVerdict(m, verdict, measure, bound, eval_depth))
    return verdicts


def slow_sense1_to_sense2(t, depth):
    """Oracle: sense1_to_sense2 evaluating every string on every call."""

    def materialize(n, d):
        d = min(d, depth)
        if n == 0:
            return frozenset(all_strings(d))
        return frozenset(
            b for b in all_strings(d) if (v := t.evaluate(b)) is not None and v > n
        )

    return Sense2Test(f"{t.name}.sense2", materialize)


def _ones_and_combs(n, d):
    # all-ones and 1010... strings of lengths n-2..d: their diagonal fires
    # on the all-ones strings and on the even-length combs
    ks = range(max(n - 2, 0), d + 1)
    return frozenset(["1" * k for k in ks] + ["10" * (k // 2) for k in ks])


TABLE_FIXTURES = {
    **registered_tests(),
    "diagonal": sense2_to_sense1(Sense2Test("ones", _ones_and_combs)),
    # levels can be negative, so level -1 differs from level 0
    "ones-minus-two": Sense1Test(
        "ones-minus-two",
        lambda b: b.count("1") - 2 if b.endswith("1") else None,
        lambda m: m + 2,
    ),
}


def fresh(t):
    """The same test as a new object, with an empty level table."""
    return Sense1Test(t.name, t.evaluate, t.horizon)


def table_results(t, d):
    return (
        validate_sense1(t, d + 1, d),
        [sense1_to_sense2(t, d).enumerate(n, d) for n in range(-1, d + 2)],
    )


@pytest.mark.parametrize("name", sorted(TABLE_FIXTURES))
def test_level_table_matches_the_per_string_oracle(name):
    t = TABLE_FIXTURES[name]
    depths = range(-2, 13)
    oracle = {
        d: (
            slow_validate_sense1(t, d + 1, d),
            [slow_sense1_to_sense2(t, d).enumerate(n, d) for n in range(-1, d + 2)],
        )
        for d in depths
    }
    # the shared object, a fresh object per depth, and one object asked
    # rising and one asked falling, which extends its table only once
    rising, falling = fresh(t), fresh(t)
    assert {d: table_results(t, d) for d in depths} == oracle
    assert {d: table_results(fresh(t), d) for d in depths} == oracle
    assert {d: table_results(rising, d) for d in depths} == oracle
    assert {d: table_results(falling, d) for d in reversed(depths)} == oracle


def test_each_string_is_evaluated_once_per_test_object():
    calls = Counter()
    leading_zeros = registered_tests()["leading-zeros"].evaluate

    def evaluate(b):
        calls[b] += 1
        return leading_zeros(b)

    t = Sense1Test("counted", evaluate, lambda m: m)
    conv = sense1_to_sense2(t, 10)
    validate_sense1(t, 3, 4)
    for n in range(6):
        conv.enumerate(n, 10)
        chain(conv).enumerate(n, 7)
    validate_sense1(t, 8, 9)
    universal_test([conv], 2, 10)
    ml_to_kc_decoder(conv, 3, 10, install=False)
    assert set(calls) == set(all_strings(10))
    assert max(calls.values()) == 1


def test_importing_randlab_evaluates_nothing():
    # a fresh interpreter: this process has long since filled its tables
    code = textwrap.dedent(
        """
        import sys
        names = {"_leading_zeros", "_even_position_ones", "_zeros_after_111", "_count_101", "_event"}
        seen = []
        sys.setprofile(
            lambda frame, event, arg: event == "call"
            and frame.f_code.co_name in names
            and seen.append(frame.f_code.co_name)
        )
        import randlab, randlab.cli
        sys.setprofile(None)
        print(seen, [len(t._levels) for t in randlab.registered_tests().values()])
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(randlab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout == "[] [0, 0, 0, 0]\n"


def diagonal_oracle(t):
    """Oracle: the round trip sense2_to_sense1(sense1_to_sense2(t)) in closed
    form.  b lies in the level-(|b|+1) cover at depth |b| exactly when its
    level exceeds |b| + 1."""
    return Sense1Test(
        f"{t.name}.sense2.sense1",
        lambda b: len(b) if (v := t.evaluate(b)) is not None and v > len(b) + 1 else None,
        lambda m: None,
    )


@pytest.mark.parametrize("name", sorted(registered_tests()))
def test_round_trip_at_depth_12_matches_the_closed_form(name):
    t = registered_tests()[name]
    back = sense2_to_sense1(sense1_to_sense2(t, 12))
    assert validate_sense1(back, 3, 12) == slow_validate_sense1(diagonal_oracle(t), 3, 12)


def full_scan_event(t, least, d, levels):
    """Oracle: _event as it was, scanning every rank below 2^(d+1) - 1 of
    its own rank-indexed table on every call."""
    size = (1 << max(d + 1, 0)) - 1
    if len(levels) < size:
        levels.extend(map(t.evaluate, islice(all_strings(d), len(levels), None)))
    return [index_to_string(r) for r in range(size) if (v := levels[r]) is not None and v >= least]


EVENT_FIXTURES = {
    **registered_tests(),
    # negative levels and undefined strings: -1 must not read as undefined
    "neg": Sense1Test("neg", lambda b: -len(b) if b.endswith("1") else None, lambda m: m),
}
EVENT_GRID = [(least, d) for d in range(-1, 17) for least in range(-20, 21)]


@pytest.fixture(scope="module")
def event_oracle():
    """For each fixture, (least, d) -> a digest of the full-scan event."""
    oracle = {}
    for name, t in EVENT_FIXTURES.items():
        levels: list = []
        for least, d in EVENT_GRID:
            oracle[name, least, d] = digest(full_scan_event(t, least, d, levels))
    return oracle


def digest(strings):
    return len(strings), hashlib.sha256("\n".join(strings).encode()).hexdigest()


@pytest.mark.parametrize("order", ["rising", "falling"])
@pytest.mark.parametrize("name", sorted(EVENT_FIXTURES))
def test_event_matches_the_full_scan(name, order, event_oracle):
    t = fresh(EVENT_FIXTURES[name])
    grid = EVENT_GRID if order == "rising" else EVENT_GRID[::-1]
    assert {(least, d): digest(_event(t, least, d)) for least, d in grid} == {
        (least, d): event_oracle[name, least, d] for least, d in grid
    }


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(asks=st.lists(st.sampled_from(EVENT_GRID), min_size=1, max_size=12), data=st.data())
def test_event_matches_the_full_scan_in_any_order(asks, data, event_oracle):
    name = data.draw(st.sampled_from(sorted(EVENT_FIXTURES)))
    t = fresh(EVENT_FIXTURES[name])
    for least, d in asks:
        assert digest(_event(t, least, d)) == event_oracle[name, least, d], (least, d)


def test_negative_levels_are_defined_levels():
    t = fresh(EVENT_FIXTURES["neg"])
    assert sense1_to_sense2(t, 4).enumerate(-3, 4) == {"1", "01", "11"}


class CountingList(list):
    def __init__(self):
        super().__init__()
        self.reads = 0

    def __getitem__(self, r):
        self.reads += 1
        return super().__getitem__(r)


def test_a_warm_event_spells_only_what_it_returns(monkeypatch):
    spelled = Counter()

    def counting(r):
        spelled["calls"] += 1
        return index_to_string(r)

    t = fresh(registered_tests()["leading-zeros"])
    object.__setattr__(t, "_levels", CountingList())
    _event(t, 0, 16)
    monkeypatch.setattr(mltest, "index_to_string", counting)
    for least, d in [(17, 16), (16, 16), (9, 16), (3, 5), (0, 2), (-1, -1), (20, 0)]:
        spelled.clear()
        t._levels.reads = 0
        event = _event(t, least, d)
        assert spelled["calls"] == len(event)
        # one bisection per length, never a scan of the table
        assert t._levels.reads <= max(d + 1, 0) * 17, (least, d)


def test_extending_a_table_spells_only_the_lengths_it_lacks(monkeypatch):
    # it once re-spelled every shorter string to skip it: 722,997 strings
    # on ml-battery's seed-0 ops outside the CLI, against 491,515 now
    spelled = Counter()
    real = mltest._spell

    def counting(width, head=""):
        for b in real(width, head):
            spelled["strings"] += 1
            yield b

    monkeypatch.setattr(mltest, "_spell", counting)
    for a, b in [(-1, -1), (-1, 0), (-1, 12), (0, 1), (3, 9), (9, 15), (14, 14), (14, 6)]:
        t = fresh(registered_tests()["leading-zeros"])
        _event(t, 0, a)
        spelled.clear()
        _event(t, 0, b)
        assert spelled["strings"] == max((1 << (b + 1)) - (1 << (a + 1)), 0), (a, b)
        assert len(t._levels) == (1 << (max(a, b) + 1)) - 1


def test_level_zero_is_one_shared_set_per_depth():
    t = registered_tests()["even-ones"]
    first = sense1_to_sense2(t, 14).enumerate(0, 14)
    assert first == frozenset(all_strings(14))
    assert sense1_to_sense2(fresh(t), 14).enumerate(0, 14) is first
    assert sense1_to_sense2(t, 13).enumerate(0, 14) == frozenset(all_strings(13))
    again = sense1_to_sense2(t, 14).enumerate(0, 14)
    assert again == first and again is not first


def test_registered_tests_are_the_same_objects_on_every_call():
    assert all(a is b for a, b in zip(builtin_tests(), builtin_tests()))
    tests = registered_tests()
    assert all(tests[t.name] is t for t in builtin_tests())
    assert registered_tests()["count101"] is tests["count101"]
    # the table is invisible to construction, equality and repr
    t = tests["leading-zeros"]
    validate_sense1(t, 2, 4)
    assert fresh(t) == t and hash(fresh(t)) == hash(t) and repr(fresh(t)) == repr(t)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_keeps_valid_levels_intact():
    conv = sense1_to_sense2(by_name(builtin_tests())["leading-zeros"])
    norm = normalize(conv)
    for n in range(5):
        for depth in (4, 7, 10):
            assert norm.enumerate(n, depth) == conv.enumerate(n, depth)


def test_normalize_is_idempotent():
    conv = sense1_to_sense2(registered_tests()["count101"])
    once = normalize(conv)
    twice = normalize(once)
    assert twice.enumerate(1, 12) == once.enumerate(1, 12)


def test_normalize_truncates_the_count101_conversion():
    conv = sense1_to_sense2(registered_tests()["count101"])
    raw = conv.enumerate(1, 15)
    assert as_fraction(cover_measure(raw)) == Fraction(8217, 16384)  # > 1/2
    admitted = normalize(conv).enumerate(1, 15)
    assert admitted < raw
    # single-leaf members are available all the way down, so the greedy
    # admission lands exactly on the allowance
    assert cover_measure(admitted) == Dyadic(1, 1)


def test_normalize_with_no_allowance_is_empty():
    wide = Sense2Test("wide", lambda n, d: frozenset(all_strings(d)))
    assert normalize(wide).enumerate(5, 3) == frozenset()
    empty = Sense2Test("empty", lambda n, d: frozenset())
    assert normalize(empty).enumerate(2, 6) == frozenset()


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def test_chain_reduces_nested_levels_to_minimal_antichains():
    conv = sense1_to_sense2(by_name(builtin_tests())["leading-zeros"])
    linked = chain(conv)
    # levels 1..n are nested above level n, whose union is the 0^(n+1)
    # cylinder; level 0 is the full space
    for n in range(4):
        assert linked.enumerate(n, 6) == ({"0" * (n + 1)} if n else {""})


def test_chain_matches_brute_leaf_intersection():
    rng = random.Random(1409)
    pool = [b for b in all_strings(6) if b]
    for _ in range(20):
        levels = {
            0: frozenset(rng.sample(pool, 12)),
            1: frozenset(rng.sample(pool, 8)),
            2: frozenset(rng.sample(pool, 5)),
        }
        f = Sense2Test("rand", lambda n, d, lv=levels: lv.get(n, frozenset()))
        got = chain(f).enumerate(2, 6)
        assert is_prefix_free(got)
        expected = (
            leaves_below(levels[0], 6)
            & leaves_below(levels[1], 6)
            & leaves_below(levels[2], 6)
        )
        assert leaves_below(got, 6) == expected


@pytest.mark.parametrize("depth", [-1, -2, -5])
def test_chain_at_negative_depth_is_empty(depth):
    linked = chain(sense1_to_sense2(registered_tests()["leading-zeros"]))
    assert linked.enumerate(0, depth) == frozenset()
    assert linked.enumerate(3, depth) == frozenset()


def test_chain_refuses_a_negative_level():
    linked = chain(sense1_to_sense2(registered_tests()["leading-zeros"]))
    with pytest.raises(ValueError, match="-1"):
        linked.enumerate(-1, 6)


def test_mask_of_minimal_members_equals_the_or_of_every_segment():
    rng = random.Random(2207)
    pool = list(all_strings(7))
    for _ in range(200):
        members = rng.sample(pool, rng.randrange(0, 30))
        naive = reduce(or_, (_segment(b, 7) for b in members), 0)
        assert _mask(members, 7) == naive
    assert _mask(pool, 7) == _segment("", 7) == (1 << 128) - 1


class WholeSpace(frozenset):
    """A cover holding "" that fails if anyone iterates it."""

    def __iter__(self):
        raise AssertionError("a cover holding '' was scanned")


def test_chain_neither_sorts_nor_scans_a_level_holding_the_empty_string():
    # such a level is the whole space at every depth, even with members
    # deeper than the asked depth, so the other levels alone decide
    covers = [
        WholeSpace(["", "0101010101", "1"]),
        frozenset(["01", "10", "110"]),
        WholeSpace(["", "0"]),
    ]
    linked = chain(Sense2Test("covers", lambda n, d: covers[n]))
    assert linked.enumerate(0, 3) == {""}
    assert linked.enumerate(1, 3) == linked.enumerate(2, 3) == {"01", "10", "110"}


def test_chain_measures_descend():
    conv = sense1_to_sense2(registered_tests()["count101"])
    linked = chain(conv)
    measures = [cover_measure(linked.enumerate(n, 10)) for n in range(4)]
    assert all(a >= b for a, b in zip(measures, measures[1:]))


# ---------------------------------------------------------------------------
# the finite-battery universal test
# ---------------------------------------------------------------------------


def battery3():
    return [sense1_to_sense2(t, depth=13) for t in builtin_tests()]


@pytest.mark.parametrize("n", [0, 2, 4])
def test_universal_mass_is_the_exact_telescoped_sum(n):
    cover = universal_test(battery3(), n, depth=13)
    # member i contributes its strict level-(n+i) event: the 0^(n+2)
    # cylinder, the (n+3)-ones comb, and the 111 0^(n+4) block; pairwise
    # disjoint, so the union weighs exactly the sum
    expected = (
        Fraction(1, 2 ** (n + 2))
        + Fraction(1, 2 ** (n + 3))
        + Fraction(1, 2 ** (n + 7))
    )
    assert as_fraction(cover_measure(cover)) == expected
    assert as_fraction(cover_measure(cover)) <= Fraction(1, 2**n)


@pytest.mark.parametrize("n", [1, 3])
def test_universal_test_dominates_its_battery(n):
    battery = battery3()
    cover = universal_test(battery, n, depth=13)
    for i, member in enumerate(battery, start=1):
        assert normalize(member).enumerate(n + i, 13) <= cover


def test_universal_test_positions_are_one_based():
    conv = sense1_to_sense2(by_name(builtin_tests())["leading-zeros"])
    assert universal_test([conv], 2, depth=10) == normalize(conv).enumerate(3, 10)
    assert universal_test([], 3) == frozenset()


# ---------------------------------------------------------------------------
# bridges to complexity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 2, 4])
def test_compression_test_is_empty_at_desk_scale(k):
    # every budgeted witness at these limits is at least as long as its
    # output, so no string undercuts its own length
    assert compression_test(k, depth=10) == frozenset()


def test_compression_test_matches_the_prefix_k_oracle():
    # short codewords for long outputs make the cover nonempty
    install_code_table({"00": "0" * 9, "010": "1" * 10, "1": "0110"})
    for k in range(6):
        for depth in (3, 9, 10):
            expected = frozenset(
                b
                for b in all_strings(depth)
                if (bound := prefix_k(b, 13, BIG)) is not None
                and bound.value <= len(b) - k
            )
            assert compression_test(k, 13, BIG, depth) == expected
    assert compression_test(2, 13, BIG, 10) == {"0" * 9, "1" * 10}
    assert compression_test(2, 13, BIG, 9) == {"0" * 9}


def test_bridge_fixture_for_converted_leading_zeros():
    conv = sense1_to_sense2(by_name(builtin_tests())["leading-zeros"], depth=8)
    result = ml_to_kc_decoder(conv, 2, depth=8, install=False)
    assert result.triples == ((2, 1, "000"), (3, 2, "00000"))
    assert result.decoder == (("00", "000"), ("010", "00000"))
    assert result.coded_mass == Dyadic(3, 3)
    assert result.excluded == ()
    assert result.dispatch_constant == 5
    assert is_prefix_free([cw for cw, _ in result.decoder])
    assert current_code_table() == {}


def test_bridge_install_makes_the_bounds_executable():
    # before installing, the cheapest routes are echo and pad-over-echo
    assert prefix_k("000", 13, BIG).value == 11
    assert prefix_k("00000", 13, BIG).value == 13
    assert prefix_k("00000", 13, BIG).witness == "1011101110000"

    baseline = registry_fingerprint()
    conv = sense1_to_sense2(by_name(builtin_tests())["leading-zeros"], depth=8)
    result = ml_to_kc_decoder(conv, 2, depth=8)
    assert current_code_table() == {"00": "000", "010": "00000"}
    assert registry_fingerprint() != baseline

    for codeword, target in result.decoder:
        program = "1" * 4 + "0" + codeword
        n = next(n for _, n, b in result.triples if b == target)
        assert len(program) == len(target) - n + result.dispatch_constant
        outcome = prefix_universal_run(program, BIG)
        assert (outcome.status, outcome.output) == ("halted", target)

    assert prefix_k("000", 13, BIG).value == 7
    assert prefix_k("00000", 13, BIG).value == 8
    assert prefix_k("00000", 13, BIG).witness == "11110010"
    clear_code_table()
    assert registry_fingerprint() == baseline
    assert prefix_k("000", 13, BIG).value == 11


def test_bridge_mass_overflow_is_reported_exactly():
    f = Sense2Test(
        "heavy",
        lambda n, d: frozenset({"00", "01", "10", "11"}) if n == 2 else frozenset(),
    )
    with pytest.raises(BridgeMassError) as err:
        ml_to_kc_decoder(f, 1, install=False)
    assert err.value.mass == Dyadic(2, 0)


def freeizing_ml_to_kc_decoder(g, n_max, depth):
    """Oracle: the bridge as first written, admitting each slice in
    length-lex order through prefix_freeize and sorting the antichain."""
    triples, excluded = [], []
    for n in range(1, n_max + 1):
        slice_ = sorted(g.enumerate(2 * n, depth), key=lambda b: (len(b), b))
        for b in sorted(prefix_freeize(slice_)):
            if len(b) < n:
                excluded.append((n, b))
            else:
                triples.append((len(b) - n, n, b))
    triples.sort()
    mass = sum((Dyadic(1, ell) for ell, _, _ in triples), DYADIC_ZERO)
    if mass > DYADIC_ONE:
        raise BridgeMassError(mass)
    codewords = kraft_code([ell for ell, _, _ in triples])
    decoder = tuple(zip(codewords, [b for _, _, b in triples]))
    return BridgeResult(tuple(triples), decoder, mass, tuple(excluded), 5)


def bridge_outcome(bridge, g, n_max, depth):
    try:
        return bridge(g, n_max, depth)
    except BridgeMassError as err:
        return ("overflow", err.mass)


def test_bridge_matches_the_freeizing_oracle():
    # 4 registered tests x 3 depths x 3 forms x n_max 0..3 = 144 cases
    outcomes = Counter()
    for t in registered_tests().values():
        for depth in (4, 8, 12):
            raw = sense1_to_sense2(t, depth)
            for g in (raw, normalize(raw), chain(raw)):
                for n_max in range(4):
                    got = bridge_outcome(
                        lambda *a: ml_to_kc_decoder(*a, install=False), g, n_max, depth
                    )
                    assert got == bridge_outcome(freeizing_ml_to_kc_decoder, g, n_max, depth)
                    outcomes[type(got).__name__] += 1
    assert outcomes == Counter({"BridgeResult": 144})
    # random slices, most of them far too heavy for a valid test
    rng = random.Random(2012)
    for _ in range(300):
        levels = {
            n: frozenset(
                "".join(rng.choice("01") for _ in range(rng.randint(0, 7)))
                for _ in range(rng.randint(0, 12))
            )
            for n in (2, 4, 6)
        }
        g = Sense2Test("random", lambda n, d, levels=levels: levels.get(n, frozenset()))
        n_max = rng.randint(0, 3)
        got = bridge_outcome(lambda *a: ml_to_kc_decoder(*a, install=False), g, n_max, 8)
        assert got == bridge_outcome(freeizing_ml_to_kc_decoder, g, n_max, 8)
        outcomes[type(got).__name__] += 1
    assert outcomes["tuple"] > 50 and outcomes["BridgeResult"] > 194
    assert current_code_table() == {}


def test_bridge_excludes_targets_shorter_than_their_slice():
    f = Sense2Test(
        "short",
        lambda n, d: frozenset({"0"}) if n == 4 else frozenset(),
    )
    result = ml_to_kc_decoder(f, 2, install=False)
    assert result.triples == ()
    assert result.excluded == ((2, "0"),)
    assert result.coded_mass == DYADIC_ZERO


def test_bridge_of_empty_test_clears_nothing():
    f = Sense2Test("void", lambda n, d: frozenset())
    result = ml_to_kc_decoder(f, 3)
    assert result.triples == ()
    assert result.decoder == ()
    assert current_code_table() == {}


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def test_score_of_the_all_zeros_subject():
    report = score("0" * 12)
    assert dict(report.levels) == {
        "leading-zeros": 12,
        "even-ones": 0,
        "zeros-after-111": 0,
    }
    assert dict(report.verdicts) == {
        "leading-zeros": "fail-at-depth",
        "even-ones": "pass-at-depth",
        "zeros-after-111": "pass-at-depth",
    }
    assert report.compression_deficiency == -1


def test_score_of_epsilon_is_indeterminate():
    report = score("")
    assert all(level == 0 for _, level in report.levels)
    assert all(v == "indeterminate" for _, v in report.verdicts)
    assert report.compression_deficiency == -1


def test_score_accepts_a_custom_battery():
    t = Sense1Test("ones", lambda b: len(b) if b and "0" not in b else None, lambda m: m)
    report = score("111", battery=[t])
    assert report.levels == (("ones", 3),)
    assert report.verdicts == (("ones", "fail-at-depth"),)
    assert report.budget == 100_000 and report.len_limit == 13 and report.depth == 15
