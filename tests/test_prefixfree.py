"""Antichain algebra: freeization, exact measures, leftmost Kraft coding."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randlab.bitstr import Dyadic
from randlab.prefixfree import (
    KraftOverflowError,
    _minimal,
    cover_measure,
    is_prefix_free,
    kraft_code,
    kraft_sum,
    prefix_freeize,
)

ORACLE_DEPTH = 12


def leaf_count_measure(strings: set[str] | frozenset[str]) -> Fraction:
    """Oracle: measure by counting covered depth-12 leaves, via Fraction."""
    leaves: set[int] = set()
    for s in strings:
        assert len(s) <= ORACLE_DEPTH
        start = (int(s, 2) if s else 0) << (ORACLE_DEPTH - len(s))
        leaves.update(range(start, start + 2 ** (ORACLE_DEPTH - len(s))))
    return Fraction(len(leaves), 2**ORACLE_DEPTH)


def random_antichain(rng: random.Random, max_depth: int = ORACLE_DEPTH) -> set[str]:
    """Carve an antichain out of the binary tree by stopping at random nodes."""
    members: set[str] = set()

    def walk(prefix: str) -> None:
        if len(prefix) == max_depth or rng.random() < 0.3:
            if rng.random() < 0.8:
                members.add(prefix)
            return
        for bit in "01":
            if rng.random() < 0.75:
                walk(prefix + bit)

    walk("")
    return members


def random_string_set(rng: random.Random, max_depth: int = ORACLE_DEPTH) -> list[str]:
    size = rng.randrange(0, 24)
    return [
        "".join(rng.choice("01") for _ in range(rng.randrange(0, max_depth + 1)))
        for _ in range(size)
    ]


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2**d.scale)


def length_lex(strings) -> list[str]:
    return sorted(set(strings), key=lambda b: (len(b), b))


def expanding_freeize(strings) -> frozenset[str]:
    """Oracle: the original freeize, which expands a newcomer below existing
    members into its whole uncovered slice at the current maximum depth."""
    antichain: set[str] = set()
    above = Counter()  # proper prefix -> number of members extending it
    max_len = 0

    def expand(p: str) -> int:
        if p in antichain:
            return 0
        if len(p) == max_len:
            antichain.add(p)
            return 1
        added = expand(p + "0") + expand(p + "1")
        if added:
            above[p] += added
        return added

    for s in strings:
        if any(s[:i] in antichain for i in range(len(s) + 1)):
            continue
        if not above[s]:
            antichain.add(s)
            max_len = max(max_len, len(s))
            for i in range(len(s)):
                above[s[:i]] += 1
            continue
        added = expand(s)
        for i in range(len(s)):
            above[s[:i]] += added
    return frozenset(antichain)


def expanding_cover_measure(strings) -> Dyadic:
    """Oracle: the original cover measure, via the freeize of the canonical order."""
    return kraft_sum(expanding_freeize(length_lex(strings)))


bit_strings = st.text(alphabet="01", max_size=ORACLE_DEPTH)


# ---------------------------------------------------------------------------
# membership tests and sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "strings,expected",
    [
        ({"0", "1"}, True),
        ({"0", "01"}, False),
        ({"0", "100", "101"}, True),
        (set(), True),
        ({""}, True),
        ({"", "1"}, False),
    ],
)
def test_is_prefix_free_examples(strings: set[str], expected: bool) -> None:
    assert is_prefix_free(strings) is expected


def test_minimal_keeps_exactly_the_members_without_a_proper_prefix() -> None:
    # the one sorted sweep behind is_prefix_free, cover_measure and the
    # leaf masks of mltest, against the definition
    rng = random.Random(1311)
    pool = [format(i, f"0{n}b") if n else "" for n in range(7) for i in range(1 << n)]
    for _ in range(300):
        members = rng.choices(pool, k=rng.randrange(0, 25))  # with repeats
        unique = set(members)
        expected = sorted(b for b in unique if not any(b[:i] in unique for i in range(len(b))))
        assert _minimal(members) == expected
        pairwise = not any(a != b and b.startswith(a) for a in unique for b in unique)
        assert is_prefix_free(iter(members)) is pairwise
    with pytest.raises(ValueError):
        _minimal(["0", "2"])


@pytest.mark.parametrize(
    "strings,num,scale",
    [
        ({""}, 1, 0),
        ({"0", "10", "11"}, 1, 0),
        ({"0", "01"}, 3, 2),
        (set(), 0, 0),
    ],
)
def test_kraft_sum_examples(strings: set[str], num: int, scale: int) -> None:
    assert kraft_sum(strings) == Dyadic(num, scale)


def test_kraft_sum_ignores_duplicates() -> None:
    assert kraft_sum(["0", "0", "11", "11"]) == kraft_sum({"0", "11"})


# ---------------------------------------------------------------------------
# prefix_freeize
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "stream,expected",
    [
        (["01", "0"], {"01", "00"}),
        (["0", "01"], {"0"}),
        ([], set()),
        (["1", "1", "1"], {"1"}),
        (["0", "1", ""], {"0", "1"}),
        (["0101", ""], {"00", "0100", "0101", "011", "1"}),
        # the slice at the current maximum depth would hold 2^12 members
        (["0" * 12, ""], {"0" * 12} | {"0" * i + "1" for i in range(12)}),
    ],
)
def test_prefix_freeize_examples(stream: list[str], expected: set[str]) -> None:
    assert prefix_freeize(stream) == frozenset(expected)


def test_prefix_freeize_properties() -> None:
    rng = random.Random(40961)
    for _ in range(400):
        stream = random_string_set(rng, max_depth=8)
        result = prefix_freeize(stream)
        assert is_prefix_free(result)
        # covers exactly the same ground as the raw stream, with no more
        # members than the expansion to the maximum depth
        assert leaf_count_measure(result) == leaf_count_measure(set(stream))
        assert len(result) <= len(expanding_freeize(stream))
        # antichains pass through untouched
        assert prefix_freeize(sorted(result, key=lambda b: (len(b), b))) == result
        # duplication of the input never matters
        assert prefix_freeize(stream + stream) == result


def test_prefix_freeize_has_no_recursion_limit() -> None:
    deep = "0" * 5000
    result = prefix_freeize([deep, ""])
    assert result == {deep} | {"0" * i + "1" for i in range(5000)}


def test_prefix_freeize_matches_expanding_oracle_on_length_lex_input() -> None:
    rng = random.Random(6151)
    for _ in range(400):
        stream = length_lex(random_string_set(rng))
        assert prefix_freeize(stream) == expanding_freeize(stream)


@settings(derandomize=True, max_examples=300, database=None)
@given(st.lists(bit_strings, max_size=16))
def test_prefix_freeize_property(stream: list[str]) -> None:
    result = prefix_freeize(stream)
    assert is_prefix_free(result)
    assert leaf_count_measure(result) == leaf_count_measure(set(stream))
    assert prefix_freeize(stream + stream) == result


def test_prefix_freeize_cover_is_pointwise() -> None:
    # each covered leaf stays covered, each uncovered leaf stays uncovered
    rng = random.Random(77)
    for _ in range(100):
        stream = random_string_set(rng, max_depth=6)
        result = prefix_freeize(stream)
        for leaf in range(2**6):
            x = bin(leaf)[2:].rjust(6, "0")
            in_stream = any(x.startswith(s) for s in stream)
            in_result = any(x.startswith(s) for s in result)
            assert in_stream == in_result


# ---------------------------------------------------------------------------
# cover_measure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "strings,num,scale",
    [
        ({"0", "00"}, 1, 1),
        ({"0", "1"}, 1, 0),
        ({"00", "01"}, 1, 1),
        (set(), 0, 0),
        ({""}, 1, 0),
    ],
)
def test_cover_measure_examples(strings: set[str], num: int, scale: int) -> None:
    assert cover_measure(strings) == Dyadic(num, scale)


def test_cover_measure_matches_leaf_oracle() -> None:
    rng = random.Random(2025)
    for _ in range(400):
        strings = set(random_string_set(rng))
        assert as_fraction(cover_measure(strings)) == leaf_count_measure(strings)
        assert cover_measure(strings) == expanding_cover_measure(strings)


def test_cover_measure_matches_expanding_oracle_on_large_sets() -> None:
    # sets shaped like the benchmark's: 1..400 strings of length 0..20
    rng = random.Random(4711)
    for _ in range(800):
        strings = [
            "".join(rng.choice("01") for _ in range(rng.randint(0, 20)))
            for _ in range(rng.randint(1, 400))
        ]
        assert cover_measure(strings) == expanding_cover_measure(strings)


@settings(derandomize=True, max_examples=300, database=None)
@given(st.lists(bit_strings, max_size=24))
def test_cover_measure_property(strings: list[str]) -> None:
    assert as_fraction(cover_measure(strings)) == leaf_count_measure(set(strings))


def test_covered_strings_are_still_checked() -> None:
    for call in (prefix_freeize, cover_measure):
        with pytest.raises(ValueError):
            call(["0", "0x"])


def test_cover_measure_of_antichain_is_kraft_sum() -> None:
    rng = random.Random(31337)
    for _ in range(200):
        antichain = random_antichain(rng)
        assert cover_measure(antichain) == kraft_sum(antichain)
        assert kraft_sum(antichain) <= Dyadic(1)


# ---------------------------------------------------------------------------
# kraft_code
# ---------------------------------------------------------------------------


def test_kraft_code_examples() -> None:
    assert kraft_code([1, 2, 2]) == ["0", "10", "11"]
    assert kraft_code([]) == []
    assert kraft_code([0]) == [""]
    with pytest.raises(KraftOverflowError) as err:
        kraft_code([1, 1, 1])
    assert err.value.index == 2
    # after "00" the pointer sits at 1/4; length 1 aligns it up to 1/2
    assert kraft_code([2, 1]) == ["00", "1"]
    # refused although 1/8 + 1/2 + 1/4 = 7/8 fits: "000" and "1" leave no
    # aligned length-2 interval at or after the pointer
    with pytest.raises(KraftOverflowError) as err:
        kraft_code([3, 1, 2])
    assert (err.value.index, err.value.length) == (2, 2)
    with pytest.raises(ValueError, match="negative codeword length at index 1"):
        kraft_code([1, -1])


def leftmost_aligned_code(lengths: list[int]) -> tuple[list[str], int | None]:
    """Oracle: the codewords of the leftmost aligned intervals, by Fraction
    arithmetic, and the index that no longer fits below 1 (or None)."""
    pointer, code = Fraction(0), []
    for index, n in enumerate(lengths):
        start = -(-pointer * 2**n // 1)  # ceil(pointer * 2^n)
        if start + 1 > 2**n:
            return code, index
        code.append(format(start, "b").rjust(n, "0") if n else "")
        pointer = Fraction(start + 1, 2**n)
    return code, None


@settings(derandomize=True, max_examples=400, database=None)
@given(st.lists(st.integers(0, 10), max_size=40))
def test_kraft_code_matches_the_leftmost_aligned_interval_model(lengths) -> None:
    code, refused = leftmost_aligned_code(lengths)
    if refused is None:
        assert kraft_code(lengths) == code
    else:
        with pytest.raises(KraftOverflowError) as err:
            kraft_code(lengths)
        assert (err.value.index, err.value.length) == (refused, lengths[refused])
        assert kraft_code(lengths[:refused]) == code


def test_kraft_code_rejects_after_full_cover() -> None:
    with pytest.raises(KraftOverflowError) as err:
        kraft_code([0, 5])
    assert err.value.index == 1


def test_kraft_code_on_sorted_antichain_lengths() -> None:
    # lengths harvested from an antichain, sorted, must be accepted and
    # reproduce an antichain of identical Kraft mass
    rng = random.Random(555)
    for _ in range(300):
        antichain = random_antichain(rng)
        lengths = sorted(len(b) for b in antichain)
        code = kraft_code(lengths)
        assert [len(c) for c in code] == lengths
        assert is_prefix_free(code)
        assert len(set(code)) == len(code)
        assert kraft_sum(code) == kraft_sum(antichain)


@settings(derandomize=True, max_examples=400, database=None)
@given(st.lists(st.integers(0, 10), max_size=40))
def test_kraft_code_accepts_a_sorted_stream_iff_it_fits(lengths) -> None:
    lengths.sort()
    fits = sum(Fraction(1, 2**n) for n in lengths) <= 1
    try:
        code = kraft_code(lengths)
    except KraftOverflowError:
        assert not fits
    else:
        assert fits
        assert [len(c) for c in code] == lengths
        assert is_prefix_free(code) and len(set(code)) == len(code)


def test_kraft_code_overflow_on_infeasible_sorted_lengths() -> None:
    rng = random.Random(808)
    for _ in range(200):
        lengths = sorted(rng.randrange(0, 8) for _ in range(rng.randrange(1, 40)))
        feasible = sum(Fraction(1, 2**n) for n in lengths) <= 1
        try:
            code = kraft_code(lengths)
        except KraftOverflowError:
            assert not feasible
        else:
            assert feasible
            assert is_prefix_free(code)
