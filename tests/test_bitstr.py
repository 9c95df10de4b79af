"""Enumeration, prefix order, and exact dyadic conversions."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randlab.bitstr import (
    Dyadic,
    DYADIC_ONE,
    DYADIC_ZERO,
    _spell,
    all_strings,
    bits_of,
    index_to_string,
    is_prefix,
    parse_dyadic,
    string_to_index,
    value_of,
)


def brute_force_enumeration(count: int) -> list[str]:
    """Oracle: generate strings by length, lexicographic within a length."""
    out: list[str] = []
    length = 0
    while len(out) < count:
        if length == 0:
            out.append("")
        else:
            out.extend("".join(bits) for bits in product("01", repeat=length))
        length += 1
    return out[:count]


def fraction_value(b: str) -> Fraction:
    """Oracle: digit-weighted sum with exact rational arithmetic."""
    return sum((Fraction(int(bit), 2 ** (i + 1)) for i, bit in enumerate(b)), Fraction(0))


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2**d.scale)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_matches_brute_force_prefix() -> None:
    oracle = brute_force_enumeration(2**12)
    assert [index_to_string(m) for m in range(2**12)] == oracle


@pytest.mark.parametrize(
    "index,string",
    [(0, ""), (1, "0"), (2, "1"), (3, "00"), (6, "11"), (7, "000")],
)
def test_enumeration_fixed_points(index: int, string: str) -> None:
    assert index_to_string(index) == string
    assert string_to_index(string) == index


def test_round_trip_and_length_bound() -> None:
    for m in range(2**16):
        s = index_to_string(m)
        assert string_to_index(s) == m
        # |s| <= log2(m + 1), checked without floats
        assert 2 ** len(s) <= m + 1


def test_all_strings_is_the_enumeration_prefix() -> None:
    # lengths past 8 join a high part to the 8-bit low table
    for max_len in range(-3, 18):
        expected = (index_to_string(m) for m in range((1 << max(max_len + 1, 0)) - 1))
        assert all(a == b for a, b in zip_longest(all_strings(max_len), expected)), max_len


def test_spell_yields_every_string_of_its_width_in_order() -> None:
    for width in range(21):
        expected = map("".join, product("01", repeat=width))
        assert all(a == b for a, b in zip_longest(_spell(width), expected)), width
    assert list(_spell(3, "10")) == ["10" + "".join(t) for t in product("01", repeat=3)]


def test_spell_is_lazy_at_any_width() -> None:
    # 2^60 strings: only a generator that spells a high part at a time returns
    first = list(islice(_spell(60, "1"), 300))
    assert first == ["1" + format(m, "060b") for m in range(300)]


@pytest.mark.parametrize("max_len", [-1, -2, -3, -64])
def test_all_strings_is_empty_below_zero(max_len: int) -> None:
    assert list(all_strings(max_len)) == []


def test_enumeration_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        index_to_string(-1)
    with pytest.raises(ValueError):
        string_to_index("012")


# ---------------------------------------------------------------------------
# prefix order
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,expected",
    [("", "011", True), ("01", "011", True), ("11", "011", False), ("011", "01", False)],
)
def test_is_prefix_examples(a: str, b: str, expected: bool) -> None:
    assert is_prefix(a, b) is expected


def test_is_prefix_is_a_partial_order() -> None:
    strings = list(all_strings(5))
    rng = random.Random(5742)
    for _ in range(2000):
        a, b, c = (rng.choice(strings) for _ in range(3))
        assert is_prefix(a, a)
        if is_prefix(a, b) and is_prefix(b, a):
            assert a == b
        if is_prefix(a, b) and is_prefix(b, c):
            assert is_prefix(a, c)


# ---------------------------------------------------------------------------
# dyadic arithmetic
# ---------------------------------------------------------------------------


def test_dyadic_canonical_form() -> None:
    assert Dyadic(6, 4) == Dyadic(3, 3)
    assert Dyadic(0, 9) == DYADIC_ZERO
    assert Dyadic(0, 9).scale == 0
    assert Dyadic(8, 3) == DYADIC_ONE


def test_dyadic_arithmetic_against_fraction_oracle() -> None:
    rng = random.Random(90125)
    for _ in range(3000):
        a = Dyadic(rng.randrange(0, 2**10), rng.randrange(0, 12))
        b = Dyadic(rng.randrange(0, 2**10), rng.randrange(0, 12))
        assert as_fraction(a + b) == as_fraction(a) + as_fraction(b)
        if as_fraction(a) >= as_fraction(b):
            assert as_fraction(a - b) == as_fraction(a) - as_fraction(b)
        assert (a < b) == (as_fraction(a) < as_fraction(b))
        assert (a <= b) == (as_fraction(a) <= as_fraction(b))
        assert (a == b) == (as_fraction(a) == as_fraction(b))


dyadics = st.builds(Dyadic, st.integers(0, 2**40), st.integers(0, 48))


@settings(derandomize=True, max_examples=400, database=None)
@given(dyadics, dyadics, st.integers(0, 3))
def test_dyadic_properties_against_fraction(a, b, k) -> None:
    fa, fb = as_fraction(a), as_fraction(b)
    assert as_fraction(a + b) == fa + fb
    if fa >= fb:
        assert as_fraction(a - b) == fa - fb
    else:
        with pytest.raises(ValueError):
            a - b
    assert (a < b, a <= b, a > b, a >= b, a == b) == (fa < fb, fa <= fb, fa > fb, fa >= fb, fa == fb)
    assert (a < k, a <= k, a > k, a >= k, a == k) == (fa < k, fa <= k, fa > k, fa >= k, fa == k)
    # an int on the left reaches Dyadic's reflected __gt__, __ge__, __lt__, __le__
    assert (k < a, k <= a, k > a, k >= a, k == a) == (k < fa, k <= fa, k > fa, k >= fa, k == fa)
    # + and - take an int operand as the ordering does
    assert as_fraction(a + k) == fa + k
    if fa >= k:
        assert as_fraction(a - k) == fa - k
    else:
        with pytest.raises(ValueError):
            a - k
    # any other operand is not equal, whatever its spelling
    assert (Dyadic(1) == "1", a == str(a), a != str(a)) == (False, False, True)
    if fa == fb:
        assert (a.num, a.scale, hash(a)) == (b.num, b.scale, hash(b))
    if a == k:
        assert hash(a) == hash(k)
    assert bool(a) == bool(fa)
    # canonical form: an odd numerator, or a whole number over 2^0
    assert a.num % 2 == 1 or a.scale == 0
    assert parse_dyadic(str(a)) == a


def test_whole_dyadics_are_found_as_their_ints() -> None:
    # equal to an int, so a set or dict holding that int must find it
    assert Dyadic(3) == 3 and Dyadic(3) in {3}
    assert {3: "x"}.get(Dyadic(3)) == "x"
    assert Dyadic(6, 1) in {3} and Dyadic(0, 9) in {0}


def test_dyadic_rejects_negatives() -> None:
    with pytest.raises(ValueError):
        Dyadic(-1, 2)
    with pytest.raises(ValueError):
        Dyadic(1, 3) - Dyadic(1, 2)


@pytest.mark.parametrize("parts", [(0.5,), (1, 0.5), (Fraction(1, 2),), ("1",), (1, None)])
def test_dyadic_refuses_parts_that_are_not_integers(parts) -> None:
    with pytest.raises(TypeError):
        Dyadic(*parts)


def test_dyadic_stores_bools_as_ints() -> None:
    assert str(Dyadic(True, 1)) == "1/2"
    assert str(Dyadic(1, True)) == "1/2"
    assert Dyadic(True, 1) == Dyadic(1, 1)
    assert type(Dyadic(True).num) is int and type(Dyadic(2, False).scale) is int


def test_str_spells_a_power_of_two_denominator() -> None:
    assert str(Dyadic(0, 7)) == "0"
    assert str(Dyadic(3)) == "3"
    assert str(Dyadic(3, 2)) == "3/4"
    assert str(Dyadic(45, 6)) == "45/64"
    for num, scale in [(1, 1), (23, 5), (45, 6), (1, 64), (6, 4)]:
        assert parse_dyadic(str(Dyadic(num, scale))) == Dyadic(num, scale)


def test_dyadic_rendering_round_trips() -> None:
    for num, scale in [(0, 0), (1, 0), (1, 3), (45, 6), (7, 2)]:
        d = Dyadic(num, scale)
        assert parse_dyadic(str(d)) == d
    assert str(Dyadic(45, 6)) == "45/64"
    assert Dyadic(45, 6).decimal() == "0.703125"
    assert Dyadic(3, 0).decimal() == "3"
    # exact digits through scale 64, and '' past it
    assert Dyadic(1, 64).decimal() == "0." + str(5**64).rjust(64, "0")
    assert Dyadic(2, 65).decimal() == Dyadic(1, 64).decimal()  # canonical scale 64
    assert Dyadic(1, 65).decimal() == ""
    assert Dyadic(3 * 2**70, 70).decimal() == "3"


def test_parse_dyadic_reads_power_of_two_denominators() -> None:
    assert parse_dyadic("23/32") == Dyadic(23, 5)
    assert parse_dyadic("3/1") == Dyadic(3)
    assert parse_dyadic("4/8") == Dyadic(1, 1)
    for num, scale in [(1, 1), (23, 5), (45, 6), (1, 64)]:
        assert parse_dyadic(f"{num}/{2**scale}") == Dyadic(num, scale)


@pytest.mark.parametrize("text", ["23/24", "1/0", "1/-2", "1/3", "5/2^x", "3/2^2", "45/2^6"])
def test_parse_dyadic_refuses_other_denominators(text: str) -> None:
    with pytest.raises(ValueError):
        parse_dyadic(text)


def test_decimal_has_no_trailing_zeros() -> None:
    # a canonical num is odd, so num * 5**scale never ends in 0
    for scale in range(1, 65):
        for num in (1, 3, 2**scale - 1):
            text = Dyadic(num, scale).decimal()
            assert not text.endswith("0")
            assert Fraction(text) == Fraction(num, 2**scale)


def test_geometric_sum_identity() -> None:
    # sum of 2^i for i < n is 2^n - 1, exactly, through n = 62
    for n in range(63):
        assert sum(2**i for i in range(n)) == 2**n - 1


# ---------------------------------------------------------------------------
# value_of / bits_of
# ---------------------------------------------------------------------------


def test_value_of_matches_fraction_oracle() -> None:
    for b in all_strings(12):
        assert as_fraction(value_of(b)) == fraction_value(b)


@pytest.mark.parametrize(
    "b,num,scale",
    [("", 0, 0), ("1", 1, 1), ("111", 7, 3), ("10", 1, 1), ("000111", 7, 6)],
)
def test_value_of_fixed_points(b: str, num: int, scale: int) -> None:
    assert value_of(b) == Dyadic(num, scale)


@pytest.mark.parametrize(
    "num,scale,n,expected",
    [
        (0, 0, 4, "0000"),
        (1, 3, 6, "000111"),
        (1, 1, 3, "011"),
        (1, 0, 3, "111"),
        (5, 3, 3, "100"),
        (5, 3, 6, "100111"),
    ],
)
def test_bits_of_fixed_points(num: int, scale: int, n: int, expected: str) -> None:
    assert bits_of(Dyadic(num, scale), n) == expected


def test_bits_of_tail_converges_exactly() -> None:
    # truncating at n >= scale loses exactly 2^-n: the 1-tail sums back
    for scale in range(1, 11):
        for num in range(1, 2**scale, 2):
            r = Dyadic(num, scale)
            for n in range(scale, scale + 4):
                approx = value_of(bits_of(r, n))
                assert approx + Dyadic(1, n) == r
                assert approx < r


def test_bits_of_truncation_sandwich() -> None:
    # every truncation is a lower bound within 2^-n, and strict for r > 0
    rng = random.Random(1887)
    for _ in range(2000):
        scale = rng.randrange(0, 12)
        num = rng.randrange(0, 2**scale + 1)
        r = Dyadic(num, scale)
        n = rng.randrange(0, 14)
        approx = value_of(bits_of(r, n))
        assert approx <= r <= approx + Dyadic(1, n)
        if r > DYADIC_ZERO:
            assert approx < r


def test_bits_of_tail_of_ones_shape() -> None:
    # past the scale, the expansion is all ones from position scale onward
    for scale in range(1, 11):
        for num in range(1, 2**scale, 2):
            expansion = bits_of(Dyadic(num, scale), scale + 5)
            assert set(expansion[scale:]) == {"1"}


def test_bits_of_domain_errors() -> None:
    with pytest.raises(ValueError):
        bits_of(Dyadic(3, 1), 4)  # 3/2 > 1
    with pytest.raises(ValueError):
        bits_of(Dyadic(1, 1), -1)


def test_cylinder_extension_sandwich() -> None:
    # one-bit extensions stay inside the parent's cylinder, exhaustively
    for b in all_strings(12):
        lo = value_of(b)
        width = Dyadic(1, len(b))
        for bit in "01":
            v = value_of(b + bit)
            assert lo <= v <= lo + width
