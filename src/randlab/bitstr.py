"""Finite binary strings and exact dyadic rationals.

Binary strings are plain ``str`` values over the alphabet {'0', '1'}; the
empty string stands for the empty sequence.  The module provides the
length-lexicographic enumeration (index 0 is the empty string, then "0",
"1", "00", ...), prefix tests, and the two bridges between strings and
numbers: ``value_of`` reads a string as the dyadic left endpoint of its
cylinder, and ``bits_of`` expands a dyadic rational back into digits.

Expansions of positive dyadic rationals use the tail-of-ones convention:
1/2 expands as 0111..., never as 1000... .  This keeps truncation strict
(``value_of(bits_of(r, n)) < r`` whenever r > 0), which downstream code
relies on when comparing enumerated mass against truncated targets.

All arithmetic is exact; nothing in this module (or its callers) asserts
anything through floats.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import total_ordering
from itertools import chain
from typing import Iterator

__all__ = [
    "Dyadic", "DYADIC_ZERO", "DYADIC_ONE", "parse_dyadic", "index_to_string",
    "string_to_index", "all_strings", "is_prefix", "value_of", "bits_of",
]

_ALPHABET = frozenset("01")
_DECIMAL_MAX_SCALE = 64  # Dyadic.decimal renders no finer scale


def _check_bits(b: str) -> str:
    if not _ALPHABET.issuperset(b):
        raise ValueError(f"not a binary string: {b!r}")
    return b


# ---------------------------------------------------------------------------
# exact dyadic rationals
# ---------------------------------------------------------------------------


@total_ordering
@dataclass(frozen=True)
class Dyadic:
    """Exact non-negative dyadic rational num / 2**scale.

    Canonical form: ``num`` is odd, or ``scale == 0`` (a whole number).
    The constructor canonicalizes, so equality and hashing are structural;
    both parts must be integers (a ``bool`` is stored as its int).
    """

    num: int
    scale: int = 0

    def __post_init__(self) -> None:
        num, scale = operator.index(self.num), operator.index(self.scale)
        if num < 0 or scale < 0:
            raise ValueError(f"dyadic out of range: {num}/2^{scale}")
        if num == 0:
            scale = 0
        else:
            while num % 2 == 0 and scale > 0:
                num //= 2
                scale -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "scale", scale)

    # -- arithmetic ---------------------------------------------------

    def _aligned(self, other: "Dyadic | int") -> tuple[int, int, int]:
        if not isinstance(other, Dyadic):
            other = Dyadic(other)
        scale = max(self.scale, other.scale)
        return (
            self.num << (scale - self.scale),
            other.num << (scale - other.scale),
            scale,
        )

    def __add__(self, other: "Dyadic | int") -> "Dyadic":
        a, b, scale = self._aligned(other)
        return Dyadic(a + b, scale)

    __radd__ = __add__

    def __sub__(self, other: "Dyadic | int") -> "Dyadic":
        a, b, scale = self._aligned(other)
        if a < b:
            raise ValueError("dyadic subtraction went negative")
        return Dyadic(a - b, scale)

    def __rsub__(self, other: int) -> "Dyadic":
        return Dyadic(other) - self

    def _cmp(self, other: "Dyadic | int") -> int:
        a, b, _ = self._aligned(other)
        return (a > b) - (a < b)

    def __lt__(self, other: "Dyadic | int") -> bool:
        return self._cmp(other) < 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Dyadic(other)
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.num == other.num and self.scale == other.scale

    def __hash__(self) -> int:
        # a whole number equals its int, so it must hash as one
        return hash(self.num) if self.scale == 0 else hash((self.num, self.scale))

    def __bool__(self) -> bool:
        return self.num != 0

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        """The report spelling: 'num/d' with d = 2^scale, or a bare integer."""
        if self.scale == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.scale}"

    def decimal(self) -> str:
        """Exact decimal rendering, or '' when the scale is above 64."""
        if self.scale == 0:
            return str(self.num)
        if self.scale > _DECIMAL_MAX_SCALE:
            return ""
        digits = self.num * 5**self.scale
        text = str(digits).rjust(self.scale + 1, "0")
        whole, frac = text[: -self.scale], text[-self.scale:]
        return f"{whole}.{frac}"


DYADIC_ZERO = Dyadic(0)
DYADIC_ONE = Dyadic(1)


def parse_dyadic(text: str) -> Dyadic:
    """Read back ``str(r)``: a bare integer or 'num/d' with d a power of two;
    other denominators are ValueError."""
    text = text.strip()
    if "/" not in text:
        return Dyadic(int(text))
    num_text, denom_text = text.split("/", 1)
    denom = int(denom_text)
    if denom < 1 or denom & (denom - 1):
        raise ValueError(f"not a dyadic literal: {text!r}")
    return Dyadic(int(num_text), denom.bit_length() - 1)


# ---------------------------------------------------------------------------
# length-lexicographic enumeration
# ---------------------------------------------------------------------------


def index_to_string(m: int) -> str:
    """The m-th binary string in length-lexicographic order (0 -> "")."""
    if m < 0:
        raise ValueError("index must be a natural number")
    return bin(m + 1)[3:]


def string_to_index(b: str) -> int:
    """Position of b in the length-lexicographic enumeration."""
    _check_bits(b)
    return int("1" + b, 2) - 1


_LOWS = [tuple(bin(m)[3:] for m in range(1 << w, 2 << w)) for w in range(9)]


def _spell(width: int, head: str = "") -> Iterator[str]:
    """head + each width-bit string in order, a high part joined to <= 8 low bits."""
    if width < len(_LOWS):
        return map(head.__add__, _LOWS[width])
    highs = range(1 << (width - 8), 2 << (width - 8))
    return chain.from_iterable(map((head + bin(h)[3:]).__add__, _LOWS[8]) for h in highs)


def all_strings(max_len: int) -> Iterator[str]:
    """All binary strings of length <= max_len, in length-lexicographic order."""
    for n in range(max_len + 1):
        yield from _spell(n)


def is_prefix(a: str, b: str) -> bool:
    """True iff a is an initial segment of b (reflexively)."""
    _check_bits(a)
    _check_bits(b)
    return b.startswith(a)


# ---------------------------------------------------------------------------
# strings <-> dyadic values
# ---------------------------------------------------------------------------


def value_of(b: str) -> Dyadic:
    """Sum of b(i) * 2^-(i+1): the left endpoint of b's cylinder in [0, 1]."""
    _check_bits(b)
    if not b:
        return DYADIC_ZERO
    return Dyadic(int(b, 2), len(b))


def bits_of(r: Dyadic, n: int) -> str:
    """First n digits of the binary expansion of r in [0, 1].

    Positive dyadics get the tail-of-ones expansion: the finite expansion's
    last 1 is demoted to 0 and followed by an infinite run of 1s, so for
    example bits_of(1/8, 6) == "000111" and bits_of(1, n) == "1" * n.
    """
    if n < 0:
        raise ValueError("digit count must be a natural number")
    if r > DYADIC_ONE:
        raise ValueError(f"no expansion in [0, 1] for {r}")
    if r == DYADIC_ZERO:
        return "0" * n
    if r == DYADIC_ONE:
        return "1" * n
    # 0 < r < 1: canonical num is odd, so the finite expansion ends in 1.
    finite = bin(r.num)[2:].rjust(r.scale, "0")
    stem = finite[:-1] + "0"
    if n <= r.scale:
        return stem[:n]
    return stem + "1" * (n - r.scale)
