"""Antichains of binary strings and their exact cover measure.

A set of strings is prefix-free when no member is a proper initial segment
of another; the cylinders above its members are then disjoint, and the
measure of their union is the Kraft sum of the lengths.  Arbitrary finite
sets are reduced to an equivalent antichain by ``prefix_freeize``, which
replaces each string that arrives below existing members by the minimal
uncovered complement of its cylinder; ``cover_measure`` sweeps the sorted
set and sums only the strings with no prefix in it.  ``kraft_code`` runs
the other direction: it assigns leftmost disjoint codewords to a stream of
lengths while the running mass fits below one.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .bitstr import Dyadic, DYADIC_ZERO, _check_bits


class KraftOverflowError(ValueError):
    """Raised when a requested codeword no longer fits inside [0, 1)."""

    def __init__(self, index: int, length: int):
        super().__init__(f"codeword of length {length} at index {index} does not fit")
        self.index = index
        self.length = length


def _minimal(strings: Iterable[str]) -> list[str]:
    """The sorted members with no proper prefix among the others."""
    # sorted order puts a prefix immediately before its extensions, so a
    # string is covered iff it extends the last string kept
    kept: list[str] = []
    for b in sorted(set(map(_check_bits, strings))):
        if not kept or not b.startswith(kept[-1]):
            kept.append(b)
    return kept


def is_prefix_free(strings: Iterable[str]) -> bool:
    """True iff no member is a proper prefix of another member."""
    members = set(strings)
    return len(_minimal(members)) == len(members)


def kraft_sum(strings: Iterable[str]) -> Dyadic:
    """Sum of 2^-|b| over the (deduplicated) members, exactly."""
    members = set(strings)
    if not members:
        return DYADIC_ZERO
    depth = max(len(_check_bits(b)) for b in members)
    return Dyadic(sum(1 << (depth - len(b)) for b in members), depth)


def prefix_freeize(strings: Iterable[str]) -> frozenset[str]:
    """Antichain covering exactly the same cylinders as the input stream.

    Strings are folded in one at a time.  A newcomer already covered by the
    set is dropped; a newcomer strictly below existing members is replaced
    by the minimal strings above it that are not yet covered, so the work
    is proportional to what is admitted.  The result equals the input when
    the input was already prefix-free, and is the set of minimal input
    strings when the input arrives in length-lex order; only other orders
    make it depend on the arrival order.
    """
    antichain: set[str] = set()
    inner: set[str] = set()  # proper prefixes of members
    for s in strings:
        _check_bits(s)
        if any(s[:i] in antichain for i in range(len(s) + 1)):
            continue  # already covered (duplicates land here too)
        # descend from s: skip members, admit nodes with no member above
        # them, split the rest.  Every proper prefix of a node admitted
        # below s is already inner, so only s's own prefixes can be new
        stack = [s]
        while stack:
            p = stack.pop()
            if p in inner:
                stack += (p + "1", p + "0")
            elif p not in antichain:
                antichain.add(p)
        inner.update(s[:i] for i in range(len(s)))
    return frozenset(antichain)


def cover_measure(strings: Iterable[str]) -> Dyadic:
    """Exact measure of the union of cylinders above the given strings."""
    return kraft_sum(_minimal(strings))


def kraft_code_stream(lengths: Iterable[int]) -> Iterator[str]:
    """Online leftmost-interval code assignment for a stream of lengths.

    Maintains a pointer through [0, 1); each length claims the leftmost
    aligned interval of width 2^-length at or after the pointer.  When the
    aligned interval would cross 1 the stream is rejected with the offending
    index — this refuses some unsorted but Kraft-feasible streams, while
    accepting every nondecreasing stream whose Kraft sum fits.
    """
    num = 0  # pointer numerator; pointer = num / 2^scale
    scale = 0
    for index, length in enumerate(lengths):
        if length < 0:
            raise ValueError(f"negative codeword length at index {index}")
        # align the pointer up to a multiple of 2^-length
        if scale <= length:
            num <<= length - scale
        else:
            num = -(-num >> (scale - length))
        scale = length
        if num + 1 > 2**length:
            raise KraftOverflowError(index, length)
        yield bin(num)[2:].rjust(length, "0") if length else ""
        num += 1


def kraft_code(lengths: Iterable[int]) -> list[str]:
    """Materialized ``kraft_code_stream``: codewords in input order."""
    return list(kraft_code_stream(lengths))
