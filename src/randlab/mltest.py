"""Martin-Löf tests with exact finite-depth measure checking.

Tests come in two classical shapes.  A sense-1 test is a partial level
function on strings whose level-m event has cover measure at most 2^-m; a
sense-2 test is a family of open covers, level n weighing at most 2^-n.
Both are handled through finite materializations: a sense-1 test carries a
declared horizon d(m), the depth at which its level-m event is fully
settled, and a sense-2 test materializes each level to a requested depth.
All measures are exact dyadics over the materialized sets, and verdicts are
three-valued: a measure over the bound is a definite failure even when the
materialization is partial (deeper materializations only grow covers), a
pass is only issued when the horizon was reached, and everything else stays
indeterminate.  Each sense-1 test keeps a rank-indexed level table, built on
first use: entry r is the level of the r-th string in length-lex order, so
one table serves every depth and every materializer evaluates a string once.
Each length's defined ranks are also kept in level order, so an event costs
one bisection per length plus the strings it returns.

The bridges to program-length complexity run in both directions: the
compression test materializes the strings whose budgeted prefix complexity
undercuts their length, and the decoder construction Kraft-codes the slices
of a valid test into a code table that can be installed as the registry's
table machine, making the resulting complexity drop executable.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .bitstr import (
    DYADIC_ONE, DYADIC_ZERO, Dyadic, _check_bits, _spell, all_strings, index_to_string
)
from .complexity import _compressible, prefix_k
from .machine import DEFAULT_BUDGET, REG_CODE_TABLE, install_code_table
from .prefixfree import _minimal, cover_measure, kraft_code

DEFAULT_DEPTH = 15
# prefix searches need to see the echo witnesses of the strings they score
DEFAULT_K_LEN_LIMIT = 13


@dataclass(frozen=True)
class Sense1Test:
    """A partial level function with a declared settling depth per level.

    evaluate returns the level of a string or None where undefined.
    horizon(m) is the depth at which the level-m event is a union of
    cylinders over strings of length <= horizon(m), or None when no finite
    settling depth is declared.
    """

    name: str
    evaluate: Callable[[str], int | None]
    horizon: Callable[[int], int | None]
    # _levels[r] == evaluate(index_to_string(r)); filled on first use by _event
    _levels: list[int | None] = field(default_factory=list, init=False, repr=False, compare=False)
    # _by_level[n]: the defined ranks of length n, ordered by (level, rank)
    _by_level: list[array] = field(default_factory=list, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Sense2Test:
    """A family of depth-materialized covers: enumerate(n, depth) is the
    level-n cover restricted to strings of length <= depth, monotone in
    depth."""

    name: str
    enumerate: Callable[[int, int], frozenset[str]]


@dataclass(frozen=True)
class LevelVerdict:
    m: int
    verdict: str  # "pass" | "fail" | "indeterminate"
    measure: Dyadic
    bound: Dyadic
    depth: int  # depth actually materialized


@dataclass(frozen=True)
class DeficiencyReport:
    """Per-test maximal triggered levels for a finite subject, plus the best
    budgeted compression deficiency max_n (n - K_t(subject[:n]))."""

    levels: tuple[tuple[str, int], ...]
    verdicts: tuple[tuple[str, str], ...]
    compression_deficiency: int
    depth: int
    len_limit: int
    budget: int


# ---------------------------------------------------------------------------
# built-in tests
# ---------------------------------------------------------------------------


def _leading_zeros(b: str) -> int | None:
    run = 0
    while run < len(b) and b[run] == "0":
        run += 1
    return run


def _even_position_ones(b: str) -> int | None:
    run = 0
    while 2 * run < len(b) and b[2 * run] == "1":
        run += 1
    return run


def _zeros_after_111(b: str) -> int | None:
    if not b.startswith("111"):
        return None
    run = 0
    while 3 + run < len(b) and b[3 + run] == "0":
        run += 1
    return run


def _count_101(b: str) -> int | None:
    count, i = 0, b.find("101")
    while i >= 0:
        count, i = count + 1, b.find("101", i + 1)
    return count


_BUILTIN = (
    Sense1Test("leading-zeros", _leading_zeros, lambda m: m),
    Sense1Test("even-ones", _even_position_ones, lambda m: max(0, 2 * m - 1)),
    Sense1Test("zeros-after-111", _zeros_after_111, lambda m: m + 3),
)
_COUNT101 = Sense1Test("count101", _count_101, lambda m: 5 * m)


def builtin_tests() -> list[Sense1Test]:
    """The valid built-in sense-1 tests with their exact horizons; the same
    objects on every call, so their level tables are shared."""
    return list(_BUILTIN)


def registered_tests() -> dict[str, Sense1Test]:
    """All named tests, including the 101-counter, which is deliberately NOT
    a Martin-Löf test (its level-m events outweigh 2^-m) and serves as the
    negative fixture."""
    return {t.name: t for t in _BUILTIN + (_COUNT101,)}


# ---------------------------------------------------------------------------
# validation and scoring of sense-1 tests
# ---------------------------------------------------------------------------


def _event(t: Sense1Test, least: int, d: int) -> list[str]:
    """The strings of length <= d whose level is at least `least`, in
    length-lex order.  They are the ranks below 2^(d+1) - 1, so one table
    serves every depth; a deeper request extends it in place.  A call
    bisects each length's level order and spells only what it returns."""
    levels, blocks, key = t._levels, t._by_level, t._levels.__getitem__
    d = max(d, -1)  # every negative depth holds no strings
    for n in range(len(blocks), d + 1):  # spell only the lengths the table lacks
        levels[(1 << n) - 1 :] = map(t.evaluate, _spell(n))
        defined = [r for r in range((1 << n) - 1, (2 << n) - 1) if levels[r] is not None]
        blocks.append(array("q", sorted(defined, key=key)))
    found = (sorted(ranks[bisect_left(ranks, least, key=key) :]) for ranks in blocks[: d + 1])
    return [index_to_string(r) for ranks in found for r in ranks]


def validate_sense1(
    t: Sense1Test, m_max: int, depth: int = DEFAULT_DEPTH
) -> list[LevelVerdict]:
    """Check cover_measure{b : evaluate(b) >= m} <= 2^-m for each m <= m_max.

    Levels whose horizon exceeds `depth` are materialized at `depth`; since
    covers only grow with depth, a measure above the bound there is still a
    definite failure, while a measure within it stays indeterminate.
    """
    verdicts = []
    for m in range(m_max + 1):
        h = t.horizon(m)
        settled = h is not None and h <= depth
        eval_depth = h if settled else depth
        measure = cover_measure(_event(t, m, eval_depth))
        bound = Dyadic(1, m)
        if measure > bound:
            verdict = "fail"
        elif settled:
            verdict = "pass"
        else:
            verdict = "indeterminate"
        verdicts.append(LevelVerdict(m, verdict, measure, bound, eval_depth))
    return verdicts


def level_sense1(t: Sense1Test, prefix: str) -> int:
    """Max level of t over all initial segments of `prefix`; 0 if t is
    undefined on every one of them."""
    levels = (t.evaluate(prefix[:i]) for i in range(len(_check_bits(prefix)) + 1))
    return max([0] + [v for v in levels if v is not None])


# ---------------------------------------------------------------------------
# conversions between the senses
# ---------------------------------------------------------------------------


def sense1_to_sense2(t: Sense1Test, depth: int = DEFAULT_DEPTH) -> Sense2Test:
    """Level n > 0 covers the strict event {evaluate > n}; level 0 is the
    full space, one set shared by every conversion at the latest depth asked.
    Materializations are capped at the construction depth."""

    def materialize(n: int, d: int) -> frozenset[str]:
        d = min(d, depth)
        return _full_space(d) if n == 0 else frozenset(_event(t, n + 1, d))

    return Sense2Test(f"{t.name}.sense2", materialize)


@lru_cache(maxsize=1)  # level 0 of every conversion, kept for the latest depth only
def _full_space(d: int) -> frozenset[str]:
    return frozenset(all_strings(d))


def sense2_to_sense1(f: Sense2Test) -> Sense1Test:
    """The diagonal rule with the one-level shift: a string scores its own
    length exactly when it appears in the next level's cover at its own
    depth.  No finite horizon is declared, so validation of the result can
    fail or stay indeterminate but never pass outright."""

    def evaluate(b: str) -> int | None:
        return len(b) if b in f.enumerate(len(b) + 1, len(b)) else None

    return Sense1Test(f"{f.name}.sense1", evaluate, lambda m: None)


# ---------------------------------------------------------------------------
# leaf-mask arithmetic over depth-d cylinders
# ---------------------------------------------------------------------------


def _leaf_depth(members, d: int) -> int:
    return max([d] + [len(b) for b in members])


def _segment(b: str, depth: int) -> int:
    size = 1 << (depth - len(b))
    return ((1 << size) - 1) << ((int(b, 2) if b else 0) * size)


def _mask(members, depth: int) -> int:
    # minimal members have disjoint segments, so their sum is their OR
    return sum(_segment(b, depth) for b in _minimal(members))


def _mask_to_antichain(mask: int, depth: int) -> list[str]:
    out: list[str] = []

    def emit(prefix: str, lo: int, size: int) -> None:
        seg = ((1 << size) - 1) << lo
        part = mask & seg
        if part == seg:
            out.append(prefix)
        elif part and size > 1:
            emit(prefix + "0", lo, size // 2)
            emit(prefix + "1", lo + size // 2, size // 2)

    emit("", 0, 1 << depth)
    return out


# ---------------------------------------------------------------------------
# normalization, chains, the finite-battery universal test
# ---------------------------------------------------------------------------


def normalize(f: Sense2Test) -> Sense2Test:
    """Admit each level's members in canonical order while the exact running
    cover mass stays within 2^-n; the result is always valid, and equals f
    wherever f already was."""

    def materialize(n: int, d: int) -> frozenset[str]:
        members = sorted(f.enumerate(n, d), key=lambda b: (len(b), b))
        depth = _leaf_depth(members, d)
        allowance = 1 << (depth - n) if depth >= n else 0
        mask = 0
        admitted = []
        for b in members:
            merged = mask | _segment(b, depth)
            if merged.bit_count() <= allowance:
                mask = merged
                admitted.append(b)
        return frozenset(admitted)

    return Sense2Test(f"{f.name}.normalized", materialize)


def chain(f: Sense2Test) -> Sense2Test:
    """Level n covers the intersection of f's levels 0..n, reported as the
    minimal antichain over depth-d leaves; covers descend as n grows."""

    def materialize(n: int, d: int) -> frozenset[str]:
        if n < 0:
            raise ValueError(f"chain level must be a natural number, got {n}")
        if d < 0:
            return frozenset()
        # a level holding "" is the whole space at every depth, so it is
        # neither sorted nor scanned: it cannot narrow the intersection
        levels = [m for m in (f.enumerate(i, d) for i in range(n + 1)) if "" not in m]
        depth = max((_leaf_depth(members, d) for members in levels), default=d)
        combined = (1 << (1 << depth)) - 1
        for members in levels:
            combined &= _mask(members, depth)
        return frozenset(_mask_to_antichain(combined, depth))

    return Sense2Test(f"{f.name}.chained", materialize)


def universal_test(
    battery: list[Sense2Test], n: int, depth: int = DEFAULT_DEPTH
) -> frozenset[str]:
    """Union of battery member i's normalized level n+i (1-based positions),
    so the total mass budget telescopes to at most 2^-n."""
    cover: set[str] = set()
    for i, member in enumerate(battery, start=1):
        cover |= normalize(member).enumerate(n + i, depth)
    return frozenset(cover)


# ---------------------------------------------------------------------------
# bridges to program-length complexity
# ---------------------------------------------------------------------------


def compression_test(
    k: int,
    len_limit: int = DEFAULT_K_LEN_LIMIT,
    budget: int = DEFAULT_BUDGET,
    depth: int = DEFAULT_DEPTH,
) -> frozenset[str]:
    """The level-k cover of the compressibility test: strings whose budgeted
    prefix complexity is at least k below their length.  The budgeted
    relation is a subset of the true one, so the exact cover mass obeys the
    2^-k bound a fortiori."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _compressible(True, k, depth, len_limit, budget)


class BridgeMassError(ValueError):
    """Raised when the triple enumeration's coded mass exceeds 1."""

    def __init__(self, mass: Dyadic):
        super().__init__(f"coded mass {mass} exceeds 1")
        self.mass = mass


@dataclass(frozen=True)
class BridgeResult:
    """A Kraft-coded decoder for the even slices of a sense-2 test.

    triples holds (codeword length, n, b) with length = |b| - n; decoder
    pairs codewords with their targets in the same order.  When installed
    as the registry code table, each target b costs |b| - n plus
    dispatch_constant program characters under V.
    """

    triples: tuple[tuple[int, int, str], ...]
    decoder: tuple[tuple[str, str], ...]
    coded_mass: Dyadic
    excluded: tuple[tuple[int, str], ...]
    dispatch_constant: int


def ml_to_kc_decoder(
    g: Sense2Test,
    n_max: int,
    depth: int = DEFAULT_DEPTH,
    install: bool = True,
) -> BridgeResult:
    """Kraft-code the minimal members of the slices W_{g(2n)}, n = 1..n_max.

    Each member b of slice n gets a codeword of length |b| - n; members
    shorter than their n are excluded with a diagnostic.  The total coded
    mass must stay within 1 (it does whenever g is valid, since slice n
    weighs at most 2^-2n and contributes at most 2^-n); violations raise
    BridgeMassError with the exact sum.  By default the decoder is
    installed as the registry code table, making the realized bounds
    executable machine facts.
    """
    triples: list[tuple[int, int, str]] = []
    excluded: list[tuple[int, str]] = []
    for n in range(1, n_max + 1):
        for b in _minimal(g.enumerate(2 * n, depth)):
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
    if install:
        install_code_table(dict(decoder))
    return BridgeResult(tuple(triples), decoder, mass, tuple(excluded), REG_CODE_TABLE + 1)


# ---------------------------------------------------------------------------
# scoring finite subjects
# ---------------------------------------------------------------------------


def _verdict(t: Sense1Test, subject: str, level: int) -> str:
    observable = 0
    for m in range(1, len(subject) + 1):
        h = t.horizon(m)
        if h is None or h > len(subject):
            break
        observable = m
    if observable == 0:
        return "indeterminate"
    return "fail-at-depth" if level >= observable else "pass-at-depth"


def score(
    subject: str,
    battery: list[Sense1Test] | None = None,
    len_limit: int = DEFAULT_K_LEN_LIMIT,
    budget: int = DEFAULT_BUDGET,
    depth: int = DEFAULT_DEPTH,
) -> DeficiencyReport:
    """Max triggered level per test for the subject's prefixes, a pass/fail
    annotation at the observable depth, and the best budgeted compression
    deficiency over the subject's prefixes.  All values are depth/budget
    relative."""
    _check_bits(subject)
    tests = builtin_tests() if battery is None else battery
    levels = []
    verdicts = []
    for t in tests:
        level = level_sense1(t, subject)
        levels.append((t.name, level))
        verdicts.append((t.name, _verdict(t, subject, level)))
    deficiency = None
    for n in range(min(len(subject), depth) + 1):
        bound = prefix_k(subject[:n], len_limit, budget)
        if bound is not None:
            gap = n - bound.value
            if deficiency is None or gap > deficiency:
                deficiency = gap
    return DeficiencyReport(
        levels=tuple(levels),
        verdicts=tuple(verdicts),
        compression_deficiency=deficiency if deficiency is not None else -1,
        depth=depth,
        len_limit=len_limit,
        budget=budget,
    )
