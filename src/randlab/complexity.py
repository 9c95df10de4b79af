"""Budget-bounded Kolmogorov complexity bounds over the machine substrate.

Everything here is an upper bound obtained by running programs under a step
budget and a program-length cap.  A returned bound is witnessed by a concrete
program that halts with the target output; absence means the search space was
exhausted, never that no program exists.  The only lower-bound style claim in
the module is the incompressibility census, which counts strings that no
budgeted short program reached; since the budgeted relation is a subset of
the true one, that count can only overstate incompressibility, which is the
safe direction for the counting argument it implements.  A witness table is
swept a length at a time, only as far as its reader needs; a bound query
sweeps it to the end.  V's sweep descends only below programs proven to
diverge (see _Sweep), and that one walk also records its short programs.

Registry constants appearing in the classic inequalities (dispatch overhead
of the identity, the echo self-delimiter, the pad and pair decoders) are
derived from the registry indices so tests can pin them as numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .bitstr import _check_bits, _spell, all_strings, string_to_index
from .machine import (
    DEFAULT_BUDGET,
    DEFAULT_LEN_LIMIT,
    REG_ECHO,
    REG_IDENTITY,
    REG_PAD,
    REG_PAIR,
    _check_budget,
    _context,
    prefix_universal_run,
    universal_run,
)
from .prefixfree import cover_measure

PAD_SCAN_LIMIT = 256  # default program-length cap for pad_witness scans


@dataclass(frozen=True)
class ComplexityBound:
    """An executed upper bound: `witness` halts with the target output.

    `exhaustive` is True when every shorter program either halted (with some
    other output) or was certified diverging, so no larger budget can ever
    produce a shorter witness and `value` is the true complexity.  For V, a
    program extending a halting one is certified by prefix-freeness, and one
    extending an unresolved one lies behind that shorter prefix; neither is
    asked.  The flag is read off the witness table's frontier, the first
    program in length-lex order left unresolved at the budget: the bound is
    exhaustive exactly when that program is no shorter than the witness.
    """

    value: int
    witness: str
    budget: int
    len_limit: int
    exhaustive: bool


@dataclass(frozen=True)
class PadWitness:
    """A prefix length n plus a bound certifying C_t(x[:n]) < n - k.

    `overhead` is the constant number of program characters the pad route
    spends beyond the payload (dispatch to pad plus the inner identity
    header).
    """

    n: int
    bound: ComplexityBound
    overhead: int


@dataclass(frozen=True)
class SubadditivityReport:
    """Concatenation complexity versus the parts, over all |a|,|b| <= n_max.

    The plain side is observational: `plain_gap_max` is the largest value of
    C_t(a+b) - C_t(a) - C_t(b) seen among `plain_pairs` fully-measured pairs,
    with no sign asserted.  The prefix side is a verified inequality: each
    pair's program has length K_t(a) + K_t(b) + pair_overhead by construction,
    and `prefix_violations` lists the pairs whose run fails to produce a + b.
    """

    n_max: int
    len_limit: int
    budget: int
    pair_overhead: int
    plain_gap_max: int | None
    plain_pairs: int
    prefix_violations: tuple[tuple[str, str], ...]
    prefix_pairs: int


def registry_constants() -> dict[str, int]:
    """The concrete constants of the classic inequalities, from the registry.

    m_id: C_t(b) <= |b| + m_id (dispatch to identity).
    c_echo: K_t(b) <= 2|b| + c_echo (dispatch to echo plus the separator).
    k_pad: C_t(pad image of b) <= C_t(b) + k_pad (dispatch to pad).
    k_pair: K_t(a+b) <= K_t(a) + K_t(b) + k_pair (dispatch to pair).
    """
    return {
        "m_id": REG_IDENTITY + 1,
        "c_echo": REG_ECHO + 2,
        "k_pad": REG_PAD + 1,
        "k_pair": REG_PAIR + 1,
    }


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


class _Sweep:
    """A witness table swept a length at a time: output -> first program, the
    first program left unresolved at the budget or None, the last length
    swept, V's next level (None once swept to len_limit) and V's short
    programs, those as long as their output's first witness (None for U).

    V's next level holds the children of the programs proven ("d",) only.
    A halting program's extensions diverge, as V's domain is an antichain.
    If an extension 1^n 0 b x of an unresolved 1^n 0 b halted within the
    budget, b x would be a comparable below the bound of b's guard walk, so
    1^n 0 b would read "h" or "d", never "u"."""

    __slots__ = ("table", "frontier", "swept", "level", "short")

    def __init__(self, prefix: bool):
        self.table, self.frontier, self.swept, self.level = {}, None, -1, [""]
        self.short = [] if prefix else None

    def step(self, ctx, prefix: bool, budget: int) -> None:
        """Sweep the next length; a raise while asking leaves the sweep as it was."""
        if prefix:
            statuses = [(p, ctx.v_status(p, budget)) for p in self.level]
            last = self.swept + 1 == ctx.len_limit
            self.level = None if last else [p + b for p, st in statuses if st[0] == "d" for b in "01"]
        else:
            statuses = [(p, ctx.u_status(p, budget)) for p in _spell(self.swept + 1)]
        self.swept += 1
        for p, st in statuses:
            if st[0] == "h":
                if len(self.table.setdefault(st[2], p)) == len(p) and prefix:
                    self.short.append(p)
            elif self.frontier is None and st[0] == "u":
                self.frontier = p


def _swept(prefix: bool, len_limit: int, budget: int, through: int | None = None) -> _Sweep:
    """V's witness sweep if `prefix`, else U's, swept through program length
    `through` or further (to `len_limit` by default)."""
    budget = _check_budget(budget)  # before the lookup: 1e5 == 100_000 as a key
    if len_limit < 0:
        return _Sweep(prefix)  # no programs, and no universe to hold the table
    ctx = _context(len_limit)
    sweep = ctx.tables.get((prefix, budget))
    if sweep is None:
        sweep = ctx.tables[(prefix, budget)] = _Sweep(prefix)
    while sweep.swept < len_limit and (through is None or sweep.swept < through):
        sweep.step(ctx, prefix, budget)
    return sweep


def _witness_table(prefix: bool, len_limit: int, budget: int, through: int | None = None):
    """The witness table and its frontier, swept as `_swept` sweeps them."""
    sweep = _swept(prefix, len_limit, budget, through)
    return sweep.table, sweep.frontier


def _witnesses(prefix: bool, outputs, len_limit: int, budget: int) -> dict[str, str]:
    """The witness table, swept until each of `outputs` has a witness or to the end."""
    outputs = list(outputs)
    for through in range(len_limit):
        table, _ = _witness_table(prefix, len_limit, budget, through)
        if all(s in table for s in outputs):
            return table
    return _witness_table(prefix, len_limit, budget)[0]


def _bound(b: str, prefix: bool, len_limit: int, budget: int) -> ComplexityBound | None:
    sweep = _swept(prefix, len_limit, budget)  # per query: skip _witness_table's frame
    witness = sweep.table.get(_check_bits(b))
    if witness is None:
        return None
    exhaustive = sweep.frontier is None or len(sweep.frontier) >= len(witness)
    return ComplexityBound(len(witness), witness, budget, len_limit, exhaustive)


def _compressible(
    prefix: bool, k: int, max_len: int, len_limit: int, budget: int
) -> frozenset[str]:
    """Strings b with |b| <= max_len whose witness (V when `prefix`, else U)
    is at least k shorter than b, read from the witness table."""
    table, _ = _witness_table(prefix, len_limit, budget, max_len - k)
    return frozenset(
        s for s, w in table.items() if len(s) <= max_len and len(w) <= len(s) - k
    )


def plain_c(
    b: str, len_limit: int = DEFAULT_LEN_LIMIT, budget: int = DEFAULT_BUDGET
) -> ComplexityBound | None:
    """Shortest program for U found to output b within the limits."""
    return _bound(b, False, len_limit, budget)


def prefix_k(
    b: str, len_limit: int = DEFAULT_LEN_LIMIT, budget: int = DEFAULT_BUDGET
) -> ComplexityBound | None:
    """Shortest program for V found to output b within the limits."""
    return _bound(b, True, len_limit, budget)


# ---------------------------------------------------------------------------
# the incompressibility census
# ---------------------------------------------------------------------------


def census_incompressible(
    n: int, len_limit: int = DEFAULT_LEN_LIMIT, budget: int = DEFAULT_BUDGET
) -> int:
    """How many length-n strings no program shorter than n reached.

    Counts b with C_t(b) >= n; at least 1 by the counting argument, since
    there are fewer short programs than length-n strings.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    table, _ = _witness_table(False, len_limit, budget, n - 1)
    return 2**n - sum(len(s) == n and len(w) < n for s, w in table.items())


# ---------------------------------------------------------------------------
# pad compression of streams
# ---------------------------------------------------------------------------


def pad_witness(
    prefix_of: Callable[[int], str],
    k: int,
    len_limit: int = PAD_SCAN_LIMIT,
    budget: int = DEFAULT_BUDGET,
) -> PadWitness | None:
    """Find n with C_t(x[:n]) < n - k, where x is the stream `prefix_of`.

    Every length-L prefix of x is the enumeration string B_p for exactly one
    rank p, so x[:L+p] = B_p + b with |b| = p and the pad decoder rebuilds it
    from the p+3 character program 10 0 b.  That witness beats n - k exactly
    when L >= k + 4; we scan L upward and return the first decomposition
    whose witness actually halts within the limits.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    budget = _check_budget(budget)  # even when the scan below is empty
    overhead = (REG_PAD + 1) + (REG_IDENTITY + 1)
    for length in range(k + 4, len_limit + 1):
        head = _check_bits(prefix_of(length))
        if len(head) != length:
            raise ValueError("prefix_of must return prefixes of the asked length")
        p = string_to_index(head)
        if p + overhead > len_limit:
            return None  # ranks only grow with the prefix length
        target = _check_bits(prefix_of(length + p))
        if len(target) != length + p or not target.startswith(head):
            raise ValueError("prefix_of must be consistent across lengths")
        witness = "1" * REG_PAD + "0" + "1" * REG_IDENTITY + "0" + target[length:]
        n = length + p
        out = universal_run(witness, budget, len_limit)
        if out.halted and out.output == target and len(witness) < n - k:
            bound = ComplexityBound(len(witness), witness, budget, len_limit, False)
            return PadWitness(n, bound, overhead)
    return None


# ---------------------------------------------------------------------------
# compressible-prefix horizons
# ---------------------------------------------------------------------------


def horizon_search(
    k: int,
    m_max: int,
    len_limit: int = DEFAULT_LEN_LIMIT,
    budget: int = DEFAULT_BUDGET,
) -> int | None:
    """Least m <= m_max such that every length-m string has a proper prefix
    d with C_t(d) <= |d| - k, or None.

    A returned m is valid for the budgeted relation only: larger budgets can
    reveal more compressible prefixes and hence shrink the horizon, never
    grow it.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    compressible = _compressible(False, k, m_max, len_limit, budget)
    for m in range(m_max + 1):
        # a prefix shorter than m contains or misses each length-m cylinder,
        # so the prefixes cover every length-m string iff they cover the space
        if cover_measure(d for d in compressible if len(d) < m) == 1:
            return m
    return None


# ---------------------------------------------------------------------------
# subadditivity
# ---------------------------------------------------------------------------


def subadditivity_probe(
    n_max: int, len_limit: int = DEFAULT_LEN_LIMIT, budget: int = DEFAULT_BUDGET
) -> SubadditivityReport:
    """Measure C_t over concatenations and verify the K_t pair inequality.

    The prefix side builds, for each pair, the explicit program
    1^pair 0 + witness(a) + witness(b) and runs it under limits wide enough
    to contain it (the witness parts already halt within `budget`, and the
    guard resolves the combined program within 8*budget + 2^(|program|+1)
    steps), so a failure to certify is recorded as a violation rather than
    masked by the caller's budget.
    """
    strings = list(all_strings(n_max))
    plain = _witnesses(False, all_strings(2 * n_max), len_limit, budget)
    prefix = _witnesses(True, strings, len_limit, budget)

    gaps = []
    violations = []
    checked = 0
    for a, b in product(strings, strings):
        witnesses = (plain.get(a), plain.get(b), plain.get(a + b))
        if all(w is not None for w in witnesses):
            gaps.append(len(witnesses[2]) - len(witnesses[0]) - len(witnesses[1]))
        wa, wb = prefix.get(a), prefix.get(b)
        if wa is None or wb is None:
            continue
        checked += 1
        prog = "1" * REG_PAIR + "0" + wa + wb
        wide_budget = 8 * budget + (1 << (len(prog) + 1))
        out = prefix_universal_run(prog, wide_budget, max(len_limit, len(prog)))
        if not (out.halted and out.output == a + b):
            violations.append((a, b))

    return SubadditivityReport(
        n_max=n_max,
        len_limit=len_limit,
        budget=budget,
        pair_overhead=REG_PAIR + 1,
        plain_gap_max=max(gaps) if gaps else None,
        plain_pairs=len(gaps),
        prefix_violations=tuple(violations),
        prefix_pairs=checked,
    )


# ---------------------------------------------------------------------------
# minimal programs
# ---------------------------------------------------------------------------


def budget_short_programs(
    len_limit: int = DEFAULT_LEN_LIMIT, budget: int = DEFAULT_BUDGET
) -> list[str]:
    """Programs minimal-length for their V output among halting programs
    within the limits, in length-lex order.

    Membership is budget-relative: a larger budget can reveal a shorter
    program for the same output and evict an entry.
    """
    return list(_swept(True, len_limit, budget).short)
