"""Machine substrate: registry behaviors, decoded transition tables, the
plain universal machine U, the prefix guard, the prefix-free universal
machine V, and the shared dovetailer.

Machine enumeration is two-tier.  Indices 0..4 name hand-written registry
behaviors, so that "there is a constant k" arguments turn into small
concrete numbers; every larger index m decodes index_to_string(m - 5) as a
fixed-width transition table (malformed encodings decode to the
everywhere-diverging behavior, keeping the enumeration total).  The first
well-formed table is machine 2^20 + 4, the 20 bits 0^20, so every U or V
program shorter than 1,048,581 bits that dispatches past index 4 runs the
everywhere-diverging machine.

    0  identity    halts at once, output = input
    1  pad         a -> B * U(a) where B is the |U(a)|-th string in
                   enumeration order (the length-prefixing map)
    2  pair        dovetails all splits s = p * q and outputs V(p) * V(q)
                   for the first split whose halves both halt
    3  echo        self-delimiting copy: 1^n 0 a -> a when |a| = n
    4  code table  finite installable codeword -> output map

Decoded tables are single-tape machines over {0, 1, blank}: 2 bits of
state count (1..4), then per (state, symbol) a 6-bit field of 3 bits next
state (the state count itself means halt), 2 bits write symbol (3 is
malformed) and 1 bit move (0 left, 1 right).  The halt output is the
leftmost maximal blank-free run on the tape.

Every run is costed in abstract steps so budgeted outcomes are monotone
and reproducible:

    identity / echo    |input| + 1
    code table         |input| + |output| + 1
    pad                inner U cost + |output| + 1
    decoded table      simulated transitions until halt
    U on 1^n 0 d       machine-n cost on d, plus n + 1 dispatch
    pair on s          2t + i + |s| + 1 for the least (t, i) such that both
                       halves of split i halt within round t = 1, 2, 4, ...;
                       each half is asked once, at the last round that fits
    guarded M on b     j + t for the winning comparable, see below
    V on 1^l 0 a       guarded machine-l cost on a, plus l + 1 dispatch

The guard dovetails M over every string c comparable with its input b
(prefixes of b, and extensions of b up to the configured len_limit) in the
canonical diagonal order over (global length-lex rank j of c, steps).  A
comparable halting with cost t finishes at diagonal d = j + t; the winner
is the lexicographically least (d, j).  The guard halts, with M(b)'s
output and cost d, only when the winner is b itself; a winner elsewhere is
a permanent divergence.  Ranks are global, not scan-relative, so the
winner of a comparability chain is scan-independent and the guarded
domain restricted to strings of length <= len_limit is always an
antichain.  V diverges outright on programs longer than len_limit, which
keeps its observed domain inside that guarantee; raising len_limit can
move guard winners, which is the documented budget-relativity of V.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace

from .bitstr import _check_bits, _spell, index_to_string, string_to_index
from .prefixfree import is_prefix_free

REG_IDENTITY = 0
REG_PAD = 1
REG_PAIR = 2
REG_ECHO = 3
REG_CODE_TABLE = 4
REGISTRY_SIZE = 5
REGISTRY_NAMES = ("identity", "pad", "pair", "echo", "code-table")

TM_SYMBOLS = 3
TM_FIELD_BITS = 6

DEFAULT_LEN_LIMIT = 12
DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class MachineBehavior:
    """A total description of one machine.

    kind "registry-native" carries a registry_id, "decoded-table" carries
    a transition table (None = everywhere diverging), "mapping" carries a
    finite graph as sorted (input, output) pairs, the code table's form,
    and "guarded" wraps another behavior in the prefix guard.
    """

    kind: str
    registry_id: int | None = None
    table: tuple[tuple[int, int, int], ...] | None = None
    mapping: tuple[tuple[str, str], ...] | None = None
    inner: "MachineBehavior | None" = None


@dataclass(frozen=True)
class BudgetedOutcome:
    status: str
    output: str | None
    steps_used: int
    budget: int

    @property
    def halted(self) -> bool:
        return self.status == "halted"


@dataclass(frozen=True)
class DovetailEvent:
    program: str
    stage: int
    outcome: BudgetedOutcome


def _decode_table(bits: str) -> tuple[tuple[int, int, int], ...] | None:
    if len(bits) < 2:
        return None
    states = int(bits[:2], 2) + 1
    if len(bits) != 2 + states * TM_SYMBOLS * TM_FIELD_BITS:
        return None
    rows = []
    for pos in range(2, len(bits), TM_FIELD_BITS):
        field = bits[pos : pos + TM_FIELD_BITS]
        nxt = int(field[:3], 2)
        write = int(field[3:5], 2)
        if nxt > states or write > 2:
            return None
        rows.append((nxt, write, 1 if field[5] == "1" else -1))
    return tuple(rows)


DIVERGING = MachineBehavior(kind="decoded-table", table=None)
_NATIVES = tuple(MachineBehavior("registry-native", registry_id=m) for m in range(REGISTRY_SIZE))


def decode_machine(m: int) -> MachineBehavior:
    if m < 0:
        raise ValueError("machine index must be nonnegative")
    if m < REGISTRY_SIZE:
        return _NATIVES[m]
    table = _decode_table(index_to_string(m - REGISTRY_SIZE))
    return DIVERGING if table is None else MachineBehavior(kind="decoded-table", table=table)


def mapping_behavior(table: dict[str, str]) -> MachineBehavior:
    items = tuple(sorted((_check_bits(k), _check_bits(v)) for k, v in table.items()))
    return MachineBehavior(kind="mapping", mapping=items)


def prefix_guard(machine: MachineBehavior) -> MachineBehavior:
    return MachineBehavior(kind="guarded", inner=machine)


def _tm_status(table, inp: str, cap: int):
    states = len(table) // TM_SYMBOLS
    tape = {i: int(c) for i, c in enumerate(inp)}
    head = 0
    state = 0
    steps = 0
    while steps < cap:
        sym = tape.get(head, 2)
        nxt, write, move = table[state * TM_SYMBOLS + sym]
        steps += 1
        if write == 2:
            tape.pop(head, None)
        else:
            tape[head] = write
        head += move
        if nxt == states:
            if not tape:
                return ("h", steps, "")
            cell = min(tape)
            out = []
            while cell in tape:
                out.append(str(tape[cell]))
                cell += 1
            return ("h", steps, "".join(out))
        state = nxt
    return ("u", cap)


def _finite_status(table: tuple[tuple[str, str], ...], inp: str, cap: int):
    for c, out in table:
        if c == inp:
            cost = len(inp) + len(out) + 1
            return ("h", cost, out) if cost <= cap else ("u", cap)
    return ("d",)


# ---------------------------------------------------------------------------
# the budgeted status engine
# ---------------------------------------------------------------------------
# A status is ("h", cost, output) with cost <= the queried cap, ("d",) for a
# proven permanent divergence, or ("u", cap) when neither is settled yet.
# Statuses refine monotonically in cap.  Two memos per context hold them:
# _machine for the pad and pair machines, _v for V.  A transition table is
# simulated afresh, since a simulation never proves "d" and a memo would only
# repeat it.  U on 1^n 0 a is machine n on a plus n + 1 steps, and the guard
# on b is V on 1^n 0 b less those steps, so neither needs a memo.
# Every recursive probe runs at a strictly smaller cap (dispatch; a pair half
# once at the last round that fits, whose winning round is read off the
# costs, and, when no split wins, at cap - 1 for only the splits that round
# left open) or on structurally smaller input (pad), so evaluation
# terminates.  A proven divergence carries no cap: a memoized ("d",) answers
# every cap, so a split with a "d" half is dead for good, and a warm context
# may say ("d",) where a fresh one at a smaller cap still says ("u", cap).
# Both are true.  Most probes meet such a ("d",), so the pair split loop, its
# cap - 1 divergence pass and the guard walk over pad or pair read it from the
# memo instead of calling:
# a dead probe never wins a split or a walk and never leaves one open, so
# skipping it saves the call and nothing else.  Every other probe is a call
# through the memo rule below.


def _cached(memo: dict, key, cap: int):
    entry = memo.get(key)
    if entry is None:
        return None
    if entry[0] == "h":
        return entry if entry[1] <= cap else ("u", cap)
    if entry[0] == "d":
        return entry
    if entry[1] >= cap:
        return ("u", cap)
    return None


def _settle(memo: dict, key, status, cap: int):
    """Remember a computed status unless an "h"/"d", or a "u" at a cap no
    smaller, is already known; then clip it to the queried cap."""
    prev = memo.get(key)
    if prev is None or (prev[0] == "u" and (status[0] != "u" or status[1] > prev[1])):
        memo[key] = status
    if status[0] == "h" and status[1] > cap:
        return ("u", cap)
    return status


class _Context:
    """The status memos _machine (pad and pair) and _v (V) for one
    (len_limit, installed code table) pair; its first-witness tables:
    (prefix, budget) -> complexity's sweep of that table, which advances a
    length at a time; and its dovetail replay: events in ordinal order,
    masses[k] = the first k events' Kraft mass times 2^len_limit, and the
    due ranks, a heap in ordinal order of (diagonal, rank j, program) at the
    first cap, diagonal - j, that the program's _v entry does not answer.
    Only ranks up to len_limit join."""

    __slots__ = ("len_limit", "code_table", "tables", "events", "masses", "_due", "_machine", "_v")

    def __init__(self, len_limit: int, code_table: tuple[tuple[str, str], ...]):
        self.len_limit = len_limit
        self.code_table = code_table
        self.tables: dict[tuple[bool, int], object] = {}
        self.events: list[DovetailEvent] = []
        self.masses = [0]
        self._due = [(1, 0, "")]  # rank 0 joins at diagonal 1
        self._machine: dict = {}
        self._v: dict = {}

    # -- machine dispatch ---------------------------------------------------

    def m_status(self, machine: MachineBehavior, inp: str, cap: int):
        kind = machine.kind
        if kind == "registry-native":
            rid = machine.registry_id
            if rid == REG_IDENTITY:
                cost = len(inp) + 1
                return ("h", cost, inp) if cost <= cap else ("u", cap)
            if rid == REG_ECHO:
                n = inp.find("0")
                if n < 0 or len(inp) != 2 * n + 1:
                    return ("d",)
                cost = len(inp) + 1
                return ("h", cost, inp[n + 1 :]) if cost <= cap else ("u", cap)
            if rid == REG_CODE_TABLE:
                return _finite_status(self.code_table, inp, cap)
            if rid == REG_PAD:
                return self._pad_status(inp, cap)
            if rid == REG_PAIR:
                return self._pair_status(inp, cap)
            raise ValueError(f"unknown registry id {rid}")
        if kind == "decoded-table":
            return ("d",) if machine.table is None else _tm_status(machine.table, inp, cap)
        if kind == "mapping":
            return _finite_status(machine.mapping, inp, cap)
        if kind == "guarded":
            return self.guard_status(machine.inner, inp, cap)
        raise ValueError(f"unknown behavior kind {kind!r}")

    def _pad_status(self, inp: str, cap: int):
        key = ("pad", inp)
        hit = _cached(self._machine, key, cap)
        if hit is not None:
            return hit
        inner = self.u_status(inp, max(cap - 1, 0))
        if inner[0] == "h":
            out = index_to_string(len(inner[2])) + inner[2]
            status = ("h", inner[1] + len(out) + 1, out)
        else:
            status = inner if inner[0] == "d" else ("u", cap)
        return _settle(self._machine, key, status, cap)

    def _pair_status(self, s: str, cap: int):
        key = ("pair", s)
        hit = _cached(self._machine, key, cap)
        if hit is not None:
            return hit
        # a halting cost is cap-free, so ask each half once, at the last round
        base = len(s) + 1
        room = (cap - base) // 2  # rounds t <= room fit under the cap
        top = 1 << (room.bit_length() - 1) if room > 0 else 0
        wins = []
        open_splits = [] if top else range(len(s) + 1)  # no half proven "d"
        v = self._v
        for i in range(len(s) + 1 if top else 0):
            left = v.get(s[:i])
            if left != ("d",):
                left = self.v_status(s[:i], top)
            right = left
            if left[0] == "h":
                right = v.get(s[i:])
                if right != ("d",):
                    right = self.v_status(s[i:], top)
            if right[0] == "h":
                t = 1 << (max(left[1], right[1], 1) - 1).bit_length()
                wins.append((t, i, left[2] + right[2]))
            elif right[0] == "u":
                open_splits.append(i)
        if wins:
            t, i, out = min(wins)
            status = ("h", 2 * t + i + base, out)
        elif cap >= 2 and all(
            v.get(s[:i]) == ("d",)
            or self.v_status(s[:i], cap - 1)[0] == "d"
            or v.get(s[i:]) == ("d",)
            or self.v_status(s[i:], cap - 1)[0] == "d"
            for i in open_splits
        ):
            status = ("d",)
        else:
            status = ("u", cap)
        return _settle(self._machine, key, status, cap)

    # -- the prefix guard ---------------------------------------------------

    def _comparables(self, b: str, limit: int):
        """(rank, c) for each c comparable with b, through the first rank >= limit."""
        rank = 0
        yield 0, ""
        for k in range(1, len(b) + 1):
            if rank >= limit:
                return
            rank = 2 * rank + (2 if b[k - 1] == "1" else 1)
            yield rank, b[:k]
        last = rank
        for width in range(1, self.len_limit - len(b) + 1):
            if last >= limit:
                return
            start = ((rank + 1) << width) - 1
            last = max(start, min(start + (1 << width) - 1, limit))
            yield from zip(range(start, last + 1), _spell(width, b))

    def guard_status(self, machine: MachineBehavior, b: str, cap: int):
        if machine.kind == "decoded-table" and machine.table is None:
            return ("d",)
        if machine.kind == "mapping":
            return self._guard_finite(machine.mapping, b, cap)
        if machine.kind == "registry-native" and machine.registry_id == REG_CODE_TABLE:
            return self._guard_finite(self.code_table, b, cap)
        return self._guard_walk(machine, b, cap)

    def _guard_finite(self, table: tuple[tuple[str, str], ...], b: str, cap: int):
        # the domain is known outright, so the dovetail winner is exact
        best = None
        for c, out in table:
            if not (b.startswith(c) or (c.startswith(b) and len(c) <= self.len_limit)):
                continue
            j = string_to_index(c)
            cand = (j + len(c) + len(out) + 1, j, c, out)
            if best is None or cand < best:
                best = cand
        if best is None or best[2] != b:
            return ("d",)
        return ("h", best[0], best[3]) if best[0] <= cap else ("u", cap)

    def _guard_walk(self, machine: MachineBehavior, b: str, cap: int):
        # bound is the least finishing diagonal so far (cap + 1 before any
        # halt); each comparable is probed at bound - 1 - j, so a halt there
        # finishes below bound and wins, and a tie keeps the lower rank.  A
        # "u" or the early stop only matters when nothing has won.
        tag = {REG_PAD: "pad", REG_PAIR: "pair"}.get(machine.registry_id)
        best, bound, unresolved = None, cap + 1, False
        for j, c in self._comparables(b, cap):
            if j >= bound - 1:
                unresolved = True
                break
            if tag and self._machine.get((tag, c)) == ("d",):
                continue
            st = self.m_status(machine, c, bound - 1 - j)
            if st[0] == "h":
                best, bound = (c, st[2]), j + st[1]
            elif st[0] == "u":
                unresolved = True
        if best is None:
            return ("u", cap) if unresolved else ("d",)
        return ("h", bound, best[1]) if best[0] == b else ("d",)

    # -- the two universal machines -----------------------------------------

    def _dispatch(self, inner, inp: str, cap: int):
        """Run machine n on a through `inner` for input 1^n 0 a, charging
        n + 1 dispatch steps."""
        n = inp.find("0")
        if n < 0:
            return ("d",)
        status = inner(decode_machine(n), inp[n + 1 :], max(cap - n - 1, 0))
        if status[0] == "h":
            return ("h", status[1] + n + 1, status[2])
        return status if status[0] == "d" else ("u", cap)

    def u_status(self, inp: str, cap: int):
        return self._dispatch(self.m_status, inp, cap)

    def v_status(self, prog: str, cap: int):
        hit = _cached(self._v, prog, cap)
        if hit is not None:
            return hit
        if len(prog) > self.len_limit:
            status = ("d",)
        else:
            status = self._dispatch(self.guard_status, prog, cap)
        return _settle(self._v, prog, status, cap)

    # -- the dovetail replay -------------------------------------------------

    def advance(self, stage: int) -> bool:
        """Ask the due ranks on to the next event or to ordinal `stage`; True on
        an event.  Every other pair is a memo hit, which writes nothing."""
        due, v, ranks = self._due, self._v, (2 << self.len_limit) - 1
        while due:
            diagonal, j, prog = due[0]
            ordinal = diagonal * (diagonal - 1) // 2 + j
            if ordinal >= stage:
                break
            if j + 1 == diagonal < ranks:  # rank j's first pair: rank j + 1 joins next
                heappush(due, (diagonal + 1, diagonal, index_to_string(diagonal)))
            s = diagonal - j
            if _cached(v, prog, s) is None:  # only a memo miss is asked
                self.v_status(prog, s)
            entry = v[prog]
            if entry[0] == "u" or entry[0] == "h" and entry[1] > s:
                heapreplace(due, (j + entry[1] + (entry[0] == "u"), j, prog))
                continue
            heappop(due)  # settled: V diverges, or first halts on prog here
            if entry[0] == "h":
                outcome = BudgetedOutcome("halted", entry[2], s, s)
                self.events.append(DovetailEvent(prog, ordinal, outcome))
                self.masses.append(self.masses[-1] + (1 << (self.len_limit - len(prog))))
                return True
        return False

    def events_below(self, stage: int):
        """Yield the events with ordinal < stage, replaying only as far as consumed."""
        k = 0
        while k < len(self.events) or self.advance(stage):
            if self.events[k].stage >= stage:
                return
            yield self.events[k]
            k += 1


# ---------------------------------------------------------------------------
# the registry: the installed code table and its universes
# ---------------------------------------------------------------------------


def _fingerprint(code_table: tuple[tuple[str, str], ...]) -> str:
    payload = {
        "registry": list(REGISTRY_NAMES),
        "table_offset": REGISTRY_SIZE,
        "tm_field_bits": [3, 2, 1],
        "code_table": [[k, v] for k, v in code_table],
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("ascii"))
    return digest.hexdigest()


class _Registry:
    """One installed code table (sorted items), its fingerprint, hashed once,
    and its universes by len_limit.  Installing a different table replaces
    the whole object, so the retired table's universes are freed with it."""

    __slots__ = ("code_table", "fingerprint", "contexts")

    def __init__(self, code_table: tuple[tuple[str, str], ...]):
        self.code_table = code_table
        self.fingerprint = _fingerprint(code_table)
        self.contexts: dict[int, _Context] = {}


_REGISTRY = _Registry(())


def _context(len_limit: int) -> _Context:
    if len_limit < 0:
        raise ValueError("len_limit must be nonnegative")
    ctx = _REGISTRY.contexts.get(len_limit)
    if ctx is None:
        ctx = _REGISTRY.contexts[len_limit] = _Context(len_limit, _REGISTRY.code_table)
    return ctx


def install_code_table(table: dict[str, str]) -> None:
    """Install the finite decoder behind registry index 4.

    Keys must form an antichain so the code-table behavior is prefix-free
    by construction.  Re-installing the installed table keeps its universes.
    """
    global _REGISTRY
    items = mapping_behavior(table).mapping
    if not is_prefix_free([k for k, _ in items]):
        raise ValueError("code table keys must form an antichain")
    if items != _REGISTRY.code_table:
        _REGISTRY = _Registry(items)


def clear_code_table() -> None:
    install_code_table({})


def current_code_table() -> dict[str, str]:
    return dict(_REGISTRY.code_table)


def registry_fingerprint() -> str:
    return _REGISTRY.fingerprint


# ---------------------------------------------------------------------------
# public runners
# ---------------------------------------------------------------------------


def _outcome(status, budget: int) -> BudgetedOutcome:
    if status[0] == "h":
        return BudgetedOutcome("halted", status[2], status[1], budget)
    return BudgetedOutcome("exhausted", None, budget, budget)


def _check_budget(budget: int, what: str = "budget") -> int:
    budget = operator.index(budget)
    if budget < 0:
        raise ValueError(f"{what} must be nonnegative")
    return budget


def _check_stage(stage: int) -> int:
    return _check_budget(stage, "stage")


def run(
    machine: MachineBehavior,
    inp: str,
    budget: int,
    len_limit: int = DEFAULT_LEN_LIMIT,
) -> BudgetedOutcome:
    budget = _check_budget(budget)
    return _outcome(_context(len_limit).m_status(machine, _check_bits(inp), budget), budget)


def universal_run(
    inp: str, budget: int, len_limit: int = DEFAULT_LEN_LIMIT
) -> BudgetedOutcome:
    budget = _check_budget(budget)
    return _outcome(_context(len_limit).u_status(_check_bits(inp), budget), budget)


def prefix_universal_run(
    prog: str, budget: int, len_limit: int = DEFAULT_LEN_LIMIT
) -> BudgetedOutcome:
    budget = _check_budget(budget)
    return _outcome(_context(len_limit).v_status(_check_bits(prog), budget), budget)


_STATUS_NAMES = {"h": "halted", "d": "diverges", "u": "unresolved"}


def universal_status(inp: str, budget: int, len_limit: int = DEFAULT_LEN_LIMIT) -> str:
    """Classify U on `inp`: "halted" within budget, certified "diverges"
    (no budget will ever help), or "unresolved" at this budget."""
    budget = _check_budget(budget)
    return _STATUS_NAMES[_context(len_limit).u_status(_check_bits(inp), budget)[0]]


def prefix_universal_status(
    prog: str, budget: int, len_limit: int = DEFAULT_LEN_LIMIT
) -> str:
    """Classify V on `prog` the way universal_status classifies U."""
    budget = _check_budget(budget)
    return _STATUS_NAMES[_context(len_limit).v_status(_check_bits(prog), budget)[0]]


def dovetail_events(stage: int, len_limit: int = DEFAULT_LEN_LIMIT):
    """Yield the first-halt events among the first `stage` dovetail pairs.

    Pairs (program rank j, step budget s >= 1) are visited along diagonals
    d = j + s ascending, by j within a diagonal; the pair at ordinal
    d(d-1)/2 + j reports a DovetailEvent exactly when V first halts there,
    i.e. when its halting cost equals s.  Each universe keeps one replay,
    which asks V only about the pairs its memo cannot answer.
    """
    return _context(len_limit).events_below(_check_stage(stage))


def dovetail_domain(stage: int, len_limit: int = DEFAULT_LEN_LIMIT) -> list[DovetailEvent]:
    return list(dovetail_events(stage, len_limit))
