"""A reference interpreter for U and V, written from the cost table in the
`randlab.machine` docstring alone: it shares no decoder, memo rule, dispatch,
guard walk or comparable enumeration with the status engine it checks, and
imports nothing from randlab.

It answers one question: does a run halt within a cap, and if so at what cost
and with what output.  It proves no divergence, so it checks the engine one
way only: an engine "h" must be the reference's (cost, output), and an engine
"d" or "u" at cap c must not halt here within c.  Every cost in the table is
at least 1 (a decoded table halts on a transition), so nothing halts within a
cap below 1.
"""

from __future__ import annotations

IDENTITY, PAD, PAIR, ECHO, CODE_TABLE = range(5)
TABLES_FROM = 5  # machine m >= 5 is the transition table spelled by rank m - 5


def rank(s: str) -> int:
    """The length-lex rank of s: "", "0", "1", "00", ... are 0, 1, 2, 3, ..."""
    return int("1" + s, 2) - 1


def spelled(j: int) -> str:
    """The string of length-lex rank j."""
    return bin(j + 1)[3:]


def decode(bits: str):
    """The transition table the bits spell, as {(state, symbol): (next, write,
    move)} with symbol 2 the blank, and its state count; None if malformed."""
    if len(bits) < 2:
        return None
    states = int(bits[:2], 2) + 1
    fields = bits[2:]
    if len(fields) != 18 * states:
        return None
    table = {}
    for k in range(3 * states):
        field = fields[6 * k : 6 * k + 6]
        nxt, write, move = int(field[:3], 2), int(field[3:5], 2), field[5]
        if nxt > states or write == 3:
            return None
        table[divmod(k, 3)] = (nxt, write, 1 if move == "1" else -1)
    return table, states


def simulate(machine, inp: str, cap: int):
    """Run a decoded table on inp; (transitions, the leftmost maximal
    blank-free run) if it halts within cap transitions, else None."""
    table, states = machine
    tape = dict(enumerate(int(c) for c in inp))
    head, state = 0, 0
    for steps in range(1, cap + 1):
        state, write, move = table[(state, tape.get(head, 2))]
        if write == 2:
            tape.pop(head, None)
        else:
            tape[head] = write
        head += move
        if state == states:
            cell, out = min(tape, default=0), ""
            while cell in tape:
                cell, out = cell + 1, out + str(tape[cell])
            return steps, out
    return None


def within(cost: int, out: str, cap: int):
    return (cost, out) if cost <= cap else None


class Reference:
    """U and V for one len_limit and code table (a tuple of (codeword,
    output) pairs).  A memo keeps, per guard, pad or pair run, either its
    (cost, output) or the largest cap it is known not to halt within."""

    def __init__(self, len_limit: int, code_table=()):
        self.len_limit = len_limit
        self.code_table = dict(code_table)
        self.memo: dict = {}

    def _remembered(self, key, cap: int, compute):
        known = self.memo.get(key)
        if isinstance(known, tuple):
            return known if known[0] <= cap else None
        if known is not None and known >= cap:
            return None
        result = compute(cap)
        self.memo[key] = cap if result is None else result
        return result

    def machine(self, m: int, inp: str, cap: int):
        """Machine m on inp within cap: (cost, output) or None."""
        if cap < 1:
            return None
        if m == IDENTITY:
            return within(len(inp) + 1, inp, cap)
        if m == PAD:
            return self._remembered(("pad", inp), cap, lambda c: self.pad(inp, c))
        if m == PAIR:
            return self._remembered(("pair", inp), cap, lambda c: self.pair(inp, c))
        if m == ECHO:
            n = inp.find("0")
            return None if len(inp) != 2 * n + 1 else within(len(inp) + 1, inp[n + 1 :], cap)
        if m == CODE_TABLE:
            out = self.code_table.get(inp)
            return None if out is None else within(len(inp) + len(out) + 1, out, cap)
        table = decode(spelled(m - TABLES_FROM))
        return None if table is None else simulate(table, inp, cap)

    def pad(self, a: str, cap: int):
        # the cost is U's cost plus |output| + 1, so U runs within cap - 1
        inner = self.u(a, cap - 1)
        if inner is None:
            return None
        out = spelled(len(inner[1])) + inner[1]
        return within(inner[0] + len(out) + 1, out, cap)

    def pair(self, s: str, cap: int):
        # the least (t, i) decides, even when its cost is over the cap
        base = len(s) + 1
        t = 1
        while 2 * t + base <= cap:
            for i in range(len(s) + 1):
                left = self.v(s[:i], t)
                right = left and self.v(s[i:], t)
                if right:
                    return within(2 * t + i + base, left[1] + right[1], cap)
            t *= 2
        return None

    def comparables(self, b: str):
        """(rank, c) for the prefixes of b and its extensions up to len_limit,
        by rank."""
        for k in range(len(b) + 1):
            yield rank(b[:k]), b[:k]
        for length in range(len(b) + 1, self.len_limit + 1):
            width = length - len(b)
            for tail in range(2**width):
                c = b + format(tail, f"0{width}b")
                yield rank(c), c

    def guard(self, m: int, b: str, cap: int):
        """Guarded machine m on b within cap: the winner is the least
        (rank + cost, rank) among the comparables, and it must be b."""
        if m >= TABLES_FROM and decode(spelled(m - TABLES_FROM)) is None:
            return None  # a machine that never halts wins no comparable
        return self._remembered(("guard", m, b), cap, lambda c: self._winner(m, b, c))

    def _winner(self, m: int, b: str, cap: int):
        # only a finish on a diagonal below the best so far can win, and a
        # finish on the best diagonal keeps the lower rank
        best = None  # (diagonal, comparable, output)
        last = cap  # the last diagonal a new winner may finish on
        for j, c in self.comparables(b):
            if j >= last:
                break
            run = self.machine(m, c, last - j)
            if run is not None:
                best = (j + run[0], c, run[1])
                last = best[0] - 1
        if best is None or best[1] != b:
            return None
        return best[0], best[2]

    @staticmethod
    def _dispatched(run, prog: str, cap: int):
        # 1^n 0 a runs machine n on a, plus n + 1 steps
        n = prog.find("0")
        out = None if n < 0 else run(n, prog[n + 1 :], cap - n - 1)
        return None if out is None else (out[0] + n + 1, out[1])

    def u(self, prog: str, cap: int):
        return self._dispatched(self.machine, prog, cap)

    def v(self, prog: str, cap: int):
        """V never halts on a program longer than len_limit."""
        return None if len(prog) > self.len_limit else self._dispatched(self.guard, prog, cap)
