"""Halting-probability lower bounds and the prefix-to-halted-set inverse.

Two oracles: brute_halted recomputes each stage's halted set directly from
the runner API and the dovetail ordinal formula, without going through the
dovetailer; replay_events is the dovetailer as first written, asking V about
every pair from 0, against which the shared, resumable replay of due ranks
is checked for stages asked in any order: its events, and the memos it
leaves behind.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_universes
from randlab import machine, omega
from randlab.bitstr import DYADIC_ZERO, Dyadic, bits_of, index_to_string, value_of
from randlab.complexity import plain_c, prefix_k
from randlab.machine import (
    BudgetedOutcome,
    DovetailEvent,
    dovetail_events,
    prefix_universal_run,
    registry_fingerprint,
)
from randlab.omega import halted_below, omega_lower_bound, psi_reconstruct
from randlab.prefixfree import is_prefix_free, kraft_sum

STAGES = [0, 1, 4, 5, 64, 512, 4096, 2**14]


def ordinal(j: int, s: int) -> int:
    d = j + s
    return d * (d - 1) // 2 + j


def brute_halted(stage: int) -> set[str]:
    d_max = 1
    while d_max * (d_max - 1) // 2 < stage:
        d_max += 1
    halted = set()
    for j in range(d_max):
        p = index_to_string(j)
        out = prefix_universal_run(p, d_max)
        if out.halted and ordinal(j, out.steps_used) < stage:
            halted.add(p)
    return halted


def as_fraction(r: Dyadic) -> Fraction:
    return Fraction(r.num, 2**r.scale)


# ---------------------------------------------------------------------------
# omega_lower_bound
# ---------------------------------------------------------------------------


def test_estimates_match_brute_force_recomputation() -> None:
    for stage in STAGES:
        estimate = omega_lower_bound(stage)
        assert set(estimate.halted) == brute_halted(stage)
        assert estimate.lower_bound == kraft_sum(estimate.halted)
        assert estimate.stage == stage
        assert estimate.fingerprint == registry_fingerprint()


def test_estimates_monotone_and_bounded() -> None:
    previous = DYADIC_ZERO
    for stage in STAGES:
        bound = omega_lower_bound(stage).lower_bound
        assert DYADIC_ZERO <= bound <= 1
        assert bound >= previous
        previous = bound
    assert previous > 0


def test_first_contribution_appears_at_stage_five() -> None:
    assert omega_lower_bound(4).halted == frozenset()
    assert omega_lower_bound(5).halted == frozenset({"0"})
    assert omega_lower_bound(5).lower_bound == Dyadic(1, 1)


def test_halted_sets_are_antichains() -> None:
    for stage in STAGES:
        assert is_prefix_free(omega_lower_bound(stage).halted)


def test_mass_at_desk_stage() -> None:
    # the five cheap registry dispatches are the only halts with dovetail
    # ordinals below 4096: 1/2 + 1/8 + 3/32
    estimate = omega_lower_bound(4096)
    assert estimate.halted == frozenset({"0", "100", "11100", "11000", "10100"})
    assert as_fraction(estimate.lower_bound) == Fraction(23, 32)


def test_bounds_read_the_public_dovetail_events(monkeypatch) -> None:
    # the stage bound and halted_below read their events through the public
    # generator, the name a tracer rebinds, once per call
    calls = []

    def counting(stage, len_limit):
        calls.append((stage, len_limit))
        return dovetail_events(stage, len_limit)

    monkeypatch.setattr(omega, "dovetail_events", counting)
    estimate = omega_lower_bound(4096, 12)
    assert estimate.lower_bound == kraft_sum(estimate.halted) == Dyadic(23, 5)
    assert halted_below(3, 4096, 12) == {"0", "100"}
    assert calls == [(4096, 12), (4096, 12)]


# ---------------------------------------------------------------------------
# halted_below
# ---------------------------------------------------------------------------


def test_halted_below_filters_by_length() -> None:
    for stage in STAGES:
        full = set(omega_lower_bound(stage).halted)
        for n in range(7):
            observed = halted_below(n, stage)
            assert observed == {p for p in full if len(p) <= n}
            for p in observed:
                assert prefix_universal_run(p, stage).halted


def test_halted_below_empty_cases() -> None:
    assert halted_below(0, 2**12) == frozenset()  # V(eps) certifiably diverges
    assert halted_below(6, 0) == frozenset()


def test_halted_below_monotone_in_stage() -> None:
    for n in range(7):
        seen: frozenset[str] = frozenset()
        for stage in STAGES:
            now = halted_below(n, stage)
            assert seen <= now
            seen = now


# ---------------------------------------------------------------------------
# psi_reconstruct
# ---------------------------------------------------------------------------


def test_psi_empty_prefix_crosses_at_first_event() -> None:
    assert psi_reconstruct("", 5) == frozenset()
    assert psi_reconstruct("", 4) is None


def test_psi_single_bit_fixtures() -> None:
    # value 1/4 is crossed by the first event; value 1/2 is only matched,
    # never exceeded, at stage five
    assert psi_reconstruct("0", 5) == frozenset({"0"})
    assert psi_reconstruct("1", 5) is None


def test_psi_value_beyond_reachable_mass() -> None:
    assert psi_reconstruct("111111", 8) is None


def test_psi_exact_stage_mass_consistency() -> None:
    # reconstruction from the tail-of-ones rendering of a stage's exact mass
    # recovers exactly that stage's bounded halted sets
    for stage in STAGES:
        mass = omega_lower_bound(stage).lower_bound
        if mass == DYADIC_ZERO:
            for n in range(7):
                assert psi_reconstruct("0" * n, stage) is None
            continue
        for n in range(7):
            a = bits_of(mass, n)
            assert psi_reconstruct(a, stage) == halted_below(n, stage)


def test_psi_results_are_antichains() -> None:
    for stage in [5, 64, 4096]:
        mass = omega_lower_bound(stage).lower_bound
        for n in range(7):
            reconstructed = psi_reconstruct(bits_of(mass, n), stage)
            assert reconstructed is not None
            assert is_prefix_free(reconstructed)


def test_psi_rejects_non_bits() -> None:
    with pytest.raises(ValueError):
        psi_reconstruct("2", 10)
    with pytest.raises(ValueError):
        psi_reconstruct("0x", 2**40)  # before any replaying


# ---------------------------------------------------------------------------
# stages must be natural numbers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda stage: omega_lower_bound(stage),
        lambda stage: halted_below(3, stage),
        lambda stage: psi_reconstruct("0", stage),
        lambda stage: dovetail_events(stage),
    ],
)
def test_stages_must_be_natural_numbers(call) -> None:
    # dovetail_events checks its stage when called, not when first advanced
    with pytest.raises(TypeError):
        call(2.5)
    with pytest.raises(TypeError):
        call(64.0)
    with pytest.raises(ValueError):
        call(-1)


# ---------------------------------------------------------------------------
# the shared replay against the replay from pair 0
# ---------------------------------------------------------------------------

# up to REPLAY_TOP the events at len_limit 8, 10 and 12 coincide (their
# masses do not share a scale); at 6 the length-7 programs never halt
REPLAY_LIMITS = [6, 8, 10, 12]
REPLAY_TOP = 2**16


def replay_events(stage: int, len_limit: int, ctx=None):
    """The dovetailer as first written, kept as the oracle: every call asks
    V about every pair from ordinal 0, in `ctx` or else a universe of its
    own; return the events and the universe."""
    ctx = ctx or machine._Context(len_limit, ())
    events = []
    ordinal = 0
    diagonal = 1
    while ordinal < stage:
        for j in range(diagonal):
            if ordinal >= stage:
                break
            s = diagonal - j
            prog = index_to_string(j)
            status = ctx.v_status(prog, s)
            if status[0] == "h" and status[1] == s:
                events.append(DovetailEvent(prog, ordinal, BudgetedOutcome("halted", status[2], s, s)))
            ordinal += 1
        diagonal += 1
    return events, ctx


@lru_cache(maxsize=None)
def oracle_events(len_limit: int) -> tuple[DovetailEvent, ...]:
    return tuple(replay_events(REPLAY_TOP, len_limit)[0])


def oracle_psi(a: str, events: list[DovetailEvent]) -> frozenset[str] | None:
    # psi_reconstruct as first written: sum the masses event by event
    target = value_of(a)
    mass = DYADIC_ZERO
    for k, event in enumerate(events):
        mass = mass + Dyadic(1, len(event.program))
        if mass > target:
            return frozenset(e.program for e in events[: k + 1] if len(e.program) <= len(a))
    return None


def check_stage(stage: int, len_limit: int) -> None:
    events = [e for e in oracle_events(len_limit) if e.stage < stage]
    halted = frozenset(e.program for e in events)
    assert list(dovetail_events(stage, len_limit)) == events, stage
    estimate = omega_lower_bound(stage, len_limit)
    assert (estimate.halted, estimate.stage) == (halted, stage)
    assert estimate.lower_bound == kraft_sum(halted)
    for n in (0, 3, 5, len_limit):
        assert halted_below(n, stage, len_limit) == {p for p in halted if len(p) <= n}
    targets = ["", "0", "1", "01", "1011", "111111"]
    targets += [bits_of(estimate.lower_bound, n) for n in range(1, 8)]
    for a in targets:
        assert psi_reconstruct(a, stage, len_limit) == oracle_psi(a, events), (stage, a)


ORDER_STAGES = [0, 1, 4, 5, 6, 15, 64, 777, 4096, 5000, 2**14, 40_000, REPLAY_TOP]


@pytest.mark.parametrize("len_limit", REPLAY_LIMITS)
@pytest.mark.parametrize("order", ["rising", "falling"])
def test_shared_replay_matches_the_oracle(len_limit, order) -> None:
    assert len(oracle_events(len_limit)) >= 5  # enough events to cross
    stages = ORDER_STAGES if order == "rising" else ORDER_STAGES[::-1]
    with fresh_universes():
        for stage in stages:
            check_stage(stage, len_limit)


@pytest.mark.parametrize("len_limit", REPLAY_LIMITS)
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(stages=st.lists(st.integers(0, 300) | st.integers(0, REPLAY_TOP), min_size=1, max_size=6))
def test_shared_replay_matches_the_oracle_in_any_order(len_limit, stages) -> None:
    with fresh_universes():
        for stage in stages:
            check_stage(stage, len_limit)


def test_interleaved_iterator_yields_only_its_stage() -> None:
    # another caller extends the shared replay while an iterator is open
    stage = 2450
    expected = [e for e in oracle_events(12) if e.stage < stage]
    with fresh_universes():
        events = dovetail_events(stage, 12)
        seen = [next(events)]
        assert omega_lower_bound(4 * stage, 12).halted > {e.program for e in expected}
        seen += events
    assert seen == expected


def test_replay_extends_only_as_far_as_consumed() -> None:
    # the first event is "0" at ordinal 4; neither call may replay past it
    with fresh_universes():
        assert psi_reconstruct("", 10**15) == frozenset()
        first = next(dovetail_events(10**15))
        ctx = machine._context(machine.DEFAULT_LEN_LIMIT)
        assert (first.program, first.stage) == ("0", 4) and ctx.events == [first]
        # the pair at the heap's head, (diagonal 3, rank 2), is ordinal 5
        diagonal, j, _ = ctx._due[0]
        assert diagonal * (diagonal - 1) // 2 + j == 5


# ---------------------------------------------------------------------------
# the due-rank replay asks only what the memo cannot answer
# ---------------------------------------------------------------------------


def memos(ctx) -> tuple[dict, dict]:
    """_machine, and _v on the programs the due-rank replay asks about: the
    full replay also asks about longer programs, which V rejects outright."""
    return ctx._machine, {p: st for p, st in ctx._v.items() if len(p) <= ctx.len_limit}


MEMO_STAGES = [0, 1, 5, 64, 777, 4096, 2**14, REPLAY_TOP]


@pytest.mark.parametrize("len_limit", REPLAY_LIMITS)
@pytest.mark.parametrize("order", ["rising", "falling"])
def test_due_ranks_leave_the_full_replays_memos(len_limit, order) -> None:
    # every pair the heap skips is a memo hit, which writes nothing
    stages = MEMO_STAGES if order == "rising" else MEMO_STAGES[::-1]
    reached, full = -1, None
    with fresh_universes():
        for stage in stages:
            events = list(dovetail_events(stage, len_limit))
            if stage > reached:  # the shared replay has now asked up to stage
                reached, full = stage, replay_events(stage, len_limit)
            full_events, full_ctx = full
            assert events == [e for e in full_events if e.stage < stage], stage
            assert memos(machine._context(len_limit)) == memos(full_ctx), stage


class AskCountingContext(machine._Context):
    """Counts V's top-level asks, and those the memo could not answer;
    the asks made from inside a status are left out."""

    def __init__(self, len_limit: int, code_table):
        super().__init__(len_limit, code_table)
        self.asks = self.misses = self.depth = 0

    def v_status(self, prog: str, cap: int):
        if not self.depth:
            self.asks += 1
            self.misses += machine._cached(self._v, prog, cap) is None
        self.depth += 1
        try:
            return super().v_status(prog, cap)
        finally:
            self.depth -= 1


def test_due_ranks_match_the_full_replay_between_queries(monkeypatch) -> None:
    # the witness sweeps of prefix_k and plain_c refine the memos the replay
    # reads between advances, so a due rank can come up already answered:
    # 49 do by 4096, and from 9000 on all do.  Such a rank is not asked.
    # The asks were [20, 80, 0, 0, 0] while the pair machine asked a left
    # half before it read its right half's ("d",): the sweep after 64 now
    # leaves fewer V entries, so the replay asks 12 more ranks itself
    monkeypatch.setattr(machine, "_Context", AskCountingContext)
    steps = [
        (64, lambda: prefix_k("0000", 12, 200)),
        (4096, lambda: plain_c("10101", 12, 300)),
        (9000, lambda: prefix_k("1101", 12, 600)),
        (40_000, lambda: plain_c("", 12, 50)),
        (REPLAY_TOP, lambda: None),
    ]

    def run(replay):
        with fresh_universes():
            ctx = machine._context(12)
            seen, asked = [], []
            for stage, query in steps:
                asks, misses = ctx.asks, ctx.misses
                seen.append((replay(ctx, stage), ctx.misses - misses))
                asked.append(ctx.asks - asks)
                query()
            return seen, memos(ctx), asked

    *due, due_asks = run(lambda ctx, stage: list(dovetail_events(stage, 12)))
    *full, _ = run(lambda ctx, stage: replay_events(stage, 12, ctx)[0])
    assert due == full
    assert due_asks == [misses for _, misses in due[0]] == [20, 92, 0, 0, 0]


def test_the_replay_asks_only_what_its_memo_cannot_answer(monkeypatch) -> None:
    # asking every pair took 65,536 asks to 2^16 and 1,048,576 to 2^20
    monkeypatch.setattr(machine, "_Context", AskCountingContext)
    full = replay_events(2**16, 12)[1]
    assert (full.asks, full.misses) == (2**16, 6401)
    with fresh_universes():
        ctx = machine._context(12)
        list(dovetail_events(2**16, 12))
        assert (ctx.asks, ctx.misses) == (6401, 6401)
        list(dovetail_events(2**20, 12))
        assert (ctx.asks, ctx.misses) == (80_809, 80_809)


def derived_events(stage: int, len_limit: int) -> list[DovetailEvent]:
    """The dovetailer derived from one ask per rank, in a universe of its
    own.  The pairs below `stage` end on diagonal D: rank j's last pair has
    cap D - j there, or D - j - 1 on diagonal D - 1 for a rank past the last
    pair's.  V halting on rank j within that cap at cost t is the event at
    ordinal(j, t), which is below `stage`; a rank still open has none."""
    ctx = machine._Context(len_limit, ())
    diagonal = 0
    while diagonal * (diagonal + 1) // 2 < stage:
        diagonal += 1
    last = stage - 1 - diagonal * (diagonal - 1) // 2  # the last pair's rank
    events = []
    for j in range(min(diagonal, (2 << len_limit) - 1)):
        prog = index_to_string(j)
        status = ctx.v_status(prog, diagonal - j - (j > last))
        if status[0] == "h":
            outcome = BudgetedOutcome("halted", status[2], status[1], status[1])
            events.append(DovetailEvent(prog, ordinal(j, status[1]), outcome))
    return sorted(events, key=lambda event: event.stage)


@pytest.mark.parametrize("len_limit", REPLAY_LIMITS)
def test_one_ask_per_rank_at_its_last_cap_gives_the_replays_events(len_limit) -> None:
    # statuses refine with the cap, so each rank's last pair below the stage
    # decides whether and when it halted: the replay's per-diagonal asks add
    # nothing to that one ask
    with fresh_universes():
        for stage in ORDER_STAGES:
            assert derived_events(stage, len_limit) == list(dovetail_events(stage, len_limit)), stage


def test_a_settled_universe_yields_its_exact_omega_at_any_stage() -> None:
    # every rank of length <= 8 leaves the heap by ordinal 41,261, so a later
    # stage asks nothing: Omega_8 = 99/128, the settled table's value
    with fresh_universes():
        estimate = omega_lower_bound(10**15, 8)
        ctx = machine._context(8)
        assert estimate.lower_bound == Dyadic(99, 7)
        assert len(estimate.halted) == 12 and ctx.events[-1].stage == 41_260
        assert ctx._due == [] and len(ctx.events) == 12
        assert omega_lower_bound(41_261, 8).halted == estimate.halted
        assert omega_lower_bound(41_260, 8).lower_bound < estimate.lower_bound
