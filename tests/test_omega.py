"""Halting-probability lower bounds and the prefix-to-halted-set inverse.

Two oracles: brute_halted recomputes each stage's halted set directly from
the runner API and the dovetail ordinal formula, without going through the
dovetailer; replay_events is the dovetailer as first written, replaying every
pair from 0 in a fresh universe, against which the shared, resumable replay
is checked for stages asked in any order.
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


def replay_events(stage: int, len_limit: int) -> list[DovetailEvent]:
    """The dovetailer as first written, kept as the oracle: every call
    replays the pairs from ordinal 0, here in a universe of its own."""
    ctx = machine._Context(len_limit, ())
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
    return events


@lru_cache(maxsize=None)
def oracle_events(len_limit: int) -> tuple[DovetailEvent, ...]:
    return tuple(replay_events(REPLAY_TOP, len_limit))


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
        assert next(dovetail_events(10**15)).program == "0"
        assert machine._context(machine.DEFAULT_LEN_LIMIT).replay_at[0] == 5
