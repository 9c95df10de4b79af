"""Lower bounds on the halting probability of the prefix-free machine V.

The halting probability is the Kraft mass of V's domain.  Because that
domain is only enumerable, everything here is a stage-indexed lower bound:
run the dovetailer for a prescribed number of (program, step) pairs, collect
the programs seen halting, and take their exact Kraft sum.  No upper bounds,
gap estimates, or digit claims are ever produced; the bound is exact dyadic
arithmetic over an explicit finite set of witnesses, and it is relative to
this machine, so estimates carry the registry fingerprint.

Each universe keeps one dovetail replay, shared by every function here and
extended only on demand: its events in ordinal order and their running Kraft
masses.  Once V halts or provably diverges on every program up to
len_limit, the universe is settled: any later stage returns at once, with
the exact halting probability of those programs.  A stage's bound and
halted_below read the events through dovetail_events and sum them with
kraft_sum.  psi_reconstruct bisects the masses for the first event whose
mass exceeds a candidate lower-bound prefix read as a dyadic value, and
reports the halted programs no longer than it.  When the value really is a
lower-bound prefix of the halting probability, every program of that length
class must have appeared by the crossing point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .bitstr import Dyadic, _check_bits, value_of
from .machine import (
    DEFAULT_LEN_LIMIT, _check_stage, _context, dovetail_events, registry_fingerprint
)
from .prefixfree import kraft_sum


@dataclass(frozen=True)
class OmegaEstimate:
    """A stage's exact contribution record: lower_bound = kraft_sum(halted)."""

    lower_bound: Dyadic
    stage: int
    halted: frozenset[str]
    fingerprint: str


def _stage_replay(stage: int, len_limit: int) -> tuple[list, list[Dyadic]]:
    """The CLI table's rows: the replay's events below ordinal `stage`, and
    the running lower bound before and after each of them."""
    ctx = _context(len_limit)
    events = list(ctx.events_below(stage))
    return events, [Dyadic(m, len_limit) for m in ctx.masses[: len(events) + 1]]


def omega_lower_bound(stage: int, len_limit: int = DEFAULT_LEN_LIMIT) -> OmegaEstimate:
    """Exact Kraft mass of the programs seen halting within `stage` pairs."""
    stage = _check_stage(stage)
    halted = frozenset(e.program for e in dovetail_events(stage, len_limit))
    return OmegaEstimate(kraft_sum(halted), stage, halted, registry_fingerprint())


def halted_below(
    n: int, stage: int, len_limit: int = DEFAULT_LEN_LIMIT
) -> frozenset[str]:
    """The stage-observed part of {p : |p| <= n and V(p) halts}."""
    return frozenset(e.program for e in dovetail_events(stage, len_limit) if len(e.program) <= n)


def psi_reconstruct(
    a: str, stage_limit: int, len_limit: int = DEFAULT_LEN_LIMIT
) -> frozenset[str] | None:
    """Find the first dovetail event whose running mass exceeds value_of(a);
    then return the halted programs of length <= |a| seen by then.  None if
    stage_limit pairs were not enough to cross."""
    target = value_of(_check_bits(a))
    stage_limit = _check_stage(stage_limit)
    ctx = _context(len_limit)
    # a mass m / 2^len_limit exceeds the target exactly when m > floor
    floor = (target.num << len_limit) >> target.scale
    masses = ctx.masses
    while masses[-1] <= floor and ctx.advance(stage_limit):
        pass
    k = bisect_right(masses, floor)  # events[k - 1] is the crossing event
    if k == len(masses) or ctx.events[k - 1].stage >= stage_limit:
        return None
    return frozenset(e.program for e in ctx.events[:k] if len(e.program) <= len(a))
