"""Machine substrate: decoding, budgeted runs, U, the guard, V, dovetailing.

Cost fixtures are hand-traced from the documented cost model before being
frozen here; each trace is spelled out next to its assertion.  Beyond them,
`tests/reference.py` interprets the same cost model with none of the
engine's code, and the engine must halt exactly where the reference halts,
at the same cost with the same output: on every U and V program up to
length 10, every pair input up to length 10, the frontier programs and
random decoded tables.  The reference proves no divergence, so the engine's
answers on those grids and its cold witness tables are also pinned: by
sha256 digest, and on the frontier programs in full.  The pins are the
answers of the five engine forks the reference replaced, and each fork's
cases check the engine against them under the fork's name.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import random
import tracemalloc
import weakref
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_universes
from randlab import machine, omega
from randlab.bitstr import all_strings, index_to_string, string_to_index
from randlab.complexity import _witness_table, plain_c, prefix_k
from randlab.machine import (
    DEFAULT_LEN_LIMIT,
    DIVERGING,
    REGISTRY_SIZE,
    MachineBehavior,
    clear_code_table,
    decode_machine,
    dovetail_domain,
    dovetail_events,
    install_code_table,
    mapping_behavior,
    prefix_guard,
    prefix_universal_run,
    prefix_universal_status,
    registry_fingerprint,
    run,
    universal_run,
    universal_status,
)
from randlab.mltest import ml_to_kc_decoder, registered_tests, sense1_to_sense2
from randlab.prefixfree import is_prefix_free
from reference import PAIR, Reference

BIG = 100_000


def echo_program(b: str) -> str:
    return "1110" + "1" * len(b) + "0" + b


def echo_cost(b: str) -> int:
    # dispatch (3 + 1) + winning diagonal: global rank of the echo argument
    # plus the echo cost |argument| + 1
    arg = "1" * len(b) + "0" + b
    return 4 + string_to_index(arg) + len(arg) + 1


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_decode_machine_total_over_small_indices() -> None:
    for m in range(2**12):
        behavior = decode_machine(m)
        if m < REGISTRY_SIZE:
            assert behavior.kind == "registry-native"
            assert behavior.registry_id == m
        else:
            assert behavior.kind == "decoded-table"


def test_decode_machine_rejects_negative() -> None:
    with pytest.raises(ValueError):
        decode_machine(-1)


@pytest.mark.parametrize(
    "entry",
    [
        lambda: run(decode_machine(0), "", BIG, -1),
        lambda: universal_run("", BIG, -1),
        lambda: prefix_universal_run("", BIG, -1),
        lambda: universal_status("", BIG, -1),
        lambda: prefix_universal_status("", BIG, -1),
        lambda: dovetail_events(10, -1),
        lambda: omega.omega_lower_bound(10, -1),
        lambda: omega.halted_below(2, 10, -1),
        lambda: omega.psi_reconstruct("", 10, -1),
    ],
    ids=[
        "run", "universal_run", "prefix_universal_run", "universal_status",
        "prefix_universal_status", "dovetail_events", "omega_lower_bound",
        "halted_below", "psi_reconstruct",
    ],
)
def test_machine_and_omega_entry_points_refuse_a_negative_len_limit(entry) -> None:
    # there is no universe of programs of negative length to ask, or to make
    with fresh_universes() as registry:
        with pytest.raises(ValueError, match="len_limit must be nonnegative"):
            entry()
    assert registry.contexts == {}


def test_short_encodings_are_all_malformed() -> None:
    # a well-formed table needs at least 2 + 18 bits
    for m in range(REGISTRY_SIZE, REGISTRY_SIZE + 2**19):
        if len(index_to_string(m - REGISTRY_SIZE)) >= 20:
            break
        assert decode_machine(m).table is None
    run_out = run(decode_machine(REGISTRY_SIZE), "0101", 10_000)
    assert not run_out.halted
    # so U and V programs, 1^m 0 a, reach a table only from 2^20 + 5 bits on
    assert decode_machine(2**20 + 3) is DIVERGING  # the 19 bits 1^19
    assert decode_machine(2**20 + 4).table == ((0, 0, -1),) * 3  # the 20 bits 0^20


def table_index(bits: str) -> int:
    return REGISTRY_SIZE + string_to_index(bits)


def test_a_table_decodes_only_at_its_own_length() -> None:
    # 2 bits of state count s - 1, then 18 bits per state: lengths 20, 38,
    # 56 and 74, whatever fields fill them ("000000" is always well formed)
    for count_bits in ("00", "01", "10", "11"):
        states = int(count_bits, 2) + 1
        for length in range(2, 81):
            bits = count_bits + "0" * (length - 2)
            decoded = decode_machine(table_index(bits)).table is not None
            assert decoded == (length == 2 + 18 * states), bits


def test_decoded_one_state_machine_writes_and_halts() -> None:
    # every (state 0, symbol) row: halt (next state == state count 1),
    # write, move right; a blank written over "" or "0" leaves an empty tape
    for write, written in [("00", "0"), ("01", "1"), ("10", "")]:
        row = "001" + write + "1"
        machine = decode_machine(table_index("00" + row * 3))
        assert machine.table is not None
        for inp in ["", "0", "1", "0110"]:
            out = run(machine, inp, 10)
            assert out.halted and out.steps_used == 1
            assert out.output == written + inp[1:]


def test_decoded_sweeper_machine() -> None:
    # state 0: on 0 write 1 and sweep right, on 1 halt, on blank halt
    # writing 0; "00" becomes "110" in three steps
    on0 = "000" + "01" + "1"
    on1 = "001" + "01" + "1"
    onb = "001" + "00" + "1"
    machine = decode_machine(table_index("00" + on0 + on1 + onb))
    # asked first, so the simulation itself runs out of steps, not the memo
    assert not run(machine, "00", 2).halted  # needs exactly 3 steps
    out = run(machine, "00", 10)
    assert (out.output, out.steps_used) == ("110", 3)


def test_decoded_tables_are_simulated_afresh() -> None:
    # a simulation never proves "d", so _machine keeps only pad and pair
    sweeper = decode_machine(table_index("00" + "000011" + "001011" + "001001"))
    with fresh_universes() as registry:
        for cap in (10, 2, 1000, 3, 0):
            assert not run(decode_machine(2**20 + 4), "0101", cap).halted
            assert run(sweeper, "00", cap).halted == (cap >= 3)
        run(decode_machine(1), "011", 20)  # pad, which does keep a memo
        (ctx,) = registry.contexts.values()
    assert {key[0] for key in ctx._machine} == {"pad"}


def test_malformed_field_values_reject_whole_table() -> None:
    bad_write = "001" + "11" + "1"  # write symbol 3 does not exist
    assert decode_machine(table_index("00" + bad_write * 3)).table is None
    bad_state = "011" + "01" + "1"  # next state 3 > state count 1
    assert decode_machine(table_index("00" + bad_state * 3)).table is None


def test_decoding_holds_no_memory() -> None:
    # 20-bit encodings, most of them well-formed one-state tables, that the
    # tests before this one leave undecoded; an unbounded cache on
    # decode_machine kept all of them alive, 37.9 MiB here
    tracemalloc.start()
    try:
        for m in range(table_index("0" * 20), table_index("0" * 20) + 200_000):
            decode_machine(m)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live < 2**20


# ---------------------------------------------------------------------------
# registry behaviors under run()
# ---------------------------------------------------------------------------


def test_identity_behavior() -> None:
    out = run(decode_machine(0), "0110", 100)
    assert (out.output, out.steps_used) == ("0110", 5)
    assert not run(decode_machine(0), "0110", 4).halted


def test_diverging_behavior_never_halts() -> None:
    assert not run(DIVERGING, "", 10**6).halted


def test_pad_behavior_trace() -> None:
    # pad("011"): U("011") is identity on "11", cost 1 + 4 = 5... dispatch 1
    # + identity cost 3 = 4; output "11"; pad prepends B_2 = "1" giving
    # "111" at cost 4 + 3 + 1 = 8
    out = run(decode_machine(1), "011", 20)
    assert (out.output, out.steps_used) == ("111", 8)
    assert run(decode_machine(1), "011", 7).status == "exhausted"


def test_pad_of_empty_output_is_empty() -> None:
    # U("0") = eps, and B_0 = eps, so pad("0") outputs eps at cost 2 + 1
    out = run(decode_machine(1), "0", 20)
    assert (out.output, out.steps_used) == ("", 3)


def test_echo_behavior_parse_matrix() -> None:
    echo = decode_machine(3)
    for n in range(4):
        for b in ("", "0", "1", "01", "110"):
            inp = "1" * n + "0" + b
            out = run(echo, inp, 100)
            if len(b) == n:
                assert (out.output, out.steps_used) == (b, len(inp) + 1)
            else:
                assert not out.halted
    assert not run(echo, "111", 100).halted  # no separator


def test_pair_behavior_trace() -> None:
    # pair("00"): the only split with both halves halting is ("0", "0"),
    # V("0") = eps at cost 2, round t = 2, so cost 2*2 + 1 + 3 = 8
    out = run(decode_machine(2), "00", BIG)
    assert (out.output, out.steps_used) == ("", 8)
    assert not run(decode_machine(2), "", BIG).halted
    assert not run(decode_machine(2), "0", BIG).halted


def test_code_table_behavior_empty_by_default() -> None:
    assert not run(decode_machine(4), "0", BIG).halted


def test_budget_monotonicity_grid() -> None:
    rng = random.Random(1201)
    inputs = [""] + [
        "".join(rng.choice("01") for _ in range(rng.randrange(1, 9))) for _ in range(40)
    ]
    for rid in range(REGISTRY_SIZE):
        machine = decode_machine(rid)
        for inp in inputs:
            seen = None
            for budget in [2**k for k in range(15)]:
                out = run(machine, inp, budget)
                if out.halted:
                    assert out.steps_used <= budget
                    if seen is None:
                        seen = (out.output, out.steps_used)
                    else:
                        assert (out.output, out.steps_used) == seen
                else:
                    assert seen is None  # halting never regresses


# ---------------------------------------------------------------------------
# the plain universal machine
# ---------------------------------------------------------------------------


def test_universal_run_identity_dispatch() -> None:
    out = universal_run("0" + "0110", BIG)
    assert (out.output, out.steps_used) == ("0110", 6)


def test_universal_run_unparseable_inputs() -> None:
    assert not universal_run("", BIG).halted
    assert not universal_run("1111111", BIG).halted


def test_universal_run_matches_direct_run_with_dispatch_overhead() -> None:
    rng = random.Random(77_000)
    for n in range(REGISTRY_SIZE):
        machine = decode_machine(n)
        for _ in range(25):
            d = "".join(rng.choice("01") for _ in range(rng.randrange(0, 7)))
            direct = run(machine, d, BIG)
            lifted = universal_run("1" * n + "0" + d, BIG + n + 1)
            assert lifted.halted == direct.halted
            if direct.halted:
                assert lifted.output == direct.output
                assert lifted.steps_used == direct.steps_used + n + 1


def test_universal_run_reaches_decoded_tables() -> None:
    row = "001" + "01" + "1"
    m = table_index("00" + row * 3)
    prog = "1" * m + "0" + "01"
    out = universal_run(prog, m + 3)
    assert (out.output, out.steps_used) == ("11", m + 2)


# ---------------------------------------------------------------------------
# the prefix guard
# ---------------------------------------------------------------------------


def test_guard_of_identity_halts_only_on_empty_string() -> None:
    guarded = prefix_guard(decode_machine(0))
    out = run(guarded, "", 100)
    assert (out.output, out.steps_used) == ("", 1)
    assert not run(guarded, "0", BIG).halted
    assert not run(guarded, "110", BIG).halted


def test_guard_of_singleton_mapping() -> None:
    unguarded = mapping_behavior({"0": "1"})
    assert astuple(run(unguarded, "0", 3)) == ("halted", "1", 3, 3)  # |in| + |out| + 1
    assert not run(unguarded, "0", 2).halted
    assert not run(unguarded, "00", BIG).halted
    guarded = prefix_guard(unguarded)
    out = run(guarded, "0", 100)
    assert out.halted and out.output == "1"
    assert not run(guarded, "00", BIG).halted
    assert not run(guarded, "", BIG).halted


def test_guard_prefers_globally_earlier_convergence() -> None:
    # both keys halt, but "0" finishes at diagonal 1 + 4 = 5 while "01"
    # finishes at 4 + 4 = 8; the guard must pick "0" in both scans
    machine = mapping_behavior({"0": "000", "01": ""})
    guarded = prefix_guard(machine)
    assert run(guarded, "0", 100).halted
    assert not run(guarded, "01", BIG).halted


def test_guard_equals_prefix_free_behavior_on_its_domain() -> None:
    echo = decode_machine(3)
    guarded = prefix_guard(echo)
    for n in range(4):
        for bits in itertools.product("01", repeat=n):
            member = "1" * n + "0" + "".join(bits)
            direct = run(echo, member, BIG)
            lifted = run(guarded, member, BIG)
            assert lifted.halted
            assert lifted.output == direct.output


def test_guarded_domain_is_an_antichain() -> None:
    guarded = prefix_guard(decode_machine(1))
    halted = []
    for length in range(9):
        for bits in itertools.product("01", repeat=length):
            b = "".join(bits)
            if run(guarded, b, BIG).halted:
                halted.append(b)
    assert halted  # nonvacuous
    assert is_prefix_free(halted)


# ---------------------------------------------------------------------------
# the prefix-free universal machine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "prog,output,cost",
    [
        # dispatch 1 + guard(identity) winning at eps (diagonal 0 + 1)
        ("0", "", 2),
        # dispatch 2 + guard(pad) winning at "0" (diagonal 1 + 3)
        ("100", "", 6),
        # dispatch 4 + guard(echo) winning at "0" (diagonal 1 + 2)
        ("11100", "", 7),
        # dispatch 3 + guard(pair) winning at "00" (diagonal 3 + 8)
        ("11000", "", 14),
        # dispatch 2 + guard(pad) winning at "100" (diagonal 11 + 6)
        ("10100", "", 19),
    ],
)
def test_prefix_universal_fixtures(prog: str, output: str, cost: int) -> None:
    out = prefix_universal_run(prog, BIG)
    assert (out.output, out.steps_used) == (output, cost)
    assert not prefix_universal_run(prog, cost - 1).halted


def test_prefix_universal_unparseable_and_oversized() -> None:
    assert not prefix_universal_run("", BIG).halted
    assert not prefix_universal_run("11111", BIG).halted
    held = echo_program("0")  # length 7
    assert prefix_universal_run(held, BIG).halted
    assert not prefix_universal_run(held, BIG, len_limit=6).halted


def test_every_string_is_reached_via_echo_programs() -> None:
    for length in range(6):
        for bits in itertools.product("01", repeat=length):
            b = "".join(bits)
            # the echo program has length 2|b| + 5, so lift the cap for
            # the longer targets
            out = prefix_universal_run(echo_program(b), BIG, len_limit=15)
            assert out.halted
            assert out.output == b
            assert out.steps_used == echo_cost(b)


def test_prefix_universal_domain_is_an_antichain() -> None:
    halted = []
    for length in range(9):
        for bits in itertools.product("01", repeat=length):
            p = "".join(bits)
            if prefix_universal_run(p, BIG).halted:
                halted.append(p)
    assert "0" in halted and "11000" in halted
    assert is_prefix_free(halted)


def test_comparable_halting_programs_never_coexist() -> None:
    halted = [
        "".join(bits)
        for length in range(8)
        for bits in itertools.product("01", repeat=length)
        if prefix_universal_run("".join(bits), BIG).halted
    ]
    for a, b in itertools.combinations(halted, 2):
        assert not (b.startswith(a) or a.startswith(b))


@pytest.mark.parametrize("len_limit", range(14))
def test_programs_comparable_with_a_halting_one_read_diverges(len_limit) -> None:
    # the certificate behind V's table sweeps, which never ask below a
    # halting program: at the budget each comparable of a halting program
    # reads ("d",), and each extension does so in a fresh universe already
    # at the halting program's own cost
    for code_table in ((), CODE_TABLE):
        ctx = machine._Context(len_limit, code_table)
        statuses = [(p, ctx.v_status(p, BIG)) for p in all_strings(len_limit)]
        for p, st in statuses:
            if st[0] != "h":
                continue
            extensions = [p + e for e in all_strings(len_limit - len(p)) if e]
            for q in [p[:k] for k in range(len(p))] + extensions:
                assert ctx.v_status(q, BIG) == ("d",), (code_table, p, q)
            for q in extensions:
                fresh = machine._Context(len_limit, code_table)
                assert fresh.v_status(q, st[1]) == ("d",), (code_table, p, q)


# ---------------------------------------------------------------------------
# the dovetailer
# ---------------------------------------------------------------------------


def test_dovetail_is_deterministic() -> None:
    assert dovetail_domain(512) == dovetail_domain(512)


def test_dovetail_monotone_in_stage() -> None:
    stages = [0, 1, 7, 64, 512, 4096]
    seen: set[str] = set()
    for stage in stages:
        halted = {e.program for e in dovetail_domain(stage)}
        assert seen <= halted
        seen = halted
    assert "0" in seen and "100" in seen


def test_dovetail_events_are_first_halts() -> None:
    events = dovetail_domain(4096)
    programs = [e.program for e in events]
    assert len(programs) == len(set(programs))
    for event in events:
        rerun = prefix_universal_run(event.program, BIG)
        assert rerun.halted
        assert event.outcome.steps_used == rerun.steps_used
        j = string_to_index(event.program)
        s = event.outcome.steps_used
        d = j + s
        assert event.stage == d * (d - 1) // 2 + j


def test_dovetail_halted_set_is_an_antichain() -> None:
    for stage in [1, 64, 512, 4096]:
        assert is_prefix_free({e.program for e in dovetail_domain(stage)})


# ---------------------------------------------------------------------------
# the memo rule
# ---------------------------------------------------------------------------


def fibonacci_caps(top: int) -> list[int]:
    caps, a, b = [0], 1, 2
    while a < top:
        caps.append(a)
        a, b = b, a + b
    return caps + [top]


MEMO_CAPS = fibonacci_caps(BIG)  # 0, 1, 2, 3, 5, 8, ..., 75025, 100000


@pytest.mark.parametrize("universal", ["u_status", "v_status"])
def test_memo_rule_across_query_orders(universal) -> None:
    # every status goes through one memo rule: a context queried at rising
    # caps answers exactly as a fresh context per query does, and one queried
    # at falling caps differs only where a divergence proven at a larger cap
    # is reported at a cap too small to prove it afresh
    def query(ctx, prog, cap):
        return getattr(ctx, universal)(prog, cap)

    def fresh():
        return machine._Context(8, ())

    carried = 0
    for prog in all_strings(8):
        up, down = fresh(), fresh()
        ascending = [query(up, prog, cap) for cap in MEMO_CAPS]
        descending = [query(down, prog, cap) for cap in reversed(MEMO_CAPS)][::-1]
        alone = [query(fresh(), prog, cap) for cap in MEMO_CAPS]
        assert ascending == alone, prog
        for cap, rising, falling in zip(MEMO_CAPS, ascending, descending):
            if falling != rising:
                assert (rising, falling) == (("u", cap), ("d",)), (prog, cap)
                carried += 1
        # statuses only refine: "u" may settle, "h" and "d" never change
        for cap, before, after in zip(MEMO_CAPS, ascending, ascending[1:]):
            if before[0] == "u":
                assert before == ("u", cap)
            else:
                assert after == before, prog
    assert carried > 0  # the falling order did reach a carried divergence


programs = st.text(alphabet="01", max_size=10)
# small caps as often as large ones, so that "u" settling is seen
caps = st.lists(st.integers(0, 200) | st.integers(0, BIG), min_size=1, max_size=6).map(sorted)


@pytest.mark.parametrize("universal", ["u_status", "v_status"])
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(prog=programs, caps=caps)
def test_statuses_only_refine_as_the_cap_grows(universal, prog, caps) -> None:
    # a fresh context per query, so no memo carries a status across caps:
    # "u" names its cap, and once "h" or "d" it never changes again
    statuses = [getattr(machine._Context(10, ()), universal)(prog, cap) for cap in caps]
    for cap, status in zip(caps, statuses):
        assert status in (("u", cap), ("d",)) or (status[0] == "h" and status[1] <= cap)
    for before, after in zip(statuses, statuses[1:]):
        if before[0] != "u":
            assert after == before


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(len_limit=st.integers(0, 10), budget=st.integers(0, BIG))
def test_v_halted_set_is_prefix_free(len_limit, budget) -> None:
    ctx = machine._Context(len_limit, ())
    halted = [p for p in all_strings(len_limit) if ctx.v_status(p, budget)[0] == "h"]
    assert is_prefix_free(halted)


# ---------------------------------------------------------------------------
# the engine against the reference, and its answers pinned
# ---------------------------------------------------------------------------
# tests/reference.py interprets the docstring's cost table with none of the
# engine's code.  It proves no divergence, so it checks halts only: each
# engine "h" is its (cost, output), and no engine "d" or "u" at cap c halts
# there within c.  Which programs read "d" and which "u" decides frontiers
# and `exhaustive` flags, so the engine's answers on the same grids are
# pinned as well (below).  A change that moves a pin on purpose names the
# old and the new digest in CHANGES.md.


def pair_caps(s: str) -> list[int]:
    # both sides of the round boundaries 2t + |s| + 1, from 0 to BIG
    rounds = (1, 2, 4, 8, 64)
    return [0, 1, 2] + [2 * t + len(s) + 1 + e for t in rounds for e in (-1, 0)] + [BIG]


def cap_runs(caps: list[int]):
    # rising and falling in a context of their own, and each inner cap in a
    # fresh context (the first rising and falling queries are fresh already)
    return (caps, caps[::-1], *([cap] for cap in caps[1:-1]))


# index 4 dispatches on "11110", so V programs up to length 10 reach it
CODE_TABLE = (("0", "1"), ("10", ""), ("110", "0101"), ("111", "1"))


def status_grid(len_limit: int, code_table=()):
    # every program up to length 10 on its pair cap ladder, asked of U and V
    for prog in all_strings(10):
        for caps in cap_runs(pair_caps(prog)):
            ctx = machine._Context(len_limit, code_table)
            for cap in caps:
                yield "U", prog, cap, ctx.u_status(prog, cap)
                yield "V", prog, cap, ctx.v_status(prog, cap)


def pair_grid(len_limit: int):
    # every pair input up to length 10 on its cap ladder
    for s in all_strings(10):
        for caps in cap_runs(pair_caps(s)):
            ctx = machine._Context(len_limit, ())
            for cap in caps:
                yield "pair", s, cap, ctx._pair_status(s, cap)


# the programs left unresolved at budget BIG by the cold prefix table at 12
FRONTIER_12 = ("11011011011", "110011011011", "110110110110")
# and at 13
FRONTIER_13 = (
    "11011011011", "110011011011", "110110011011", "110110110011", "110110110110",
    "1100110011011", "1100110110011", "1100110110110", "1101100110110",
    "1101101100110", "1101101101100", "1101101101101",
)
FRONTIERS = {12: (FRONTIER_12, MEMO_CAPS), 13: (FRONTIER_13, fibonacci_caps(10_946) + [BIG])}


def frontier_grid(len_limit: int):
    # a guard walk on these programs meets a comparable still "u" with no
    # halt before it, so that "u", and not a "d", decides the result; rising
    # and falling in one context, then each cap in a fresh context
    progs, caps = FRONTIERS[len_limit]
    for prog in progs:
        for run in (caps, caps[::-1], *([cap] for cap in caps)):
            ctx = machine._Context(len_limit, ())
            for cap in run:
                yield "V", prog, cap, ctx.v_status(prog, cap)


# sha256 of the engine's rows on the status and pair grids, which answer
# alike at len_limit 10 and 13
STATUS_NO_TABLE_PIN = "3fa0950c291559168427a688d38a7b5c7558c7eae64f5302a4ecadda2301854c"
STATUS_TABLE_PIN = "8ef49b11ce4b9735923d344021b7e866afe30143f13764b9b4a0f400186180c1"
PAIR_PIN = "8bd7d857e916624f95b1d3c52e9c044adc8e894c251a8a65f1c8d00b59094f5e"
GRIDS = {  # name: (grid, its arguments)
    "status-10-no-table": (status_grid, (10,)),
    "status-10-table": (status_grid, (10, CODE_TABLE)),
    "status-13-no-table": (status_grid, (13,)),
    "status-13-table": (status_grid, (13, CODE_TABLE)),
    "pair-10": (pair_grid, (10,)),
    "pair-13": (pair_grid, (13,)),
    "frontier-12": (frontier_grid, (12,)),
    "frontier-13": (frontier_grid, (13,)),
}


@functools.cache
def engine_rows(name: str) -> list:
    """(machine, input, cap, the engine's status) on a grid, computed once
    for its pins and its reference check; equal statuses share one tuple."""
    grid, args = GRIDS[name]
    seen: dict = {}
    return [(*row[:3], seen.setdefault(row[3], row[3])) for row in grid(*args)]


def digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


@functools.cache
def grid_digest(name: str) -> str:
    return digest(engine_rows(name))


@pytest.mark.parametrize("name", GRIDS)
def test_engine_grid_agrees_with_the_reference(name) -> None:
    ref = Reference(*GRIDS[name][1])
    runs = {"U": ref.u, "V": ref.v, "pair": functools.partial(ref.machine, PAIR)}
    for what, inp, cap, status in engine_rows(name):
        halt = status[1:] if status[0] == "h" else None
        assert runs[what](inp, cap) == halt, (what, inp, cap, status)


def random_table(rng: random.Random) -> str:
    # a well-formed table: next state <= the state count, write symbol <= 2
    states = rng.randrange(1, 5)
    fields = (
        f"{rng.randrange(states + 1):03b}{rng.randrange(3):02b}{rng.randrange(2)}"
        for _ in range(3 * states)
    )
    return f"{states - 1:02b}" + "".join(fields)


def test_decoded_tables_agree_with_the_reference() -> None:
    # random well-formed tables, and as many random bit strings of a table's
    # length (nearly all malformed), on random inputs at caps around the halt
    rng = random.Random(2405)
    ref = Reference(DEFAULT_LEN_LIMIT)
    halted = 0
    for k in range(600):
        bits = random_table(rng)
        if k % 2:
            bits = "".join(rng.choice("01") for _ in bits)
        m = table_index(bits)
        for _ in range(4):
            inp = "".join(rng.choice("01") for _ in range(rng.randrange(0, 8)))
            long_run = ref.machine(m, inp, 1000)
            halted += long_run is not None
            for cap in [0, 1, 2, 5, 1000] + ([long_run[0] - 1, long_run[0]] if long_run else []):
                out = run(decode_machine(m), inp, cap)
                halt = (out.steps_used, out.output) if out.halted else None
                assert halt == ref.machine(m, inp, cap), (bits, inp, cap)
    assert halted > 300


# ---------------------------------------------------------------------------
# the engine against the answers of its retired forks
# ---------------------------------------------------------------------------
# The engine was first checked against five frozen forks of its earlier
# selves.  Each was a _Context subclass, so it shared _dispatch, _cached,
# _tm_status and _comparables with the engine and could not see a fault in
# them; the reference above took their place.  Run on the grids above
# before they were retired, every fork gave the engine's rows exactly, so
# each fork's cases now check the engine against those rows: by digest on
# the status and pair grids and the cold witness tables, and in full on the
# frontier programs, which read ("u", cap) at every cap.


def assert_statuses_pinned(len_limit: int, code_table) -> None:
    universe = "table" if code_table else "no-table"
    pin = STATUS_TABLE_PIN if code_table else STATUS_NO_TABLE_PIN
    assert grid_digest(f"status-{len_limit}-{universe}") == pin


@functools.cache
def cold_witness_table(prefix: bool, len_limit: int):
    with fresh_universes():
        return _witness_table(prefix, len_limit, BIG)


def assert_cold_witness_table_pinned(prefix: bool, len_limit: int) -> None:
    table, frontier = cold_witness_table(prefix, len_limit)
    assert (len(table), frontier) == ((39, "11011011011") if prefix else (4735, None))
    assert digest([*table.items(), frontier]) == (
        "3b1813e16103d05b750ac3c263b6c363322775fd203219673dfdf595c1533569"
        if prefix
        else "b0bd9d2fd80f34dee62b65c103ed59a583987628951f5633bec00c50be6995e4"
    )


def assert_frontier_unresolved(len_limit: int, prog: str) -> None:
    rows = [row for row in engine_rows(f"frontier-{len_limit}") if row[1] == prog]
    assert rows
    assert [row for row in rows if row[3] != ("u", row[2])] == []


@pytest.mark.parametrize("len_limit", [10, 13])
def test_pair_statuses_match_the_round_loop(len_limit) -> None:
    # RoundLoopContext, the pair machine as first written: rounds t = 1, 2,
    # 4, ... asked both halves of every split at cap t until some split had
    # both halves halting within t
    assert grid_digest(f"pair-{len_limit}") == PAIR_PIN


@pytest.mark.parametrize("len_limit", [10, 13])
@pytest.mark.parametrize("code_table", [(), CODE_TABLE], ids=["no-table", "table"])
def test_statuses_match_the_four_memo_engine(len_limit, code_table) -> None:
    # FourMemoContext, the status engine as first written: besides _machine
    # and _v, U kept a memo per input and the guard one per (machine, input)
    assert_statuses_pinned(len_limit, code_table)


@pytest.mark.parametrize("len_limit", [10, 13])
@pytest.mark.parametrize("code_table", [(), CODE_TABLE], ids=["no-table", "table"])
def test_statuses_match_the_two_pass_engine(len_limit, code_table) -> None:
    # TwoPassContext, the pair machine before it skipped the splits proven
    # dead: its divergence pass at cap - 1 asked every split again
    assert_statuses_pinned(len_limit, code_table)


@pytest.mark.parametrize("prefix,len_limit", [(False, 12), (True, 13)], ids=["plain", "prefix"])
def test_cold_witness_tables_match_the_two_pass_engine(prefix, len_limit) -> None:
    assert_cold_witness_table_pinned(prefix, len_limit)


@pytest.mark.parametrize("len_limit", [10, 13])
@pytest.mark.parametrize("code_table", [(), CODE_TABLE], ids=["no-table", "table"])
def test_statuses_match_the_best_tuple_walk(len_limit, code_table) -> None:
    # BestTupleWalkContext, the guard walk as first written: it carried the
    # winner as a (d, j, comparable, output) tuple, picked each probe's cap
    # by whether anything had won yet, and compared every halt with the winner
    assert_statuses_pinned(len_limit, code_table)


@pytest.mark.parametrize("prefix,len_limit", [(False, 12), (True, 13)], ids=["plain", "prefix"])
def test_cold_witness_tables_match_the_best_tuple_walk(prefix, len_limit) -> None:
    assert_cold_witness_table_pinned(prefix, len_limit)


@pytest.mark.parametrize("prog", FRONTIER_12)
def test_frontier_statuses_match_the_best_tuple_walk(prog) -> None:
    assert_frontier_unresolved(12, prog)


@pytest.mark.parametrize("len_limit", [10, 13])
@pytest.mark.parametrize("code_table", [(), CODE_TABLE], ids=["no-table", "table"])
def test_statuses_match_the_call_every_probe_engine(len_limit, code_table) -> None:
    # CallEveryProbeContext, the pair split loop, its divergence pass and the
    # guard walk before they read a memoized ("d",) themselves: every probe
    # was a call
    assert_statuses_pinned(len_limit, code_table)


@pytest.mark.parametrize("prefix,len_limit", [(False, 12), (True, 13)], ids=["plain", "prefix"])
def test_cold_witness_tables_match_the_call_every_probe_engine(prefix, len_limit) -> None:
    assert_cold_witness_table_pinned(prefix, len_limit)


@pytest.mark.parametrize("prog", FRONTIER_13)
def test_frontier_statuses_match_the_call_every_probe_engine(prog) -> None:
    assert_frontier_unresolved(13, prog)


# ---------------------------------------------------------------------------
# two status memos, and the work they save
# ---------------------------------------------------------------------------


def shifted(outcome, n: int):
    # the outcome U or V reports for 1^n 0 x, given machine n's on x
    return (outcome.status, outcome.output, outcome.steps_used + n + 1, outcome.budget + n + 1)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_memoless_guard_and_u_match_v_and_u_runs(warm) -> None:
    # the guard and U keep no memo of their own: a guarded machine n on b is
    # V on 1^n 0 b, and machine n on a is U on 1^n 0 a, less n + 1 steps;
    # each cap is asked twice, before V and U are asked at all or after
    # their memos hold the status at BIG
    install_code_table(dict(CODE_TABLE))
    for n in range(5):
        behavior = decode_machine(n)
        for b in all_strings(6):
            prog = "1" * n + "0" + b
            caps = [cap for cap in pair_caps(b) for _ in range(2)]
            with fresh_universes():
                if warm:
                    prefix_universal_run(prog, BIG, 10)
                    universal_run(prog, BIG, 10)
                guarded = [shifted(run(prefix_guard(behavior), b, cap, 10), n) for cap in caps]
                plain = [shifted(run(behavior, b, cap, 10), n) for cap in caps]
                assert guarded == [
                    astuple(prefix_universal_run(prog, cap + n + 1, 10)) for cap in caps
                ], prog
                assert plain == [astuple(universal_run(prog, cap + n + 1, 10)) for cap in caps], prog


def test_cold_witness_tables_fit_two_memos() -> None:
    # a U memo and a guard memo beside _machine and _v peaked at 7.2 MiB here
    with fresh_universes():
        tracemalloc.start()
        try:
            plain_c("", 12, BIG)
            prefix_k("", 13, BIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 5.5 * 2**20


def test_engine_keeps_two_status_memos() -> None:
    ctx = machine._Context(8, ())
    assert [slot for slot in ctx.__slots__ if isinstance(getattr(ctx, slot), dict)] == [
        "tables", "_machine", "_v"
    ]


class CountingContext(machine._Context):
    """Counts the V queries, pair evaluations and guard walks made through
    it, recursive ones included."""

    def __init__(self, len_limit: int, code_table):
        super().__init__(len_limit, code_table)
        self.v_calls = self.pair_calls = self.walks = 0

    def v_status(self, prog: str, cap: int):
        self.v_calls += 1
        return super().v_status(prog, cap)

    def _pair_status(self, s: str, cap: int):
        self.pair_calls += 1
        return super()._pair_status(s, cap)

    def _guard_walk(self, machine, b: str, cap: int):
        self.walks += 1
        return super()._guard_walk(machine, b, cap)


def test_cold_prefix_table_skips_the_splits_proven_dead(monkeypatch) -> None:
    # 174,290 V queries when the divergence pass asked every split again,
    # 99,308 V queries and 66,237 pair evaluations when the split loop and
    # the guard walk called for every probe,
    # and 29,287 V queries when the divergence pass still called for a half
    # memoized ("d",); reading a memoized ("d",) saves calls, not guard walks.
    # 28,018 V queries, 8,894 pair evaluations and 18,059 guard walks while
    # the sweep still asked the 13,464 programs below a halting one, and
    # 7,075 guard walks while it still asked the programs below an
    # unresolved one.
    # 15,796 V queries, 7,985 pair evaluations and 7,065 guard walks while
    # the split loop asked a left half before it read its right half's
    # ("d",); a split with either half memoized ("d",) is now never asked
    monkeypatch.setattr(machine, "_Context", CountingContext)
    with fresh_universes() as registry:
        prefix_k("", 13, BIG)
    (ctx,) = registry.contexts.values()
    assert (ctx.v_calls, ctx.pair_calls, ctx.walks) == (8_190, 8_024, 4_159)


def test_a_split_whose_right_half_is_dead_never_asks_its_left_half() -> None:
    # the pair machine halts on a split only when both halves halt, so a
    # memoized ("d",) on either half kills the split before V is asked; "0"
    # is a half of the split 0 * 1 only
    asked = []

    class LoggingContext(machine._Context):
        def v_status(self, prog: str, cap: int):
            asked.append(prog)
            return ("u", cap)

    ctx = LoggingContext(12, ())
    ctx._v["1"] = ("d",)
    assert ctx._pair_status("01", BIG) == ("u", BIG)
    assert asked and "0" not in asked


# ---------------------------------------------------------------------------
# one form for every finite map: the installed table and mapping behaviors
# ---------------------------------------------------------------------------


def leading_zeros_decoder() -> dict[str, str]:
    source = sense1_to_sense2(registered_tests()["leading-zeros"], 8)
    return dict(ml_to_kc_decoder(source, 2, 8, install=False).decoder)


@pytest.mark.parametrize(
    "table",
    [lambda: dict(CODE_TABLE), lambda: {"000000": "1", "10": ""}, leading_zeros_decoder],
    ids=["code-table", "deep-key", "leading-zeros"],
)
@pytest.mark.parametrize("len_limit", [8, 13])
def test_the_code_table_runs_as_its_mapping_behavior(table, len_limit) -> None:
    table = table()
    install_code_table(table)
    mapping = mapping_behavior(table)
    halted = 0
    for wrap in (lambda behavior: behavior, prefix_guard):
        installed, listed = wrap(decode_machine(machine.REG_CODE_TABLE)), wrap(mapping)
        for a in all_strings(8):
            for cap in pair_caps(a):
                out = run(installed, a, cap, len_limit)
                assert out == run(listed, a, cap, len_limit), (a, cap)
                halted += out.halted
    assert halted > 0


# ---------------------------------------------------------------------------
# the guard's comparables against string_to_index
# ---------------------------------------------------------------------------


def string_indexed_comparables(b: str, len_limit: int):
    """The guard's comparables as first written, kept as the oracle: every
    prefix rank through string_to_index, which re-checks the bits."""
    for k in range(len(b) + 1):
        yield string_to_index(b[:k]), b[:k]
    top = string_to_index(b) + 1
    for length in range(len(b) + 1, len_limit + 1):
        width = length - len(b)
        start = (top << width) - 1
        for off in range(1 << width):
            yield start + off, b + format(off, f"0{width}b")


BEYOND = 1 << 64  # past every rank up to len_limit 62


@pytest.mark.parametrize("len_limit", [10, 12])
def test_comparables_match_the_string_indexed_oracle(len_limit) -> None:
    ctx = machine._Context(len_limit, ())
    for b in all_strings(10):
        got = list(ctx._comparables(b))
        assert got == list(string_indexed_comparables(b, len_limit)), b


def test_comparables_stay_lazy_on_long_limits() -> None:
    # subadd's contexts walk extensions up to width 26; never hold a level
    ctx = machine._Context(20, ())
    for b in all_strings(4):
        got = itertools.islice(ctx._comparables(b), 5000)
        assert list(got) == list(itertools.islice(string_indexed_comparables(b, 20), 5000)), b
    ctx = machine._Context(60, ())
    for b in ("", "0", "1101"):
        extensions = itertools.islice(ctx._comparables(b), len(b) + 1, None)
        assert next(extensions) == (string_to_index(b + "0"), b + "0")
    deep = "0" * 59  # one bit short of the limit: one level of extensions
    assert list(ctx._comparables(deep))[-2:] == [
        (string_to_index(deep + "0"), deep + "0"), (string_to_index(deep + "1"), deep + "1")
    ]


def through_first_at_or_past(pairs, limit: int) -> list:
    out = []
    for j, c in pairs:
        out.append((j, c))
        if j >= limit:
            break
    return out


def test_bounded_comparables_stop_at_the_first_rank_at_or_past_the_limit(monkeypatch) -> None:
    # the guard walk breaks at that rank, and the lazy generator spells no
    # string past the last one taken
    spelled = Counter()
    real = machine._spell

    def spy(width, head=""):
        for c in real(width, head):
            spelled[width] += 1
            yield c

    monkeypatch.setattr(machine, "_spell", spy)
    ctx = machine._Context(12, ())
    limits = [0, 1, 2, 5, 6, 7, 30, 100, 1000, 4000, 8189, 8190, BEYOND]
    for b in all_strings(6):
        for limit in limits:
            spelled.clear()
            got = through_first_at_or_past(ctx._comparables(b), limit)
            expected = through_first_at_or_past(string_indexed_comparables(b, 12), limit)
            assert got == expected, (b, limit)
            widths = Counter(len(c) - len(b) for _, c in got if len(c) > len(b))
            assert spelled == widths, (b, limit)


class CapSpyContext(machine._Context):
    """Records, for every pair evaluation, the caps at which it asks V."""

    def __init__(self, len_limit: int):
        super().__init__(len_limit, ())
        self.stack: list[set[int]] = []
        self.asked: list[set[int]] = []

    def _pair_status(self, s: str, cap: int):
        self.stack.append(set())
        try:
            return super()._pair_status(s, cap)
        finally:
            self.asked.append(self.stack.pop())

    def v_status(self, prog: str, cap: int):
        if self.stack:  # only pair evaluations ask V from inside the engine
            self.stack[-1].add(cap)
        return super().v_status(prog, cap)


def test_pair_asks_its_halves_at_two_caps_at_most() -> None:
    # one cap for the winner search (the last round that fits) and, when no
    # split wins, cap - 1 for the divergence check of the splits with no
    # half proven "d"; the round loop asked at every round 1, 2, 4, ... up
    # to the last
    ctx = CapSpyContext(10)
    for s in all_strings(7):
        for cap in (50, 1000, BIG):
            ctx._pair_status(s, cap)
    assert len(ctx.asked) > 255
    assert max(map(len, ctx.asked)) == 2
    ctx = CapSpyContext(10)
    ctx._pair_status("11111", 1000)  # every left half is "d" at 256 already
    assert ctx.asked == [{256}]


# ---------------------------------------------------------------------------
# the installable code table
# ---------------------------------------------------------------------------


def test_code_table_round_trip() -> None:
    baseline = registry_fingerprint()
    install_code_table({"0": "111"})
    assert registry_fingerprint() != baseline
    # dispatch 5 + winning diagonal (rank 1 + cost 1 + 3 + 1)
    out = prefix_universal_run("11110" + "0", BIG)
    assert (out.output, out.steps_used) == ("111", 11)
    clear_code_table()
    assert registry_fingerprint() == baseline
    assert not prefix_universal_run("111100", BIG).halted


def test_fingerprint_is_hashed_once_per_code_table(monkeypatch) -> None:
    baseline = registry_fingerprint()
    hashed = []
    fingerprint = machine._fingerprint

    def counted(table):
        hashed.append(table)
        return fingerprint(table)

    monkeypatch.setattr(machine, "_fingerprint", counted)
    assert [registry_fingerprint() for _ in range(3)] == [baseline] * 3
    assert hashed == []
    install_code_table({"0": "111"})
    installed = registry_fingerprint()
    assert installed == fingerprint((("0", "111"),)) != baseline
    assert registry_fingerprint() == installed
    clear_code_table()
    assert registry_fingerprint() == baseline
    assert hashed == [(("0", "111"),), ()]


def test_installing_another_table_frees_the_retired_universes(monkeypatch) -> None:
    # _Context has slots and no __weakref__; a plain subclass has both
    monkeypatch.setattr(machine, "_Context", type("WeakContext", (machine._Context,), {}))
    install_code_table({"0": "111"})
    prefix_k("", 8, BIG)
    retired = weakref.ref(machine._context(8))
    install_code_table({"0": "1"})
    gc.collect()
    assert retired() is None


def test_retired_universes_hold_no_memory() -> None:
    # with every universe kept, six tables' prefix tables held 16.5 MiB here
    tracemalloc.start()
    try:
        for k in range(1, 7):
            install_code_table({"0" * k: "1"})
            prefix_k("", 13, BIG)
        clear_code_table()
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live < 5 * 2**20


def test_reinstalling_the_table_keeps_its_universes(monkeypatch) -> None:
    install_code_table({"0": "111", "10": ""})
    ctx = machine._context(8)
    monkeypatch.setattr(machine, "_fingerprint", None)  # and hashes nothing
    install_code_table({"10": "", "0": "111"})
    assert machine._context(8) is ctx


def test_code_table_rejects_non_antichain() -> None:
    with pytest.raises(ValueError):
        install_code_table({"0": "1", "01": "0"})


def test_code_table_guard_respects_len_limit_and_order() -> None:
    install_code_table({"0" * 6: "1", "10": ""})
    assert prefix_universal_run("11110" + "000000", BIG).halted
    assert prefix_universal_run("11110" + "10", BIG).halted
    # the key is no longer visible when it exceeds the program length cap
    assert not prefix_universal_run("11110" + "000000", BIG, len_limit=10).halted


def test_mapping_behavior_validates_bits() -> None:
    with pytest.raises(ValueError):
        mapping_behavior({"0x": "1"})


def test_run_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        run(decode_machine(0), "21", 10)
    with pytest.raises(ValueError):
        run(decode_machine(0), "0", -1)


@pytest.mark.parametrize("wrap", [lambda behavior: behavior, prefix_guard], ids=["bare", "guarded"])
@pytest.mark.parametrize(
    "behavior",
    [MachineBehavior("registry-native", registry_id=REGISTRY_SIZE), MachineBehavior("bogus")],
    ids=["registry-id-5", "unknown-kind"],
)
def test_run_rejects_behaviors_outside_the_enumeration(wrap, behavior) -> None:
    with pytest.raises(ValueError):
        run(wrap(behavior), "0", 10)


@pytest.mark.parametrize(
    "call",
    [
        lambda budget: run(decode_machine(0), "0", budget),
        lambda budget: universal_run("0", budget),
        lambda budget: prefix_universal_run("0", budget),
        lambda budget: universal_status("0", budget),
        lambda budget: prefix_universal_status("0", budget),
    ],
)
def test_budgets_must_be_natural_numbers(call) -> None:
    # 2.5 used to come back as BudgetedOutcome(..., budget=2.5)
    for budget in (2.5, 10.0, "10"):
        with pytest.raises(TypeError):
            call(budget)
    with pytest.raises(ValueError):
        call(-1)
    assert call(True) == call(1)  # a bool is an int


def test_checked_budget_is_the_recorded_budget() -> None:
    out = universal_run("0", True)
    assert type(out.budget) is int and out.budget == 1


def test_status_classifiers() -> None:
    assert universal_status("", BIG) == "diverges"
    assert universal_status("00110", 5) == "unresolved"
    assert universal_status("00110", 6) == "halted"
    assert prefix_universal_status("11111", BIG) == "diverges"
    assert prefix_universal_status("11000", 13) == "unresolved"
    assert prefix_universal_status("11000", 14) == "halted"


def test_behavior_objects_are_hashable_values() -> None:
    assert decode_machine(3) == MachineBehavior(kind="registry-native", registry_id=3)
    assert len({decode_machine(i) for i in range(REGISTRY_SIZE)}) == REGISTRY_SIZE
    # malformed encodings all collapse to the same diverging value
    assert decode_machine(REGISTRY_SIZE) == DIVERGING
