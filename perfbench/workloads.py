"""The four randlab benchmark workloads: seeded inputs, op lists and checks.

Inputs are generated here with the standard library alone; randlab only ever
receives the generated values.  Every op calls into the randlab API facade it
is handed, so a traced run can rebind the facade's names without touching the
op list.  Checks run after the timed section and test what the library
promises, not incidental output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("kc-table", "omega-stages", "ml-battery", "antichain-stream")

BUDGET = 100_000
KC_PLAIN_LEN = 12  # plain_c at the default len_limit
KC_PREFIX_LEN = 13  # prefix_k where the echo witnesses of short strings fit
OMEGA_STAGES = tuple(math.isqrt(2 ** (20 + k)) for k in range(21))  # 2^10..2^20, ratio sqrt 2
HALTED_STAGE = 1 << 16
PSI_STAGE = 1 << 18
PSI_TARGETS = 160
ML_DEPTH = 16
BATTERY_DEPTH = 14
COVER_SETS = 800
# seeded plain_c strings per length 8, 9, 10 (see make_inputs)
KC_LONG = {8: 113, 9: 112, 10: 44}
SCORE_DEPTH = 15
# each registered test is validated up to m_max; a valid test's level m must
# pass with measure exactly 2^-(m + shift); shift None marks the negative
# fixture, whose last level must fail
VALIDATE_LEVELS = {
    "leading-zeros": (10, 0),
    "even-ones": (8, 0),
    "zeros-after-111": (12, 3),
    "count101": (3, None),
}
BUILTIN_TESTS = ("leading-zeros", "even-ones", "zeros-after-111")

# the universe each op group runs in (len_limit / budget / depth / stage)
GROUPS = {
    "kc-table": {
        "plain_c": {"len_limit": KC_PLAIN_LEN, "budget": BUDGET, "max_len": 7},
        "prefix_k": {"len_limit": KC_PREFIX_LEN, "budget": BUDGET, "max_len": 7},
        "plain_c_long": {"len_limit": KC_PLAIN_LEN, "budget": BUDGET, "per_length": KC_LONG},
        "census": {"len_limit": KC_PLAIN_LEN, "budget": [100, 10_000], "max_n": 8},
        "subadd": {"len_limit": KC_PREFIX_LEN, "budget": BUDGET, "n_max": 4},
        "compression": {"len_limit": KC_PREFIX_LEN, "budget": BUDGET, "depth": 10},
        "score": {"len_limit": KC_PREFIX_LEN, "budget": BUDGET, "depth": SCORE_DEPTH},
        "cli": {"len_limit": KC_PLAIN_LEN, "budget": BUDGET, "max_len": 4},
    },
    "omega-stages": {
        "omega": {"len_limit": KC_PLAIN_LEN, "stage": [OMEGA_STAGES[0], OMEGA_STAGES[-1]]},
        "halted_below": {"len_limit": KC_PLAIN_LEN, "stage": HALTED_STAGE},
        "psi": {"len_limit": KC_PLAIN_LEN, "stage": PSI_STAGE},
        "cli": {"len_limit": KC_PLAIN_LEN, "stage": PSI_STAGE},
    },
    "ml-battery": {
        "validate": {"depth": ML_DEPTH},
        "universal": {"depth": BATTERY_DEPTH},
        "chain": {"depth": BATTERY_DEPTH},
        "bridge": {"depth": ML_DEPTH, "n_max": 5},
        "cover": {"sets": COVER_SETS, "max_len": 20, "max_members": 400},
        "cli": {"depth": 15},
    },
    "antichain-stream": {
        "freeize": {"max_len": 13, "max_members": 10},
    },
}

CLI_ARGV = {
    "kc-table": (("complexity", "scan"),),
    "omega-stages": (("omega", "--stage", str(PSI_STAGE)),),
    "ml-battery": (
        ("mltest", "convert", "--test", "even-ones", "--levels", "4"),
        ("enum", "--count", "65536"),
    ),
    "antichain-stream": (),
}


@dataclass(frozen=True)
class Op:
    group: str
    label: str  # unique within a workload; keys the pinned digests
    seeded: bool  # True when the input comes from the seed
    arg: Any  # the op's input, which its check reads back
    call: Callable[[Any, Any], Any]  # call(api facade, arg)

    def run(self, api):
        return self.call(api, self.arg)


# ---------------------------------------------------------------------------
# seeded inputs (standard library only)
# ---------------------------------------------------------------------------


def strings_upto(max_len: int) -> list[str]:
    """Every bit string of length <= max_len in length-lex order."""
    return [format(i, f"0{n}b") if n else "" for n in range(max_len + 1) for i in range(1 << n)]


def _bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


def make_inputs(workload: str, seed: int, child: int = 0) -> dict:
    """The seeded inputs of one child process; (seed, child) fixes them."""
    rng = random.Random(f"{workload}:{seed}:{child}")
    if workload == "kc-table":
        # a fixed count per length: a plain_c query rescans 2^|witness|
        # programs, so its latency clusters by length.  The counts put
        # op_p50_ms amid the 128 length-7 plain_c ops of the fixed part
        # (about 0.4 ms) and op_p90_ms amid the length-10 ones (about 3.5
        # ms), each with about 20 ops to either side, so neither sits on
        # the jump between two clusters
        return {
            "long": [_bits(rng, n) for n, count in KC_LONG.items() for _ in range(count)],
            "subjects": [_bits(rng, 15) for _ in range(32)],
        }
    if workload == "omega-stages":
        # one target per value stratum, each stratum with a fixed length, so
        # how far each replay runs before it crosses (a full replay when the
        # target is above the stage's mass) hardly changes with the seed.
        # With 160 targets op_p50_ms falls amid the replays that cross at
        # the second halting program (about 0.07 ms), not on either side
        # of that cluster
        targets = []
        for i in range(PSI_TARGETS):
            n = 1 + i % 8
            u = (i + rng.random()) / PSI_TARGETS
            targets.append(format(int(u * (1 << n)), f"0{n}b"))
        rng.shuffle(targets)
        return {"psi": targets}
    if workload == "ml-battery":
        # 800 sets are 97% of the ops, so op_p50_ms and op_p90_ms both fall
        # inside the cover latencies rather than on the jump to the 25
        # materializer ops above them, and rest on enough sub-millisecond
        # ops to average out their jitter.  Set sizes are one per stratum
        # of 1..400, so the seed moves which strings a set holds, not how
        # many
        sizes = [1 + (i * 400 + rng.randrange(400)) // COVER_SETS for i in range(COVER_SETS)]
        rng.shuffle(sizes)
        return {"cover": [[_bits(rng, rng.randint(0, 20)) for _ in range(n)] for n in sizes]}
    if workload == "antichain-stream":
        # every stream size 1..10 and every string length 0..13 comes up
        # equally often and the seed deals them out, so the seed moves which
        # short strings arrive after long ones, not how many strings there are
        sizes = [1 + i % 10 for i in range(2000)]
        rng.shuffle(sizes)
        lengths = [i % 14 for i in range(sum(sizes))]
        rng.shuffle(lengths)
        dealt = iter(lengths)
        return {"streams": [[_bits(rng, next(dealt)) for _ in range(n)] for n in sizes]}
    raise ValueError(f"unknown workload: {workload!r}")


# ---------------------------------------------------------------------------
# op lists
# ---------------------------------------------------------------------------


def _battery(R):
    return [R.sense1_to_sense2(t, BATTERY_DEPTH) for t in R.builtin_tests()]


def build_ops(workload: str, inputs: dict) -> list[Op]:
    ops: list[Op] = []

    def add(group, label, arg, call, seeded=False):
        ops.append(Op(group, label, seeded, arg, call))

    if workload == "kc-table":
        for b in strings_upto(7):
            add("plain_c", f"plain_c:{b}", b, lambda R, b: R.plain_c(b, KC_PLAIN_LEN, BUDGET))
            add("prefix_k", f"prefix_k:{b}", b, lambda R, b: R.prefix_k(b, KC_PREFIX_LEN, BUDGET))
        for i, b in enumerate(inputs["long"]):
            add("plain_c_long", f"plain_c_long:{i}", b,
                lambda R, b: R.plain_c(b, KC_PLAIN_LEN, BUDGET), seeded=True)
        for budget in (100, 10_000):
            for n in range(9):
                add("census", f"census:{budget}:{n}", (n, budget),
                    lambda R, a: R.census_incompressible(a[0], KC_PLAIN_LEN, a[1]))
        add("subadd", "subadd", 4, lambda R, n: R.subadditivity_probe(n, KC_PREFIX_LEN, BUDGET))
        for k in range(5):
            add("compression", f"compression:{k}", k,
                lambda R, k: R.compression_test(k, KC_PREFIX_LEN, BUDGET, 10))
        for i, s in enumerate(inputs["subjects"]):
            add("score", f"score:{i}", s,
                lambda R, s: R.score(s, None, KC_PREFIX_LEN, BUDGET, SCORE_DEPTH), seeded=True)
    elif workload == "omega-stages":
        for stage in OMEGA_STAGES:
            add("omega", f"omega:{stage}", stage, lambda R, s: R.omega_lower_bound(s, KC_PLAIN_LEN))
        for n in range(9):
            add("halted_below", f"halted_below:{n}", n,
                lambda R, n: R.halted_below(n, HALTED_STAGE, KC_PLAIN_LEN))
        for i, a in enumerate(inputs["psi"]):
            add("psi", f"psi:{i}", a,
                lambda R, a: R.psi_reconstruct(a, PSI_STAGE, KC_PLAIN_LEN), seeded=True)
    elif workload == "ml-battery":
        for name, (m_max, _) in VALIDATE_LEVELS.items():
            add("validate", f"validate:{name}", name,
                lambda R, name, m=m_max: R.validate_sense1(R.registered_tests()[name], m, ML_DEPTH))
        for n in range(8):
            add("universal", f"universal:{n}", n,
                lambda R, n: R.universal_test(_battery(R), n, BATTERY_DEPTH))
            add("chain", f"chain:{n}", n,
                lambda R, n: R.chain(_battery(R)[n % 3]).enumerate(n, BATTERY_DEPTH))
        for name in BUILTIN_TESTS:
            add("bridge", f"bridge:{name}", name, lambda R, name: R.ml_to_kc_decoder(
                R.sense1_to_sense2(R.registered_tests()[name], ML_DEPTH), 5, ML_DEPTH, install=False))
        for i, strings in enumerate(inputs["cover"]):
            add("cover", f"cover:{i}", strings, lambda R, s: R.cover_measure(s), seeded=True)
    elif workload == "antichain-stream":
        for i, stream in enumerate(inputs["streams"]):
            add("freeize", f"freeize:{i}", stream, lambda R, s: R.prefix_freeize(s), seeded=True)
    else:
        raise ValueError(f"unknown workload: {workload!r}")
    for argv in CLI_ARGV[workload]:
        add("cli", "cli:" + " ".join(argv), list(argv), lambda R, argv: R.run_cli(argv))
    return spread(ops, _spread_class)


def _spread_class(op: Op):
    # a plain_c or prefix_k query's latency goes with the string's length
    if op.group in ("plain_c", "prefix_k", "plain_c_long"):
        return op.group, len(op.arg)
    return op.group


def spread(ops: list[Op], spread_class: Callable[[Op], Any] = lambda op: op.group) -> list[Op]:
    """The ops in an order that spreads each class of ops evenly over the run.

    Op k of a class of n goes to position (k + 1/2) / n of the run, ties in
    list order, so each class keeps its own order.  Without this the cheap
    ops that set op_p50_ms would run within a second or less, and the
    percentile would follow what the shared host did in that moment.
    """
    sizes = Counter(map(spread_class, ops))
    seen: Counter = Counter()
    keyed = []
    for i, op in enumerate(ops):
        c = spread_class(op)
        keyed.append(((2 * seen[c] + 1) / (2 * sizes[c]), i))
        seen[c] += 1
    return [ops[i] for _, i in sorted(keyed)]


# ---------------------------------------------------------------------------
# canonical digests
# ---------------------------------------------------------------------------


def canon(x):
    """A JSON-able form of a result that does not depend on set order."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return [type(x).__name__] + [canon(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    return x


def digest(result) -> str:
    text = json.dumps(canon(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# oracles (standard library only)
# ---------------------------------------------------------------------------


def intervals(strings, depth: int) -> list[tuple[int, int]]:
    """The union of the cylinders above `strings` as merged leaf intervals
    at `depth`, which must be at least every length."""
    spans = sorted(
        ((int(b, 2) if b else 0) << (depth - len(b)), ((int(b, 2) if b else 0) + 1) << (depth - len(b)))
        for b in set(strings)
    )
    merged: list[tuple[int, int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def measure(strings) -> Fraction:
    strings = list(strings)
    depth = max((len(b) for b in strings), default=0)
    return Fraction(sum(hi - lo for lo, hi in intervals(strings, depth)), 1 << depth)


def tiles(members, strings) -> bool:
    """True iff `members` is prefix-free and covers exactly the leaves
    `strings` covers.  Cylinders of distinct strings overlap exactly when
    one string is a prefix of the other, so the members are an antichain
    iff their leaf counts add up to the size of their union."""
    depth = max(map(len, [*strings, *members]))

    def leaf_mask(strings):
        mask = total = 0
        for b in strings:
            k = depth - len(b)
            mask |= ((1 << (1 << k)) - 1) << ((int(b, 2) if b else 0) << k)
            total += 1 << k
        return mask, total

    got, total = leaf_mask(members)
    return got == leaf_mask(set(strings))[0] and got.bit_count() == total


def prefix_free(strings) -> bool:
    ordered = sorted(set(strings))
    return all(not b.startswith(a) for a, b in zip(ordered, ordered[1:]))


def frac(d) -> Fraction:
    return Fraction(d.num, 1 << d.scale)


def kraft(strings) -> Fraction:
    return sum((Fraction(1, 1 << len(b)) for b in strings), Fraction(0))


def _leading_zeros(s: str) -> int:
    return len(s) - len(s.lstrip("0"))


def _even_ones(s: str) -> int:
    run = 0
    while 2 * run < len(s) and s[2 * run] == "1":
        run += 1
    return run


def _zeros_after_111(s: str) -> int:
    return _leading_zeros(s[3:]) if s.startswith("111") else 0


# the built-in tests' levels on a whole subject (each level only grows
# along the subject's prefixes)
BUILTIN_LEVELS = {
    "leading-zeros": _leading_zeros,
    "even-ones": _even_ones,
    "zeros-after-111": _zeros_after_111,
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check(ops: list[Op], results: list, R) -> list[tuple[int, str]]:
    """(op index, reason) for every op whose result breaks its contract.

    `R` is the untraced API facade; checks may call it, since the memos are
    warm by now.
    """
    bad: list[tuple[int, str]] = []
    constants = R.registry_constants()
    index = {op.label: i for i, op in enumerate(ops)}
    events = prev = None  # prev: the last omega result, at a lower stage
    for i, (op, res) in enumerate(zip(ops, results)):
        g, a = op.group, op.arg
        reason = None
        if g == "cli":
            if res[0] != 0 or not res[1]:
                reason = f"exit {res[0]}"
        elif g in ("plain_c", "plain_c_long", "prefix_k"):
            reason = _check_bound(g, a, res, R, constants)
        elif g == "census":
            if not 1 <= res <= 2 ** a[0]:
                reason = "census outside [1, 2^n]"
        elif g == "subadd":
            if res.prefix_violations or res.prefix_pairs != 31 * 31:
                reason = "pair inequality violated or pairs missing"
        elif g == "compression":
            if measure(res) > Fraction(1, 1 << a):
                reason = "cover above 2^-k"
        elif g == "score":
            reason = _check_score(a, res, R)
        elif g == "omega":
            if res.stage != a or not prefix_free(res.halted) or frac(res.lower_bound) != kraft(res.halted):
                reason = "bound is not the Kraft sum of an antichain"
            elif prev is not None and not (prev.halted <= res.halted and prev.lower_bound <= res.lower_bound):
                reason = "bound decreased as the stage grew"
            prev = res
        elif g == "halted_below":
            base = results[index[f"omega:{HALTED_STAGE}"]].halted
            if res != frozenset(p for p in base if len(p) <= a):
                reason = "disagrees with omega_lower_bound"
        elif g == "psi":
            if events is None:
                events = [e.program for e in R.dovetail_events(PSI_STAGE, KC_PLAIN_LEN)]
            if res != _crossing(a, events):
                reason = "disagrees with the replayed crossing"
        elif g == "validate":
            reason = _check_validate(a, res)
        elif g == "universal":
            if measure(res) > Fraction(1, 1 << a):
                reason = "cover above 2^-n"
        elif g == "chain":
            if not prefix_free(res) or measure(res) > Fraction(1, 1 << a):
                reason = "level is not an antichain within 2^-n"
        elif g == "bridge":
            codewords = [cw for cw, _ in res.decoder]
            coded = prefix_free(codewords) and all(
                len(cw) == ell == len(b) - n and target == b
                for (cw, target), (ell, n, b) in zip(res.decoder, res.triples)
            )
            if not coded or frac(res.coded_mass) != kraft(codewords) or kraft(codewords) > 1:
                reason = "decoder is not a Kraft code of its triples"
        elif g == "cover":
            if frac(res) != measure(a):
                reason = "disagrees with the interval oracle"
        elif g == "freeize":
            if not tiles(res, a):
                reason = "antichain does not cover exactly the input's leaves"
        else:
            reason = f"no check for group {g}"
        if reason is not None:
            bad.append((i, f"{op.label}: {reason}"))
    return bad


def _check_bound(group, b, res, R, constants):
    prefix = group == "prefix_k"
    if res is None:
        # identity (plain) and echo (prefix) witnesses fit the length limit
        if prefix and 2 * len(b) + constants["c_echo"] > KC_PREFIX_LEN:
            return None
        return "no witness"
    runner = R.prefix_universal_run if prefix else R.universal_run
    out = runner(res.witness, res.budget, res.len_limit)
    if not (out.halted and out.output == b and len(res.witness) == res.value):
        return "witness does not reproduce its target"
    if prefix:
        if res.value > 2 * len(b) + constants["c_echo"]:
            return "value above 2|b| + c_echo"
    elif res.value > len(b) + constants["m_id"]:
        return "value above |b| + m_id"
    return None


def _check_score(subject, report, R):
    levels = {name: level for name, level in report.levels}
    if levels != {name: f(subject) for name, f in BUILTIN_LEVELS.items()}:
        return "levels disagree with the level oracle"
    gaps = [
        n - bound.value
        for n in range(min(len(subject), SCORE_DEPTH) + 1)
        if (bound := R.prefix_k(subject[:n], KC_PREFIX_LEN, BUDGET)) is not None
    ]
    if report.compression_deficiency != max(gaps, default=-1):
        return "deficiency disagrees with prefix_k"
    return None


def _check_validate(name, verdicts):
    m_max, shift = VALIDATE_LEVELS[name]
    if [v.m for v in verdicts] != list(range(m_max + 1)):
        return "levels missing"
    if shift is None:
        return None if verdicts[-1].verdict == "fail" else "negative fixture not rejected"
    if any(v.verdict != "pass" or frac(v.measure) != Fraction(1, 1 << (v.m + shift)) for v in verdicts):
        return "valid level not passed at its exact measure"
    return None


def _crossing(a: str, events: list[str]):
    """psi_reconstruct's promise, replayed: the programs of length <= |a|
    seen by the first event whose running mass exceeds value(a)."""
    target = Fraction(int(a, 2) if a else 0, 1 << len(a))
    mass = Fraction(0)
    for k, p in enumerate(events):
        mass += Fraction(1, 1 << len(p))
        if mass > target:
            return frozenset(q for q in events[: k + 1] if len(q) <= len(a))
    return None
