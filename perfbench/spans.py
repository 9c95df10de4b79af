"""Spans and counters around randlab's public functions, from outside.

``Tracer.install`` rebinds each traced function's name in every randlab
module that imports it (and in the benchmark's API facade), never in the
module that defines it, so only calls that cross a layer boundary are seen.
Spans are kept in memory as (name, start, end, parent, machine calls, runner
calls, work) and read out when the run ends.  Times are read from the
clock the tracer is given: the benchmark passes the reference sampler's net
clock, so the sampler's own time is not charged to any span.

Boundaries crossed about 10^5 times or more per run are counted, not timed:
the machine status and run functions, and ``all_strings``, whose strings are
counted from its argument rather than per item.
"""

from __future__ import annotations

from collections import Counter

# layer -> public functions wrapped in a timed span
SPANNED = {
    "complexity": (
        "plain_c", "prefix_k", "census_incompressible", "pad_witness",
        "horizon_search", "subadditivity_probe", "budget_short_programs",
        "registry_constants",
    ),
    "omega": ("omega_lower_bound", "halted_below", "psi_reconstruct"),
    "prefixfree": ("is_prefix_free", "kraft_sum", "prefix_freeize", "cover_measure", "kraft_code"),
    "mltest": (
        "validate_sense1", "level_sense1", "sense1_to_sense2", "sense2_to_sense1",
        "normalize", "chain", "universal_test", "compression_test", "ml_to_kc_decoder",
        "score", "builtin_tests", "registered_tests",
    ),
    "cli": ("main",),
}
RUNNERS = ("run", "universal_run", "prefix_universal_run")
STATUSES = ("universal_status", "prefix_universal_status")
# mltest functions whose Sense2Test result does its work later, in enumerate
SENSE2_RESULTS = ("sense1_to_sense2", "sense2_to_sense1", "normalize", "chain")


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.machine = [0]  # status + run calls made from other layers
        self.runners = [0]  # the run calls among them
        self.counts = Counter()
        self.dovetail_by_span = Counter()  # span index -> seconds in dovetail_events
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, work=None, wrap_result=None):
        spans, stack, machine, runners = self.spans, self.stack, self.machine, self.runners
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            m0, r0 = machine[0], runners[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, machine[0] - m0, runners[0] - r0, None]
            if work is not None:
                spans[idx][6] = work(args, kwargs, result)
            return wrap_result(result) if wrap_result is not None else result

        return traced

    def _counted(self, fn, runner: bool):
        # two closures rather than a flag test: these run millions of times
        machine, runners = self.machine, self.runners
        if runner:
            def counted(*args, **kwargs):
                machine[0] += 1
                runners[0] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                machine[0] += 1
                return fn(*args, **kwargs)
        return counted

    def _all_strings(self, fn):
        counts = self.counts

        def all_strings(max_len):
            if max_len >= 0:
                counts["strings_enumerated"] += (1 << (max_len + 1)) - 1
            return fn(max_len)

        return all_strings

    def _dovetail(self, fn):
        # the generator's time is charged to the span that advances it, so
        # that span's self time can leave it out
        stack, spent, counts, clock = self.stack, self.dovetail_by_span, self.counts, self.clock

        def dovetail_events(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                start = clock()
                try:
                    event = next(gen)
                except StopIteration:
                    return
                finally:
                    spent[stack[-1] if stack else -1] += clock() - start
                counts["dovetail_events"] += 1
                yield event

        return dovetail_events

    def _sense2(self, sense2_type):
        def wrap(test):
            return sense2_type(test.name, self._span("mltest.enumerate", test.enumerate))

        return wrap

    # -- installation -------------------------------------------------------

    def install(self, randlab, api) -> None:
        """Rebind the traced names in every randlab module and in `api`."""
        from randlab import bitstr, cli, complexity, machine, mltest, omega, prefixfree

        layers = {
            "bitstr": bitstr, "machine": machine, "complexity": complexity,
            "omega": omega, "prefixfree": prefixfree, "mltest": mltest, "cli": cli,
        }
        wrapped = {}  # original function -> wrapper
        for layer, names in SPANNED.items():
            for name in names:
                fn = getattr(layers[layer], name)
                wrapped[fn] = self._span(
                    f"{layer}.{name}", fn, _WORK.get(name),
                    self._sense2(mltest.Sense2Test) if name in SENSE2_RESULTS else None,
                )
        for name in RUNNERS + STATUSES:
            fn = getattr(machine, name)
            wrapped[fn] = self._counted(fn, name in RUNNERS)
        wrapped[machine.dovetail_events] = self._dovetail(machine.dovetail_events)
        wrapped[bitstr.all_strings] = self._all_strings(bitstr.all_strings)

        homes = {fn: fn.__module__ for fn in wrapped}
        for target in [randlab, *layers.values(), api]:
            for attr, value in list(vars(target).items()):
                if callable(value) and value in wrapped and homes[value] != getattr(target, "__name__", None):
                    self._undo.append((target, attr, value))
                    setattr(target, attr, wrapped[value])

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "machine_calls": self.machine[0],
            "runner_calls": self.runners[0],
            "dovetail_by_span": sorted(self.dovetail_by_span.items()),
            "counts": dict(self.counts),
        }


def _stage(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("stage")


def _freeize(args, kwargs, result):
    strings = args[0] if args else kwargs["strings"]
    return [len(strings) if hasattr(strings, "__len__") else None, len(result)]


# per-span work sizes: stage pairs for omega, [strings in, members out] for
# prefix_freeize (every caller in randlab and the benchmark passes a list)
_WORK = {
    "omega_lower_bound": lambda args, kwargs, result: args[0] if args else kwargs["stage"],
    "halted_below": _stage,
    "prefix_freeize": _freeize,
}
