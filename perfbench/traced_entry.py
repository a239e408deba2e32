"""Run one hurwitzdiv command with every layer of the package traced.

Usage: python3 perfbench/traced_entry.py TRACE_OUT ARG...

Imports ``hurwitzdiv.cli``, wraps the public functions of each layer module
(plus a few hot methods) from outside, then calls ``hurwitzdiv.cli.main``
with ARG... .  Standard output and the exit code are those of the plain
command.  At exit the trace is written to TRACE_OUT as JSON.

A call is timed only when it crosses from one layer into another; a call
inside its own layer stays in the caller's time and is only counted.  Each
crossing pushes a frame, and a layer's self time is the busy time of its
frames minus the busy time of the frames they enclose.  Busy time is the
calling thread's CPU time, so a thread of the ``scan`` pool that waits for
the interpreter lock is not charged for the wait.  Crossings into ordinary
functions also record a span (name, wall-clock start, end, parent); hot
helpers, called hundreds of thousands of times, are timed and counted but
leave no span.  Frames and counters are kept per thread and merged at exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

busy_clock = time.thread_time
wall_clock = time.perf_counter

LAYERS = ("partitions", "spaces", "pushpull", "lowslope", "hurwitz", "bigness", "serialize")

METHODS = {
    "partitions": ("Partition.__post_init__",),
    "spaces": ("Space.basis", "Space.basis_position", "DivisorClass.make",
               "DivisorClass.coefficient"),
    "pushpull": ("QuadraticClass.make", "QuadraticClass.coefficient"),
    "hurwitz": ("HurwitzClass.make", "HurwitzClass.coefficient"),
}

HOT = {
    "partitions.harmonic_inverse", "partitions.lcm_of", "partitions.transposition_feasible",
    "partitions.rev_lex_key", "partitions.contains_subpartition", "partitions.partitions_of",
    "partitions.conjugacy_class_size", "partitions.Partition.__post_init__",
    "spaces.Space.basis", "spaces.Space.basis_position", "spaces.DivisorClass.coefficient",
    "pushpull.QuadraticClass.coefficient",
    "hurwitz.index_sort_key", "hurwitz.sharp_indicator", "hurwitz.HurwitzClass.coefficient",
    "bigness.stack_inequality_lhs", "bigness.coarse_inequality_lhs",
    "bigness.sigma_delta_lower_bound", "bigness.coarse_range_ok",
    "serialize.rational_str", "serialize.rational_text", "serialize.parse_rational",
}

# The counting oracle and the feasibility predicate it cross-validates; their
# busy time is reported as partitions.oracle_s.
ORACLE = {
    "partitions.count_transposition_factorizations", "partitions.transposition_power_vector",
    "partitions.transposition_feasible", "partitions.count_factorizations_naive",
}

RECIPE_BUILDERS = {
    "lowslope.second_hilbert_divisor", "lowslope.odd_genus_divisor",
    "lowslope.syzygy_divisor_g7", "lowslope.third_hilbert_divisor", "lowslope.user_divisor",
}


class ThreadTrace:
    """Frames, spans and counters of one thread."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.recipes: set[tuple[str, int]] = set()
        self.oracle_s = 0.0

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[ThreadTrace] = []

    def current(self) -> ThreadTrace:
        trace = getattr(self._local, "trace", None)
        if trace is None:
            trace = self._local.trace = ThreadTrace()
            with self._lock:
                self.threads.append(trace)
        return trace

    def wrap(self, fn, name: str, layer: str):
        hot = name in HOT
        oracle = name in ORACLE
        after = _AFTER.get(name)
        current = self.current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = current()
            trace.counts[name] = trace.counts.get(name, 0) + 1
            stack = trace.stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                parent = stack[-1][2] if stack else -1
                frame = [layer, 0.0, parent]
                if not hot:
                    frame[2] = len(trace.spans)
                    span = [name, wall_clock(), 0.0, parent]
                    trace.spans.append(span)
                stack.append(frame)
                start = busy_clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    busy = busy_clock() - start
                    stack.pop()
                    trace.self_s[layer] = trace.self_s.get(layer, 0.0) + busy - frame[1]
                    if stack:
                        stack[-1][1] += busy
                    if oracle:
                        trace.oracle_s += busy
                    if not hot:
                        span[2] = wall_clock()
            if after is not None:
                after(trace, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each layer's functions and rebind every name that refers to them."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"hurwitzdiv.{layer}"]
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    replaced[id(value)] = self.wrap(value, f"{layer}.{attr}", layer)
            for qualified in METHODS.get(layer, ()):
                cls_name, method = qualified.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self.wrap(raw.__func__, f"{layer}.{qualified}", layer)))
                else:
                    setattr(cls, method, self.wrap(raw, f"{layer}.{qualified}", layer))
        # `from .x import f` copies the name, so every module's copy is rebound.
        for module_name, module in list(sys.modules.items()):
            if module_name == "hurwitzdiv" or module_name.startswith("hurwitzdiv."):
                for attr, value in list(vars(module).items()):
                    wrapper = replaced.get(id(value))
                    if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                        setattr(module, attr, wrapper)

    def run_root(self, fn, *args):
        """Run `fn` as the root frame of the cli layer."""
        trace = self.current()
        span = ["cli.main", wall_clock(), 0.0, -1]
        trace.spans.append(span)
        frame = ["cli", 0.0, 0]
        trace.stack.append(frame)
        start = busy_clock()
        try:
            return fn(*args)
        finally:
            busy = busy_clock() - start
            trace.stack.pop()
            trace.self_s["cli"] = trace.self_s.get("cli", 0.0) + busy - frame[1]
            span[2] = wall_clock()

    def dump(self) -> dict:
        counts: dict[str, int] = {}
        self_s: dict[str, float] = {}
        recipes: set[tuple[str, int]] = set()
        oracle_s = 0.0
        spans = []
        for index, trace in enumerate(self.threads):
            for name, n in trace.counts.items():
                counts[name] = counts.get(name, 0) + n
            for layer, seconds in trace.self_s.items():
                self_s[layer] = self_s.get(layer, 0.0) + seconds
            recipes |= trace.recipes
            oracle_s += trace.oracle_s
            spans.extend(span + [index] for span in trace.spans)
        return {"counts": counts, "self_s": self_s, "oracle_s": oracle_s,
                "recipes": sorted(recipes), "spans": spans}


def _record_index_rows(trace: ThreadTrace, args, result) -> None:
    trace.add("hurwitz.index_rows", len(result))


def _record_product_terms(trace: ThreadTrace, args, result) -> None:
    left, right = args
    trace.add("pushpull.product_terms", len(left.coeffs) * len(right.coeffs))


def _record_recipe(trace: ThreadTrace, args, result) -> None:
    trace.add("lowslope.recipes_built")
    trace.recipes.add((result.name, result.g))


# Counters that need the call's arguments or result.
_AFTER = {
    "hurwitz.boundary_index_set": _record_index_rows,
    "pushpull.multiply": _record_product_terms,
    **dict.fromkeys(RECIPE_BUILDERS, _record_recipe),
}


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    start = wall_clock()
    import hurwitzdiv.cli as cli

    import_s = wall_clock() - start
    tracer = Tracer()
    tracer.install()
    code = tracer.run_root(cli.main, argv)
    sys.stdout.flush()
    record = tracer.dump()
    record.update(import_s=import_s, exit_code=code)
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
