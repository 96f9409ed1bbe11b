"""Span tracing of the package's public functions, from outside the package.

The library is not edited: `Tracer.installed()` swaps a timing wrapper in
for each traced name, at the place its callers look it up (a module
attribute or a registry entry), and puts the original back on exit.

A span has a name, start, end, parent and operation: the id of its root
span, which is one CLI command or one library call the benchmark made.
`busy` is the time a span covers: end - start for a call, the summed time
spent inside next() for a generator.  `child` is the busy time of its
direct children, so its self time is busy - child.  The membership
predicates are called tens of thousands of times per pass for well under a
microsecond each; they are aggregated into call counts and seconds (which
still count as child time of the caller) instead of being kept as spans.
Spans stay in memory and are written out as JSON lines at the end.

Worker processes of the sieve are not traced.
"""

from __future__ import annotations

import itertools
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from math import ceil
from time import perf_counter
from typing import Callable, Iterator

LOW_RANGE = 1 << 31  # members_in_range calls below this use the numpy path


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "busy",
                 "child", "attrs")

    def __init__(self, id: int, name: str, parent: Span | None):
        self.id, self.name, self.parent = id, name, parent
        self.op = parent.op if parent else self
        self.start = self.end = perf_counter()
        self.busy = self.child = 0.0
        self.attrs: dict = {}

    def self_s(self) -> float:
        return self.busy - self.child

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "op": self.op.id,
                "parent": self.parent.id if self.parent else None,
                "start": self.start, "end": self.end, "busy": self.busy,
                "self": self.self_s(), **self.attrs}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._ids = itertools.count(1)

    def _open(self, name: str) -> Span:
        span = Span(next(self._ids), name,
                    self.stack[-1] if self.stack else None)
        self.stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        span.busy = span.end - span.start
        self.stack.pop()
        if span.parent:
            span.parent.child += span.busy
        self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def call(self, name: str, fn: Callable,
             note: Callable[..., dict] | None = None) -> Callable:
        """Wrap fn in a span; note(args, kwargs, result) adds attributes."""
        @wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note:
                span.attrs.update(note(args, kwargs, result))
            return result
        return traced

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Count calls and seconds of fn without keeping spans."""
        totals, stack = self.leaves[name], self.stack

        @wraps(fn)
        def traced(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                totals[0] += 1
                totals[1] += dt
                if stack:
                    stack[-1].child += dt
        return traced

    def generator(self, name: str, fn: Callable,
                  note: Callable[..., dict]) -> Callable:
        """Wrap a generator function: one span whose busy time is the time
        spent inside next(), with the number of items yielded."""
        @wraps(fn)
        def traced(*args, **kwargs):
            span = Span(next(self._ids), name,
                        self.stack[-1] if self.stack else None)
            span.attrs.update(note(args, kwargs))
            return self._drive(span, fn(*args, **kwargs))
        return traced

    def _drive(self, span: Span, gen: Iterator) -> Iterator:
        # Runs once per member: keep the loop to locals.
        push, pop, clock = self.stack.append, self.stack.pop, perf_counter
        items, busy, t1 = 0, 0.0, span.start
        try:
            while True:
                t0 = clock()
                push(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    pop()
                    t1 = clock()
                    busy += t1 - t0
                yield item
                items += 1
        finally:
            gen.close()
            span.end, span.busy = t1, busy
            span.attrs["items"] = items
            if span.parent:
                span.parent.child += busy
            self.spans.append(span)

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Trace the package's public functions for the duration."""
        saved = []
        for holder, key, wrapper in _targets(self):
            if isinstance(holder, dict):
                saved.append((holder, key, holder[key]))
                holder[key] = wrapper
            else:
                saved.append((holder, key, getattr(holder, key)))
                setattr(holder, key, wrapper)
        try:
            yield
        finally:
            for holder, key, original in reversed(saved):
                if isinstance(holder, dict):
                    holder[key] = original
                else:
                    setattr(holder, key, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")
            for name, (calls, seconds) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "calls": calls,
                                     "s": seconds}) + "\n")


def _window(args, kwargs, result) -> dict:
    lo, hi = args
    return {"hi": hi, "tested": max(0, hi - lo + 1)}


def _checkpoint_file(args, kwargs, result) -> dict:
    try:
        with open(args[0], "rb") as fh:
            data = fh.read()
    except FileNotFoundError:  # the sieve's own read before a fresh run
        data = b""
    return {"lines": data.count(b"\n"), "bytes": len(data)}


def _workers(args, kwargs) -> dict:
    return {"workers": kwargs.get("workers", args[1] if len(args) > 1 else 1)}


def _targets(t: Tracer):
    """(holder, key, wrapper) for every traced name, wrapped afresh."""
    import isosquare
    from isosquare import analysis, checks, constructions, enumeration

    mir = t.call("enumeration.members_in_range", enumeration.members_in_range,
                 _window)
    yield isosquare, "members_in_range", mir
    yield enumeration, "members_in_range", mir
    yield enumeration, "sieve", t.generator("enumeration.sieve",
                                            enumeration.sieve, _workers)
    yield enumeration, "counting", t.call("enumeration.counting",
                                          enumeration.counting)
    yield enumeration, "read_checkpoint", t.call(
        "enumeration.read_checkpoint", enumeration.read_checkpoint,
        _checkpoint_file)
    yield checks, "scan_gap", t.call("enumeration.scan_gap", checks.scan_gap)
    yield analysis, "geometric_grid", t.call("analysis.geometric_grid",
                                             analysis.geometric_grid)
    yield analysis, "fit_exponent", t.call(
        "analysis.fit_exponent", analysis.fit_exponent,
        lambda a, k, r: {"samples": len(a[0])})
    yield analysis, "fluctuation_profile", t.call(
        "analysis.fluctuation_profile", analysis.fluctuation_profile)
    # The membership predicates, where constructions and checks look them up.
    yield constructions, "is_isosquare", t.leaf("membership.is_isosquare",
                                                constructions.is_isosquare)
    yield checks, "weight_profile", t.leaf("membership.weight_profile",
                                           checks.weight_profile)
    yield constructions, "construct_one", t.call(
        "constructions.construct_one", constructions.construct_one,
        lambda a, k, r: {"final_bits": r.final.bit_length()})
    for name in ("inflate", "normalize_defect", "finalize_member",
                 "family_traces"):
        yield constructions, name, t.call(f"constructions.{name}",
                                          getattr(constructions, name))
    for name, runner in list(checks.SUITES.items()):
        yield checks.SUITES, name, t.call(f"checks.{name}", runner,
                                          lambda a, k, r: {"failures": len(r)})


# --- per-layer metrics ------------------------------------------------------

def _pct(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, ceil(p / 100 * len(ordered)) - 1)]


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced cycle over every workload."""
    by_op: dict[str, list[Span]] = defaultdict(list)
    for s in t.spans:
        by_op[s.op.name].append(s)

    def named(op: str | None, name: str) -> list[Span]:
        spans = by_op.get(op, []) if op else t.spans
        return [s for s in spans if s.name == name]

    def busy(op: str | None, name: str) -> float:
        return sum(s.busy for s in named(op, name))

    m: dict[str, float] = {}
    for cmd in ("enumerate", "count", "analyze", "construct", "props"):
        m[f"cli.{cmd}.self_s"] = sum(s.self_s() for s in named(f"cli.{cmd}",
                                                              f"cli.{cmd}"))
    m["cli.stdout_bytes"] = sum(s.attrs.get("stdout_bytes", 0)
                                for s in t.spans if s.name.startswith("cli."))

    w1 = busy("op.sieve_w1", "enumeration.sieve")
    w2 = busy("op.sieve_w2", "enumeration.sieve")
    m["enumeration.sieve_w1_s"] = w1
    m["enumeration.sieve_w2_s"] = w2
    m["enumeration.parallel_efficiency"] = w1 / (2 * w2) if w2 else 0.0
    m["enumeration.sieve.wait_s"] = busy("cli.enumerate", "enumeration.sieve")

    calls = named(None, "enumeration.members_in_range")
    low = [s for s in named("op.sieve_w1", "enumeration.members_in_range")
           if s.attrs["hi"] < LOW_RANGE]
    high = [s for s in calls if s.attrs["hi"] >= LOW_RANGE]
    m["enumeration.members_in_range.calls"] = len(calls)
    m["enumeration.members_in_range.tested"] = sum(s.attrs["tested"]
                                                   for s in calls)
    for label, group in (("low", low), ("high", high)):
        seconds = sum(s.busy for s in group)
        m[f"enumeration.members_in_range.{label}_tested_per_s"] = (
            sum(s.attrs["tested"] for s in group) / seconds if seconds else 0.0)
    chunk_ms = [s.busy * 1e3 for s in low]
    m["enumeration.members_in_range.chunk_p50_ms"] = _pct(chunk_ms, 50)
    m["enumeration.members_in_range.chunk_p90_ms"] = _pct(chunk_ms, 90)

    m["enumeration.counting_s"] = busy(None, "enumeration.counting")
    counting = named("cli.count", "enumeration.counting")
    m["enumeration.counting.members_in"] = sum(
        s.attrs["items"] for s in named("cli.count", "enumeration.sieve")
        if s.parent in counting)
    reads = named("op.read_checkpoint", "enumeration.read_checkpoint")
    m["enumeration.checkpoint_lines"] = sum(s.attrs["lines"] for s in reads)
    m["enumeration.checkpoint_bytes"] = sum(s.attrs["bytes"] for s in reads)
    m["enumeration.read_checkpoint_s"] = sum(s.busy for s in reads)

    for name in ("geometric_grid", "fit_exponent", "fluctuation_profile"):
        m[f"analysis.{name}_s"] = busy(None, f"analysis.{name}")
    m["analysis.fit_samples"] = sum(s.attrs["samples"] for s in
                                    named("cli.analyze", "analysis.fit_exponent"))

    for name in ("is_isosquare", "weight_profile"):
        calls_n, seconds = t.leaves.get(f"membership.{name}", (0, 0.0))
        m[f"membership.{name}.calls"] = calls_n
        m[f"membership.{name}.s"] = seconds

    one = named("cli.construct", "constructions.construct_one")
    one_us = [s.busy * 1e6 for s in one]
    m["constructions.construct_one.s"] = sum(s.busy for s in one)
    m["constructions.construct_one.p50_us"] = _pct(one_us, 50)
    m["constructions.construct_one.p99_us"] = _pct(one_us, 99)
    for name in ("inflate", "normalize_defect", "finalize_member",
                 "family_traces"):
        m[f"constructions.{name}.s"] = busy("cli.construct",
                                            f"constructions.{name}")
    m["constructions.final_bits_max"] = max(
        (s.attrs["final_bits"] for s in one), default=0)

    for name in ("lemmas", "gaps", "tuples", "mersenne"):
        m[f"checks.{name}_s"] = busy("cli.props", f"checks.{name}")
    m["checks.failures"] = sum(s.attrs["failures"] for s in t.spans
                               if s.name.startswith("checks."))
    return m


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    *((f"cli.{c}.self_s", "s", "lower")
      for c in ("enumerate", "count", "analyze", "construct", "props")),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("enumeration.sieve_w1_s", "s", "lower"),
    ("enumeration.sieve_w2_s", "s", "lower"),
    ("enumeration.parallel_efficiency", "ratio", "higher"),
    ("enumeration.sieve.wait_s", "s", "lower"),
    ("enumeration.members_in_range.calls", "count", "lower"),
    ("enumeration.members_in_range.tested", "count", "lower"),
    ("enumeration.members_in_range.low_tested_per_s", "1/s", "higher"),
    ("enumeration.members_in_range.high_tested_per_s", "1/s", "higher"),
    ("enumeration.members_in_range.chunk_p50_ms", "ms", "lower"),
    ("enumeration.members_in_range.chunk_p90_ms", "ms", "lower"),
    ("enumeration.counting_s", "s", "lower"),
    ("enumeration.counting.members_in", "count", "lower"),
    ("enumeration.checkpoint_lines", "count", "lower"),
    ("enumeration.checkpoint_bytes", "bytes", "lower"),
    ("enumeration.read_checkpoint_s", "s", "lower"),
    ("analysis.geometric_grid_s", "s", "lower"),
    ("analysis.fit_exponent_s", "s", "lower"),
    ("analysis.fluctuation_profile_s", "s", "lower"),
    ("analysis.fit_samples", "count", "higher"),
    ("membership.is_isosquare.calls", "count", "lower"),
    ("membership.is_isosquare.s", "s", "lower"),
    ("membership.weight_profile.calls", "count", "lower"),
    ("membership.weight_profile.s", "s", "lower"),
    ("constructions.construct_one.s", "s", "lower"),
    ("constructions.construct_one.p50_us", "us", "lower"),
    ("constructions.construct_one.p99_us", "us", "lower"),
    ("constructions.inflate.s", "s", "lower"),
    ("constructions.normalize_defect.s", "s", "lower"),
    ("constructions.finalize_member.s", "s", "lower"),
    ("constructions.family_traces.s", "s", "lower"),
    ("constructions.final_bits_max", "count", "lower"),
    ("checks.lemmas_s", "s", "lower"),
    ("checks.gaps_s", "s", "lower"),
    ("checks.tuples_s", "s", "lower"),
    ("checks.mersenne_s", "s", "lower"),
    ("checks.failures", "count", "lower"),
    *((f"trace.{w}.overhead_s", "s", "lower")
      for w in ("sieve_1e8", "wide_windows", "chains")),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def median_metrics(cycles: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over cycles; exact counts stay integers."""
    out = {}
    for k in cycles[0]:
        values = [c[k] for c in cycles]
        exact = all(isinstance(v, int) for v in values)
        out[k] = (statistics.median_low if exact else statistics.median)(values)
    return out
