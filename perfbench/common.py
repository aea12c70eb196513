"""Shared pieces of the benchmark: statistics, host noise, tracing, results.

Nothing here imports ``repro``; the workload modules do, after ``run.py``
has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import fmean, median
from typing import Callable

#: The module names of ``src/repro`` that the traced run splits wall time by.
LAYERS = ("cudnn", "core", "service", "cluster", "wire", "persistence",
          "telemetry")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def nearest_rank(sorted_values: "list[float]", pct: float) -> float:
    """Nearest-rank percentile of an ascending list (``pct`` in 0..100)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def floor_ratio(fn_a, items_a, fn_b, items_b, trials: int = 7) -> float:
    """Median over alternating trials of time(``fn_a`` over ``items_a``)
    divided by time(``fn_b`` over ``items_b``)."""
    ratios = []
    clock = time.perf_counter
    for _ in range(trials):
        t0 = clock()
        for item in items_a:
            fn_a(item)
        t1 = clock()
        for item in items_b:
            fn_b(item)
        t2 = clock()
        ratios.append((t1 - t0) / (t2 - t1))
    return median(ratios)


def setup_median(samples: "list[float]", groups: int = 3) -> float:
    """Median over ``groups`` interleaved groups of set-up times (every
    ``groups``-th sample, in the order taken) of each group's mean.

    A run's set-ups are spread over it, so each group spans the whole run.
    On a host whose speed flips between two modes, a group's mean moves
    smoothly with the share of the run spent in the slow mode, where the
    median of the samples themselves jumps from one mode to the other as
    that share nears one half.  The median over groups still ignores one
    group thrown off by a stall.
    """
    return median(fmean(samples[g::groups]) for g in range(groups))


def tail_percentile(count: int) -> float:
    """The highest of 99.9/99/95/90 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


# ---------------------------------------------------------------------------
# Host noise and memory
# ---------------------------------------------------------------------------


def read_cpu_jiffies() -> "tuple[int, int]":
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line of /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    values = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user/nice.
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


class StealMeter:
    """Share of CPU time the hypervisor took away between start and stop."""

    def __init__(self) -> None:
        self._start = read_cpu_jiffies()

    def fraction(self) -> float:
        steal, total = read_cpu_jiffies()
        d_total = total - self._start[1]
        return (steal - self._start[0]) / d_total if d_total > 0 else 0.0


def _status_mib(field: str, pid: "int | str") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} line for process {pid}")


def peak_rss_mib(pid: "int | str" = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    return _status_mib("VmHWM", pid)


def rss_mib() -> float:
    """Current resident set size (``VmRSS``) of this process, in MiB."""
    return _status_mib("VmRSS", "self")


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current resident set size."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def host_info() -> "dict[str, object]":
    return {
        "cpus": os.cpu_count() or 0,
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


# ---------------------------------------------------------------------------
# Tracing: spans recorded by the benchmark around calls into repro's layers
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    layer: str
    thread: int
    start: float
    end: float
    #: A blocking span (a wait on another thread's work) is recorded for its
    #: duration but attributes no time to its layer.
    blocking: bool = False


@dataclass
class Attribution:
    """Traced wall split into per-layer self time plus a leftover."""

    wall_s: float
    self_s: "dict[str, float]"
    leftover_s: float


class Tracer:
    """In-memory span recorder; spans of one thread nest by their times.

    :meth:`patch` swaps a public function or method of ``repro`` for a
    recording wrapper (restored by :meth:`restore`), so nested calls made
    inside the program are timed without any span inside ``src/``.
    """

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._lock = threading.Lock()
        self._patches: "list[tuple[object, str, object]]" = []
        #: While set, wrapped calls run unrecorded (the benchmark's own
        #: checking between timed operations).
        self.paused = False

    def wrap(self, fn: Callable, name: str, layer: str,
             blocking: bool = False,
             on_result: "Callable[[object], None] | None" = None) -> Callable:
        """``fn`` recording a span per call; ``on_result`` sees each result."""
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                span = Span(name, layer, threading.get_ident(), start,
                            clock(), blocking)
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    def patch(self, owner: object, attr: str, name: str, layer: str,
              blocking: bool = False,
              on_result: "Callable[[object], None] | None" = None) -> None:
        """Replace ``owner.attr`` (a module function or a class's own method)
        by its recording wrapper until :meth:`restore`."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer, blocking,
                                       on_result))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> "list[float]":
        return [s.end - s.start for s in self.spans if s.name == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self, name: str) -> "list[float]":
        """Per-call self time of every span called ``name``."""
        out = []
        for spans in _by_thread(self.spans).values():
            for span, child_s in _with_child_time(spans):
                if span.name == name:
                    out.append(span.end - span.start - child_s)
        return out

    def attribute(self, start: float, end: float,
                  paused_s: float = 0.0) -> Attribution:
        """Split ``[start, end]`` into layer self time plus a leftover.

        Each thread's innermost non-blocking span is its active layer.  Where
        several threads are active at once, the interval is shared equally
        among them, so the layers and the leftover (no span active) sum to
        the wall exactly even when worker threads overlap.  ``paused_s`` of
        the window ran with the tracer paused and is left out of both.
        """
        events: "list[tuple[float, int, str]]" = []
        for spans in _by_thread(self.spans).values():
            for seg_start, seg_end, layer in _self_segments(spans):
                seg_start, seg_end = max(seg_start, start), min(seg_end, end)
                if seg_end > seg_start:
                    events.append((seg_start, 1, layer))
                    events.append((seg_end, -1, layer))
        events.sort(key=lambda e: (e[0], e[1]))
        self_s = {layer: 0.0 for layer in LAYERS}
        active: "dict[str, int]" = {}
        total_active = 0
        leftover = 0.0
        cursor = start
        for when, delta, layer in events:
            if when > cursor:
                dt = when - cursor
                if total_active == 0:
                    leftover += dt
                else:
                    for name, n in active.items():
                        if n:
                            self_s[name] += dt * n / total_active
                cursor = when
            active[layer] = active.get(layer, 0) + delta
            total_active += delta
        leftover += max(0.0, end - cursor) - paused_s
        return Attribution(wall_s=end - start - paused_s, self_s=self_s,
                           leftover_s=leftover)


def _by_thread(spans: "list[Span]") -> "dict[int, list[Span]]":
    out: "dict[int, list[Span]]" = {}
    for span in spans:
        out.setdefault(span.thread, []).append(span)
    for group in out.values():
        group.sort(key=lambda s: (s.start, -s.end))
    return out


def _with_child_time(spans: "list[Span]") -> "list[tuple[Span, float]]":
    """``(span, time covered by its direct children)`` for one thread."""
    child_time = [0.0] * len(spans)
    stack: "list[int]" = []
    for index, span in enumerate(spans):
        while stack and spans[stack[-1]].end <= span.start:
            stack.pop()
        if stack:
            child_time[stack[-1]] += span.end - span.start
        stack.append(index)
    return list(zip(spans, child_time))


def _self_segments(spans: "list[Span]") -> "list[tuple[float, float, str]]":
    """Intervals where a thread's innermost span is a non-blocking one."""
    segments: "list[tuple[float, float, str]]" = []
    stack: "list[Span]" = []
    cursor = None

    def emit(until: float) -> None:
        if stack and cursor is not None and until > cursor:
            top = stack[-1]
            if not top.blocking:
                segments.append((cursor, until, top.layer))

    for span in spans:
        while stack and stack[-1].end <= span.start:
            emit(stack[-1].end)
            cursor = stack.pop().end
        emit(span.start)
        stack.append(span)
        cursor = span.start
    while stack:
        emit(stack[-1].end)
        cursor = stack.pop().end
    return segments


def layer_metrics(metrics: dict, tracer: Tracer, window,
                  paused_s: float = 0.0) -> None:
    """Per-layer self time of a traced pass; layers + leftover = wall."""
    split = tracer.attribute(*window, paused_s=paused_s)
    for layer, seconds in split.self_s.items():
        metrics[f"layer.{layer}.self_ms"] = (seconds * 1e3, "ms")
    metrics["layer.leftover_ms"] = (split.leftover_s * 1e3, "ms")
    metrics["layer.traced_wall_ms"] = (split.wall_s * 1e3, "ms")


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


class Tally:
    """Oracle verdicts of one pass, plus the modelled times behind
    ``plan_speedup`` (undivided cuDNN time over served plan time)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.undivided_s = 0.0
        self.served_s = 0.0
        self.messages: "list[str]" = []

    def record(self, ok: bool, undivided_s: float, served_s: float,
               describe: "Callable[[], str]") -> None:
        self.attempted += 1
        self.undivided_s += undivided_s
        self.served_s += served_s
        if not ok:
            self.failed += 1
            if len(self.messages) < 3:
                self.messages.append(describe())

    @property
    def speedup(self) -> float:
        return self.undivided_s / self.served_s

    def add_to(self, outcome: "Outcome", where: str) -> None:
        outcome.attempted += self.attempted
        outcome.failed += self.failed
        outcome.problems.extend(f"{where}: {m}" for m in self.messages)


@dataclass
class Outcome:
    """What one workload invocation measured."""

    attempted: int
    failed: int
    metrics: "dict[str, tuple[float, str]]" = field(default_factory=dict)
    #: Exact work counts of each pass, compared across passes of one seed.
    counts: "dict[str, dict[str, int]]" = field(default_factory=dict)
    info: "dict[str, object]" = field(default_factory=dict)
    problems: "list[str]" = field(default_factory=list)


def check_counts_repeat(outcome: Outcome) -> bool:
    """Every pass of one seed must have done exactly the same work (on the
    counts both passes record)."""
    passes = list(outcome.counts.items())
    repeated = True
    for name, counts in passes[1:]:
        base_name, base = passes[0]
        for key in sorted(set(base) & set(counts)):
            if base.get(key) != counts.get(key):
                repeated = False
                outcome.problems.append(
                    f"work count {key!r} drifted between passes "
                    f"{base_name!r} ({base.get(key)}) and {name!r} "
                    f"({counts.get(key)}) of one seed"
                )
    return repeated


def emit(outcome: Outcome, wanted: "list[dict]") -> int:
    """Print diagnostics, then the result line; return the exit code."""
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    for m in wanted:
        got = outcome.metrics.get(m["name"])
        if got is not None and got[1] != m["unit"]:
            outcome.problems.append(
                f"{m['name']} measured in {got[1]}, declared in {m['unit']}")
    for problem in outcome.problems:
        print(f"[perfbench problem] {problem}", file=sys.stderr)
    print(json.dumps({"info": outcome.info, "counts": outcome.counts},
                     sort_keys=True))
    correct = not outcome.problems and outcome.failed == 0
    metrics = {
        m["name"]: {"value": outcome.metrics[m["name"]][0], "unit": m["unit"]}
        for m in wanted if m["name"] in outcome.metrics
    }
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1
