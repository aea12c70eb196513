"""refresh-mix: benchmark refreshes beside reads on one in-process service.

A ``PlanService`` holds every plan of ResNet-50 b32 and GoogLeNet b128 at
8/64/512 MiB under ``powerOfTwo`` (about 620 plans, capacity to hold them
all).  One thread runs a closed loop of ``PlanService.request`` reads of
seeded stored keys; after every ``READS_PER_REFRESH`` reads it calls
``refresh_benchmark`` with one seeded geometry's rows at one seeded
micro-batch size, times scaled by a seeded factor.  Each refresh scans the
whole store (``invalidate_matching``), drops the geometry's family and
delta re-solves and re-stores each dropped plan.  Same store and service as
warm-wire, but with invalidation, delta solves and store writes in the loop
and no wire: a change that speeds reads at the cost of writes, or the
reverse, shows on one of the two.

``READS_PER_REFRESH`` is a chosen operating point, not observed traffic: at
200 reads per refresh, refreshes take somewhat over half of the loop's time
on the code the benchmark was written against, so neither side dominates.
Each run reports the measured share as ``refresh_loop_frac``.

A run is ``SEGMENTS`` loops of equal length, each on a freshly set-up service
with its own seeded stream.  Each set-up follows a collection of the
previous one's garbage.  The host's speed changes mode every few seconds,
so set-ups spread over the whole run land in each mode about as often as
the run does, where set-ups taken back to back would all share one;
``setup_s`` is their ``setup_median``.  ``peak_rss_mb`` is the highest ``VmHWM`` over
the first segment's set-up and loop, with the peak reset
(``/proc/self/clear_refs``) before each, so it leaves out the transient of
building the oracle's copy of the benchmark rows; the copy itself stays
resident during the loop, and its size is recorded as ``oracle_rss_mib``.
Later segments are left out because the latencies kept from earlier ones
add to them.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import time
from pathlib import Path

from common import (Outcome, StealMeter, Tally, Tracer, floor_ratio,
                    layer_metrics, median, nearest_rank, peak_rss_mib,
                    reset_peak_rss, rss_mib, setup_median,
                    tail_percentile)
from stack import GOOGLENET, RESNET50, WROracle, distinct_geometries, plan_requests

import repro.core.benchmarker as benchmarker
import repro.service.plan_service as plan_service
from repro.core.cache import BenchmarkCache
from repro.core.policies import BatchSizePolicy, candidate_sizes
from repro.core.tensor_solve import DeltaSolver, geometry_family
from repro.service import PlanService, PlanStore
from repro.telemetry import locks

GPU = "p100-sxm2"
LIMITS_MIB = (8, 64, 512)
READS_PER_REFRESH = 200
SEGMENTS = 10

BYPASSED = {
    "cudnn.perfmodel.find_us", "core.wr.solve_us",
    "core.pareto.front_ms", "core.pareto.front_size",
    "core.wd.solve_s", "core.wd.variables", "core.ilp.nodes",
    "core.ilp.lp_calls",
    "service.plan_service.coalesced", "service.plan_service.refusals",
    "service.plan_service.fallbacks",
    "service.plan_service.useful_solve_ratio",
    "cluster.service.route_us", "cluster.service.shard_skew",
    "wire.protocol.req_encode_us", "wire.protocol.req_decode_us",
    "wire.protocol.resp_encode_us", "wire.protocol.resp_decode_us",
    "wire.protocol.req_bytes", "wire.protocol.resp_bytes",
    "wire.protocol.codec_over_json_x", "wire.client.rtt_us",
    "wire.echo_floor_us", "wire.rtt_over_echo_x", "wire.server.leftover_us",
    "persistence.load_ms", "persistence.warm_start_ms",
    "persistence.plans_restored", "plans_per_s", "wd_plan_s",
}


class Script:
    """The seeded operation stream: which key each read asks for, and which
    rows each refresh rewrites by how much."""

    def __init__(self, seed: str, requests, geometries) -> None:
        self._rng = random.Random(seed)
        self._keys = len(requests)
        self._geometries = list(geometries.values())

    def reads(self) -> "list[int]":
        return [self._rng.randrange(self._keys) for _ in range(READS_PER_REFRESH)]

    def refresh(self):
        geometry = self._rng.choice(self._geometries)
        size = self._rng.choice(candidate_sizes(BatchSizePolicy.POWER_OF_TWO,
                                                geometry.n))
        factor = self._rng.choice((0.8, 0.9, 1.1, 1.25)) * self._rng.uniform(0.98, 1.02)
        return geometry.with_batch(size), factor


class Mix:
    """One set-up of the workload: a service holding every plan."""

    def __init__(self) -> None:
        self.geometries = distinct_geometries((RESNET50, GOOGLENET), GPU)
        self.requests = plan_requests(self.geometries, LIMITS_MIB)
        self.service = PlanService(GPU, capacity=2 * len(self.requests),
                                   workers=1)
        for request in self.requests:
            self.service.request(request)
        self.families: "dict[str, list[int]]" = {}
        for index, request in enumerate(self.requests):
            self.families.setdefault(geometry_family(request.kernel), []).append(index)


class Pass:
    def __init__(self) -> None:
        self.read_latencies: "list[float]" = []
        self.refresh_latencies: "list[float]" = []
        self.reads = 0
        self.refreshes = 0
        self.window = (0.0, 0.0)
        self.paused = 0.0
        self.wall = 0.0
        self.peak_rss = 0.0
        self.oracle_rss = 0.0


def run_loop(mix: Mix, seed: str, tally: Tally, *, seconds=None,
             refreshes=None, tracer: "Tracer | None" = None) -> Pass:
    """Reads and refreshes until ``seconds`` of loop time or ``refreshes``.

    The oracle checks the epoch's reads and every plan the refresh touched
    while the loop's clock is stopped, so checking costs no loop time.
    """
    service = mix.service
    if tracer is not None:
        tracer.paused = True
    before_oracle = rss_mib()
    oracle_cache = BenchmarkCache()
    oracle_cache.import_payload(service.bench_cache.export_payload())
    oracle = WROracle(GPU, oracle_cache)
    expected = [oracle.answer(r) for r in mix.requests]
    keys = [r.key(GPU) for r in mix.requests]
    script = Script(seed, mix.requests, mix.geometries)

    def next_epoch():
        reads = script.reads()
        geometry, factor = script.refresh()
        rows = [dataclasses.replace(r, time=r.time * factor)
                for r in oracle_cache.get_benchmark(GPU, geometry)]
        return reads, geometry, rows

    out = Pass()
    clock = time.perf_counter
    paused = 0.0
    reads, geometry, rows = next_epoch()
    gc.collect()
    out.oracle_rss = rss_mib() - before_oracle
    reset_peak_rss()
    if tracer is not None:
        tracer.paused = False
    start = clock()
    while True:
        answers = []
        for index in reads:
            t0 = clock()
            response = service.request(mix.requests[index])
            out.read_latencies.append(clock() - t0)
            answers.append((index, response))
        t0 = clock()
        invalidated = service.refresh_benchmark(geometry, rows)
        t1 = clock()
        out.refresh_latencies.append(t1 - t0)
        if tracer is not None:
            tracer.paused = True
        out.reads += len(answers)
        out.refreshes += 1
        for index, response in answers:
            plan, undivided = expected[index]
            ok = (response.source == "cached" and response.key == keys[index]
                  and response.configuration == plan)
            tally.record(ok, undivided, response.configuration.time, lambda: (
                f"read of {keys[index]} was served {response.source} with a "
                "plan " + ("equal to" if response.configuration == plan
                           else "unlike") + " the oracle's"))
        oracle_cache.put_benchmark(GPU, geometry, rows)
        family = mix.families[geometry_family(geometry.cache_key())]
        stored = {key: plan for key, plan, _ in service.store.entries()}
        stale = 0
        for index in family:
            expected[index] = oracle.answer(mix.requests[index])
            if stored.get(keys[index]) != expected[index][0]:
                stale += 1
        tally.record(stale == 0 and invalidated == len(family), 0.0, 0.0,
                     lambda: (f"refresh of {geometry.cache_key()} left "
                              f"{stale} of {len(family)} plans stale "
                              f"({invalidated} invalidated)"))
        done = (seconds is not None and t1 - start - paused >= seconds) or (
            out.refreshes == refreshes)
        if not done:
            reads, geometry, rows = next_epoch()
        if tracer is not None:
            tracer.paused = False
        t2 = clock()
        paused += t2 - t1
        if done:
            break
    out.window = (start, t2)
    out.paused = paused
    out.wall = t2 - start - paused
    out.peak_rss = peak_rss_mib()
    return out


def work_counts(before: dict, after: dict, done: Pass, tally: Tally) -> dict:
    def delta(section: str, name: str) -> int:
        return after[section][name] - before[section][name]

    return {
        "reads": done.reads,
        "refreshes": done.refreshes,
        "wrong_answers": tally.failed,
        "invalidated": delta("service", "invalidated_plans"),
        "delta_resolves": delta("service", "delta_resolves"),
        "solves": delta("service", "solver_invocations"),
        "cache_hits": delta("service", "cache_hits"),
        "store_hits": delta("store", "hits"),
        "store_misses": delta("store", "misses"),
        "evictions": delta("store", "evictions"),
        "bench_hits": delta("bench_cache", "hits"),
        "bench_misses": delta("bench_cache", "misses"),
    }


def set_up(setup_s: "list[float]", peaks: "list[float]") -> Mix:
    """Time one :class:`Mix` and record its peak memory; callers drop the
    previous one first, so the collection of its garbage is not timed."""
    gc.collect()
    reset_peak_rss()
    t0 = time.perf_counter()
    mix = Mix()
    setup_s.append(time.perf_counter() - t0)
    peaks.append(peak_rss_mib())
    return mix


def one_pass(mix: Mix, seed: str, outcome: Outcome, where: str, *,
             seconds=None, refreshes=None, tracer=None):
    """One loop on ``mix``, closed afterwards: ``(pass, tally, counts)``."""
    tally = Tally()
    before = mix.service.metrics_summary()
    try:
        done = run_loop(mix, seed, tally, seconds=seconds, refreshes=refreshes,
                        tracer=tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    after = mix.service.metrics_summary()
    mix.service.close()
    tally.add_to(outcome, where)
    return done, tally, work_counts(before, after, done, tally)


def stream(seed: int, segment: int) -> str:
    """Seed of one segment's operation stream."""
    return f"{seed}:{segment}"


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    del workdir
    # One thread does all the work; pinning it hides no parallelism and
    # keeps its caches from following it across CPUs.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    outcome = Outcome(attempted=0, failed=0)
    outcome.info["pinned_cpu"] = cpu
    steal = StealMeter()
    setup_s: "list[float]" = []
    peaks: "list[float]" = []
    segments: "list[Pass]" = []
    tallies: "list[Tally]" = []
    for segment in range(SEGMENTS):
        mix = set_up(setup_s, peaks)
        plans = len(mix.requests)
        done, tally, counts = one_pass(mix, stream(seed, segment), outcome,
                                       f"segment-{segment}",
                                       seconds=seconds / SEGMENTS)
        mix = None
        peaks.append(done.peak_rss)
        if segment == 0:
            # The passes of a traced run replay segment 0.
            outcome.counts["untraced"] = counts
            rss = max(peaks)
        segments.append(done)
        tallies.append(tally)
    reads = sorted(x for done in segments for x in done.read_latencies)
    refreshes = [x for done in segments for x in done.refresh_latencies]
    wall = sum(done.wall for done in segments)
    refresh_frac = sum(refreshes) / wall
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    tail = tail_percentile(len(reads))
    outcome.info.update({
        "setup_s": setup_s, "plans": plans,
        "reads": [done.reads for done in segments],
        "refreshes": [done.refreshes for done in segments],
        "refresh_loop_frac": refresh_frac, "peak_rss_mib": peaks,
        "oracle_rss_mib": [done.oracle_rss for done in segments],
        "tail_pct": tail})
    if not trace:
        outcome.metrics.update({
            "setup_s": (setup_median(setup_s), "s"),
            "req_p90_ms": (nearest_rank(reads, 90) * 1e3, "ms"),
            "plan_speedup": (sum(t.undivided_s for t in tallies)
                             / sum(t.served_s for t in tallies), "x"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
            "peak_rss_mb": (rss, "MiB"),
        })
        outcome.info["steal_frac"] = steal.fraction()
        return outcome

    # The traced and sanitized passes are compared with an untraced replay
    # of segment 0 run just before them, in the same warm process.
    refreshes_0 = segments[0].refreshes
    gc.collect()
    base, _, outcome.counts["replay"] = one_pass(
        Mix(), stream(seed, 0), outcome, "replay", refreshes=refreshes_0)
    m = outcome.metrics
    m["req_p10_ms"] = (nearest_rank(reads, 10) * 1e3, "ms")
    m["req_p50_ms"] = (nearest_rank(reads, 50) * 1e3, "ms")
    m["req_per_s"] = (len(reads) / wall, "1/s")
    m["req_p99_ms"] = (nearest_rank(reads, tail) * 1e3, "ms")
    m["req_count"] = (len(reads), "count")
    m["refresh_ms"] = (median(refreshes) * 1e3, "ms")
    m["refresh_loop_frac"] = (refresh_frac, "frac")
    counts = outcome.counts["untraced"]
    m["service.refresh.invalidated"] = (counts["invalidated"], "count")
    m["service.refresh.delta_resolves"] = (counts["delta_resolves"], "count")
    m["service.plan_service.solves"] = (counts["solves"], "count")
    m["service.plan_service.cache_hits"] = (counts["cache_hits"], "count")
    m["service.store.hit_ratio"] = (counts["store_hits"] / max(
        1, counts["store_hits"] + counts["store_misses"]), "frac")
    m["service.store.evictions"] = (counts["evictions"], "count")
    m["core.cache.bench_hit_ratio"] = (counts["bench_hits"] / max(
        1, counts["bench_hits"] + counts["bench_misses"]), "frac")

    tracer = Tracer()
    rows = [0]

    def add_rows(out):
        rows[0] += sum(len(r) for r in out)

    gc.collect()
    mix = Mix()
    tracer.patch(benchmarker, "find_algorithms_batched",
                 "cudnn.perfmodel.find_algorithms_batched", "cudnn",
                 on_result=add_rows)
    tracer.patch(plan_service, "benchmark_kernel",
                 "core.benchmarker.benchmark_kernel", "core")
    tracer.patch(BenchmarkCache, "get_benchmark", "core.cache.get_benchmark",
                 "core")
    tracer.patch(BenchmarkCache, "put_benchmark", "core.cache.put_benchmark",
                 "core")
    tracer.patch(DeltaSolver, "solve_network", "core.tensor_solve.solve_network",
                 "core")
    tracer.patch(PlanStore, "get", "service.store.get", "service")
    tracer.patch(PlanStore, "put", "service.store.put", "service")
    tracer.patch(PlanStore, "invalidate_matching",
                 "service.store.invalidate_matching", "service")
    tracer.patch(PlanService, "request", "service.plan_service.request",
                 "service")
    tracer.patch(PlanService, "submit", "service.plan_service.submit", "service")
    tracer.patch(PlanService, "wait", "service.plan_service.wait", "service")
    tracer.patch(PlanService, "refresh_benchmark",
                 "service.plan_service.refresh_benchmark", "service")
    traced, _, outcome.counts["traced"] = one_pass(
        mix, stream(seed, 0), outcome, "traced", refreshes=refreshes_0,
        tracer=tracer)
    mix = None
    m["telemetry.trace_overhead_x"] = (traced.wall / base.wall, "x")
    layer_metrics(m, tracer, traced.window, traced.paused)

    def med(name: str, scale: float) -> float:
        values = tracer.durations(name)
        return median(values) * scale if values else 0.0

    m["cudnn.perfmodel.rows"] = (rows[0], "count")
    m["core.benchmarker.self_ms"] = (median(tracer.self_times(
        "core.benchmarker.benchmark_kernel")) * 1e3, "ms")
    m["core.benchmarker.calls"] = (
        tracer.count("core.benchmarker.benchmark_kernel"), "count")
    m["core.tensor_solve.delta_ms"] = (
        med("core.tensor_solve.solve_network", 1e3), "ms")
    m["service.store.get_us"] = (med("service.store.get", 1e6), "us")
    m["service.store.put_us"] = (med("service.store.put", 1e6), "us")
    m["service.store.invalidate_ms"] = (
        med("service.store.invalidate_matching", 1e3), "ms")
    m["service.plan_service.hit_us"] = (
        med("service.plan_service.request", 1e6), "us")
    m["service.plan_service.wait_ms"] = (
        med("service.plan_service.wait", 1e3), "ms")

    gc.collect()
    mix = Mix()
    keys = [r.key(GPU) for r in mix.requests] * 4
    plain = {key: mix.service.store.get(key) for key in keys}
    m["service.store.get_over_dict_x"] = (
        floor_ratio(mix.service.store.get, keys, plain.get, keys), "x")
    mix.service.close()
    mix = None
    gc.collect()

    monitor = locks.enable_sanitizer()
    try:
        sanitized, _, outcome.counts["sanitized"] = one_pass(
            Mix(), stream(seed, 0), outcome, "sanitized",
            refreshes=refreshes_0)
    finally:
        locks.disable_sanitizer()
    for violation in monitor.violations():
        outcome.problems.append(f"lock sanitizer {violation.kind}: "
                                f"{violation.message}")
    m["telemetry.locks.sanitizer_overhead_x"] = (sanitized.wall / base.wall, "x")
    m["host.steal_frac"] = (steal.fraction(), "frac")
    return outcome
