"""cold-start: the paper's optimization-cost scenario, scaled to a fleet.

WR phase: a fresh ``ClusterService`` over ``p100-sxm2`` and ``v100-sxm2``
(two shards, one worker each, empty benchmark caches) is asked for every
conv kernel of AlexNet b256, ResNet-50 b32 and GoogLeNet b128 under
``powerOfTwo`` and ``all`` at 8 and 64 MiB on both devices: 1776 keys,
each by three simulated clients, in a seeded shuffle with device hints.
One generator thread submits a window of at most ``max_pending`` tickets,
then waits on all of them.  A window never holds one key twice, so every
request is either a fresh solve or a store hit of an earlier window: on
the threaded path the split between coalescing and hits depends on thread
timing, and the exact work counts must repeat.

WD phase: ``optimize_network_wd`` plans ResNet-50 b32 over a fixed list of
pools sharing one ``BenchmarkCache``; the 256 MiB pool is a hard ILP
instance (most of the phase's branch-and-bound nodes).

Perfmodel, benchmarker, WR DP, store puts, cluster routing and the WD
Pareto/ILP solve do the work; the wire does none.  The process stays
unpinned, so a change that parallelizes solves can show.  ``--seconds``
sets how many bring-ups (fresh cluster, WR phase, WD phase) a run measures:
one per ``CYCLE_SECONDS``; their work counts must repeat exactly.

``setup_s`` times only the program's set-up: enumerating the WD network's
kernels and building the cluster.  The requests and their windows are built
once per run, outside the timer.  Besides the set-up each bring-up uses,
spare set-ups run after every ``ASIDE_EVERY``-th WR window and after each
WD pool, on stopped phase clocks while the cluster is idle.  Each follows a
collection of the previous one's garbage.  The host's speed changes mode
every few seconds, so set-ups spread over the whole run land in each mode
about as often as the run does, where set-ups taken back to back would all
share one; ``setup_s`` is their ``setup_median``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import random
import time
from pathlib import Path

from common import (Outcome, StealMeter, Tally, Tracer, layer_metrics, median,
                    nearest_rank, peak_rss_mib, setup_median,
                    tail_percentile)
from stack import (ALEXNET, GOOGLENET, RESNET50, WROracle,
                   distinct_geometries, plan_requests)

import repro.core.benchmarker as benchmarker
import repro.core.optimizer as optimizer
import repro.core.wd as wd
import repro.service.plan_service as plan_service
from repro.cluster import ClusterService
from repro.core.cache import BenchmarkCache
from repro.core.policies import BatchSizePolicy
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.errors import ServiceOverloadedError
from repro.harness.experiments import conv_geometries_of
from repro.service import PlanService, PlanStore
from repro.telemetry import locks
from repro.units import MIB

DEVICES = ("p100-sxm2", "v100-sxm2")
POLICIES = (BatchSizePolicy.POWER_OF_TWO, BatchSizePolicy.ALL)
LIMITS_MIB = (8, 64)
CLIENTS = 3
MAX_PENDING = 64
#: Shared-pool sizes the WD phase plans ResNet-50 for; 256 MiB is the hard one.
WD_POOLS_MIB = (64, 256, 1024)
WD_GPU = "p100-sxm2"
#: A spare set-up is timed after every this many WR windows.
ASIDE_EVERY = 12
#: One bring-up (WR + WD phase) per this many seconds of ``--seconds``.
CYCLE_SECONDS = 7.5

BYPASSED = {
    "core.tensor_solve.delta_ms", "service.store.invalidate_ms",
    "service.plan_service.hit_us",
    "service.refresh.invalidated", "service.refresh.delta_resolves",
    "wire.protocol.req_encode_us", "wire.protocol.req_decode_us",
    "wire.protocol.resp_encode_us", "wire.protocol.resp_decode_us",
    "wire.protocol.req_bytes", "wire.protocol.resp_bytes",
    "wire.protocol.codec_over_json_x", "wire.client.rtt_us",
    "wire.echo_floor_us", "wire.rtt_over_echo_x", "wire.server.leftover_us",
    "service.store.get_over_dict_x",
    "persistence.load_ms", "persistence.warm_start_ms",
    "persistence.plans_restored", "refresh_ms", "refresh_loop_frac",
}


def key_of(request) -> tuple:
    return (request.shard, request.kernel, request.policy, request.workspace_limit)


def windows(requests, size: int) -> "list[list]":
    """Consecutive windows of at most ``size`` requests, no key twice in one;
    a repeated key moves to the next window, keeping arrival order."""
    out = []
    pending = requests
    while pending:
        window, seen, rest = [], set(), []
        for request in pending:
            key = key_of(request)
            if len(window) < size and key not in seen:
                window.append(request)
                seen.add(key)
            else:
                rest.append(request)
        out.append(window)
        pending = rest
    return out


class Traffic:
    """The seeded requests of one run: every key, and the windows the three
    clients' asks arrive in."""

    def __init__(self, seed: int) -> None:
        requests = []
        for device in DEVICES:
            geometries = distinct_geometries((ALEXNET, RESNET50, GOOGLENET),
                                             device)
            requests += plan_requests(geometries, LIMITS_MIB, POLICIES,
                                      shard=device)
        self.keys = requests
        asks = [dataclasses.replace(r, client=f"client-{c}")
                for r in requests for c in range(CLIENTS)]
        random.Random(seed).shuffle(asks)
        self.windows = windows(asks, MAX_PENDING)


class Fleet:
    """One set-up of the program: the WD network's kernels and a fresh
    cluster, to be asked for ``traffic``."""

    def __init__(self, traffic: Traffic) -> None:
        self.keys = traffic.keys
        self.windows = traffic.windows
        self.wd_geometries = conv_geometries_of(*RESNET50, WD_GPU)
        self.cluster = ClusterService(DEVICES, len(DEVICES), workers=1,
                                      max_pending=MAX_PENDING,
                                      capacity=2 * len(traffic.keys))


def set_up(traffic: Traffic, setup_s: "list[float]") -> Fleet:
    """Time one :class:`Fleet`; callers drop the previous one first, so the
    collection of its garbage is not timed."""
    gc.collect()
    t0 = time.perf_counter()
    fleet = Fleet(traffic)
    setup_s.append(time.perf_counter() - t0)
    return fleet


class Pass:
    """What one WR + WD pass served and how long it took."""

    def __init__(self) -> None:
        self.latencies: "list[float]" = []
        self.answers: "list[tuple]" = []
        self.refusals = 0
        self.served = 0
        self.plans: "list[tuple[int, object]]" = []
        self.window = (0.0, 0.0)
        self.wr_wall = 0.0
        self.wd_wall = 0.0
        self.wd_cache: "BenchmarkCache | None" = None


def serve(fleet: Fleet, optimize=optimizer.optimize_network_wd,
          wd_phase: bool = True, aside=None) -> Pass:
    """One bring-up on ``fleet``: every WR window, then the WD pools.

    ``aside``, if given, runs after every ``ASIDE_EVERY``-th window and after
    each pool, with the phase clocks stopped.
    """
    out = Pass()
    cluster = fleet.cluster
    clock = time.perf_counter

    def step_aside() -> float:
        if aside is None:
            return 0.0
        t0 = clock()
        aside()
        return clock() - t0

    paused_wr = paused_wd = 0.0
    start = clock()
    for index, window in enumerate(fleet.windows, 1):
        tickets = []
        for request in window:
            t0 = clock()
            try:
                tickets.append((t0, request, cluster.submit(request)))
            except ServiceOverloadedError:
                out.refusals += 1
        for t0, request, ticket in tickets:
            response = cluster.wait(ticket)
            out.latencies.append(clock() - t0)
            out.answers.append((request, response))
        if index % ASIDE_EVERY == 0:
            paused_wr += step_aside()
    middle = clock()
    out.served = len(out.answers)
    handle = CudnnHandle(gpu=Gpu.create(WD_GPU), mode=ExecMode.TIMING)
    cache = BenchmarkCache()
    for pool in WD_POOLS_MIB if wd_phase else ():
        out.plans.append((pool * MIB, optimize(
            handle, fleet.wd_geometries, pool * MIB, cache=cache)))
        paused_wd += step_aside()
    end = clock()
    out.window = (start, end)
    out.wr_wall = middle - start - paused_wr
    out.wd_wall = end - middle - paused_wd
    out.wd_cache = cache
    return out


class Oracle:
    """WR answers against the WR recurrence on the serving shards' rows; WD
    plans against the MCKP solver on the same prepared kernels.

    The WR answers are computed once per run, from the first pass checked;
    every later pass must have served from exactly the same rows.
    """

    def __init__(self) -> None:
        self.expected: "dict[tuple, tuple] | None" = None
        self.rows: "str | None" = None

    def check(self, fleet: Fleet, done: Pass, outcome: Outcome,
              where: str) -> Tally:
        """Check one pass, then drop its answers (keeping memory flat)."""
        rows = hashlib.sha256(json.dumps(
            [shard.bench_cache.export_payload()
             for shard in fleet.cluster.shards()],
            sort_keys=True).encode()).hexdigest()
        if self.expected is None:
            self.expected, self.rows = self._answers(fleet), rows
        elif rows != self.rows:
            outcome.problems.append(
                f"{where}: the shards benchmarked different rows than the "
                "first pass of this seed")
        tally = Tally()
        for index, (request, response) in enumerate(done.answers):
            plan, undivided = self.expected[key_of(request)]
            ok = (response.source in ("fresh", "cached", "coalesced")
                  and response.key == request.key(request.shard)
                  and response.configuration == plan)
            tally.record(ok, undivided, response.configuration.time, lambda: (
                f"request {index} for {response.key} was served "
                f"{response.source} with a plan "
                + ("equal to" if response.configuration == plan else "unlike")
                + " the oracle's"))
        for _ in range(done.refusals):
            tally.record(False, 0.0, 0.0,
                         lambda: "request refused as overloaded")
        for pool, plan in done.plans:
            mckp = wd.solve_from_kernels(plan.wd.kernels, pool, solver="mckp")
            ok = (math.isclose(plan.wd.total_time, mckp.total_time,
                               rel_tol=1e-9)
                  and plan.wd.total_workspace <= pool
                  and len(plan.wd.assignments) == len(fleet.wd_geometries))
            tally.record(ok, plan.total_undivided_time, plan.total_time,
                         lambda: (f"WD plan for a {pool // MIB} MiB pool "
                                  f"totals {plan.wd.total_time!r} s, MCKP "
                                  f"{mckp.total_time!r} s"))
        tally.add_to(outcome, where)
        done.answers.clear()
        return tally

    @staticmethod
    def _answers(fleet: Fleet) -> "dict[tuple, tuple]":
        oracles = {}
        expected = {}
        for request in fleet.keys:
            sid = fleet.cluster.route(request)
            if sid not in oracles:
                oracles[sid] = WROracle(request.shard,
                                        fleet.cluster.shard(sid).bench_cache)
            expected[key_of(request)] = oracles[sid].answer(request)
        return expected


def work_counts(summary: dict, done: Pass, tally: Tally) -> dict:
    """Exact work of one pass; ``summary`` is read before the oracle runs
    (the oracle reads the serving benchmark caches)."""
    service = summary["service"]
    ilps = [plan.wd.ilp for _, plan in done.plans if plan.wd.ilp is not None]
    return {
        "requests": done.served + done.refusals,
        "wrong_answers": tally.failed,
        "refusals": done.refusals,
        "solves": service["solver_invocations"],
        "fresh": service["fresh"],
        "coalesced": service["coalesced"],
        "cache_hits": service["cache_hits"],
        "fallbacks": service["fallbacks_timeout"] + service["fallbacks_error"],
        "store_evictions": summary["store"]["evictions"],
        "bench_hits": summary["bench_cache"]["hits"],
        "bench_misses": summary["bench_cache"]["misses"],
        "wd_variables": sum(plan.wd.num_variables for _, plan in done.plans),
        "ilp_nodes": sum(ilp.nodes_explored for ilp in ilps),
        "ilp_lp_calls": sum(ilp.lp_calls for ilp in ilps),
        **{f"routed.{sid}": n for sid, n in summary["cluster"]["routed"].items()},
    }


def traced_pass(fleet: Fleet, tracer: Tracer) -> "tuple[Pass, dict]":
    """One pass with spans around every public call of each layer."""
    extra = {"rows": 0, "front_size": 0}

    def add(field, size):
        def observe(result):
            extra[field] += size(result)
        return observe

    tracer.patch(benchmarker, "find_algorithms_batched",
                 "cudnn.perfmodel.find_algorithms_batched", "cudnn",
                 on_result=add("rows", lambda out: sum(len(r) for r in out)))
    for module in (plan_service, optimizer):
        tracer.patch(module, "benchmark_kernel",
                     "core.benchmarker.benchmark_kernel", "core")
    tracer.patch(plan_service, "optimize_from_benchmark",
                 "core.wr.optimize_from_benchmark", "core")
    tracer.patch(optimizer, "desirable_set", "core.pareto.desirable_set",
                 "core", on_result=add("front_size", len))
    tracer.patch(optimizer, "solve_from_kernels", "core.wd.solve_from_kernels",
                 "core")
    tracer.patch(wd, "solve_branch_and_bound", "core.ilp.solve_branch_and_bound",
                 "core")
    tracer.patch(BenchmarkCache, "get_benchmark", "core.cache.get_benchmark",
                 "core")
    tracer.patch(BenchmarkCache, "put_benchmark", "core.cache.put_benchmark",
                 "core")
    tracer.patch(PlanStore, "get", "service.store.get", "service")
    tracer.patch(PlanStore, "put", "service.store.put", "service")
    tracer.patch(PlanService, "submit", "service.plan_service.submit", "service")
    tracer.patch(PlanService, "wait", "service.plan_service.wait", "service",
                 blocking=True)
    tracer.patch(ClusterService, "submit", "cluster.service.submit", "cluster")
    tracer.patch(ClusterService, "route", "cluster.service.route", "cluster")
    tracer.patch(ClusterService, "wait", "cluster.service.wait", "cluster",
                 blocking=True)
    try:
        done = serve(fleet, tracer.wrap(optimizer.optimize_network_wd,
                                        "core.optimizer.optimize_network_wd",
                                        "core"))
    finally:
        tracer.restore()
    return done, extra


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    del workdir
    cycles = max(1, round(seconds / CYCLE_SECONDS))
    outcome = Outcome(attempted=0, failed=0)
    steal = StealMeter()
    oracle = Oracle()
    setup_s: "list[float]" = []
    runs: "list[Pass]" = []
    tallies: "list[Tally]" = []
    traffic = Traffic(seed)

    def spare_set_up() -> None:
        set_up(traffic, setup_s).cluster.close()

    for rep in range(cycles):
        fleet = set_up(traffic, setup_s)
        try:
            done = serve(fleet, aside=spare_set_up)
            if rep == 0:
                # One bring-up's peak; later ones reuse a fragmented heap.
                rss = peak_rss_mib()
            summary = fleet.cluster.metrics_summary()
            tally = oracle.check(fleet, done, outcome, f"cycle-{rep}")
            outcome.counts[f"cycle-{rep}"] = work_counts(summary, done, tally)
            done.plans.clear()
            runs.append(done)
            tallies.append(tally)
        finally:
            fleet.cluster.close()
        fleet = None
    served = sum(done.served for done in runs)
    wr_wall = sum(done.wr_wall for done in runs)
    wd_wall = sum(done.wd_wall for done in runs)
    latencies = sorted(x for done in runs for x in done.latencies)
    tail = tail_percentile(served)
    outcome.info.update({"setup_s": setup_s, "cycles": cycles,
                         "requests": served, "windows": len(traffic.windows),
                         "tail_pct": tail,
                         "wr_wall_s": [done.wr_wall for done in runs],
                         "wd_wall_s": [done.wd_wall for done in runs]})
    if not trace:
        attempted = sum(t.attempted for t in tallies)
        failed = sum(t.failed for t in tallies)
        outcome.metrics.update({
            "setup_s": (setup_median(setup_s), "s"),
            "req_p90_ms": (nearest_rank(latencies, 90) * 1e3, "ms"),
            "plan_speedup": (sum(t.undivided_s for t in tallies)
                             / sum(t.served_s for t in tallies), "x"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
            "peak_rss_mb": (rss, "MiB"),
        })
        outcome.info["steal_frac"] = steal.fraction()
        return outcome

    counts = outcome.counts["cycle-0"]
    m = outcome.metrics
    untraced_wall = median([done.wr_wall + done.wd_wall for done in runs])
    m["req_p10_ms"] = (nearest_rank(latencies, 10) * 1e3, "ms")
    m["req_p50_ms"] = (nearest_rank(latencies, 50) * 1e3, "ms")
    m["req_per_s"] = (served / wr_wall, "1/s")
    m["req_p99_ms"] = (nearest_rank(latencies, tail) * 1e3, "ms")
    m["req_count"] = (served, "count")
    m["plans_per_s"] = (cycles * counts["solves"] / wr_wall, "1/s")
    m["wd_plan_s"] = (wd_wall / (cycles * len(WD_POOLS_MIB)), "s")

    tracer = Tracer()
    fleet = Fleet(traffic)
    try:
        traced, extra = traced_pass(fleet, tracer)
        summary = fleet.cluster.metrics_summary()
        tally = oracle.check(fleet, traced, outcome, "traced")
        counts = work_counts(summary, traced, tally)
    finally:
        fleet.cluster.close()
    outcome.counts["traced"] = counts
    m["telemetry.trace_overhead_x"] = (
        (traced.wr_wall + traced.wd_wall) / untraced_wall, "x")
    layer_metrics(m, tracer, traced.window)

    def med(name: str, scale: float) -> float:
        return median(tracer.durations(name)) * scale

    m["cudnn.perfmodel.find_us"] = (
        med("cudnn.perfmodel.find_algorithms_batched", 1e6), "us")
    m["cudnn.perfmodel.rows"] = (extra["rows"], "count")
    m["core.benchmarker.self_ms"] = (
        median(tracer.self_times("core.benchmarker.benchmark_kernel")) * 1e3,
        "ms")
    m["core.benchmarker.calls"] = (
        tracer.count("core.benchmarker.benchmark_kernel"), "count")
    bench_hits = counts["bench_hits"] + traced.wd_cache.hits
    bench_lookups = bench_hits + counts["bench_misses"] + traced.wd_cache.misses
    m["core.cache.bench_hit_ratio"] = (bench_hits / bench_lookups, "frac")
    m["core.wr.solve_us"] = (med("core.wr.optimize_from_benchmark", 1e6), "us")
    m["core.pareto.front_ms"] = (med("core.pareto.desirable_set", 1e3), "ms")
    m["core.pareto.front_size"] = (extra["front_size"], "count")
    m["core.wd.solve_s"] = (med("core.wd.solve_from_kernels", 1.0), "s")
    m["core.wd.variables"] = (counts["wd_variables"], "count")
    m["core.ilp.nodes"] = (counts["ilp_nodes"], "count")
    m["core.ilp.lp_calls"] = (counts["ilp_lp_calls"], "count")
    m["service.store.get_us"] = (med("service.store.get", 1e6), "us")
    m["service.store.put_us"] = (med("service.store.put", 1e6), "us")
    store = summary["store"]
    m["service.store.hit_ratio"] = (
        store["hits"] / max(1, store["hits"] + store["misses"]), "frac")
    m["service.store.evictions"] = (store["evictions"], "count")
    m["service.plan_service.wait_ms"] = (
        med("service.plan_service.wait", 1e3), "ms")
    m["service.plan_service.solves"] = (counts["solves"], "count")
    m["service.plan_service.coalesced"] = (counts["coalesced"], "count")
    m["service.plan_service.cache_hits"] = (counts["cache_hits"], "count")
    m["service.plan_service.refusals"] = (counts["refusals"], "count")
    m["service.plan_service.fallbacks"] = (counts["fallbacks"], "count")
    m["service.plan_service.useful_solve_ratio"] = (
        len(fleet.keys) / max(1, counts["solves"]), "frac")
    m["cluster.service.route_us"] = (med("cluster.service.route", 1e6), "us")
    routed = list(summary["cluster"]["routed"].values())
    m["cluster.service.shard_skew"] = (
        max(routed) / (sum(routed) / len(routed)), "x")

    monitor = locks.enable_sanitizer()
    try:
        fleet = Fleet(traffic)
        try:
            # WR phase only: the WD phase runs on one thread and shares no
            # lock with the service.
            sanitized = serve(fleet, wd_phase=False)
            summary = fleet.cluster.metrics_summary()
            tally = oracle.check(fleet, sanitized, outcome, "sanitized")
            counts = work_counts(summary, sanitized, tally)
        finally:
            fleet.cluster.close()
    finally:
        locks.disable_sanitizer()
    for violation in monitor.violations():
        outcome.problems.append(f"lock sanitizer {violation.kind}: "
                                f"{violation.message}")
    outcome.counts["sanitized"] = {
        k: v for k, v in counts.items() if not k.startswith(("wd_", "ilp_"))}
    m["telemetry.locks.sanitizer_overhead_x"] = (
        sanitized.wr_wall / median([done.wr_wall for done in runs]), "x")
    m["host.steal_frac"] = (steal.fraction(), "frac")
    return outcome
