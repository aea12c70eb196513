"""warm-wire: training processes re-ask a running server for plans it holds.

A ``runner serve --listen`` process warm-starts from a snapshot built in
set-up; one client thread with one ``PlanClient`` connection sends a closed
loop of plan requests cycling over a seeded permutation of the 225 stored
keys (AlexNet b256 and ResNet-50 b32, 8/64/512 MiB, ``powerOfTwo``).  Every
timed request is a store hit, so the wire codec, the server loop and the
store-hit path do the work and the solver does none.  Client, server and
the echo floor all run on one CPU: a round trip is serial, so pinning hides
no parallelism and removes cross-CPU wake-up noise.

``setup_s`` times building the snapshot, starting a server on it and its
first ping.  Besides the set-up the loop uses, ``SPARE_SETUPS`` spare
set-ups run at even steps of the loop, between round trips with the loop's
clocks stopped; each spare server is killed as soon as it answers.  Each
set-up follows a collection of the previous one's garbage.  The host's
speed changes mode every few seconds, so set-ups spread over the whole run
land in each mode about as often as the run does, where set-ups taken back
to back would all share one; ``setup_s`` is their ``setup_median``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import signal
import socket
import struct
import time
from pathlib import Path

from common import (Outcome, StealMeter, Tally, Tracer, floor_ratio,
                    layer_metrics, median, nearest_rank, peak_rss_mib,
                    setup_median, tail_percentile)
from stack import (ALEXNET, RESNET50, WROracle, distinct_geometries,
                   plan_requests, read_until, spawn, stop)

import repro.persistence.store as persistence_store
from repro.core.cache import BenchmarkCache
from repro.persistence import (PersistentPlanStore, canonical_gpu,
                               save_snapshot, snapshot_service)
from repro.service import PlanService, PlanStore
from repro.wire import PlanClient
from repro.wire.protocol import (
    decode_envelope,
    encode_envelope,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)

GPU = "p100-sxm2"
LIMITS_MIB = (8, 64, 512)
SPARE_SETUPS = 8
#: Key-set cycles replayed by the traced run's comparison passes.
TRACE_CYCLES = 40
ECHO_FRAMES = 4000

#: Per-layer metrics of layers this workload bypasses (reported as 0).
BYPASSED = {
    "cudnn.perfmodel.find_us", "cudnn.perfmodel.rows",
    "core.benchmarker.self_ms", "core.benchmarker.calls",
    "core.cache.bench_hit_ratio", "core.wr.solve_us",
    "core.pareto.front_ms", "core.pareto.front_size",
    "core.wd.solve_s", "core.wd.variables", "core.ilp.nodes",
    "core.ilp.lp_calls", "core.tensor_solve.delta_ms",
    "service.store.put_us", "service.store.invalidate_ms",
    "service.plan_service.refusals", "service.plan_service.fallbacks",
    "service.plan_service.coalesced", "service.plan_service.solves",
    "service.plan_service.useful_solve_ratio",
    "service.refresh.invalidated", "service.refresh.delta_resolves",
    "cluster.service.route_us", "cluster.service.shard_skew",
    "plans_per_s", "wd_plan_s", "refresh_ms", "refresh_loop_frac",
}

#: The public calls a plan request makes on its way through client and
#: server, in order; the traced run drives them in-process.
CODEC_CALLS = (
    ("wire.protocol.request_to_wire", request_to_wire),
    ("wire.protocol.encode_envelope.req", encode_envelope),
    ("wire.protocol.decode_envelope.req", decode_envelope),
    ("wire.protocol.request_from_wire", request_from_wire),
    ("wire.protocol.response_to_wire", response_to_wire),
    ("wire.protocol.encode_envelope.resp", encode_envelope),
    ("wire.protocol.decode_envelope.resp", decode_envelope),
    ("wire.protocol.response_from_wire", response_from_wire),
)


def build_snapshot(requests, path: Path) -> dict:
    """Solve every key once in-process and save the snapshot the server loads."""
    service = PlanService(GPU, capacity=256, workers=1)
    try:
        for request in requests:
            service.request(request)
        document = snapshot_service(service)
    finally:
        service.close()
    save_snapshot(path, document)
    return document


class Server:
    """One ``runner serve --listen`` child process and a client connected to it."""

    def __init__(self, workdir: Path, snapshot: Path, sanitize: bool) -> None:
        args = ["-m", "repro.harness.runner", "serve", "--listen",
                "127.0.0.1:0", "--store", str(snapshot)]
        if sanitize:
            args.append("--sanitize-locks")
        self.proc = spawn(args, workdir, f"server-{snapshot.stem}.log")
        self.client: "PlanClient | None" = None
        lines = read_until(self.proc, "[serving", timeout_s=120.0)
        restored = re.search(r"warm-started (\d+) plans", "".join(lines))
        self.plans_restored = int(restored.group(1)) if restored else 0
        host, port = re.search(r"on ([\d.]+):(\d+);", lines[-1]).groups()
        self.client = PlanClient(host, int(port), timeout_s=60.0)
        self.client.ping()

    def discard(self) -> None:
        """Kill a spare server at once and wait for it: it has nothing to
        save and is not checked."""
        if self.client is not None:
            self.client.close()
        self.proc.kill()
        stop(self.proc)

    def terminate(self) -> float:
        """SIGTERM the server once its store is saved; returns its peak RSS MiB.

        The server then idles about five seconds in ``PlanServer.close``
        (its accept thread is joined with a timeout) before exiting, so
        callers overlap that wait with other work and :meth:`reap` later.
        """
        rss = peak_rss_mib(self.proc.pid)
        if self.client is not None:
            self.client.close()
        self.proc.send_signal(signal.SIGTERM)
        read_until(self.proc, "[plan store saved", timeout_s=60.0)
        return rss

    def reap(self) -> "tuple[int, str]":
        """Wait for the terminated server; ``(exit code, rest of its stdout)``."""
        return stop(self.proc, timeout_s=60.0)


def check(tally: Tally, response, expected, index: int) -> None:
    """A warm answer is a store hit carrying exactly the oracle's plan."""
    key, plan, undivided = expected
    ok = (response.source == "cached" and response.key == key
          and response.configuration == plan)
    tally.record(ok, undivided, response.configuration.time, lambda: (
        f"request {index} for {key} was served {response.source} "
        + ("with the oracle's plan" if response.configuration == plan
           else "with a plan that differs from the oracle")))


def wire_pass(client: PlanClient, requests, expected, *, seconds=None,
              count=None, aside=None, aside_every=None):
    """Closed loop of round trips for ``seconds`` or exactly ``count`` requests.

    Each answer is checked between round trips (outside the timed call) and
    then dropped, so the client heap stays flat and its garbage collector
    adds no drift to later requests.  ``aside``, if given, runs every
    ``aside_every`` seconds of loop time, with the loop's clocks stopped.
    """
    size = len(requests)
    latencies: "list[float]" = []
    cycle_walls: "list[float]" = []
    tally = Tally()
    clock = time.perf_counter
    start = cycle_start = clock()
    deadline = start + seconds if seconds is not None else None
    next_aside = start + aside_every if aside is not None else None
    index = 0
    while True:
        slot = index % size
        t0 = clock()
        response = client.plan(requests[slot])
        t1 = clock()
        latencies.append(t1 - t0)
        check(tally, response, expected[slot], index)
        index += 1
        if slot == size - 1:
            cycle_walls.append(t1 - cycle_start)
            cycle_start = t1
        if index == count or (deadline is not None and t1 >= deadline):
            break
        if next_aside is not None and t1 >= next_aside:
            t2 = clock()
            aside()
            paused = clock() - t2
            start += paused
            cycle_start += paused
            if deadline is not None:
                deadline += paused
            next_aside += paused + aside_every
    return latencies, tally, cycle_walls, clock() - start


def chain_pass(snapshot: Path, requests, expected, count: int,
               tracer: "Tracer | None" = None):
    """The same requests through the client's and server's public calls,
    in-process: codec, service, codec.  The traced run spans these calls,
    which it cannot do inside the server process."""
    calls = [fn if tracer is None else tracer.wrap(fn, name, "wire")
             for name, fn in CODEC_CALLS]
    to_wire, enc_req, dec_req, from_wire = calls[:4]
    resp_to_wire, enc_resp, dec_resp, resp_from_wire = calls[4:]
    make_store = PersistentPlanStore
    if tracer is not None:
        tracer.patch(persistence_store, "load_snapshot",
                     "persistence.load_snapshot", "persistence")
        make_store = tracer.wrap(PersistentPlanStore, "persistence.warm_start",
                                 "persistence")
        tracer.patch(PlanService, "request", "service.plan_service.request",
                     "service")
        tracer.patch(PlanService, "submit", "service.plan_service.submit",
                     "service")
        tracer.patch(PlanService, "wait", "service.plan_service.wait",
                     "service")
        tracer.patch(PlanStore, "get", "service.store.get", "service")
    size = len(requests)
    tally = Tally()
    req_bytes = resp_bytes = 0
    try:
        start = time.perf_counter()
        bench = BenchmarkCache()
        store = make_store(snapshot, gpu=GPU, bench_cache=bench)
        service = PlanService(GPU, store=store, bench_cache=bench)
        answers = []
        for index in range(count):
            # Ids continue after the wire pass's ping (id 1), so these are
            # the request bytes the wire pass sent.
            payload = enc_req("plan", to_wire(requests[index % size]), index + 2)
            _, msg_id, body = dec_req(payload)
            response = service.request(from_wire(body))
            reply = enc_resp("plan", resp_to_wire(response), msg_id)
            answers.append(resp_from_wire(dec_resp(reply)[2]))
            req_bytes += 4 + len(payload)
            resp_bytes += 4 + len(reply)
        end = time.perf_counter()
        summary = service.metrics_summary()
        service.close()
    finally:
        if tracer is not None:
            tracer.restore()
    for index, answer in enumerate(answers):
        check(tally, answer, expected[index % size], index)
    counts = work_counts(count, tally, summary, store.loaded_plans)
    return tally, (start, end), counts, req_bytes, resp_bytes


def work_counts(count: int, tally: Tally, summary: dict, restored: int) -> dict:
    return {
        "requests": count,
        "wrong_answers": tally.failed,
        "solves": summary["service"]["solver_invocations"],
        "store_hits": summary["store"]["hits"],
        "store_misses": summary["store"]["misses"],
        "evictions": summary["store"]["evictions"],
        "plans_restored": restored,
    }


def request_frames(requests, count: int) -> "list[bytes]":
    """The request frames a client sends, ids starting after its ping."""
    size = len(requests)
    out = []
    for index in range(count):
        payload = encode_envelope("plan", request_to_wire(requests[index % size]),
                                  index + 2)
        out.append(struct.pack(">I", len(payload)) + payload)
    return out


def echo_floor(workdir: Path, frames: "list[bytes]") -> "list[float]":
    """Round trips of the same frame bytes through a raw-socket echo process."""
    proc = spawn([str(Path(__file__).with_name("echo_server.py"))], workdir,
                 "echo.log")
    try:
        port = int(read_until(proc, "listening", timeout_s=60.0)[-1].split()[1])
        latencies = []
        with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
            clock = time.perf_counter
            for index in range(ECHO_FRAMES):
                frame = frames[index % len(frames)]
                t0 = clock()
                sock.sendall(frame)
                got = 0
                while got < len(frame):
                    chunk = sock.recv(len(frame) - got)
                    if not chunk:
                        raise RuntimeError("echo server closed the connection")
                    got += len(chunk)
                latencies.append(clock() - t0)
        return latencies
    finally:
        stop(proc)


def floors(m: dict, snapshot: Path, requests) -> None:
    """The store and the codec against floors measured in this run."""
    bench = BenchmarkCache()
    store = PersistentPlanStore(snapshot, gpu=GPU, bench_cache=bench)
    service = PlanService(GPU, store=store, bench_cache=bench)
    keys = [r.key(GPU) for r in requests] * 4
    plain = {key: store.get(key) for key in keys}
    m["service.store.get_over_dict_x"] = (
        floor_ratio(store.get, keys, plain.get, keys), "x")
    responses = [service.request(r) for r in requests]
    service.close()

    def codec(pair):
        request, response = pair
        payload = encode_envelope("plan", request_to_wire(request), 7)
        request_from_wire(decode_envelope(payload)[2])
        reply = encode_envelope("plan", response_to_wire(response), 7)
        response_from_wire(decode_envelope(reply)[2])

    def plain_json(bodies):
        request_body, response_body = bodies
        json.loads(json.dumps(request_body))
        json.loads(json.dumps(response_body))

    pairs = list(zip(requests, responses))
    bodies = [(request_to_wire(q), response_to_wire(r)) for q, r in pairs]
    m["wire.protocol.codec_over_json_x"] = (
        floor_ratio(codec, pairs, plain_json, bodies), "x")


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    requests = plan_requests(distinct_geometries((ALEXNET, RESNET50), GPU),
                             LIMITS_MIB)
    random.Random(seed).shuffle(requests)
    outcome = Outcome(attempted=0, failed=0)
    outcome.info["pinned_cpu"] = cpu
    steal = StealMeter()
    server = None
    stopping: "list[Server]" = []
    try:
        setup_s = []
        snapshot = workdir / "plans.json"
        gc.collect()
        t0 = time.perf_counter()
        document = build_snapshot(requests, snapshot)
        server = Server(workdir, snapshot, sanitize=False)
        setup_s.append(time.perf_counter() - t0)

        oracle_cache = BenchmarkCache()
        oracle_cache.import_payload(document["bench"],
                                    only_gpu=canonical_gpu(GPU))
        oracle = WROracle(GPU, oracle_cache)
        expected = [(r.key(GPU), *oracle.answer(r)) for r in requests]

        def spare_set_up() -> None:
            gc.collect()
            spare_snapshot = workdir / "spare.json"
            t0 = time.perf_counter()
            build_snapshot(requests, spare_snapshot)
            spare = Server(workdir, spare_snapshot, sanitize=False)
            setup_s.append(time.perf_counter() - t0)
            spare.discard()

        latencies, tally, cycles, wall = wire_pass(
            server.client, requests, expected, seconds=seconds,
            aside=spare_set_up, aside_every=seconds / (SPARE_SETUPS + 1))
        count = len(latencies)
        stats = server.client.stats()
        restored = server.plans_restored
        server_rss = server.terminate()
        stopping.append(server)
        server = None
        tally.add_to(outcome, "wire")
        sent = sum(len(f) for f in request_frames(requests, count))
        ping_and_stats = (8 + len(encode_envelope("ping", {}, 1))
                          + len(encode_envelope("stats", {}, count + 2)))
        if stats["wire"]["bytes_in"] != sent + ping_and_stats:
            outcome.problems.append(
                f"server read {stats['wire']['bytes_in']} bytes, the client "
                f"sent {sent + ping_and_stats}")
        wire_counts = work_counts(count, tally, stats, restored)
        while stopping:
            check_exit(stopping.pop().reap(), outcome)

        latencies.sort()
        tail = tail_percentile(count)
        outcome.info.update({"setup_s": setup_s, "requests": count,
                             "tail_pct": tail})
        if not trace:
            outcome.counts["wire"] = wire_counts
            outcome.metrics.update({
                "setup_s": (setup_median(setup_s), "s"),
                "req_p90_ms": (nearest_rank(latencies, 90) * 1e3, "ms"),
                "plan_speedup": (tally.speedup, "x"),
                "ok_frac": ((count - tally.failed) / count, "frac"),
                "peak_rss_mb": (server_rss, "MiB"),
            })
            outcome.info["steal_frac"] = steal.fraction()
            return outcome

        # The traced run's passes all replay the same requests; their work
        # counts must repeat exactly.
        outcome.info["wire_counts"] = wire_counts
        m = outcome.metrics
        m["req_p10_ms"] = (nearest_rank(latencies, 10) * 1e3, "ms")
        m["req_p50_ms"] = (nearest_rank(latencies, 50) * 1e3, "ms")
        m["req_per_s"] = (count / wall, "1/s")
        m["req_p99_ms"] = (nearest_rank(latencies, tail) * 1e3, "ms")
        m["req_count"] = (count, "count")
        m["wire.client.rtt_us"] = (nearest_rank(latencies, 50) * 1e6, "us")
        echo = sorted(echo_floor(workdir, request_frames(requests, len(requests))))
        m["wire.echo_floor_us"] = (nearest_rank(echo, 50) * 1e6, "us")
        m["wire.rtt_over_echo_x"] = (
            m["wire.client.rtt_us"][0] / m["wire.echo_floor_us"][0], "x")

        # The comparison passes replay the first ``replay`` requests.
        replay_cycles = min(TRACE_CYCLES, len(cycles))
        replay = replay_cycles * len(requests) or count
        replay_wall = sum(cycles[:replay_cycles]) or wall
        plain, window, counts, _, _ = chain_pass(snapshot, requests, expected,
                                                 replay)
        plain.add_to(outcome, "in-process")
        outcome.counts["in-process"] = counts
        tracer = Tracer()
        traced, traced_window, counts, req_bytes, resp_bytes = chain_pass(
            snapshot, requests, expected, replay, tracer)
        traced.add_to(outcome, "traced")
        outcome.counts["traced"] = counts
        m["telemetry.trace_overhead_x"] = (
            (traced_window[1] - traced_window[0]) / (window[1] - window[0]),
            "x")
        layer_metrics(m, tracer, traced_window)

        def call_us(*names: str) -> float:
            return sum(median(tracer.durations(n)) for n in names) * 1e6

        m["wire.protocol.req_encode_us"] = (call_us(
            "wire.protocol.request_to_wire",
            "wire.protocol.encode_envelope.req"), "us")
        m["wire.protocol.req_decode_us"] = (call_us(
            "wire.protocol.decode_envelope.req",
            "wire.protocol.request_from_wire"), "us")
        m["wire.protocol.resp_encode_us"] = (call_us(
            "wire.protocol.response_to_wire",
            "wire.protocol.encode_envelope.resp"), "us")
        m["wire.protocol.resp_decode_us"] = (call_us(
            "wire.protocol.decode_envelope.resp",
            "wire.protocol.response_from_wire"), "us")
        m["wire.protocol.req_bytes"] = (req_bytes / replay, "bytes")
        m["wire.protocol.resp_bytes"] = (resp_bytes / replay, "bytes")
        m["service.store.get_us"] = (call_us("service.store.get"), "us")
        m["service.plan_service.hit_us"] = (
            call_us("service.plan_service.request"), "us")
        m["service.plan_service.wait_ms"] = (
            call_us("service.plan_service.wait") / 1e3, "ms")
        codec_us = sum(m[f"wire.protocol.{k}"][0] for k in (
            "req_encode_us", "req_decode_us", "resp_encode_us",
            "resp_decode_us"))
        m["wire.server.leftover_us"] = (
            m["wire.client.rtt_us"][0] - codec_us
            - m["service.plan_service.hit_us"][0], "us")
        m["persistence.load_ms"] = (
            sum(tracer.durations("persistence.load_snapshot")) * 1e3, "ms")
        m["persistence.warm_start_ms"] = (
            sum(tracer.durations("persistence.warm_start")) * 1e3, "ms")
        m["persistence.plans_restored"] = (counts["plans_restored"], "count")
        m["service.store.hit_ratio"] = (counts["store_hits"] / max(
            1, counts["store_hits"] + counts["store_misses"]), "frac")
        m["service.store.evictions"] = (counts["evictions"], "count")
        m["service.plan_service.cache_hits"] = (counts["store_hits"], "count")
        floors(m, snapshot, requests)

        server = Server(workdir, snapshot, sanitize=True)
        _, sanitized, _, sanitized_wall = wire_pass(
            server.client, requests, expected, count=replay)
        stats = server.client.stats()
        restored = server.plans_restored
        server.terminate()
        code, out = server.reap()
        server = None
        if code != 0 or "[lock-sanitizer: clean" not in out:
            outcome.problems.append(
                f"lock-sanitized server exited {code}: {out[-300:]}")
        sanitized.add_to(outcome, "sanitized")
        outcome.counts["sanitized"] = work_counts(replay, sanitized, stats,
                                                  restored)
        m["telemetry.locks.sanitizer_overhead_x"] = (
            sanitized_wall / replay_wall, "x")
        m["host.steal_frac"] = (steal.fraction(), "frac")
        return outcome
    finally:
        for leftover in ([server] if server is not None else []) + stopping:
            stop(leftover.proc)


def check_exit(result: "tuple[int, str]", outcome: Outcome) -> None:
    code, out = result
    if code != 0:
        outcome.problems.append(f"plan server exited {code}: {out[-300:]}")
