"""Command-line experiment runner: ``python -m repro.harness.runner``.

Regenerates paper artifacts outside of pytest, printing the same tables the
benchmark suite asserts on.  Useful for eyeballing a single figure quickly::

    python -m repro.harness.runner fig1 fig9
    python -m repro.harness.runner --list
    python -m repro.harness.runner all            # everything (~1 min)
    python -m repro.harness.runner fig9 --profile /tmp/trace.json --metrics
    python -m repro.harness.runner explain --explain-json out/run.json \\
        --explain-html out/run.html
    python -m repro.harness.runner explain --diff a.json b.json
    python -m repro.harness.runner serve --soak --soak-report out/soak.json
    python -m repro.harness.runner serve --store out/plans.json --expect-warm
    python -m repro.harness.runner serve --listen 127.0.0.1:7070 \\
        --store out/plans.json
    python -m repro.harness.runner serve --soak --shards 4 \\
        --devices p100-sxm2,v100-sxm2 --steal-watermark 4
    python -m repro.harness.runner client --connect 127.0.0.1:7070

``--profile FILE.json`` writes a Chrome-trace (``chrome://tracing`` /
Perfetto) profile of the run; ``--metrics`` prints the telemetry counters
and span aggregates at the end (``--metrics-file`` writes the Prometheus
exposition text instead).  The ``explain`` experiment renders the decision
provenance report; ``--diff A.json B.json`` compares two saved reports and
prints the configuration drift.  The ``serve`` experiment drives the plan
service with a deterministic client population; ``--soak`` scales it to the
CI gate (64 clients, injected faults) and fails the run on any dropped or
errored request, and ``--soak-report`` writes the byte-stable report JSON.
``--store FILE.json`` makes ``serve`` persistent: warm-start from the
snapshot when it exists, save back to it at the end (``--expect-warm``
fails the run unless the warm store answered everything with zero solver
invocations).  ``serve --listen HOST:PORT`` serves the plan service to
out-of-process clients over the wire protocol until SIGINT/SIGTERM; the
``client`` experiment (``--connect HOST:PORT``) is its counterpart.
``--soak-clients N`` sizes the population, ``--tenant-mix train:3,infer:1``
names clients by tenant, and ``--shards N --devices A,B`` runs the soak (or
server) against a sharded multi-device cluster with deterministic placement
and optional work stealing (``--steal-watermark``).
Output-path parent directories are created on demand.  A failing experiment no longer aborts the whole run: its
traceback goes to stderr, the remaining experiments still run, and the exit
status is non-zero.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback

import repro.telemetry as telemetry
from repro.telemetry import exporters, locks

#: Experiment registry: id -> (entry point, description).  An entry point is
#: the name of a :mod:`repro.harness.experiments` function, imported only
#: when the experiment runs (a callable works too).  Entry points take no
#: arguments here (paper-default parameterizations).
REGISTRY = {
    "fig1": ("fig1_best_vs_minus_one_byte",
             "cuDNN fallback cliff, AlexNet fwd (Best vs -1 byte)"),
    "fig8": ("fig8_pareto_front",
             "desirable set (Pareto front) of conv2 Forward @120 MiB"),
    "fig9": ("fig9_conv2_wr",
             "WR on conv2 @64 MiB per batch-size policy"),
    "fig10": ("fig10_alexnet_three_gpus",
              "Caffe AlexNet on K80/P100/V100 x {8,64,512} MiB"),
    "fig11": ("fig11_tensorflow",
              "TensorFlow driver: AlexNet/ResNet-50/DenseNet-40"),
    "fig12": ("fig12_memory",
              "per-layer memory: cuDNN@512 MiB vs mu-cuDNN@64 MiB"),
    "fig13": ("fig13_wr_vs_wd",
              "WR vs WD at equal total workspace"),
    "fig14": ("fig14_workspace_division",
              "WD division of AlexNet's 120 MiB pool"),
    "opt-cost": ("tab_optimization_cost",
                 "optimization cost: all vs powerOfTwo, 1 vs 4 GPUs"),
    "ilp-stats": ("tab_ilp_stats",
                  "WD ILP size & solve time, ResNet-50"),
    "sweep": ("tab_sweep_cost",
              "cross-limit sweep cost vs per-limit solvers, ResNet-50"),
    "explain": ("explain_report",
                "decision provenance: why each kernel got its configuration"),
    "serve": ("serve_plans",
              "plan service under a deterministic client population"),
    "client": ("client_plans",
               "wire client against a running plan server (--connect)"),
}

#: Persistence/wire counters surfaced in the per-experiment summary line.
PERSISTENCE_METRICS = (
    "persistence.snapshot.saves", "persistence.snapshot.loads",
    "persistence.warm.keys", "persistence.warm.hits",
    "persistence.merge.keys", "persistence.merge.conflicts",
)

#: Solver-acceleration counters surfaced in the per-experiment summary line
#: (tensor passes, incremental re-solves, and the memo hits behind them).
SOLVER_METRICS = (
    "solver.tensor_passes", "solver.delta_solves",
    "solver.full_solves_avoided", "wr.t1_memo_hits",
)


def _entry_point(entry):
    """The callable a :data:`REGISTRY` entry names, imported on first use."""
    if callable(entry):
        return entry
    from repro.harness import experiments

    return getattr(experiments, entry)


def _prepare_output(path: str) -> str:
    """Create an output path's parent directory; returns the path.

    Raises :class:`OSError` with the offending directory in the message when
    creation fails (read-only filesystem, permission, a file in the way) --
    callers turn that into a clear CLI error instead of the bare
    ``FileNotFoundError`` that ``open()`` on a missing directory produces.
    """
    parent = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(parent, exist_ok=True)
    except OSError as exc:
        raise OSError(
            f"cannot create output directory {parent!r}: {exc}"
        ) from exc
    return path


def _write_output(path: str, content: str, what: str) -> bool:
    """Write ``content`` to ``path`` (creating parents); False on failure."""
    try:
        _prepare_output(path)
        with open(path, "w") as fh:
            fh.write(content)
    except OSError as exc:
        print(f"cannot write {what} {path}: {exc}", file=sys.stderr)
        return False
    print(f"[{what} written to {path}]")
    return True


def _finish_lock_sanitizer(
    monitor: locks.LockMonitor, args: argparse.Namespace
) -> bool:
    """Tear down ``--sanitize-locks``: dump the graph, report violations.

    Returns False when any runtime violation was recorded (lock-order
    inversion, non-reentrant re-acquisition, or blocking work under a lock
    whose level is not blocking-allowed) -- the run must fail even if the
    workload itself succeeded.
    """
    locks.disable_sanitizer()
    ok = True
    if args.lock_graph:
        ok &= _write_output(args.lock_graph, monitor.dump_graph(),
                            "dynamic lock graph")
    violations = monitor.violations()
    for violation in violations:
        print(f"[lock-sanitizer {violation.kind}: {violation.message}]",
              file=sys.stderr)
    if violations:
        print(f"[lock-sanitizer: {len(violations)} violation(s)]",
              file=sys.stderr)
        return False
    graph = monitor.graph()
    print(f"[lock-sanitizer: clean -- {len(graph['levels'])} level(s), "
          f"{len(graph['edges'])} edge(s) observed]")
    return ok


def _run_diff(path_a: str, path_b: str) -> int:
    """``--diff A.json B.json``: print configuration drift between reports."""
    from repro.observability import report as provenance_report

    reports = []
    for path in (path_a, path_b):
        try:
            with open(path) as fh:
                reports.append(provenance_report.from_json(fh.read()))
        except (OSError, ValueError) as exc:
            print(f"cannot read report {path}: {exc}", file=sys.stderr)
            return 2
    diff = provenance_report.diff_reports(reports[0], reports[1])
    print(provenance_report.render_diff(diff, path_a, path_b), end="")
    return 0


def _device_list(args: argparse.Namespace) -> "tuple[str, ...]":
    """The cluster device slots from ``--devices`` (empty when unset)."""
    if not getattr(args, "devices", None):
        return ()
    return tuple(d.strip() for d in args.devices.split(",") if d.strip())


def _run_server(args: argparse.Namespace) -> int:
    """``serve --listen HOST:PORT``: serve plans to wire clients until killed.

    SIGINT/SIGTERM stop the server cleanly: the store is flushed to its
    snapshot file (when ``--store`` is set) and the exit status is 0, so
    process supervisors and the CI job can ``kill`` it without losing state.
    Further stop signals during shutdown are ignored.

    ``--shards N`` (optionally with ``--devices``) serves a sharded
    :class:`~repro.cluster.ClusterService` behind the same wire endpoint:
    requests route by their ``shard`` hint (shard id or device name), the
    snapshot file becomes the cluster's merged document, and warm-start
    routes every restored plan to its map-owned shard.
    """
    import signal
    import threading

    from repro.core.cache import BenchmarkCache
    from repro.errors import ReproError
    from repro.persistence import PersistentPlanStore
    from repro.service import PlanService, RequestLog
    from repro.telemetry import ManualClock
    from repro.wire import PlanServer, parse_address

    try:
        host, port = parse_address(args.listen)
    except ReproError as exc:
        print(f"bad --listen address: {exc}", file=sys.stderr)
        return 2
    admin_addr = None
    if args.admin:
        try:
            admin_addr = parse_address(args.admin)
        except ReproError as exc:
            print(f"bad --admin address: {exc}", file=sys.stderr)
            return 2
    # --sim-clock pins the service (and tracer) to a manual clock, so
    # latencies, stage breakdowns, and trace timestamps are pure functions
    # of the request sequence: two identical runs scrape byte-identical
    # /requestz rings, which CI compares with cmp.
    clock = ManualClock() if args.sim_clock else None
    if args.trace:
        telemetry.enable(clock=clock)
    stop = threading.Event()
    stop_signals = (signal.SIGINT, signal.SIGTERM)

    def _on_stop(_sig: int, _frame: object) -> None:
        # Ignore repeats: shutdown is already under way, and a repeat that
        # lands after interpreter teardown restores the default handlers
        # would kill the process with the store saved but a non-zero status.
        for signum in stop_signals:
            signal.signal(signum, signal.SIG_IGN)
        stop.set()

    for signum in stop_signals:
        signal.signal(signum, _on_stop)
    request_log = RequestLog() if admin_addr is not None else None
    devices = _device_list(args)
    clustered = args.shards > 1 or len(devices) > 1
    store = None
    if clustered:
        from repro.cluster import ClusterService
        from repro.persistence import load_snapshot, warm_start

        slots = devices if devices else (args.gpu,)
        service = ClusterService(
            slots, max(args.shards, len(slots)),
            steal_watermark=args.steal_watermark,
            clock_factory=ManualClock if args.sim_clock else None,
            request_log=request_log, slow_request_s=args.slow_request_s,
        )
        if args.store and os.path.exists(args.store):
            try:
                restored = warm_start(service, load_snapshot(args.store))
            except ReproError as exc:
                print(f"cannot open plan store {args.store}: {exc}",
                      file=sys.stderr)
                service.close()
                return 2
            print(f"[warm-started {restored} plans across "
                  f"{args.shards} shards from {args.store}]")
    else:
        bench = BenchmarkCache()
        if args.store:
            try:
                _prepare_output(args.store)
                store = PersistentPlanStore(args.store, gpu=args.gpu,
                                            bench_cache=bench)
            except (OSError, ReproError) as exc:
                print(f"cannot open plan store {args.store}: {exc}",
                      file=sys.stderr)
                return 2
            if store.loaded_plans:
                print(f"[warm-started {store.loaded_plans} plans "
                      f"(+{store.loaded_bench_rows} bench rows) from "
                      f"{args.store}]")
        service = PlanService(args.gpu, store=store, bench_cache=bench,
                              clock=clock, request_log=request_log,
                              slow_request_s=args.slow_request_s)
    admin = None
    try:
        with PlanServer(service, host, port,
                        snapshot_path=args.store) as server:
            if admin_addr is not None:
                from repro.wire.admin import AdminServer

                admin = AdminServer(
                    service, wire_stats=server.stats.as_dict,
                    host=admin_addr[0], port=admin_addr[1],
                ).start()
                print(f"[admin endpoints on http://{admin.address} "
                      "(/metrics /healthz /readyz /requestz)]", flush=True)
            print(f"[serving {args.gpu} plans on {server.address}; "
                  "SIGINT/SIGTERM to stop]", flush=True)
            stop.wait()
            if store is not None:
                store.save()
                print(f"[plan store saved to {args.store}]")
            elif clustered and args.store:
                from repro.persistence import save_snapshot, snapshot_service

                save_snapshot(_prepare_output(args.store),
                              snapshot_service(service))
                print(f"[cluster snapshot saved to {args.store}]")
            stats = server.stats.as_dict()
    finally:
        if admin is not None:
            admin.close()
        service.close()
        if args.trace:
            telemetry.disable()
    print(f"[server stopped: {stats['requests']} requests over "
          f"{stats['connections']} connections, {stats['errors']} errors, "
          f"{stats['protocol_errors']} protocol errors, "
          f"{stats['frames_in']}/{stats['frames_out']} frames in/out, "
          f"{stats['bytes_in']}B in / {stats['bytes_out']}B out]")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.runner", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (or 'all'); see --list")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--format", choices=["table", "csv"], default="table",
                        help="output format (csv suits external plotting)")
    parser.add_argument("--profile", metavar="FILE.json", default=None,
                        help="write a Chrome-trace profile of the run")
    parser.add_argument("--metrics", action="store_true",
                        help="print the telemetry metrics/span summary")
    parser.add_argument("--metrics-file", metavar="FILE.prom", default=None,
                        help="write the metrics in Prometheus text format")
    parser.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                        default=None,
                        help="compare two saved explain reports and exit")
    parser.add_argument("--explain-json", metavar="FILE.json", default=None,
                        help="write the explain report as stable JSON")
    parser.add_argument("--explain-html", metavar="FILE.html", default=None,
                        help="write the explain report as self-contained HTML")
    parser.add_argument("--explain-limit-mib", type=int, default=120,
                        metavar="MIB",
                        help="pooled workspace limit for explain (default 120)")
    parser.add_argument("--soak", action="store_true",
                        help="run 'serve' at the CI soak scale (64 clients, "
                             "injected faults) and fail on any dropped or "
                             "errored request")
    parser.add_argument("--soak-clients", type=int, default=None, metavar="N",
                        help="client population for 'serve' (defaults: 64 "
                             "with --soak, 16 without)")
    parser.add_argument("--tenant-mix", default="", metavar="NAME:W,...",
                        help="multi-tenant soak mix, e.g. 'train:3,infer:1'; "
                             "clients cycle through tenants by weight and "
                             "the report adds per-tenant served counts")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="with 'serve': shard the plan service into N "
                             "per-device shards behind the cluster router")
    parser.add_argument("--devices", default=None, metavar="GPU,GPU,...",
                        help="with --shards: comma-separated GPU models the "
                             "shard map stripes over (default: --gpu only)")
    parser.add_argument("--steal-watermark", type=int, default=0, metavar="N",
                        help="with --shards: per-shard solve-queue depth "
                             "past which overflow is stolen by same-device "
                             "shards (0 disables stealing)")
    parser.add_argument("--soak-report", metavar="FILE.json", default=None,
                        help="write the serve/soak report as stable JSON")
    parser.add_argument("--store", metavar="FILE.json", default=None,
                        help="snapshot file for 'serve': warm-start from it "
                             "when present, save back to it at the end")
    parser.add_argument("--expect-warm", action="store_true",
                        help="fail unless 'serve' answered everything from "
                             "the warm-started store (0 solver invocations)")
    parser.add_argument("--listen", metavar="HOST:PORT", default=None,
                        help="with 'serve': expose the service to wire "
                             "clients instead of running the soak driver "
                             "(port 0 picks a free port)")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="plan server address for the 'client' experiment")
    parser.add_argument("--gpu", default="p100-sxm2",
                        help="GPU model served by --listen (default p100-sxm2)")
    parser.add_argument("--admin", metavar="HOST:PORT", default=None,
                        help="with --listen: also serve the HTTP admin "
                             "endpoints (/metrics /healthz /readyz /requestz) "
                             "and attach a request-record ring")
    parser.add_argument("--sim-clock", action="store_true",
                        help="with --listen: run the service on a manual "
                             "clock (deterministic /requestz and traces)")
    parser.add_argument("--trace", action="store_true",
                        help="with --listen: enable telemetry on the server "
                             "so plan requests carry distributed traces")
    parser.add_argument("--slow-request-s", type=float, default=None,
                        metavar="S",
                        help="with --listen: log a structured JSON line for "
                             "every request slower than S seconds")
    parser.add_argument("--sanitize-locks", action="store_true",
                        help="wrap every repro lock in the runtime sanitizer: "
                             "record the dynamic lock-acquisition graph and "
                             "fail on order inversions or blocking work under "
                             "a disallowed lock")
    parser.add_argument("--lock-graph", metavar="FILE.json", default=None,
                        help="with --sanitize-locks: write the dynamic lock "
                             "graph as canonical JSON (CI checks it is a "
                             "subgraph of reprolint's static graph)")
    args = parser.parse_args(argv)

    if args.diff is not None:
        return _run_diff(*args.diff)

    if args.lock_graph and not args.sanitize_locks:
        print("--lock-graph needs --sanitize-locks", file=sys.stderr)
        return 2
    monitor = None
    if args.sanitize_locks:
        # Installed before any service object exists: new_lock() only wraps
        # locks created while the monitor is live.
        monitor = locks.enable_sanitizer()

    if args.listen is not None:
        if args.experiments != ["serve"]:
            print("--listen runs the 'serve' experiment as a server; invoke "
                  "as: serve --listen HOST:PORT [--store FILE.json]",
                  file=sys.stderr)
            return 2
        code = _run_server(args)
        if monitor is not None and not _finish_lock_sanitizer(monitor, args):
            code = code or 1
        return code

    if args.list or not args.experiments:
        width = max(len(k) for k in REGISTRY)
        for key, (_, desc) in REGISTRY.items():
            print(f"{key:<{width}}  {desc}")
        return 0

    wanted = list(REGISTRY) if args.experiments == ["all"] else args.experiments
    unknown = [w for w in wanted if w not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; try --list",
              file=sys.stderr)
        return 2

    if "client" in wanted and args.connect is None:
        print("the 'client' experiment needs --connect HOST:PORT",
              file=sys.stderr)
        return 2

    failed: list[str] = []
    explain_result = None
    serve_result = None
    with telemetry.capture() as session:
        metrics = session.metrics
        for key in wanted:
            entry, desc = REGISTRY[key]
            fn = _entry_point(entry)
            counts0 = {
                name: metrics.value(name, 0)
                for name in ("cache.bench.hits", "cache.bench.misses",
                             "cache.config.hits", "cache.config.misses",
                             "cache.evictions")
                + PERSISTENCE_METRICS + SOLVER_METRICS
            }
            start = time.perf_counter()
            with telemetry.span("experiment", id=key, description=desc) as espan:
                try:
                    if key == "explain":
                        result = fn(
                            total_workspace_mib=args.explain_limit_mib
                        )
                        explain_result = result
                    elif key == "serve":
                        result = fn(soak=args.soak, store_path=args.store,
                                    clients=args.soak_clients,
                                    shards=args.shards,
                                    devices=_device_list(args),
                                    steal_watermark=args.steal_watermark,
                                    tenant_mix=args.tenant_mix)
                        serve_result = result
                    elif key == "client":
                        result = fn(connect=args.connect)
                    else:
                        result = fn()
                except Exception:  # reprolint: disable=ERR001 -- isolation boundary: report the failing experiment, run the rest
                    # Keep going: report the failure, run the rest, and let
                    # the exit status carry the bad news.
                    print(f"[{key}: FAILED]", file=sys.stderr)
                    traceback.print_exc()
                    failed.append(key)
                    espan.set("failed", True)
                    continue
            elapsed = time.perf_counter() - start
            bh, bm, ch, cm, ev = (
                int(metrics.value(name, 0) - counts0[name])
                for name in ("cache.bench.hits", "cache.bench.misses",
                             "cache.config.hits", "cache.config.misses",
                             "cache.evictions")
            )
            if args.format == "csv":
                print(result.table.to_csv())
            else:
                print(result.table.render())
                # Evictions only appear when an LRU bound actually dropped
                # entries; the common unbounded runs keep the familiar line.
                evicted = f", {ev} evicted" if ev else ""
                print(f"[{key}: {elapsed:.1f}s | "
                      f"cache: {bh + ch} hits, {bm + cm} misses "
                      f"(bench {bh}/{bm}, config {ch}/{cm}){evicted}]")
                saves, loads, wkeys, whits, mkeys, mconf = (
                    int(metrics.value(name, 0) - counts0[name])
                    for name in PERSISTENCE_METRICS
                )
                # Persistence is opt-in (--store / merges); the line only
                # appears when the experiment actually touched a snapshot.
                if saves or loads or wkeys or whits or mkeys or mconf:
                    print(f"[{key} persistence: {saves} saved, {loads} "
                          f"loaded, {wkeys} warm keys, {whits} warm hits, "
                          f"{mkeys} merged, {mconf} conflicts]")
                passes, dsolves, avoided, memo = (
                    int(metrics.value(name, 0) - counts0[name])
                    for name in SOLVER_METRICS
                )
                # Solver acceleration is also opt-in (tensor backend or the
                # delta solver); the line only appears when it did work.
                if passes or dsolves or avoided or memo:
                    print(f"[{key} solver: {passes} tensor passes, "
                          f"{dsolves} delta solves, {avoided} full solves "
                          f"avoided, {memo} t1-memo hits]")
                print()
    ok = True
    if explain_result is not None:
        if args.explain_json:
            ok &= _write_output(args.explain_json, explain_result.to_json(),
                                "explain report")
        if args.explain_html:
            ok &= _write_output(args.explain_html, explain_result.to_html(),
                                "explain HTML")
    elif args.explain_json or args.explain_html:
        print("--explain-json/--explain-html need the 'explain' experiment "
              "to have run", file=sys.stderr)
        ok = False
    if serve_result is not None:
        report = serve_result.report
        if args.soak_report:
            ok &= _write_output(args.soak_report, report.to_json(),
                                "soak report")
        if not report.healthy:
            print(f"[serve: UNHEALTHY -- {report.errored} errored, "
                  f"{report.dropped} dropped]", file=sys.stderr)
            ok = False
        if args.expect_warm:
            if report.solver_invocations == 0 and serve_result.warm_restored:
                print(f"[serve: fully warm -- {serve_result.warm_restored} "
                      "restored plans, 0 solver invocations]")
            else:
                print(f"[serve: NOT WARM -- {report.solver_invocations} "
                      f"solver invocations after restoring "
                      f"{serve_result.warm_restored} plans]", file=sys.stderr)
                ok = False
    elif args.soak or args.soak_report or args.expect_warm:
        print("--soak/--soak-report/--expect-warm need the 'serve' "
              "experiment to have run", file=sys.stderr)
        ok = False
    if args.profile:
        try:
            _prepare_output(args.profile)
            exporters.write_chrome_trace(args.profile, session.tracer)
        except OSError as exc:
            print(f"cannot write profile {args.profile}: {exc}", file=sys.stderr)
            return 1
        print(f"[profile written to {args.profile}]")
    if args.metrics:
        print(exporters.summary(session.tracer, session.metrics))
    if args.metrics_file:
        ok &= _write_output(args.metrics_file,
                            exporters.prometheus_text(session.metrics),
                            "metrics")
    if monitor is not None:
        ok &= _finish_lock_sanitizer(monitor, args)
    if not ok:
        return 1
    if failed:
        print(f"[{len(failed)} experiment(s) failed: {', '.join(failed)}]",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
