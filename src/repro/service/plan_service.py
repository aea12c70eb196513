"""``PlanService`` -- optimization-as-a-service over the μ-cuDNN solver stack.

μ-cuDNN answers one question per kernel: "what is the best micro-batch
division under workspace limit ``W``?".  The answer is expensive (a
``cudnnFind`` benchmarking pass plus a WR solve) and widely shared -- every
training process on a homogeneous cluster asks it for the same kernels
(paper section III-D motivates exactly this with the in-memory/file caches).
This module puts a *service* in front of the solver stack so concurrent
clients get:

* **request coalescing** -- concurrent requests for the same
  :class:`~repro.service.requests.PlanKey` share one solve; N identical
  questions cost one solver invocation;
* a **bounded plan store** -- an LRU+TTL cache of served plans
  (:class:`~repro.service.store.PlanStore`) with hit/miss/eviction counters;
* **admission control** -- a queue-depth limit past which submission raises
  :class:`~repro.errors.ServiceOverloadedError` *immediately* (backpressure,
  not unbounded queueing), as does any submission to a closed service;
* **graceful degradation** -- a per-request deadline past which the caller
  receives the ``undivided`` (plain-cuDNN) configuration instead of blocking
  on a stalled solve, and the same fallback when the solver faults;
* **fault injection** -- a deterministic, seeded
  :class:`~repro.service.faults.FaultInjector` so every degradation rung is
  testable and soak-testable.

Every request runs one pipeline of stages, one method each::

    admit (_admit)  ->  store lookup  ->  join (_join)  ->  run (_run)
        ->  degrade (_degrade)  ->  record (_served)

The degradation ladder, best rung first: plan store hit, coalesce onto a
shared solve, fresh solve, undivided fallback on a timeout or solver fault,
and :class:`~repro.errors.DeadlineExceededError` (or, for a solver fault
with fallbacks disabled, :class:`~repro.errors.SolverError`) last.

Two front-ends drive the same stages on one per-key solve record: a
request *joins* the key's open solve or opens one, the solve *runs* once,
and its waiters *degrade* onto one shared fallback.  Only the clock
differs:

* the **threaded** path (:meth:`PlanService.submit` / :meth:`wait` /
  :meth:`request`) runs each fresh key as one solver-pool job, stalls in
  real time and bounds each wait with ``future.result(timeout)``;
* the **wave** path (:meth:`PlanService.wave`, :class:`PlanWave`) serves a
  batch of simultaneously-arriving requests deterministically: it runs
  each key's solve inline and advances a
  :class:`~repro.telemetry.clock.ManualClock` by its simulated duration,
  which each waiter compares with its deadline.  The soak driver
  (:mod:`repro.service.soak`) uses it for byte-reproducible load tests,
  and a :class:`~repro.cluster.ClusterService` serves its per-shard
  batches through it.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from concurrent import futures
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import repro.observability as observability
import repro.telemetry as telemetry
from repro.core.cache import BenchmarkCache
from repro.core.config import Configuration
from repro.core.delta import DeltaStats, geometry_family
from repro.core.policies import BatchSizePolicy
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.device import Gpu
from repro.errors import (
    DeadlineExceededError,
    OptimizationError,
    ReproError,
    ServiceOverloadedError,
    SolverError,
)
from repro.service.faults import ACTION_FAIL, ACTION_OK, ACTION_STALL, FaultInjector
from repro.service.introspection import RequestLog
from repro.service.requests import PlanKey, PlanRequest, PlanResponse, ServiceStats
from repro.service.store import PlanStore
from repro.telemetry.clock import Clock, WallClock
from repro.telemetry.locks import new_lock

if TYPE_CHECKING:
    from repro.cluster.service import ClusterService
    from repro.core.benchmarker import KernelBenchmark
    from repro.core.tensor_solve import DeltaSolver
    from repro.cudnn.handle import CudnnHandle
    from repro.cudnn.perfmodel import PerfResult

#: A solver: request in, ``(configuration, simulated solve seconds)`` out.
SolveFn = Callable[[PlanRequest], "tuple[Configuration, float]"]

#: A sink for the slow-request structured log (one JSON line per call).
SlowLogFn = Callable[[str], None]


def benchmark_kernel(
    handle: CudnnHandle, geometry: ConvGeometry, policy: BatchSizePolicy,
    cache: BenchmarkCache,
) -> KernelBenchmark:
    """:func:`repro.core.benchmarker.benchmark_kernel`, imported on the
    first call: a service that only serves stored plans never loads the
    benchmarker, the perf model or numpy."""
    from repro.core import benchmarker

    return benchmarker.benchmark_kernel(handle, geometry, policy, cache=cache)


def optimize_from_benchmark(
    bench: KernelBenchmark, workspace_limit: int, kernel: str | None = None,
) -> Configuration:
    """:func:`repro.core.wr.optimize_from_benchmark`, imported on the first
    call, as :func:`benchmark_kernel` is."""
    from repro.core import wr

    return wr.optimize_from_benchmark(bench, workspace_limit, kernel=kernel)


@dataclass
class _Solve:
    """The one solve of a key, shared by every request that joins it.

    ``future`` resolves to ``(configuration, solve_seconds, started_at,
    duration)``; ``job`` is the threaded path's pool job (``None`` in a
    wave); ``traces`` are the joiners' trace ids, linked from the solve's
    span; ``fallback`` is the undivided plan its degrading waiters share.
    """

    request: PlanRequest
    key: PlanKey
    future: "Future[tuple[Configuration, float, float, float]]" = field(
        default_factory=Future)
    job: "Future[None] | None" = None
    traces: list[str] = field(default_factory=list)
    fallback: "Future[tuple[Configuration, float]] | None" = None


@dataclass
class PlanTicket:
    """Handle for one admitted request (returned by :meth:`PlanService.submit`).

    ``cached`` holds the plan of a store hit; otherwise ``solve`` is the
    key's solve record, which this ticket opened (``source`` is ``fresh``)
    or joined (``coalesced``).  ``shard`` is the admitting service's shard
    id.  Every ticket must be passed to :meth:`PlanService.wait` exactly
    once.
    """

    request: PlanRequest
    key: PlanKey
    source: str
    submitted_at: float
    solve: _Solve | None = None
    cached: Configuration | None = None
    shard: str = ""


class PlanService:
    """Concurrent plan-compilation service fronting the WR optimizer.

    Parameters
    ----------
    gpu:
        GPU model served (one service per homogeneous device class, as the
        paper's shared benchmark DB assumes).
    capacity / ttl_s:
        Plan-store bounds (see :class:`~repro.service.store.PlanStore`).
    max_pending:
        Admission limit: maximum simultaneously outstanding requests; the
        next submission raises :class:`~repro.errors.ServiceOverloadedError`.
    workers:
        Solver threads of the threaded path's own pool (ignored when
        ``pool`` is given).
    fallback:
        Whether timeouts/solver faults degrade to the ``undivided`` plan;
        when ``False`` they raise instead.
    clock:
        Injectable clock for latency accounting and the wave path (a
        :class:`~repro.telemetry.clock.ManualClock` makes waves
        byte-deterministic).
    faults:
        Optional :class:`~repro.service.faults.FaultInjector`.
    bench_cache:
        Optional shared :class:`~repro.core.cache.BenchmarkCache` (may be
        bounded); created unbounded when omitted.
    store:
        Optional pre-built plan store (e.g. a write-through
        :class:`~repro.persistence.PersistentPlanStore`); when given,
        ``capacity``/``ttl_s`` are ignored in favor of the store's own.
    request_log:
        Optional :class:`~repro.service.introspection.RequestLog`; when
        given, every served (or terminally failed) request leaves one
        bounded-ring record with its trace id and stage breakdown.  ``None``
        (the default) records nothing and allocates nothing.
    slow_request_s:
        Optional threshold (service-clock seconds): a request whose latency
        exceeds it emits one structured JSON line -- trace id, key, stage
        breakdown, and an ``explain`` command pointer -- to ``slow_log``.
    slow_log:
        Sink for slow-request lines (defaults to ``print``); injectable so
        tests and servers capture them.
    solve_fn:
        Override of the solver (tests inject spies/stalls here).  The
        default benchmarks under the request's policy and runs the WR DP,
        serialized on one internal lock -- the simulated device is a single
        resource, which is exactly why a service layer must exist above it.
    shard_id:
        The id a :class:`~repro.cluster.ClusterService` gives this shard;
        stamped on every response and ticket (``""`` for a lone service).
    pool:
        A solver pool shared with other services: a
        :class:`~repro.cluster.ClusterService` hands its one pool to every
        shard, which queues its fresh solves there in submission order.
        The pool's owner shuts it down; this service's :meth:`close`
        cancels only its own queued solves.  ``None`` (the default) builds
        a private pool of ``workers`` threads, shut down by :meth:`close`.
    """

    def __init__(
        self,
        gpu: str = "p100-sxm2",
        *,
        capacity: int | None = 256,
        ttl_s: float | None = None,
        max_pending: int = 64,
        workers: int = 2,
        fallback: bool = True,
        clock: Clock | None = None,
        faults: FaultInjector | None = None,
        bench_cache: BenchmarkCache | None = None,
        solve_fn: SolveFn | None = None,
        store: PlanStore | None = None,
        request_log: RequestLog | None = None,
        slow_request_s: float | None = None,
        slow_log: SlowLogFn | None = None,
        shard_id: str = "",
        pool: ThreadPoolExecutor | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.gpu_name = gpu
        self.shard_id = shard_id
        self.max_pending = max_pending
        self.fallback_enabled = fallback
        self.clock: Clock = clock if clock is not None else WallClock()
        self.faults = faults
        #: Injectable plan store: pass a persistence-backed store
        #: (:class:`~repro.persistence.PersistentPlanStore`) for
        #: write-through durability; ``capacity``/``ttl_s`` are ignored then.
        self.store = (
            store
            if store is not None
            else PlanStore(capacity=capacity, ttl_s=ttl_s, clock=self.clock)
        )
        self.stats = ServiceStats()
        #: Live-introspection ring (``/requestz``); ``None`` records nothing.
        self.request_log = request_log
        self._slow_request_s = slow_request_s
        self._slow_log: SlowLogFn = slow_log if slow_log is not None else print
        self._gpu = Gpu.create(gpu)
        #: The simulated device and the incremental re-optimizer, built on
        #: first use under ``_solver_lock`` (:meth:`_device`,
        #: :meth:`_delta_solver`): a service that only serves stored plans
        #: never imports numpy or the solver stack.
        self._handle: CudnnHandle | None = None
        self._delta: DeltaSolver | None = None
        self._bench_cache = (
            bench_cache if bench_cache is not None else BenchmarkCache()
        )
        self._solve_fn: SolveFn = (
            solve_fn if solve_fn is not None else self._default_solve
        )
        #: Owning lock for every mutable field below (and for ``stats``):
        #: submissions, worker completions, and wave serving all cross it.
        self._lock = new_lock("service")
        #: Serializes actual solver work on the single simulated device.
        self._solver_lock = new_lock("solver")
        #: The open solve of each key on the threaded path.
        self._inflight: dict[PlanKey, _Solve] = {}
        self._pending = 0
        #: Solves retired so far: :meth:`submit` re-reads the store when
        #: this moved during its lookup.
        self._retired = 0
        self._closed = False
        #: ``cache_key() -> geometry`` for every kernel ever requested, so a
        #: benchmark refresh can rebuild the affected plans without a client.
        self._kernel_geometries: dict[str, ConvGeometry] = {}
        #: Per-family invalidation epochs; a solve whose family epoch moved
        #: while it ran was computed from stale rows and must not be stored.
        self._invalidation_epochs: dict[str, int] = {}
        self._owns_pool = pool is None
        self._executor = pool if pool is not None else ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="plan-service"
        )
        self._bench_cache.add_invalidation_listener(self._on_bench_refresh)

    # -- lifecycle -------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work, refuse the queued solves, stop the pool.

        A solve still queued resolves its tickets with
        :class:`~repro.errors.ServiceOverloadedError`, as a submission to a
        closed service would; a running solve finishes, and ``wait`` waits
        for it.  A shared pool keeps serving its other services: only its
        owner shuts it down.
        """
        with self._lock:
            self._closed = True
            solves = list(self._inflight.values())
        self._bench_cache.remove_invalidation_listener(self._on_bench_refresh)
        running = []
        for solve in solves:
            assert solve.job is not None
            if solve.job.cancel():
                self._retire(solve)
                solve.future.set_exception(
                    ServiceOverloadedError("plan service is closed"))
            else:
                running.append(solve.job)
        if self._owns_pool:
            self._executor.shutdown(wait=wait)
        elif wait:
            futures.wait(running)

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- stages ----------------------------------------------------------------

    def _admit(self, pending: int) -> None:
        """Admission stage (caller holds ``_lock``): refuse or count.

        ``pending`` is how many requests already hold a queue slot (a
        threaded store hit needs none and passes 0).  A closed service and
        a full queue both raise
        :class:`~repro.errors.ServiceOverloadedError`; only the latter
        counts as ``overloaded``.
        """
        if self._closed:
            raise ServiceOverloadedError("plan service is closed")
        if pending >= self.max_pending:
            self.stats.overloaded += 1
            if telemetry.enabled():
                telemetry.count("service.overloaded",
                                help="submissions refused by admission "
                                     "control")
            raise ServiceOverloadedError(
                f"plan service at admission limit "
                f"({pending}/{self.max_pending} pending)"
            )
        self.stats.requests += 1
        if telemetry.enabled():
            telemetry.count("service.requests", help="requests admitted")

    def _join(
        self, request: PlanRequest, key: PlanKey,
        solves: dict[PlanKey, _Solve] | None,
    ) -> str:
        """Join stage (caller holds ``_lock``), once per admitted request.

        Records the kernel's geometry (what a benchmark refresh re-solves
        from) and counts the request: a store hit when ``solves`` is
        ``None``; else it opens the key's solve in ``solves`` (``fresh``)
        or joins the open one (``coalesced``) and links its trace there.
        Returns the source.
        """
        self._kernel_geometries[key.kernel] = request.geometry  # reprolint: disable=THR001 -- caller holds self._lock (documented precondition)
        if solves is None:
            source = "cached"
            self.stats.cache_hits += 1
        elif key in solves:
            source = "coalesced"
            self.stats.coalesced += 1
            if request.trace_id and telemetry.enabled():
                solves[key].traces.append(request.trace_id)
        else:
            source = "fresh"
            solves[key] = _Solve(request, key)
            self.stats.fresh += 1
        if telemetry.enabled():
            telemetry.count(f"service.admitted.{source}",
                            help="admissions by initial serving source")
        return source

    def _device(self) -> CudnnHandle:
        """The simulated device handle, built on first use.

        Caller holds ``_solver_lock``.
        """
        if self._handle is None:
            from repro.cudnn.handle import CudnnHandle, ExecMode

            self._handle = CudnnHandle(gpu=self._gpu, mode=ExecMode.TIMING)  # reprolint: disable=THR001 -- caller holds self._solver_lock (documented precondition)
        return self._handle

    def _delta_solver(self) -> DeltaSolver:
        """The incremental re-optimizer, built on first use: it re-solves
        invalidated plans from its per-kernel caches instead of paying a
        full network solve.  Caller holds ``_solver_lock``."""
        if self._delta is None:
            from repro.core.tensor_solve import DeltaSolver

            self._delta = DeltaSolver(self.gpu_name)  # reprolint: disable=THR001 -- caller holds self._solver_lock (documented precondition)
        return self._delta

    def _default_solve(self, request: PlanRequest) -> tuple[Configuration, float]:
        """Benchmark + WR-optimize one kernel (the exact answer)."""
        with self._solver_lock:
            bench = benchmark_kernel(
                self._device(), request.geometry, request.policy,
                cache=self._bench_cache,
            )
            config = optimize_from_benchmark(
                bench, request.workspace_limit, kernel=request.kernel
            )
        return config, bench.benchmark_time

    def _trace_span(self, span: object, request: PlanRequest) -> None:
        """Stamp a live span with the request's distributed-trace identity.

        Only called with ``telemetry.enabled()`` true and a real
        :class:`~repro.telemetry.spans.Span` (never the inert null span,
        whose ``__slots__`` reject attribute writes -- that is the
        zero-overhead contract, not an accident).
        """
        if not request.trace_id:
            return
        span.trace_id = request.trace_id  # type: ignore[attr-defined]
        span.span_id = telemetry.get_tracer().new_span_id()  # type: ignore[attr-defined]
        if request.parent_span_id:
            span.parent_span_id = request.parent_span_id  # type: ignore[attr-defined]

    def _run(self, solve: _Solve, simulated: bool) -> None:
        """Run stage: solve once, retire, resolve the future for every
        waiter (the key's pool job on the threaded path, inline in a wave)."""
        try:
            result = self._solve(solve, simulated)
        except BaseException as exc:  # reprolint: disable=ERR001 -- the exception is re-raised to every waiter via the future
            self._retire(solve)
            solve.future.set_exception(exc)
            return
        self._retire(solve)
        solve.future.set_result(result)

    def _solve(
        self, solve: _Solve, simulated: bool
    ) -> tuple[Configuration, float, float, float]:
        """Fault gate, one solver invocation, store the plan.

        Raises :class:`~repro.errors.SolverError` on an injected failure.
        An injected stall is time, the one thing the front-ends keep apart:
        the threaded path (``simulated=False``) sleeps it in real seconds,
        which is what per-request deadlines bound; the wave path advances
        the service clock by the solve's simulated duration instead.

        The family invalidation epoch is snapshotted before the solve and
        re-checked before storing: a benchmark refresh that lands mid-solve
        means the answer was computed from superseded rows, so it is
        returned to the waiting clients (still the best answer they can get
        without re-queueing) but never cached.  Requests that joined this
        solve are linked from its span.

        Returns ``(configuration, solve_seconds, started_at, duration)``:
        ``started_at`` is the clock when the solver started (the end of a
        waiter's queue stage), ``duration`` the simulated solve time plus
        any injected stall.
        """
        started_at = self.clock.now()
        request, key = solve.request, solve.key
        with telemetry.span("service.solve", key=str(key)) as sspan:
            traced = telemetry.enabled()
            if traced:
                self._trace_span(sspan, request)
            action = (self.faults.next_action()
                      if self.faults is not None else ACTION_OK)
            family = geometry_family(key.kernel)
            with self._lock:
                self.stats.solver_invocations += 1
                epoch = self._invalidation_epochs.get(family, 0)
            if traced:
                telemetry.count("service.solver_invocations",
                                help="solver invocations (coalescing dedups "
                                     "these)")
            if action == ACTION_FAIL:
                raise SolverError(f"injected solver failure for {key}")
            stall_s = 0.0
            if action == ACTION_STALL and self.faults is not None:
                stall_s = self.faults.stall_s
                if not simulated:
                    threading.Event().wait(stall_s)
            configuration, solve_seconds = self._solve_fn(request)
            duration = solve_seconds + stall_s
            if simulated:
                self._advance(duration)
            with self._lock:
                stale = self._invalidation_epochs.get(family, 0) != epoch
                joined = list(solve.traces) if traced else []
            for trace_id in joined:
                sspan.links.append({"trace_id": trace_id})  # type: ignore[attr-defined]
            if not stale:
                self.store.put(key, configuration)
            elif traced:
                telemetry.count(
                    "service.stale_plans_dropped",
                    help="solved plans not stored because their "
                         "benchmark rows were refreshed mid-solve")
        return configuration, solve_seconds, started_at, duration

    def _retire(self, solve: _Solve) -> None:
        """Forget a finished threaded solve; count every retired solve."""
        with self._lock:
            if self._inflight.get(solve.key) is solve:
                del self._inflight[solve.key]
            self._retired += 1

    def _fallback(
        self, ticket: PlanTicket, reason: str
    ) -> tuple[Configuration, float]:
        """Fallback stage: the ``undivided`` plan, or the terminal error.

        ``reason`` is ``"timeout"`` or ``"solver_error"``.  Returns the
        plain-cuDNN configuration under the request's limit and its
        benchmark seconds.  With fallbacks disabled a timeout raises
        :class:`~repro.errors.DeadlineExceededError` and a solver fault
        :class:`~repro.errors.SolverError`; an undivided plan that does not
        fit the limit raises :class:`~repro.errors.DeadlineExceededError`.
        A raising request leaves an ``error:<reason>`` ring record.
        """
        request = ticket.request
        if telemetry.enabled():
            telemetry.count(f"service.degraded.{reason}",
                            help="requests degraded past the exact solve")
        error: Exception
        if self.fallback_enabled:
            with self._solver_lock:
                bench = benchmark_kernel(
                    self._device(), request.geometry, BatchSizePolicy.UNDIVIDED,
                    cache=self._bench_cache,
                )
            micro = bench.fastest_micro(request.geometry.n,
                                        request.workspace_limit)
            if micro is not None:
                with self._lock:
                    self.stats.fallback_solves += 1
                if telemetry.enabled():
                    telemetry.count("service.fallback_solves",
                                    help="undivided fallback plans computed")
                return Configuration((micro,)), bench.benchmark_time
            error = DeadlineExceededError(
                f"plan for {ticket.key} degraded on {reason} and the "
                f"undivided fallback does not fit "
                f"{request.workspace_limit} B"
            )
        elif reason == "timeout":
            error = DeadlineExceededError(
                f"plan for {ticket.key} missed its {request.deadline_s} s "
                f"deadline (fallback disabled)"
            )
        else:
            error = SolverError(
                f"solver failed for {ticket.key} (fallback disabled)"
            )
        with self._lock:
            self.stats.deadline_errors += 1
        if self.request_log is not None:
            self.request_log.record(
                trace_id=request.trace_id, key=str(ticket.key),
                client=request.client, source=ticket.source,
                outcome=f"error:{reason}",
                latency_s=self.clock.now() - ticket.submitted_at,
            )
        raise error

    def _degrade(
        self, ticket: PlanTicket, reason: str, simulated: bool
    ) -> tuple[Configuration, float]:
        """Degrade stage: the first waiter of a solve to degrade runs
        :meth:`_fallback` (in a wave, its seconds advance the clock) and
        later ones reuse its plan.  If it raised, each later waiter runs
        its own, so every raising request keeps its own error and record.
        """
        solve = ticket.solve
        assert solve is not None
        with self._lock:
            shared = solve.fallback
            first = shared is None
            if shared is None:
                shared = solve.fallback = Future()
        if not first:
            try:
                return shared.result()
            except (DeadlineExceededError, SolverError):
                return self._fallback(ticket, reason)
        try:
            fallback = self._fallback(ticket, reason)
        except BaseException as exc:
            shared.set_exception(exc)
            raise
        shared.set_result(fallback)
        if simulated:
            self._advance(fallback[1])
        return fallback

    def _served(
        self,
        ticket: PlanTicket,
        configuration: Configuration,
        source: str,
        solve_seconds: float,
        latency: float,
        fallback_reason: str = "",
        stages: "dict[str, float] | None" = None,
    ) -> PlanResponse:
        """Record stage: build the response and record its provenance.

        ``stages`` is the queue/solve latency breakdown (the wire server
        later amends ``serialize`` onto the same ring record); store hits
        and threaded fallbacks pass ``None``.  A latency past
        ``slow_request_s`` emits one structured line carrying the trace id
        and a ready-to-run ``explain`` command for the kernel.
        """
        request = ticket.request
        if fallback_reason:
            with self._lock:
                if fallback_reason == "timeout":
                    self.stats.fallbacks_timeout += 1
                else:
                    self.stats.fallbacks_error += 1
        response = PlanResponse(
            kernel=request.kernel, key=ticket.key,
            configuration=configuration, source=source,
            solve_seconds=solve_seconds, latency_s=latency,
            fallback_reason=fallback_reason, client=request.client,
            shard=self.shard_id,
        )
        if self.request_log is not None:
            self.request_log.record(
                trace_id=request.trace_id, key=str(ticket.key),
                client=request.client, source=source, outcome="ok",
                latency_s=latency, stages=stages,
            )
        if telemetry.enabled():
            telemetry.observe(
                "service.request_latency_seconds", latency,
                help="end-to-end plan-request latency",
                labels={"deadline_class":
                        telemetry.deadline_class(request.deadline_s)},
                exemplar=request.trace_id or None,
            )
            for stage, seconds in (stages or {}).items():
                telemetry.observe(
                    "service.stage_seconds", seconds,
                    help="request latency by pipeline stage",
                    labels={"stage": stage},
                )
        if (self._slow_request_s is not None
                and latency > self._slow_request_s):
            self._slow_log(json.dumps({
                "deadline_s": request.deadline_s,
                "event": "slow_request",
                "explain": (f"python -m repro.harness.runner explain "
                            f"--explain-kernel {request.kernel}"),
                "key": str(ticket.key),
                "kernel": request.kernel,
                "latency_s": latency,
                "source": source,
                "stages": dict(stages or {}),
                "threshold_s": self._slow_request_s,
                "trace_id": request.trace_id,
            }, sort_keys=True, separators=(",", ":")))
        rec = observability.recorder()
        if rec:
            rec.record(
                "service.served", kernel=request.kernel,
                source=source, fallback_reason=fallback_reason,
                workspace_limit=ticket.key.workspace_limit,
                policy=ticket.key.policy, time=configuration.time,
                workspace=configuration.workspace,
            )
        return response

    # -- threaded path ---------------------------------------------------------

    def submit(self, request: PlanRequest) -> PlanTicket:
        """Admit one request: store hit, or join the key's solve.

        Raises :class:`~repro.errors.ServiceOverloadedError` when the
        service is closed, or when a request that misses the store finds
        ``max_pending`` requests already outstanding.  The returned ticket
        must be passed to :meth:`wait` exactly once (use :meth:`request`
        for the submit+wait round trip).
        """
        key = request.key(self.gpu_name)
        now = self.clock.now()
        while True:
            retired = self._retired
            cached = self.store.get(key)
            with self._lock:
                if cached is not None:
                    self._admit(0)
                    self._join(request, key, None)
                    return PlanTicket(request, key, "cached", now,
                                      cached=cached, shard=self.shard_id)
                if key not in self._inflight and self._retired != retired:
                    # A solve retired during the lookup and may have stored
                    # this plan: look again rather than solve it twice.
                    continue
                self._admit(self._pending)
                self._pending += 1
                source = self._join(request, key, self._inflight)
                solve = self._inflight[key]
                if source == "fresh":
                    # Queued under the lock, so close() sees every job.
                    solve.job = self._executor.submit(self._run, solve, False)
            return PlanTicket(request, key, source, now, solve=solve,
                              shard=self.shard_id)

    def wait(self, ticket: PlanTicket) -> PlanResponse:
        """Resolve a ticket: exact plan, or walk the degradation ladder."""
        if ticket.cached is not None:
            return self._served(
                ticket, ticket.cached, "cached", 0.0,
                max(0.0, self.clock.now() - ticket.submitted_at),
            )
        assert ticket.solve is not None
        try:
            configuration, solve_seconds, started_at, _ = (
                ticket.solve.future.result(timeout=ticket.request.deadline_s))
            reason = ""
        except FutureTimeoutError:
            reason = "timeout"
        except SolverError:
            reason = "solver_error"
        finally:
            with self._lock:
                self._pending -= 1
        if reason:
            configuration, solve_seconds = self._degrade(ticket, reason,
                                                         simulated=False)
            return self._served(
                ticket, configuration, "fallback", solve_seconds,
                self.clock.now() - ticket.submitted_at, fallback_reason=reason,
            )
        now = self.clock.now()
        stages = {
            "queue": max(0.0, started_at - ticket.submitted_at),
            "solve": max(0.0, now - started_at),
        }
        return self._served(ticket, configuration, ticket.source,
                            solve_seconds, now - ticket.submitted_at,
                            stages=stages)

    def request(self, request: PlanRequest) -> PlanResponse:
        """Submit and wait: the blocking client call.

        A traced request (non-empty ``trace_id``) continues the caller's
        distributed trace: the ``service.request`` span adopts the incoming
        trace context, and its span id becomes the parent of the solve span
        (plumbed through the request object so worker threads see it).
        """
        with telemetry.span(
            "service.request", kernel=request.kernel,
            policy=request.policy.value,
            workspace_limit=request.workspace_limit,
        ) as tspan:
            if telemetry.enabled() and request.trace_id:
                self._trace_span(tspan, request)
                request = dataclasses.replace(
                    request, parent_span_id=tspan.span_id  # type: ignore[attr-defined]
                )
            response = self.wait(self.submit(request))
            tspan.set("source", response.source)
        return response

    # -- wave path (deterministic batch serving) -------------------------------

    def wave(self) -> "PlanWave":
        """A batch of simultaneously-arriving requests (see :class:`PlanWave`)."""
        return PlanWave(self)

    def admit_wave_request(
        self, request: PlanRequest, admitted: "dict[str, int]"
    ) -> None:
        """Admit one request into a wave, or refuse it.

        ``admitted`` counts the wave's admitted requests per shard id; this
        service's own count is its queue depth for the admission stage, and
        grows by one on success.  (``request`` is what a cluster routes by;
        a lone service is every request's home.)
        """
        del request
        pending = admitted.get(self.shard_id, 0)
        with self._lock:
            self._admit(pending)
        admitted[self.shard_id] = pending + 1

    def serve_wave(self, requests: list[PlanRequest]) -> list[PlanResponse]:
        """Serve one batch of admitted requests deterministically.

        Requests are served in arrival order; within the batch, requests
        sharing a key join the first one's solve.  Solve durations
        (simulated benchmark seconds, plus injected stalls) advance the
        clock and become the waiters' latencies; a duration past a
        request's deadline degrades exactly that request to the undivided
        fallback, which is computed once per key and advances the clock
        too.  Clock time accrued serving *earlier* keys is a key's queue
        stage.  Responses come back in arrival order.  A failed request does
        not stop the wave: every key is solved, then the first error (in
        arrival order) is raised.
        """
        with telemetry.span("service.wave", requests=len(requests)):
            responses: list[PlanResponse | None] = [None] * len(requests)
            solves: dict[PlanKey, _Solve] = {}
            waiters: dict[PlanKey, list[tuple[int, str]]] = {}
            wave_start = self.clock.now()
            for index, request in enumerate(requests):
                key = request.key(self.gpu_name)
                cached = self.store.get(key)
                if key in solves:
                    cached = None  # the key's solve already has waiters
                with self._lock:
                    source = self._join(
                        request, key, solves if cached is None else None)
                if cached is not None:
                    ticket = PlanTicket(request, key, "cached",
                                        self.clock.now())
                    responses[index] = self._served(ticket, cached, "cached",
                                                    0.0, 0.0)
                else:
                    waiters.setdefault(key, []).append((index, source))
            failed: dict[int, Exception] = {}
            for key, solve in solves.items():
                queue_s = max(0.0, self.clock.now() - wave_start)
                self._run(solve, simulated=True)
                for index, source in waiters[key]:
                    try:
                        responses[index] = self._answer(
                            PlanTicket(requests[index], key, source,
                                       self.clock.now(), solve=solve),
                            queue_s)
                    except ReproError as exc:
                        failed[index] = exc
            if failed:
                raise failed[min(failed)]
        return [response for response in responses if response is not None]

    def _answer(self, ticket: PlanTicket, queue_s: float) -> PlanResponse:
        """Answer a wave waiter: the plan, or the fallback when the solve
        faulted or its simulated duration passed the request's deadline."""
        assert ticket.solve is not None
        deadline_s = ticket.request.deadline_s
        try:
            configuration, solve_seconds, _, duration = (
                ticket.solve.future.result())
            reason = ("timeout" if deadline_s is not None
                      and duration > deadline_s else "")
        except SolverError:
            duration, reason = 0.0, "solver_error"
        if not reason:
            return self._served(
                ticket, configuration, ticket.source, solve_seconds, duration,
                stages={"queue": queue_s, "solve": duration},
            )
        configuration, solve_seconds = self._degrade(ticket, reason,
                                                     simulated=True)
        elapsed = duration + solve_seconds
        return self._served(
            ticket, configuration, "fallback", solve_seconds, elapsed,
            fallback_reason=reason,
            stages={"queue": queue_s, "solve": elapsed},
        )

    def _advance(self, seconds: float) -> None:
        """Advance a manual clock by simulated work (no-op on wall clocks)."""
        advance = getattr(self.clock, "advance", None)
        if advance is not None and seconds > 0:
            advance(seconds)

    # -- incremental re-optimization -------------------------------------------

    def refresh_benchmark(
        self, geometry: ConvGeometry, results: list[PerfResult]
    ) -> int:
        """Publish fresh benchmark rows and repair every plan built on them.

        This is the operator entry point for "the device got re-measured"
        (driver update, clock-model fix, thermals): the rows are written to
        the shared benchmark cache, which -- when they actually differ --
        fires the invalidation listener.  That listener drops the affected
        kernel family from the delta solver's caches and from the plan
        store, then re-solves each dropped plan incrementally so the next
        client hit is warm again.  Returns the number of stored plans the
        refresh invalidated (0 when the rows were identical or nothing was
        derived from them).
        """
        before = self.store.stats.invalidations
        self._bench_cache.put_benchmark(self.gpu_name, geometry, results)
        return self.store.stats.invalidations - before

    def _on_bench_refresh(self, gpu_name: str, geometry: ConvGeometry) -> None:
        """Benchmark-cache listener: invalidate + delta-re-solve plans.

        Runs on the thread that overwrote the rows (never a solver worker:
        the solver path only writes the cache on a miss, so it cannot
        overwrite and cannot re-enter ``_solver_lock`` from here).  Order
        matters: the epoch bump first (so mid-flight solves self-discard),
        then the delta-solver and plan-store drops, then the re-solves.
        """
        if gpu_name != self.gpu_name:
            return
        family = geometry_family(geometry.cache_key())
        with self._lock:
            self._invalidation_epochs[family] = (
                self._invalidation_epochs.get(family, 0) + 1
            )
        delta = self._delta
        if delta is not None:  # no solver yet: nothing cached to drop
            delta.invalidate_family(family)
        removed = self.store.invalidate_matching(
            lambda key: key.gpu == self.gpu_name
            and geometry_family(key.kernel) == family
        )
        with self._lock:
            self.stats.invalidated_plans += len(removed)
        if removed and telemetry.enabled():
            telemetry.count("service.invalidated_plans", len(removed),
                            help="stored plans dropped by benchmark refresh")
        resolved = 0
        for key in removed:
            if self._resolve_invalidated(key):
                resolved += 1
        with self._lock:
            self.stats.delta_resolves += resolved
        if resolved and telemetry.enabled():
            telemetry.count("service.delta_resolves", resolved,
                            help="invalidated plans re-solved incrementally")

    def _resolve_invalidated(self, key: PlanKey) -> bool:
        """Re-solve one invalidated plan through the delta solver.

        ``False`` when the kernel's geometry was never seen (nothing to
        re-benchmark from), the service is closed, or the fresh rows make
        the plan infeasible -- the key then simply stays evicted and the
        next client request solves it on demand.
        """
        with self._lock:
            if self._closed:
                return False
            geometry = self._kernel_geometries.get(key.kernel)
        if geometry is None:
            return False
        policy = BatchSizePolicy(key.policy)
        with self._solver_lock:
            bench = benchmark_kernel(
                self._device(), geometry, policy, cache=self._bench_cache
            )
            try:
                configs = self._delta_solver().solve_network(
                    {key.kernel: bench}, key.workspace_limit
                )
            except (OptimizationError, SolverError):
                return False
        self.store.put(key, configs[key.kernel])
        return True

    # -- accounting ------------------------------------------------------------

    @property
    def bench_cache(self) -> BenchmarkCache:
        """The shared benchmark cache (snapshotted by :mod:`repro.persistence`)."""
        return self._bench_cache

    @property
    def pending(self) -> int:
        """Currently outstanding (admitted, unresolved) requests."""
        with self._lock:
            return self._pending

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (readiness probes use this)."""
        with self._lock:
            return self._closed

    def metrics_summary(self) -> dict[str, object]:
        """Service + store counters in one JSON-safe mapping.

        The delta counters read zero, without building the delta solver,
        until a solve has built it.
        """
        with self._lock:
            stats = self.stats.as_dict()
        delta = self._delta
        return {
            "gpu": self.gpu_name,
            "max_pending": self.max_pending,
            "service": stats,
            "store": self.store.snapshot(),
            "delta": (delta.stats if delta is not None
                      else DeltaStats()).as_dict(),
            "bench_cache": {
                "hits": self._bench_cache.hits,
                "misses": self._bench_cache.misses,
                "evictions": self._bench_cache.evictions,
            },
        }


class PlanWave:  # reprolint: disable=THR001 -- a wave is thread-confined: built and served by the one client thread that created it
    """One deterministic batch of simultaneously-arriving requests.

    Usage (what the soak driver does each round)::

        wave = service.wave()
        for request in arriving:
            wave.add(request)          # admission control happens here
        responses = wave.serve()       # coalesced, deterministic serving

    The front is a :class:`PlanService` or a
    :class:`~repro.cluster.ClusterService`; a cluster routes each request
    to its home shard, whose admission control applies.  :meth:`add`
    raises :class:`~repro.errors.ServiceOverloadedError` for every request
    past the home's ``max_pending`` or once it is closed -- over-limit
    requests are refused individually, exactly like the threaded path's
    backpressure.
    """

    def __init__(self, front: "PlanService | ClusterService") -> None:
        self._front = front
        self._requests: list[PlanRequest] = []
        #: Admitted requests per home shard id.
        self._admitted: dict[str, int] = {}
        self._served = False

    def add(self, request: PlanRequest) -> None:
        """Route and admit one request (a cluster raises ``ClusterError``
        on a bad routing hint)."""
        self._front.admit_wave_request(request, self._admitted)
        self._requests.append(request)

    def __len__(self) -> int:
        return len(self._requests)

    def serve(self) -> list[PlanResponse]:
        """Serve every admitted request; one call per wave."""
        if self._served:
            raise ServiceOverloadedError("wave already served")
        self._served = True
        return self._front.serve_wave(self._requests)
