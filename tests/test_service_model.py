"""Model-based test of :class:`~repro.service.PlanService`.

A hypothesis state machine drives both front-ends -- threaded
``request`` calls and deterministic waves -- over one small-capacity
service on a :class:`~repro.telemetry.clock.ManualClock`, interleaved with
benchmark refreshes, TTL advances and injected solver faults.  Its oracle
is a plain dict filled by calling ``benchmark_kernel`` and
``wr.optimize_from_benchmark`` directly on a private copy of the rows.

Invariants, checked after every step:

* every non-fallback plan, served or stored, equals the oracle's plan for
  the current rows;
* a fallback happens exactly when a fault was injected into the request's
  solve or its deadline was missed, and it is the undivided plan;
* a key is solved only when the store does not hold it: at most once per
  rows epoch unless the store dropped it;
* ``stats.requests == cache_hits + fresh + coalesced``.
"""

import dataclasses

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import wr
from repro.core.benchmarker import benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.config import Configuration
from repro.core.policies import BatchSizePolicy, candidate_sizes
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.service import (
    ACTION_FAIL,
    ACTION_OK,
    ACTION_STALL,
    FaultInjector,
    PlanRequest,
    PlanService,
)
from repro.telemetry.clock import ManualClock
from repro.units import MIB
from tests.conftest import make_geometry

GPU = "p100-sxm2"
#: Two batch sizes of one kernel family (a refresh of either drops both)
#: and two more families.
KERNELS = (
    make_geometry(c=3, n=4),
    make_geometry(c=3, n=8),
    make_geometry(c=8, n=8, k=8, h=6, w=6),
    make_geometry(c=16, n=4, h=4, w=4),
)
LIMITS = (0, 64 * MIB)
CAPACITY = 3
TTL_S = 10.0
#: A threaded stall sleeps real seconds and misses a shorter deadline.
THREAD_STALL_S, THREAD_DEADLINE_S = 0.05, 0.005
#: A wave stall adds simulated seconds; only a stalled solve misses the
#: wave deadline (an unstalled one takes the rows' benchmark time, which is
#: far shorter).
WAVE_STALL_S, WAVE_DEADLINE_S = 60.0, 5.0
FAULTS = st.sampled_from((ACTION_OK, ACTION_FAIL, ACTION_STALL))


class ArmedFaults(FaultInjector):
    """Injects one chosen action into the next solver invocation only."""

    def __init__(self) -> None:
        super().__init__()
        self.armed = ACTION_OK

    def arm(self, action: str, stall_s: float) -> None:
        self.armed, self.stall_s = action, stall_s

    def next_action(self) -> str:
        action, self.armed = self.armed, ACTION_OK
        return action


class PlanServiceModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = ManualClock()
        self.faults = ArmedFaults()
        self.service = PlanService(
            GPU, capacity=CAPACITY, ttl_s=TTL_S, clock=self.clock,
            faults=self.faults,
        )
        self.handle = CudnnHandle(gpu=Gpu.create(GPU), mode=ExecMode.TIMING)
        #: The oracle's rows: refreshed exactly as the service's are.
        self.rows = BenchmarkCache()
        #: The oracle: key -> exact plan for the current rows.
        self.plans: dict = {}
        #: Every key asked so far -> a request for it.
        self.asked: dict = {}
        self.fallbacks = {"timeout": 0, "solver_error": 0}

    def teardown(self) -> None:
        self.service.close()

    # -- oracle ------------------------------------------------------------

    def exact(self, request: PlanRequest) -> Configuration:
        key = request.key(GPU)
        if key not in self.plans:
            bench = benchmark_kernel(self.handle, request.geometry,
                                     request.policy, cache=self.rows)
            self.plans[key] = wr.optimize_from_benchmark(
                bench, request.workspace_limit)
        return self.plans[key]

    def undivided(self, request: PlanRequest) -> Configuration:
        bench = benchmark_kernel(self.handle, request.geometry,
                                 BatchSizePolicy.UNDIVIDED, cache=self.rows)
        return Configuration((bench.fastest_micro(request.geometry.n,
                                                  request.workspace_limit),))

    def stored(self, key) -> bool:
        """Whether a lookup of ``key`` now would hit (touches no counter)."""
        now = self.clock.now()
        return any(k == key and now - stored_at <= TTL_S
                   for k, _, stored_at in self.service.store.entries())

    def make_request(self, kernel: int, limit: int,
                     deadline_s: float | None = None) -> PlanRequest:
        request = PlanRequest(kernel=f"k{kernel}", geometry=KERNELS[kernel],
                              workspace_limit=limit, deadline_s=deadline_s)
        self.asked.setdefault(request.key(GPU), request)
        return request

    def check(self, request, response, source: str, fault: str) -> None:
        """``response`` answers ``request``, predicted to be served from
        ``source`` by a solve that ran under ``fault``."""
        if source != "cached" and fault == ACTION_FAIL:
            reason = "solver_error"
        elif (source != "cached" and fault == ACTION_STALL
                and request.deadline_s is not None):
            reason = "timeout"
        else:
            reason = ""
        if reason:
            assert (response.source, response.fallback_reason) == (
                "fallback", reason)
            assert response.configuration == self.undivided(request)
            self.fallbacks[reason] += 1
        else:
            assert (response.source, response.fallback_reason) == (source, "")
            assert response.configuration == self.exact(request)

    # -- rules -------------------------------------------------------------

    @rule(kernel=st.integers(0, len(KERNELS) - 1),
          limit=st.sampled_from(LIMITS), fault=FAULTS)
    def threaded_request(self, kernel: int, limit: int, fault: str) -> None:
        stalled = fault == ACTION_STALL
        request = self.make_request(
            kernel, limit, THREAD_DEADLINE_S if stalled else None)
        hit = self.stored(request.key(GPU))
        solves = self.service.stats.solver_invocations
        self.faults.arm(fault, THREAD_STALL_S)
        response = self.service.request(request)
        self.check(request, response, "cached" if hit else "fresh", fault)
        if stalled and not hit:
            # The stalled solve outlives the missed deadline: wait it out
            # with a request that joins it or hits the plan it stored.
            settle = self.service.request(
                dataclasses.replace(request, deadline_s=None))
            assert settle.source in ("coalesced", "cached")
            assert settle.configuration == self.exact(request)
        self.faults.armed = ACTION_OK
        assert self.service.stats.solver_invocations - solves == (not hit)

    @rule(picks=st.lists(
              st.tuples(st.integers(0, len(KERNELS) - 1),
                        st.sampled_from(LIMITS),
                        st.sampled_from((None, WAVE_DEADLINE_S))),
              min_size=1, max_size=4),
          fault=FAULTS)
    def wave(self, picks: list, fault: str) -> None:
        requests = [self.make_request(*pick) for pick in picks]
        sources, missed = [], []
        for request in requests:
            key = request.key(GPU)
            if key in missed:
                sources.append("coalesced")
            elif self.stored(key):
                sources.append("cached")
            else:
                missed.append(key)
                sources.append("fresh")
        solves = self.service.stats.solver_invocations
        self.faults.arm(fault, WAVE_STALL_S)
        wave = self.service.wave()
        for request in requests:
            wave.add(request)
        responses = wave.serve()
        self.faults.armed = ACTION_OK
        assert len(responses) == len(requests)
        for request, response, source in zip(requests, responses, sources):
            # The armed fault lands on the wave's first solve.
            first = bool(missed) and request.key(GPU) == missed[0]
            self.check(request, response, source,
                       fault if first else ACTION_OK)
        assert self.service.stats.solver_invocations - solves == len(missed)

    @rule(kernel=st.integers(0, len(KERNELS) - 1),
          size=st.integers(0, 3), factor=st.sampled_from((0.25, 4.0)))
    def refresh_benchmark(self, kernel: int, size: int, factor: float) -> None:
        geometry = KERNELS[kernel]
        sizes = candidate_sizes(BatchSizePolicy.POWER_OF_TWO, geometry.n)
        micro = geometry.with_batch(sizes[size % len(sizes)])
        benchmark_kernel(self.handle, micro, BatchSizePolicy.UNDIVIDED,
                         cache=self.rows)
        rows = list(self.rows.get_benchmark(GPU, micro))
        rows[0] = dataclasses.replace(rows[0], time=rows[0].time * factor)
        self.service.refresh_benchmark(micro, rows)
        self.rows.put_benchmark(GPU, micro, rows)
        self.plans.clear()

    @rule(seconds=st.sampled_from((1.0, TTL_S + 1.0)))
    def advance_clock(self, seconds: float) -> None:
        self.clock.advance(seconds)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def stored_plans_are_current(self) -> None:
        for key, configuration, _ in self.service.store.entries():
            assert configuration == self.exact(self.asked[key])

    @invariant()
    def stats_reconcile(self) -> None:
        stats = self.service.stats
        assert stats.requests == stats.cache_hits + stats.fresh + stats.coalesced
        assert stats.fallbacks_timeout == self.fallbacks["timeout"]
        assert stats.fallbacks_error == self.fallbacks["solver_error"]
        assert self.service.pending == 0


TestPlanServiceModel = PlanServiceModel.TestCase
TestPlanServiceModel.settings = settings(
    max_examples=50, stateful_step_count=15, deadline=None)
