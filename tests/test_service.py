"""Tests for the plan-compilation service (``src/repro/service``).

Covers the ISSUE's acceptance criteria directly: concurrent identical
requests cost exactly one solver invocation (spy-counted), timeouts and
solver faults degrade to a valid ``undivided`` fallback plan with a
provenance marker, admission control refuses every over-limit request with
:class:`~repro.errors.ServiceOverloadedError`, and the soak driver is
byte-deterministic under a :class:`~repro.telemetry.clock.ManualClock`.
"""

import sys
import threading

import pytest

import repro.observability as observability
import repro.telemetry as telemetry
from repro.cluster import ClusterService
from repro.core.config import Configuration, MicroConfig
from repro.cudnn.enums import FwdAlgo
from repro.errors import (
    BadParamError,
    DeadlineExceededError,
    ServiceOverloadedError,
    SolverError,
)
from repro.service import (
    ACTION_FAIL,
    ACTION_STALL,
    FaultInjector,
    PlanKey,
    PlanRequest,
    PlanService,
    PlanStore,
)
from repro.service.soak import SoakConfig, run_soak
from repro.telemetry.clock import ManualClock
from repro.units import MIB
from tests.conftest import make_geometry


def fake_config(micro: int = 4) -> Configuration:
    return Configuration((MicroConfig(micro, FwdAlgo.IMPLICIT_GEMM, 0.001, 0),))


def make_request(kernel: str = "conv", c: int = 3, n: int = 4, **kw) -> PlanRequest:
    return PlanRequest(kernel=kernel, geometry=make_geometry(c=c, n=n), **kw)


def make_key(i: int) -> PlanKey:
    return PlanKey(gpu="g", kernel=f"k{i}", policy="powerOfTwo",
                   workspace_limit=MIB)


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_solve(self):
        release = threading.Event()
        calls = []
        calls_lock = threading.Lock()

        def solve(request):
            with calls_lock:
                calls.append(request.kernel)
            assert release.wait(timeout=10)
            return fake_config(), 0.25

        svc = PlanService(clock=ManualClock(), solve_fn=solve, workers=4)
        try:
            tickets = [svc.submit(make_request()) for _ in range(6)]
            sources = [t.source for t in tickets]
            assert sources.count("fresh") == 1
            assert sources.count("coalesced") == 5
            release.set()
            responses = [svc.wait(t) for t in tickets]
            assert len(calls) == 1  # the spy saw exactly one invocation
            assert svc.stats.solver_invocations == 1
            assert svc.stats.fresh == 1 and svc.stats.coalesced == 5
            assert all(r.configuration == fake_config() for r in responses)
        finally:
            release.set()
            svc.close()

    def test_later_request_hits_the_plan_store(self):
        svc = PlanService(
            clock=ManualClock(),
            solve_fn=lambda r: (fake_config(), 0.1),
        )
        try:
            first = svc.request(make_request())
            second = svc.request(make_request())
            assert first.source == "fresh"
            assert second.source == "cached"
            assert svc.stats.solver_invocations == 1
            assert svc.stats.cache_hits == 1
        finally:
            svc.close()

    def test_distinct_keys_do_not_coalesce(self):
        svc = PlanService(
            clock=ManualClock(), solve_fn=lambda r: (fake_config(), 0.1)
        )
        try:
            a = svc.request(make_request(kernel="a", c=3))
            b = svc.request(make_request(kernel="b", c=8))
            c = svc.request(make_request(kernel="a", c=3, workspace_limit=MIB))
            assert (a.source, b.source, c.source) == ("fresh",) * 3
            assert svc.stats.solver_invocations == 3
        finally:
            svc.close()

    def test_plan_stored_during_a_lookup_is_not_solved_again(self):
        """A solve that stores its plan and retires while a submit of the
        same key is between its store miss and the service lock must not
        start a second solve: the submit looks the store up again."""

        missed = threading.Event()

        class LookupRacingStore(PlanStore):
            #: Set to a ticket's future: the next ``get`` looks up, signals
            #: ``missed``, and returns only once that solve has resolved.
            wait_for = None

            def get(self, key):
                plan = super().get(key)
                future, self.wait_for = self.wait_for, None
                if future is not None:
                    missed.set()
                    future.exception(timeout=10)
                return plan

        release = threading.Event()

        def solve(request):
            assert release.wait(timeout=10)
            return fake_config(), 0.25

        store = LookupRacingStore(clock=ManualClock())
        svc = PlanService(clock=ManualClock(), solve_fn=solve, store=store)
        try:
            first = svc.submit(make_request())
            store.wait_for = first.solve.future
            tickets = []
            racer = threading.Thread(
                target=lambda: tickets.append(svc.submit(make_request())))
            racer.start()
            assert missed.wait(timeout=10)
            release.set()
            racer.join(timeout=10)
            assert not racer.is_alive()
            assert svc.wait(first).source == "fresh"
            assert svc.wait(tickets[0]).source == "cached"
            assert svc.stats.solver_invocations == 1
        finally:
            release.set()
            svc.close()


class TestDegradation:
    def test_timeout_falls_back_to_undivided(self):
        release = threading.Event()

        def stalled(request):
            assert release.wait(timeout=10)
            return fake_config(), 0.25

        svc = PlanService(clock=ManualClock(), solve_fn=stalled)
        try:
            request = make_request(n=32)
            response = svc.request(
                PlanRequest(kernel="conv", geometry=request.geometry,
                            deadline_s=0.05)
            )
            assert response.source == "fallback"
            assert response.degraded
            assert response.fallback_reason == "timeout"
            # The fallback is the plain-cuDNN answer: one undivided micro.
            assert response.configuration.is_undivided
            [micro] = response.configuration.micros
            assert micro.micro_batch == 32
            assert svc.stats.fallbacks_timeout == 1
        finally:
            release.set()
            svc.close()

    def test_solver_fault_falls_back_with_reason(self):
        def broken(request):
            raise SolverError("injected")

        svc = PlanService(clock=ManualClock(), solve_fn=broken)
        try:
            response = svc.request(make_request(n=16))
            assert response.source == "fallback"
            assert response.fallback_reason == "solver_error"
            assert response.configuration.is_undivided
            assert svc.stats.fallbacks_error == 1
        finally:
            svc.close()

    def test_fallback_plans_are_not_stored(self):
        def broken(request):
            raise SolverError("injected")

        svc = PlanService(clock=ManualClock(), solve_fn=broken)
        try:
            request = make_request(n=16)
            response = svc.request(request)
            assert response.source == "fallback"
            assert svc.store.get(request.key(svc.gpu_name)) is None
        finally:
            svc.close()

    def test_disabled_fallback_raises_deadline_error_on_timeout(self):
        release = threading.Event()

        def stalled(request):
            assert release.wait(timeout=10)
            return fake_config(), 0.25

        svc = PlanService(clock=ManualClock(), solve_fn=stalled,
                          fallback=False)
        try:
            with pytest.raises(DeadlineExceededError):
                svc.request(make_request(deadline_s=0.05))
            assert svc.stats.deadline_errors == 1
        finally:
            release.set()
            svc.close()

    def test_disabled_fallback_reraises_solver_error(self):
        def broken(request):
            raise SolverError("injected")

        svc = PlanService(clock=ManualClock(), solve_fn=broken,
                          fallback=False)
        try:
            with pytest.raises(SolverError):
                svc.request(make_request())
        finally:
            svc.close()


class TestAdmissionControl:
    def test_over_limit_submission_raises(self):
        release = threading.Event()

        def stalled(request):
            assert release.wait(timeout=10)
            return fake_config(), 0.25

        svc = PlanService(clock=ManualClock(), solve_fn=stalled,
                          max_pending=2, workers=1)
        try:
            t1 = svc.submit(make_request(kernel="a", c=3))
            t2 = svc.submit(make_request(kernel="b", c=8))
            with pytest.raises(ServiceOverloadedError):
                svc.submit(make_request(kernel="c", c=16))
            assert svc.stats.overloaded == 1
            assert svc.pending == 2
            release.set()
            svc.wait(t1)
            svc.wait(t2)
            assert svc.pending == 0
            # Capacity freed: the next submission is admitted again.
            assert svc.request(make_request(kernel="c", c=16)).source == "fresh"
        finally:
            release.set()
            svc.close()

    def test_wave_refuses_each_over_limit_request(self):
        svc = PlanService(clock=ManualClock(),
                          solve_fn=lambda r: (fake_config(), 0.1),
                          max_pending=3)
        try:
            wave = svc.wave()
            for _ in range(3):
                wave.add(make_request())
            for _ in range(4):  # every over-limit add raises, individually
                with pytest.raises(ServiceOverloadedError):
                    wave.add(make_request())
            assert svc.stats.overloaded == 4
            assert len(wave.serve()) == 3
        finally:
            svc.close()


class TestWave:
    def test_wave_coalesces_and_records_sources(self):
        svc = PlanService(clock=ManualClock(),
                          solve_fn=lambda r: (fake_config(), 0.5))
        try:
            wave = svc.wave()
            for _ in range(4):
                wave.add(make_request())
            responses = wave.serve()
            assert [r.source for r in responses] == [
                "fresh", "coalesced", "coalesced", "coalesced",
            ]
            assert svc.stats.solver_invocations == 1
            # The solve's simulated duration advanced the manual clock and
            # became every waiter's latency.
            assert all(r.latency_s == 0.5 for r in responses)
            # A second wave is served from the plan store.
            wave2 = svc.wave()
            wave2.add(make_request())
            assert wave2.serve()[0].source == "cached"
        finally:
            svc.close()

    def test_wave_deadline_degrades_to_fallback(self):
        svc = PlanService(clock=ManualClock(),
                          solve_fn=lambda r: (fake_config(), 10.0))
        try:
            wave = svc.wave()
            wave.add(make_request(n=16, deadline_s=1.0))
            wave.add(make_request(n=16))  # no deadline: gets the exact plan
            slow, patient = wave.serve()
            assert slow.source == "fallback"
            assert slow.fallback_reason == "timeout"
            assert slow.configuration.is_undivided
            assert patient.source == "coalesced"
            assert patient.configuration == fake_config()
        finally:
            svc.close()

    def test_wave_injected_fault_degrades_all_sharers(self):
        faults = FaultInjector(script={0: ACTION_FAIL})
        svc = PlanService(clock=ManualClock(),
                          solve_fn=lambda r: (fake_config(), 0.1),
                          faults=faults)
        try:
            wave = svc.wave()
            wave.add(make_request(n=16))
            wave.add(make_request(n=16))
            responses = wave.serve()
            assert [r.fallback_reason for r in responses] == [
                "solver_error", "solver_error",
            ]
            assert all(r.configuration.is_undivided for r in responses)
        finally:
            svc.close()

    def test_failed_key_without_fallback_still_solves_the_rest(self):
        """With fallbacks disabled, a fault on the first key raises only
        after every key of the wave is solved and stored, so a retry finds
        the second key in the store instead of counting it fresh again."""
        svc = PlanService(clock=ManualClock(), fallback=False,
                          solve_fn=lambda r: (fake_config(), 0.1),
                          faults=FaultInjector(script={0: ACTION_FAIL}))
        first, second = make_request(kernel="a", c=3), make_request(
            kernel="b", c=5)
        try:
            wave = svc.wave()
            wave.add(first)
            wave.add(second)
            with pytest.raises(SolverError, match="fallback disabled"):
                wave.serve()
            assert svc.stats.fresh == 2
            assert svc.stats.solver_invocations == 2
            assert second.key(svc.gpu_name) in svc.store
            assert first.key(svc.gpu_name) not in svc.store
            retry = svc.wave()
            retry.add(first)
            retry.add(second)
            assert [r.source for r in retry.serve()] == ["fresh", "cached"]
            assert svc.stats.fresh == 3
            assert svc.stats.solver_invocations == 3
        finally:
            svc.close()

    def test_provenance_records_serving_sources(self):
        svc = PlanService(clock=ManualClock(),
                          solve_fn=lambda r: (fake_config(), 0.1))
        try:
            with observability.capture(clock=ManualClock()) as rec:
                wave = svc.wave()
                wave.add(make_request())
                wave.add(make_request())
                wave.serve()
                wave2 = svc.wave()
                wave2.add(make_request())
                wave2.serve()
            served = rec.events_named("service.served")
            assert [e.detail["source"] for e in served] == [
                "fresh", "coalesced", "cached",
            ]
        finally:
            svc.close()


def serve_one(svc, path: str, request: PlanRequest):
    """One request through the threaded (``request``) or ``wave`` path."""
    if path == "request":
        return svc.request(request)
    wave = svc.wave()
    wave.add(request)
    [response] = wave.serve()
    return response


#: Every ServiceStats field that has a ``service.*`` counter of its own.
STATS_COUNTERS = {
    "requests": "service.requests",
    "cache_hits": "service.admitted.cached",
    "fresh": "service.admitted.fresh",
    "coalesced": "service.admitted.coalesced",
    "overloaded": "service.overloaded",
    "solver_invocations": "service.solver_invocations",
    "fallback_solves": "service.fallback_solves",
    "invalidated_plans": "service.invalidated_plans",
    "delta_resolves": "service.delta_resolves",
}


class TestOnePipeline:
    """The threaded and wave front-ends run the same stages, so they
    refuse, fail and count alike."""

    @pytest.mark.parametrize("front", ["service", "cluster"])
    def test_closed_front_refuses_waves(self, front):
        def solve(request):
            return fake_config(), 0.1

        svc = (PlanService(clock=ManualClock(), solve_fn=solve)
               if front == "service" else
               ClusterService(shards=2, clock_factory=ManualClock,
                              solve_fn=solve))
        svc.close()
        wave = svc.wave()
        with pytest.raises(ServiceOverloadedError, match="closed"):
            wave.add(make_request())
        assert len(wave) == 0
        assert wave.serve() == []
        assert svc.stats.requests == 0
        assert svc.stats.solver_invocations == 0

    @pytest.mark.parametrize("path", ["request", "wave"])
    def test_one_terminal_error_per_cause(self, path):
        faults = FaultInjector(script={0: ACTION_FAIL})
        svc = PlanService(clock=ManualClock(), fallback=False, faults=faults,
                          solve_fn=lambda r: (fake_config(), 0.1))
        try:
            with pytest.raises(SolverError):
                serve_one(svc, path, make_request())
        finally:
            svc.close()
        release = threading.Event()

        def slow(request):
            if path == "request":  # real time: outlive the deadline
                assert release.wait(timeout=10)
            return fake_config(), 10.0  # simulated time: past it

        svc = PlanService(clock=ManualClock(), fallback=False, solve_fn=slow)
        try:
            with pytest.raises(DeadlineExceededError):
                serve_one(svc, path, make_request(deadline_s=0.05))
            assert svc.stats.deadline_errors == 1
        finally:
            release.set()
            svc.close()

    @pytest.mark.parametrize("path", ["request", "wave"])
    def test_one_fallback_per_key(self, path):
        """Coalesced requests past their deadline share one solver
        invocation and one undivided fallback on either path (threaded
        waiters race for it under a short switch interval)."""
        release = threading.Event()

        def stalled(request):
            if path == "request":  # real time: outlive the deadline
                assert release.wait(timeout=10)
            return fake_config(), 10.0  # simulated time: past it

        svc = PlanService(clock=ManualClock(), solve_fn=stalled)
        requests = [make_request(deadline_s=0.05) for _ in range(6)]
        switch_interval = sys.getswitchinterval()
        try:
            if path == "request":
                sys.setswitchinterval(1e-6)
                tickets = [svc.submit(request) for request in requests]
                responses = [None] * len(tickets)

                def wait(i):
                    responses[i] = svc.wait(tickets[i])

                waiters = [threading.Thread(target=wait, args=(i,))
                           for i in range(len(tickets))]
                for waiter in waiters:
                    waiter.start()
                for waiter in waiters:
                    waiter.join(timeout=10)
                    assert not waiter.is_alive()
            else:
                wave = svc.wave()
                for request in requests:
                    wave.add(request)
                responses = wave.serve()
        finally:
            sys.setswitchinterval(switch_interval)
            release.set()
            svc.close()
        assert svc.stats.solver_invocations == 1
        assert svc.stats.fallback_solves == 1
        assert svc.stats.fallbacks_timeout == len(requests)
        assert [r.source for r in responses] == ["fallback"] * len(requests)
        assert len({r.configuration for r in responses}) == 1

    def test_coalesced_waiters_each_raise_without_fallback(self):
        """With fallbacks disabled no plan is shared: every coalesced
        waiter past its deadline raises and counts its own error."""
        release = threading.Event()

        def stalled(request):
            assert release.wait(timeout=10)
            return fake_config(), 0.1

        svc = PlanService(clock=ManualClock(), fallback=False,
                          solve_fn=stalled)
        try:
            tickets = [svc.submit(make_request(deadline_s=0.05))
                       for _ in range(3)]
            for ticket in tickets:
                with pytest.raises(DeadlineExceededError):
                    svc.wait(ticket)
        finally:
            release.set()
            svc.close()
        assert svc.stats.deadline_errors == 3
        assert svc.stats.fallback_solves == 0

    @pytest.mark.parametrize("path", ["request", "wave"])
    def test_stats_equal_their_counters(self, path):
        release = threading.Event()

        def solve(request):
            assert release.wait(timeout=10)
            return fake_config(), 0.1

        # a, its coalesced twin, b (whose solve faults), and one request
        # past max_pending; served twice, so the second pass hits the store.
        stream = [make_request(kernel="a"), make_request(kernel="a"),
                  make_request(kernel="b", c=8, n=16), make_request(kernel="a")]
        svc = PlanService(clock=ManualClock(), solve_fn=solve, workers=1,
                          max_pending=3,
                          faults=FaultInjector(script={1: ACTION_FAIL}))
        with telemetry.capture() as session:
            try:
                for _ in range(2):
                    if path == "request":
                        tickets = []
                        for request in stream:
                            try:
                                tickets.append(svc.submit(request))
                            except ServiceOverloadedError:
                                pass
                        release.set()
                        for ticket in tickets:
                            svc.wait(ticket)
                    else:
                        release.set()
                        wave = svc.wave()
                        for request in stream:
                            try:
                                wave.add(request)
                            except ServiceOverloadedError:
                                pass
                        wave.serve()
            finally:
                release.set()
                svc.close()
        stats = svc.stats
        assert stats.cache_hits and stats.coalesced and stats.overloaded
        assert stats.fallback_solves
        for field, counter in STATS_COUNTERS.items():
            assert session.metrics.value(counter, 0) == getattr(stats, field), (
                field
            )

    @pytest.mark.parametrize("path", ["request", "wave"])
    def test_stale_solve_is_answered_not_stored(self, path):
        def solve(request):
            # A benchmark refresh of the kernel's family lands mid-solve.
            svc._on_bench_refresh(svc.gpu_name, request.geometry)
            return fake_config(), 0.1

        svc = PlanService(clock=ManualClock(), solve_fn=solve)
        request = make_request()
        try:
            with telemetry.capture() as session:
                response = serve_one(svc, path, request)
        finally:
            svc.close()
        assert response.source == "fresh"
        assert response.configuration == fake_config()
        assert request.key(svc.gpu_name) not in svc.store
        assert session.metrics.value("service.stale_plans_dropped") == 1


class TestPlanStore:
    def test_lru_eviction_order(self):
        store = PlanStore(capacity=2)
        store.put(make_key(1), fake_config())
        store.put(make_key(2), fake_config())
        assert store.get(make_key(1)) is not None  # refresh 1's recency
        store.put(make_key(3), fake_config())  # evicts 2, the LRU entry
        assert store.get(make_key(2)) is None
        assert store.get(make_key(1)) is not None
        assert store.get(make_key(3)) is not None
        assert store.stats.evictions == 1
        assert len(store) == 2

    def test_ttl_expires_entries_lazily(self):
        clock = ManualClock()
        store = PlanStore(ttl_s=10.0, clock=clock)
        store.put(make_key(1), fake_config())
        clock.advance(9.0)
        assert store.get(make_key(1)) is not None
        clock.advance(2.0)
        assert store.get(make_key(1)) is None
        assert store.stats.expirations == 1
        assert make_key(1) not in store

    def test_snapshot_counters(self):
        store = PlanStore(capacity=4)
        store.put(make_key(1), fake_config())
        store.get(make_key(1))
        store.get(make_key(2))
        snap = store.snapshot()
        assert snap == {"hits": 1, "misses": 1, "evictions": 0,
                        "expirations": 0, "warm_hits": 0,
                        "invalidations": 0, "size": 1, "capacity": 4}

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanStore(capacity=0)
        with pytest.raises(ValueError):
            PlanStore(ttl_s=0)

    def test_invalidate_matching_drops_and_counts(self):
        store = PlanStore()
        for i in range(4):
            store.put(make_key(i), fake_config())
        removed = store.invalidate_matching(lambda k: k.kernel in ("k1", "k3"))
        assert sorted(k.kernel for k in removed) == ["k1", "k3"]
        assert store.stats.invalidations == 2
        assert make_key(1) not in store
        assert make_key(2) in store
        # Nothing left to match: a second pass is a no-op.
        assert store.invalidate_matching(lambda k: k.kernel == "k1") == []
        assert store.stats.invalidations == 2

    def test_warm_marker_cleared_on_expiry_and_overwrite(self):
        """THR001-audit regression: warm markers must die with their entry.

        A key restored from a snapshot, then expired (or overwritten by a
        local solve), must not count later hits as ``warm_hits`` -- the
        served plan no longer comes from the snapshot.
        """
        clock = ManualClock()
        store = PlanStore(ttl_s=10.0, clock=clock)
        store.restore(make_key(1), fake_config(), stored_at=clock.now())
        clock.advance(11.0)
        assert store.get(make_key(1)) is None  # expired
        store.put(make_key(1), fake_config())
        assert store.get(make_key(1)) is not None
        assert store.stats.warm_hits == 0
        # Overwrite path: a restored key re-solved locally loses the marker.
        store.restore(make_key(2), fake_config(), stored_at=clock.now())
        store.put(make_key(2), fake_config())
        assert store.get(make_key(2)) is not None
        assert store.stats.warm_hits == 0

    def test_warm_marker_cleared_on_eviction(self):
        """The warm-key set must not leak entries past their eviction."""
        store = PlanStore(capacity=1)
        store.restore(make_key(1), fake_config(), stored_at=0.0)
        store.put(make_key(2), fake_config())  # evicts the restored key
        assert make_key(1) not in store._warm_keys
        store.restore(make_key(1), fake_config(), stored_at=0.0)
        assert store.get(make_key(1)) is not None
        assert store.stats.warm_hits == 1  # re-restored: warm again


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        a = FaultInjector(seed=3, fail_rate=0.3, stall_rate=0.3)
        b = FaultInjector(seed=3, fail_rate=0.3, stall_rate=0.3)
        assert [a.next_action() for _ in range(50)] == [
            b.next_action() for _ in range(50)
        ]

    def test_script_overrides_without_shifting_schedule(self):
        plain = FaultInjector(seed=5, fail_rate=0.5)
        scripted = FaultInjector(seed=5, fail_rate=0.5,
                                 script={1: ACTION_STALL})
        baseline = [plain.next_action() for _ in range(6)]
        observed = [scripted.next_action() for _ in range(6)]
        assert observed[1] == ACTION_STALL
        assert observed[:1] == baseline[:1]
        assert observed[2:] == baseline[2:]  # later draws unshifted

    def test_reset_replays_the_schedule(self):
        inj = FaultInjector(seed=9, fail_rate=0.4, stall_rate=0.3)
        first = [inj.next_action() for _ in range(20)]
        inj.reset()
        assert [inj.next_action() for _ in range(20)] == first
        assert inj.invocations == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(fail_rate=1.2)
        with pytest.raises(ValueError):
            FaultInjector(fail_rate=0.7, stall_rate=0.7)
        with pytest.raises(ValueError):
            FaultInjector(script={0: "explode"})


class TestSoak:
    def test_soak_guarantees_under_shared_load(self):
        report = run_soak(SoakConfig(clients=64, rounds=4, seed=1,
                                     max_pending=64))
        assert report.healthy
        assert report.dropped == 0 and report.errored == 0
        assert report.served == report.admitted == report.submitted
        # Coalescing + the plan store make the solver strictly cheaper than
        # one invocation per request.
        assert 0 < report.solver_invocations < report.submitted
        assert report.by_source.get("coalesced", 0) > 0
        assert report.by_source.get("cached", 0) > 0

    def test_soak_refuses_exactly_the_over_limit_requests(self):
        report = run_soak(SoakConfig(clients=80, rounds=2, seed=0,
                                     max_pending=64))
        assert report.overloaded == 2 * (80 - 64)
        assert report.admitted == 2 * 64
        assert report.submitted == report.admitted + report.overloaded
        assert report.healthy

    def test_soak_is_byte_deterministic_with_faults(self):
        config = SoakConfig(clients=32, rounds=3, seed=7, max_pending=64,
                            deadline_s=1.0, fail_rate=0.2, stall_rate=0.2,
                            stall_s=5.0, capacity=16, bench_capacity=32)
        assert run_soak(config).to_json() == run_soak(config).to_json()

    def test_soak_fallbacks_are_valid_undivided_plans(self):
        config = SoakConfig(clients=16, rounds=2, seed=0, max_pending=64,
                            fail_rate=1.0)  # every solve faults
        report = run_soak(config)
        assert report.healthy
        assert report.by_source == {"fallback": report.served}
        assert report.fallback_reasons == {"solver_error": report.served}

    def test_soak_unknown_network_is_rejected(self):
        with pytest.raises(ValueError):
            run_soak(SoakConfig(network="vgg19"))


class TestServiceValidation:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PlanService(max_pending=0)
        with pytest.raises(ValueError):
            PlanService(workers=0)

    def test_closed_service_refuses_submissions(self):
        svc = PlanService(clock=ManualClock(),
                          solve_fn=lambda r: (fake_config(), 0.1))
        svc.close()
        with pytest.raises(ServiceOverloadedError):
            svc.submit(make_request())

    def test_close_refuses_the_queued_solves(self):
        """A solve still queued at close() resolves its tickets with the
        closed-service error instead of leaving them blocked."""
        started, release = threading.Event(), threading.Event()

        def solve(request):
            started.set()
            assert release.wait(timeout=10)
            return fake_config(), 0.1

        svc = PlanService(solve_fn=solve, workers=1)
        try:
            running = svc.submit(make_request(kernel="a", c=3))
            assert started.wait(timeout=10)
            queued = svc.submit(make_request(kernel="b", c=4))
            coalesced = svc.submit(make_request(kernel="b", c=4))
            svc.close(wait=False)
            for ticket in (queued, coalesced):
                with pytest.raises(ServiceOverloadedError, match="closed"):
                    svc.wait(ticket)
            assert svc.pending == 1
            assert list(svc._inflight) == [running.key]
            release.set()
            assert svc.wait(running).source == "fresh"
            assert svc.pending == 0 and not svc._inflight
        finally:
            release.set()
            svc.close()

    def test_metrics_summary_shape(self):
        svc = PlanService(clock=ManualClock(),
                          solve_fn=lambda r: (fake_config(), 0.1))
        try:
            svc.request(make_request())
            summary = svc.metrics_summary()
            assert summary["service"]["requests"] == 1
            assert summary["service"]["fresh"] == 1
            assert summary["store"]["size"] == 1
            assert set(summary["bench_cache"]) == {
                "hits", "misses", "evictions",
            }
        finally:
            svc.close()

    def test_batch_size_past_the_model_range_is_a_bad_param(self):
        """A request may carry any positive n; one whose derived counts
        leave int64 fails as BadParamError instead of solving over
        wrapped, negative workspaces."""
        svc = PlanService(clock=ManualClock())
        try:
            with pytest.raises(BadParamError):
                svc.request(PlanRequest(
                    kernel="huge",
                    geometry=make_geometry(n=2**40, c=256, k=256, h=56, w=56)))
        finally:
            svc.close()


class TestBenchmarkRefresh:
    """A benchmark refresh invalidates exactly the derived plans and the
    delta solver repairs them without any full network solve."""

    @staticmethod
    def _serve(svc, geometries, limit=64 * MIB):
        requests = [
            PlanRequest(kernel=name, geometry=g, workspace_limit=limit)
            for name, g in geometries.items()
        ]
        return {r.kernel: svc.request(r) for r in requests}

    def test_refresh_invalidates_and_delta_resolves(self):
        geometries = {
            "a": make_geometry(c=3, n=4),
            "b": make_geometry(c=8, n=4),
        }
        svc = PlanService()
        try:
            served = self._serve(svc, geometries)
            target = geometries["a"]
            rows = svc.bench_cache.get_benchmark(svc.gpu_name, target)
            assert rows
            import dataclasses
            mutated = [dataclasses.replace(r, time=r.time * 2.0)
                       for r in rows]
            assert svc.refresh_benchmark(target, mutated) == 1
            assert svc.stats.invalidated_plans == 1
            assert svc.stats.delta_resolves == 1
            assert svc.store.stats.invalidations == 1
            # The untouched kernel's plan survived; the refreshed one was
            # re-solved in place, so the next request is a store hit.
            before = svc.stats.solver_invocations
            reserved = self._serve(svc, geometries)
            assert {r.source for r in reserved.values()} == {"cached"}
            assert svc.stats.solver_invocations == before
            assert reserved["b"].configuration == served["b"].configuration
        finally:
            svc.close()

    def test_identical_rows_are_a_noop(self):
        g = make_geometry(c=3, n=4)
        svc = PlanService()
        try:
            self._serve(svc, {"a": g})
            rows = svc.bench_cache.get_benchmark(svc.gpu_name, g)
            assert svc.refresh_benchmark(g, list(rows)) == 0
            assert svc.stats.invalidated_plans == 0
            assert svc.stats.delta_resolves == 0
        finally:
            svc.close()

    def test_other_gpu_refresh_is_ignored(self):
        g = make_geometry(c=3, n=4)
        svc = PlanService()
        try:
            self._serve(svc, {"a": g})
            rows = svc.bench_cache.get_benchmark(svc.gpu_name, g)
            import dataclasses
            mutated = [dataclasses.replace(r, time=r.time * 2.0)
                       for r in rows]
            # Same shared cache, different GPU name: first put inserts
            # (no listener), second changes rows but targets another GPU.
            svc.bench_cache.put_benchmark("other-gpu", g, list(rows))
            svc.bench_cache.put_benchmark("other-gpu", g, mutated)
            assert svc.stats.invalidated_plans == 0
            assert len(svc.store) == 1
        finally:
            svc.close()
