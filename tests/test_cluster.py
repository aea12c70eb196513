"""Tests for the sharded cluster service (``src/repro/cluster``).

Covers the ISSUE's acceptance criteria directly: placement is stable and
snapshot-able (the shard-map document round-trips and rejects hand-edits),
plans are byte-identical to a single-shard service's for the same key,
work stealing fires exactly at the watermark and respects thief headroom,
a mixed-device soak is byte-deterministic with zero drops, per-shard
counters appear as labeled Prometheus series, and a merged cluster
snapshot warm-starts a fresh cluster with zero solver invocations.  The
threaded path runs every shard's solves on one shared pool, in submission
order, without breaking any shard's deadline ladder.
"""

import dataclasses
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro.telemetry as telemetry
from repro.cluster import ClusterService, ShardMap, stable_shard_hash
from repro.cluster.shardmap import SHARD_MAP_KIND, SHARD_MAP_SCHEMA_VERSION
from repro.core.config import Configuration, MicroConfig
from repro.cudnn.enums import FwdAlgo
from repro.errors import ClusterError, ServiceOverloadedError
from repro.persistence import (
    load_snapshot,
    save_snapshot,
    snapshot_service,
    validate_snapshot,
    warm_start,
)
from repro.persistence.snapshot import plans_of
from repro.service import PlanRequest, PlanService, PlanTicket
from repro.service.soak import SoakConfig, run_soak
from repro.telemetry.clock import ManualClock
from repro.telemetry.exporters import prometheus_text
from repro.units import MIB
from tests.conftest import make_geometry

DEVICES = ("p100-sxm2", "v100-sxm2")


def fake_config(micro: int = 4) -> Configuration:
    return Configuration((MicroConfig(micro, FwdAlgo.IMPLICIT_GEMM, 0.001, 0),))


def fake_solve(request):
    return fake_config(), 0.25


def make_request(kernel: str = "conv", c: int = 3, **kw) -> PlanRequest:
    return PlanRequest(kernel=kernel, geometry=make_geometry(c=c),
                       workspace_limit=64 * MIB, **kw)


def make_cluster(devices=("p100-sxm2",), shards=2, **kw):
    kw.setdefault("clock_factory", ManualClock)
    kw.setdefault("solve_fn", fake_solve)
    return ClusterService(devices, shards, **kw)


def serve_wave(cluster, requests):
    wave = cluster.wave()
    for request in requests:
        wave.add(request)
    return wave.serve()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**64)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _shard_map_document(draw):
    """A shard map with at most one field replaced by any JSON or removed."""
    devices = draw(st.lists(st.sampled_from(DEVICES) | st.text(max_size=4),
                            max_size=3))
    shards = draw(st.integers(-1, 5))
    document = {"kind": SHARD_MAP_KIND,
                "schema_version": SHARD_MAP_SCHEMA_VERSION,
                "devices": devices, "shards": shards}
    try:
        document["assignments"] = ShardMap(devices, shards).to_dict()[
            "assignments"]
    except ValueError:
        pass  # no map covers these devices: assignments stay absent
    field = draw(st.sampled_from([None, *document]))
    if field is not None:
        if draw(st.booleans()):
            del document[field]
        else:
            document[field] = draw(_JSON | st.just(3_000_000)
                                   | st.integers(-2**70, 2**70))
    return document


class TestShardMap:
    def test_round_robin_striping(self):
        m = ShardMap(DEVICES, 4)
        assert m.shard_devices == {
            "shard-0": "p100-sxm2", "shard-1": "v100-sxm2",
            "shard-2": "p100-sxm2", "shard-3": "v100-sxm2",
        }
        assert m.device_shards == {
            "p100-sxm2": ["shard-0", "shard-2"],
            "v100-sxm2": ["shard-1", "shard-3"],
        }
        assert m.primary_device == "p100-sxm2"

    def test_stable_hash_is_process_independent(self):
        # sha256("p100-sxm2|conv1")[:8] as a big-endian integer -- a golden
        # value: placement must survive PYTHONHASHSEED and interpreter
        # upgrades, or warm-started shards would see foreign keys.
        assert stable_shard_hash("p100-sxm2", "conv1") == 0x02635CA072CE9DCA

    def test_placement_is_device_confined(self):
        m = ShardMap(DEVICES, 4)
        for kernel in ("conv1", "conv2", "fc6", "anything at all"):
            for device in DEVICES:
                home = m.shard_for(device, kernel)
                assert home in m.device_shards[device]

    def test_two_maps_agree(self):
        a, b = ShardMap(DEVICES, 4), ShardMap(DEVICES, 4)
        for kernel in ("conv1", "conv2", "conv3"):
            assert a.shard_for("v100-sxm2", kernel) == \
                b.shard_for("v100-sxm2", kernel)

    def test_unknown_device_and_shard_are_typed(self):
        m = ShardMap(DEVICES, 2)
        with pytest.raises(ClusterError, match="no shard serves"):
            m.shard_for("k80", "conv1")
        with pytest.raises(ClusterError, match="unknown shard"):
            m.device_of("shard-9")

    def test_too_few_shards_rejected(self):
        with pytest.raises(ValueError, match="cannot cover"):
            ShardMap(DEVICES, 1)
        with pytest.raises(ValueError, match="at least one device"):
            ShardMap((), 0)

    def test_document_round_trip(self):
        m = ShardMap(DEVICES, 4)
        rebuilt = ShardMap.from_dict(m.to_dict())
        for kernel in ("conv1", "fc6"):
            assert rebuilt.shard_for("p100-sxm2", kernel) == \
                m.shard_for("p100-sxm2", kernel)
        assert m.to_json().endswith("\n")
        assert m.to_dict()["kind"] == SHARD_MAP_KIND
        assert m.to_dict()["schema_version"] == SHARD_MAP_SCHEMA_VERSION

    def test_document_damage_is_typed(self):
        document = ShardMap(DEVICES, 4).to_dict()
        with pytest.raises(ClusterError, match="must be an object"):
            ShardMap.from_dict([document])
        with pytest.raises(ClusterError, match="not a shard map"):
            ShardMap.from_dict({**document, "kind": "something-else"})
        with pytest.raises(ClusterError, match="schema version"):
            ShardMap.from_dict({**document, "schema_version": 99})
        with pytest.raises(ClusterError, match="string list"):
            ShardMap.from_dict({**document, "devices": "p100-sxm2"})
        with pytest.raises(ClusterError, match="must be an integer"):
            ShardMap.from_dict({**document, "shards": True})
        with pytest.raises(ClusterError, match="inconsistent"):
            ShardMap.from_dict({**document, "shards": 1,
                                "assignments": None})

    def test_hand_edited_assignments_rejected(self):
        document = ShardMap(DEVICES, 4).to_dict()
        document["assignments"]["shard-0"] = "v100-sxm2"
        with pytest.raises(ClusterError, match="hand-editing"):
            ShardMap.from_dict(document)

    def test_shard_count_is_bounded_by_the_document(self):
        """A map builds no more shards than the document assigns: a bare
        count costs nothing and decodes to a ClusterError."""
        document = ShardMap(DEVICES, 2).to_dict()
        for shards in (3_000_000, 10**18):
            for assignments in (None, document["assignments"]):
                damaged = {**document, "shards": shards,
                           "assignments": assignments}
                started = time.perf_counter()
                with pytest.raises(ClusterError, match="assignments"):
                    ShardMap.from_dict(damaged)
                assert time.perf_counter() - started < 0.5

    @settings(max_examples=300, deadline=None)
    @given(document=_shard_map_document() | _JSON)
    def test_any_json_decodes_or_raises_cluster_error(self, document):
        try:
            built = ShardMap.from_dict(document)
        except ClusterError:
            return
        again = built.to_dict()
        for field in ("kind", "schema_version", "devices", "shards",
                      "assignments"):
            assert again[field] == document[field]
        assert ShardMap.from_dict(again).to_dict() == again


class TestRouting:
    def test_shard_hint_pins(self):
        with make_cluster(shards=2) as cluster:
            assert cluster.route(make_request(shard="shard-1")) == "shard-1"

    def test_device_hint_routes_within_its_group(self):
        with make_cluster(DEVICES, 4) as cluster:
            sid = cluster.route(make_request(shard="v100-sxm2"))
            assert sid in cluster.map.device_shards["v100-sxm2"]

    def test_no_hint_routes_by_primary_device(self):
        with make_cluster(DEVICES, 4) as cluster:
            sid = cluster.route(make_request())
            assert sid in cluster.map.device_shards["p100-sxm2"]

    def test_bad_hints_are_typed(self):
        with make_cluster(shards=2) as cluster:
            with pytest.raises(ClusterError):
                cluster.route(make_request(shard="shard-7"))
            with pytest.raises(ClusterError):
                cluster.route(make_request(shard="k80"))

    def test_negative_watermark_rejected(self):
        with pytest.raises(ValueError, match="steal_watermark"):
            ClusterService(("p100-sxm2",), 1, steal_watermark=-1)


class TestPlanIdentity:
    def test_cluster_plan_identical_to_single_service(self):
        """Sharding changes where a key is solved, never what the answer is."""
        request = make_request(kernel="conv1")
        with ClusterService(("p100-sxm2",), 2,
                            clock_factory=ManualClock) as cluster:
            clustered = cluster.request(request)
        with PlanService("p100-sxm2", clock=ManualClock()) as single:
            solo = single.request(request)
        assert clustered.configuration == solo.configuration
        assert clustered.source == solo.source == "fresh"


class TestWorkStealing:
    def test_overflow_is_stolen_past_the_watermark(self):
        with make_cluster(shards=2, steal_watermark=2) as cluster:
            responses = serve_wave(cluster, [
                make_request(kernel=f"k{i}", c=3 + i, shard="shard-0")
                for i in range(3)
            ])
            assert [r.shard for r in responses] == \
                ["shard-0", "shard-0", "shard-1"]
            cluster_view = cluster.metrics_summary()["cluster"]
            assert cluster_view["steals"] == 1
            assert cluster_view["steals_by_shard"] == {"shard-0": 0,
                                                       "shard-1": 1}
            # The stolen fresh plan was copied back to its hash home, so
            # the key's next wave hits at home.
            stolen_key = make_request(kernel="k2", c=5).key("p100-sxm2")
            assert stolen_key in cluster.shard("shard-0").store
            assert stolen_key in cluster.shard("shard-1").store

    def test_no_steal_at_or_below_the_watermark(self):
        with make_cluster(shards=2, steal_watermark=2) as cluster:
            responses = serve_wave(cluster, [
                make_request(kernel=f"k{i}", c=3 + i, shard="shard-0")
                for i in range(2)
            ])
            assert {r.shard for r in responses} == {"shard-0"}
            assert cluster.metrics_summary()["cluster"]["steals"] == 0

    def test_watermark_zero_disables_stealing(self):
        with make_cluster(shards=2, steal_watermark=0) as cluster:
            responses = serve_wave(cluster, [
                make_request(kernel=f"k{i}", c=3 + i, shard="shard-0")
                for i in range(5)
            ])
            assert {r.shard for r in responses} == {"shard-0"}
            assert cluster.metrics_summary()["cluster"]["steals"] == 0

    def test_stealing_never_crosses_devices(self):
        with make_cluster(DEVICES, 2, steal_watermark=1) as cluster:
            # shard-0 (p100) drowns; shard-1 (v100) idles.  Its plans would
            # be wrong for p100 keys, so everything stays home.
            responses = serve_wave(cluster, [
                make_request(kernel=f"k{i}", c=3 + i, shard="shard-0")
                for i in range(4)
            ])
            assert {r.shard for r in responses} == {"shard-0"}
            assert cluster.metrics_summary()["cluster"]["steals"] == 0

    def test_steal_respects_thief_headroom(self):
        with make_cluster(shards=2, steal_watermark=2,
                          max_pending=5) as cluster:
            # shard-0: three groups, the overflow one carrying 3 requests;
            # shard-1: one group of 3, leaving headroom 2 < 3 -- the steal
            # must return home rather than blow the thief's admission limit.
            requests = (
                [make_request(kernel="k0", c=3, shard="shard-0"),
                 make_request(kernel="k1", c=4, shard="shard-0")]
                + [make_request(kernel="k2", c=5, shard="shard-0")] * 3
                + [make_request(kernel="k9", c=6, shard="shard-1")] * 3
            )
            responses = serve_wave(cluster, requests)
            assert len(responses) == len(requests)
            assert [r.shard for r in responses] == \
                ["shard-0"] * 5 + ["shard-1"] * 3
            assert cluster.metrics_summary()["cluster"]["steals"] == 0

    def test_zero_drop_and_arrival_order(self):
        with make_cluster(DEVICES, 4, steal_watermark=1) as cluster:
            requests = [
                make_request(kernel=f"k{i}", c=3 + i, shard=DEVICES[i % 2])
                for i in range(10)
            ]
            responses = serve_wave(cluster, requests)
            assert len(responses) == len(requests)
            assert [r.kernel for r in responses] == \
                [r.kernel for r in requests]

    def test_wave_serves_once(self):
        with make_cluster() as cluster:
            wave = cluster.wave()
            wave.add(make_request())
            wave.serve()
            with pytest.raises(ServiceOverloadedError, match="already served"):
                wave.serve()


class TestFacade:
    def test_submit_wait_stamps_the_shard(self):
        with make_cluster(shards=2) as cluster:
            ticket = cluster.submit(make_request(kernel="conv1"))
            assert isinstance(ticket, PlanTicket)
            response = cluster.wait(ticket)
            assert response.shard == ticket.shard
            assert response.configuration == fake_config()

    def test_request_blocking_path(self):
        with make_cluster(shards=2) as cluster:
            response = cluster.request(make_request(kernel="conv1"))
            assert response.shard == cluster.route(make_request(kernel="conv1"))

    def test_store_view_spans_all_shards(self):
        with make_cluster(shards=2, capacity=8) as cluster:
            serve_wave(cluster, [
                make_request(kernel=f"k{i}", c=3 + i, shard=f"shard-{i % 2}")
                for i in range(4)
            ])
            assert len(cluster.store) == 4
            key = make_request(kernel="k0", c=3).key("p100-sxm2")
            assert key in cluster.store
            snapshot = cluster.store.snapshot()
            assert snapshot["size"] == 4
            assert snapshot["capacity"] == 16  # summed over bounded shards

    def test_store_view_unbounded_capacity(self):
        with make_cluster(shards=2, capacity=None) as cluster:
            assert cluster.store.snapshot()["capacity"] == -1

    def test_stats_sum_over_shards(self):
        with make_cluster(shards=2) as cluster:
            serve_wave(cluster, [
                make_request(kernel=f"k{i}", c=3 + i, shard=f"shard-{i % 2}")
                for i in range(4)
            ])
            assert cluster.stats.solver_invocations == sum(
                shard.stats.solver_invocations for shard in cluster.shards()
            ) == 4

    def test_metrics_summary_keeps_single_service_shape(self):
        with make_cluster(DEVICES, 4) as cluster:
            serve_wave(cluster, [make_request(kernel="k0")])
            summary = cluster.metrics_summary()
            # The admin surface reads these exact keys off one service.
            assert {"gpu", "max_pending", "service", "store", "delta",
                    "bench_cache"} <= set(summary)
            assert set(summary["by_shard"]) == set(cluster.shard_ids)
            assert summary["cluster"]["devices"] == list(DEVICES)

    def test_close_closes_every_shard(self):
        cluster = make_cluster(shards=2)
        assert not cluster.closed
        cluster.close()
        assert cluster.closed
        assert all(shard.closed for shard in cluster.shards())


class SolveSpy:
    """A ``solve_fn`` that records which thread ran each solve, in order.

    A solve whose kernel is in ``held`` waits for ``release`` first.
    """

    def __init__(self, held=()):
        self.held = set(held)
        self.release = threading.Event()
        self.lock = threading.Lock()
        self.calls = []
        self.threads = []

    def __call__(self, request):
        with self.lock:
            self.calls.append(request.kernel)
            self.threads.append(threading.current_thread())
        if request.kernel in self.held:
            assert self.release.wait(timeout=10)
        return fake_config(), 0.25

    def started(self, count, timeout=5.0):
        """Wait until ``count`` solves have started."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if len(self.calls) >= count:
                    return True
            time.sleep(0.005)
        return False


def device_request(index: int, **kw) -> PlanRequest:
    """The ``index``-th distinct key, alternating shard-0 and shard-1."""
    return make_request(kernel=f"k{index}", c=3 + index,
                        shard=DEVICES[index % 2], **kw)


class TestSolverPool:
    """Every shard's threaded solves share one pool of ``workers``."""

    def test_one_worker_solves_every_shard_in_submission_order(self):
        spy = SolveSpy(held={"k0"})
        cluster = ClusterService(DEVICES, 2, workers=1, solve_fn=spy)
        try:
            tickets = [cluster.submit(device_request(i)) for i in range(6)]
            assert {t.shard for t in tickets} == {"shard-0", "shard-1"}
            spy.release.set()
            responses = [cluster.wait(t) for t in tickets]
        finally:
            spy.release.set()
            cluster.close()
        assert [r.shard for r in responses] == [t.shard for t in tickets]
        assert spy.calls == [f"k{i}" for i in range(6)]
        assert len(set(spy.threads)) == 1

    def test_two_workers_run_at_most_two_solves(self):
        spy = SolveSpy(held={f"k{i}" for i in range(6)})
        cluster = ClusterService(DEVICES, 2, workers=2, solve_fn=spy)
        try:
            tickets = [cluster.submit(device_request(i)) for i in range(6)]
            assert spy.started(2)
            time.sleep(0.1)  # room for a third thread, if there were one
            with spy.lock:
                assert len(spy.calls) == 2
            spy.release.set()
            for ticket in tickets:
                cluster.wait(ticket)
        finally:
            spy.release.set()
            cluster.close()
        assert len(spy.calls) == 6
        assert len(set(spy.threads)) <= 2

    def test_close_stops_every_solver_thread(self):
        spy = SolveSpy()
        cluster = ClusterService(DEVICES, 2, workers=2, solve_fn=spy)
        for i in range(4):
            cluster.request(device_request(i))
        cluster.close()
        assert spy.threads
        assert all(t.name.startswith("plan-service") for t in spy.threads)
        assert not any(t.is_alive() for t in spy.threads)

    def test_deadline_holds_behind_another_shards_stall(self):
        """A shard-1 request queued behind a stalled shard-0 solve still
        degrades on its own deadline: shard-1's solver lock is free, so its
        undivided fallback does not wait for the pool."""
        spy = SolveSpy(held={"k0"})
        cluster = ClusterService(DEVICES, 2, workers=1, solve_fn=spy)
        try:
            stalled = cluster.submit(device_request(0))
            assert spy.started(1)
            # A first fallback at another limit warms shard-1's undivided
            # rows, so the timed request measures the wait, not a Find.
            request = device_request(1, deadline_s=0.05)
            warm = cluster.request(
                dataclasses.replace(request, workspace_limit=32 * MIB))
            assert warm.source == "fallback"
            started = time.perf_counter()
            response = cluster.request(request)
            elapsed = time.perf_counter() - started
            assert response.shard == "shard-1"
            assert response.source == "fallback"
            assert response.fallback_reason == "timeout"
            assert elapsed < 0.05 + 0.5
            assert not spy.release.is_set()  # shard-0 was stalled throughout
            spy.release.set()
            assert cluster.wait(stalled).source == "fresh"
        finally:
            spy.release.set()
            cluster.close()

    def test_closing_a_shard_refuses_only_its_own_queued_solves(self):
        spy = SolveSpy(held={"k0"})
        cluster = ClusterService(DEVICES, 2, workers=1, solve_fn=spy)
        try:
            running = cluster.submit(device_request(0))
            assert spy.started(1)
            queued = [cluster.submit(device_request(i)) for i in (1, 2, 3)]
            shard1 = cluster.shard("shard-1")
            shard1.close(wait=False)
            for ticket in queued:
                if ticket.shard == "shard-1":
                    with pytest.raises(ServiceOverloadedError,
                                       match="closed"):
                        cluster.wait(ticket)
            assert shard1.pending == 0
            assert not shard1._inflight
            spy.release.set()
            assert cluster.wait(running).source == "fresh"
            assert cluster.wait(queued[1]).source == "fresh"  # k2, shard-0
            assert spy.calls == ["k0", "k2"]
        finally:
            spy.release.set()
            cluster.close()
        assert cluster.shard("shard-0").pending == 0

    def test_stress_submit_wait_and_close(self):
        """More solver threads than cores, clients on every shard, a close
        mid-traffic: every admitted ticket resolves, the counters agree
        with the spy, and no shard keeps a queue slot or an in-flight key."""
        spy = SolveSpy()
        cluster = ClusterService(DEVICES, 4, workers=4, solve_fn=spy)
        outcomes = []

        def client(offset):
            for i in range(40):
                try:
                    ticket = cluster.submit(device_request((i + offset) % 24))
                except ServiceOverloadedError:
                    outcomes.append("refused")
                    continue
                try:
                    outcomes.append(cluster.wait(ticket).source)
                except ServiceOverloadedError:
                    outcomes.append("closed")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client, args=(offset,))
                       for offset in range(0, 24, 4)]
            for thread in clients:
                thread.start()
            assert spy.started(8)
            cluster.close()
            for thread in clients:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert len(outcomes) == 6 * 40
        stats = cluster.stats
        assert stats.requests == len(outcomes) - outcomes.count("refused")
        assert stats.solver_invocations == len(spy.calls)
        for shard in cluster.shards():
            assert shard.pending == 0
            assert not shard._inflight


class TestClusterTelemetry:
    def test_per_shard_labeled_prometheus_series(self):
        with telemetry.capture() as session:
            with make_cluster(shards=2) as cluster:
                serve_wave(cluster, [
                    make_request(kernel=f"k{i}", shard=f"shard-{i % 2}")
                    for i in range(4)
                ])
                serve_wave(cluster, [  # second wave: plan hits at home
                    make_request(kernel="k0", c=3, shard="shard-0")
                ])
            text = prometheus_text(session.metrics)
        for sid in ("shard-0", "shard-1"):
            assert f'repro_cluster_shard_routed_total{{shard="{sid}"}}' in text
            assert f'repro_cluster_shard_solves_total{{shard="{sid}"}}' in text
            assert (f'repro_cluster_shard_plan_hits_total{{shard="{sid}"}}'
                    in text)
        assert 'repro_cluster_shard_plan_hits_total{shard="shard-0"} 1' in text


class TestClusterPersistence:
    def test_snapshot_warm_start_round_trip(self, tmp_path):
        requests = [
            make_request(kernel=f"k{i}", c=3 + i, shard=DEVICES[i % 2])
            for i in range(6)
        ]
        with make_cluster(DEVICES, 4) as cold:
            cold_answers = serve_wave(cold, requests)
            document = snapshot_service(cold)
        validate_snapshot(document, "test")
        assert document["meta"]["cluster"] == {
            "devices": list(DEVICES), "shards": 4,
        }
        path = tmp_path / "cluster.json"
        save_snapshot(path, document)
        with make_cluster(DEVICES, 4) as warm:
            restored = warm_start(warm, load_snapshot(path))
            assert restored == 6
            warm_answers = serve_wave(warm, requests)
            assert warm.stats.solver_invocations == 0
            assert all(r.source == "cached" for r in warm_answers)
            assert [r.configuration for r in warm_answers] == \
                [r.configuration for r in cold_answers]

    def test_warm_start_routes_plans_to_their_home_shards(self):
        with make_cluster(DEVICES, 4) as cold:
            serve_wave(cold, [
                make_request(kernel=f"k{i}", c=3 + i, shard=DEVICES[i % 2])
                for i in range(6)
            ])
            document = snapshot_service(cold)
        with make_cluster(DEVICES, 4) as warm:
            warm_start(warm, document)
            for key, _configuration, _stored_at in plans_of(document):
                home = warm.map.shard_for(key.gpu, key.kernel)
                assert key in warm.shard(home).store

    def test_warm_start_skips_foreign_devices(self):
        with make_cluster(DEVICES, 4) as cold:
            serve_wave(cold, [
                make_request(kernel=f"k{i}", c=3 + i, shard=DEVICES[i % 2])
                for i in range(6)
            ])
            document = snapshot_service(cold)
        with make_cluster(("p100-sxm2",), 2) as narrow:
            restored = warm_start(narrow, document)
            assert restored == 3  # only the p100 half of the keys
            assert len(narrow.store) == 3


class TestClusterSoak:
    CONFIG = dict(clients=12, rounds=2, shards=4, devices=DEVICES,
                  steal_watermark=2, tenant_mix="train:2,infer:1",
                  fail_rate=0.05)

    def test_mixed_device_soak_is_byte_deterministic(self):
        a = run_soak(SoakConfig(**self.CONFIG))
        b = run_soak(SoakConfig(**self.CONFIG))
        assert a.to_json() == b.to_json()
        assert a.healthy and a.dropped == 0
        assert a.served == a.admitted
        # Every serving shard and tenant shows up in the breakdowns.
        assert set(a.by_shard) <= {f"shard-{i}" for i in range(4)}
        assert sum(a.by_shard.values()) == a.served
        assert set(a.by_tenant) == {"train", "infer"}
        assert sum(a.by_tenant.values()) == a.served
        report = a.as_dict()
        assert report["config"]["shards"] == 4
        assert report["config"]["tenant_mix"] == "train:2,infer:1"

    def test_default_soak_report_has_no_cluster_keys(self):
        report = run_soak(SoakConfig(clients=4, rounds=1))
        document = report.as_dict()
        assert "by_shard" not in document
        assert "by_tenant" not in document
        for key in ("shards", "devices", "steal_watermark", "tenant_mix"):
            assert key not in document["config"]
