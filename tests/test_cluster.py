"""Tests for the sharded cluster service (``src/repro/cluster``).

Covers the ISSUE's acceptance criteria directly: placement is stable and
snapshot-able (the shard-map document round-trips and rejects hand-edits),
plans are byte-identical to a single-shard service's for the same key,
work stealing fires exactly at the watermark and respects thief headroom,
a mixed-device soak is byte-deterministic with zero drops, per-shard
counters appear as labeled Prometheus series, and a merged cluster
snapshot warm-starts a fresh cluster with zero solver invocations.
"""

import pytest

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
