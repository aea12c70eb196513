"""Sharded multi-device plan-service cluster.

N per-device :class:`~repro.service.PlanService` shards behind one router:
deterministic key placement (:mod:`~repro.cluster.shardmap`), device-aware
load scheduling with cross-shard work stealing
(:mod:`~repro.cluster.scheduler`), and a facade
(:class:`~repro.cluster.service.ClusterService`) that keeps the
single-service ``submit``/ticket contract so the wire server, persistence
warm-start, tracing, and the soak driver compose unchanged.
"""

from repro.cluster.scheduler import (
    BENCH_WARM_COST,
    COLD_COST,
    Placement,
    SolveGroup,
    estimate_cost,
    place_wave,
)
from repro.cluster.service import ClusterService, ClusterStoreView
from repro.cluster.shardmap import (
    SHARD_MAP_KIND,
    SHARD_MAP_SCHEMA_VERSION,
    ShardMap,
    stable_shard_hash,
)

__all__ = [
    "BENCH_WARM_COST",
    "COLD_COST",
    "ClusterService",
    "ClusterStoreView",
    "Placement",
    "SHARD_MAP_KIND",
    "SHARD_MAP_SCHEMA_VERSION",
    "ShardMap",
    "SolveGroup",
    "estimate_cost",
    "place_wave",
    "stable_shard_hash",
]
