"""``ClusterService`` -- N plan-service shards behind one router.

The paper's serving story assumes one :class:`~repro.service.PlanService`
per homogeneous device class.  Real training fleets are neither single-GPU
nor single-tenant: one node carries several device models, and the request
stream for a hot model dwarfs a cold one.  This module shards the service
*without changing its contract*:

* placement is the :class:`~repro.cluster.shardmap.ShardMap` -- stable
  hashing of ``(device, kernel)`` keys over the shards of the key's own
  device group, snapshot-able as an explicit document;
* scheduling is :mod:`repro.cluster.scheduler` -- per-wave queue depths,
  bench-cache-locality cost estimates, and LPT work stealing among
  same-device shards once a shard passes the steal watermark;
* the facade quacks like a single ``PlanService``: ``wave()`` / ``submit``
  / ``wait`` / ``request`` / ``metrics_summary`` / ``store`` /
  ``request_log`` all exist with the same shapes, so the wire server, the
  admin surface, persistence warm-start, and the soak driver compose with
  a cluster exactly as they do with one shard.

Determinism: shards are served in shard-index order, stealing is a pure
function of the wave (see the scheduler module), each shard runs its own
manual clock which is synced to the cluster-wide maximum after every wave,
and a shared fault injector is drained in that same serving order -- so a
soak over a cluster is as byte-reproducible as over one service.

Locking: the cluster's own lock (level ``"cluster"``) guards only the
router's counters and is *never* held across a shard call -- every
``service``-level acquisition happens with the cluster lock released, so
the runtime lock graph gains no ``cluster -> service`` edge beyond the one
the static model declares.
"""

from __future__ import annotations

from collections import Counter

import repro.telemetry as telemetry
from repro.cluster.scheduler import SolveGroup, estimate_cost, place_wave
from repro.cluster.shardmap import ShardMap
from repro.core.cache import BenchmarkCache
from repro.persistence.snapshot import (
    canonical_gpu,
    plans_of,
    snapshot_store,
    validate_snapshot,
)
from repro.persistence.merge import merge_snapshots
from repro.service.faults import FaultInjector
from repro.service.introspection import RequestLog
from repro.service.plan_service import (
    PlanService,
    PlanTicket,
    PlanWave,
    SlowLogFn,
    SolveFn,
)
from repro.service.requests import PlanKey, PlanRequest, PlanResponse, ServiceStats
from repro.telemetry.clock import Clock
from repro.telemetry.locks import new_lock


class ClusterStoreView:
    """Read-only aggregate of every shard's plan store.

    Exists so admin surfaces written against ``service.store`` (``/readyz``
    capacity math, ``/metrics`` store counters) work unchanged against a
    cluster: ``snapshot()`` sums the per-shard counters, ``__len__`` and
    ``__contains__`` span all shards.
    """

    def __init__(self, cluster: "ClusterService") -> None:
        self._cluster = cluster

    def __len__(self) -> int:
        return sum(len(shard.store) for shard in self._cluster.shards())

    def __contains__(self, key: PlanKey) -> bool:
        return any(key in shard.store for shard in self._cluster.shards())

    def snapshot(self) -> dict[str, int]:
        """Summed per-shard store counters (shape of ``PlanStore.snapshot``)."""
        totals: dict[str, int] = {}
        unbounded = False
        for shard in self._cluster.shards():
            snap = shard.store.snapshot()
            if snap.pop("capacity") == -1:
                unbounded = True
            for name, value in snap.items():
                totals[name] = totals.get(name, 0) + value
        totals["capacity"] = -1 if unbounded else sum(
            shard.store.capacity or 0 for shard in self._cluster.shards()
        )
        return totals


class ClusterService:
    """Sharded, device-aware plan-compilation cluster.

    Parameters
    ----------
    devices:
        GPU model per device slot (see :class:`ShardMap`); the first is the
        cluster's *primary* device -- the one unhinted requests route by,
        and the identity the wire ``ping`` reports.
    shards:
        Shard count; striped round-robin over ``devices``.
    steal_watermark:
        Solve-group queue depth past which a shard sheds overflow to
        same-device siblings; ``0`` (default) disables stealing.
    clock_factory:
        Called once per shard for its clock; pass
        :class:`~repro.telemetry.clock.ManualClock` for deterministic waves.
        ``None`` gives every shard the ``PlanService`` default wall clock.
    faults:
        One injector *shared* by all shards, drawn in serving order.
    bench_capacity:
        LRU bound of each shard's own benchmark cache (``None`` unbounded).
    capacity / ttl_s / max_pending / workers / fallback / solve_fn /
    request_log / slow_request_s / slow_log:
        Forwarded to every shard's :class:`~repro.service.PlanService`.
    """

    def __init__(
        self,
        devices: "tuple[str, ...] | list[str]" = ("p100-sxm2",),
        shards: int = 1,
        *,
        steal_watermark: int = 0,
        capacity: int | None = 256,
        ttl_s: float | None = None,
        max_pending: int = 64,
        workers: int = 2,
        fallback: bool = True,
        clock_factory: "type[Clock] | None" = None,
        faults: FaultInjector | None = None,
        bench_capacity: int | None = None,
        solve_fn: SolveFn | None = None,
        request_log: RequestLog | None = None,
        slow_request_s: float | None = None,
        slow_log: SlowLogFn | None = None,
    ) -> None:
        if steal_watermark < 0:
            raise ValueError(
                f"steal_watermark must be >= 0, got {steal_watermark}"
            )
        self.map = ShardMap(devices, shards)
        self.steal_watermark = steal_watermark
        self.max_pending = max_pending
        self.request_log = request_log
        #: Shard ids in index order (``sorted()`` would misorder past 10).
        self.shard_ids: list[str] = [
            ShardMap.shard_id(index) for index in range(shards)
        ]
        self._shards: dict[str, PlanService] = {}
        for sid in self.shard_ids:
            self._shards[sid] = PlanService(
                self.map.shard_devices[sid],
                capacity=capacity,
                ttl_s=ttl_s,
                max_pending=max_pending,
                workers=workers,
                fallback=fallback,
                clock=clock_factory() if clock_factory is not None else None,
                faults=faults,
                bench_cache=BenchmarkCache(capacity=bench_capacity),
                solve_fn=solve_fn,
                request_log=request_log,
                slow_request_s=slow_request_s,
                slow_log=slow_log,
                shard_id=sid,
            )
        #: Guards the router's counters below -- and nothing else.  Never
        #: held across a shard call (see module docstring).
        self._lock = new_lock("cluster")
        self._routed: dict[str, int] = {sid: 0 for sid in self.shard_ids}
        self._steals: dict[str, int] = {sid: 0 for sid in self.shard_ids}
        self._steals_total = 0
        self._queue_depth: dict[str, int] = {sid: 0 for sid in self.shard_ids}
        #: Last values published to the labeled Prometheus counters, per
        #: shard -- the registry is cumulative, so the cluster exports
        #: deltas after each wave.
        self._exported: dict[str, dict[str, float]] = {
            sid: {} for sid in self.shard_ids
        }
        self.store = ClusterStoreView(self)

    # -- topology --------------------------------------------------------------

    def shards(self) -> "list[PlanService]":
        """The shard services, in shard-index order."""
        return [self._shards[sid] for sid in self.shard_ids]

    def shard(self, sid: str) -> PlanService:
        """One shard by id; unknown ids raise ``ClusterError`` via the map."""
        self.map.device_of(sid)
        return self._shards[sid]

    @property
    def gpu_name(self) -> str:
        """The primary device (the cluster's identity for ``ping``)."""
        return self.map.primary_device

    @property
    def clock(self) -> Clock:
        """Shard-0's clock; all shard clocks agree after every wave."""
        return self._shards[self.shard_ids[0]].clock

    @property
    def stats(self) -> ServiceStats:
        """Cluster-wide counters: the field-wise sum over all shards."""
        totals: Counter[str] = Counter()
        for shard in self.shards():
            totals.update(shard.stats.as_dict())
        return ServiceStats(**totals)

    @property
    def closed(self) -> bool:
        return all(shard.closed for shard in self.shards())

    def close(self, wait: bool = True) -> None:
        for shard in self.shards():
            shard.close(wait=wait)

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- routing ---------------------------------------------------------------

    def route(self, request: PlanRequest) -> str:
        """The shard that owns one request, honoring its routing hint.

        A ``shard-N`` hint pins (and is validated against the map); a
        device-name hint hashes within that device's group; no hint hashes
        within the primary device's group.  Unknown shards/devices raise
        :class:`~repro.errors.ClusterError`.
        """
        hint = request.shard
        if hint.startswith("shard-"):
            self.map.device_of(hint)  # raises ClusterError when unknown
            return hint
        device = hint if hint else self.map.primary_device
        return self.map.shard_for(device, request.geometry.cache_key())

    def _count_routed(self, sid: str) -> None:
        with self._lock:
            self._routed[sid] += 1

    # -- threaded path (delegating router) -------------------------------------

    def submit(self, request: PlanRequest) -> PlanTicket:
        """Admit one request on its owning shard (threaded path; no stealing:
        cross-shard balance is a wave-level decision)."""
        sid = self.route(request)
        ticket = self._shards[sid].submit(request)
        self._count_routed(sid)
        return ticket

    def wait(self, ticket: PlanTicket) -> PlanResponse:
        """Resolve a ticket on the shard that admitted it."""
        return self._shards[ticket.shard].wait(ticket)

    def request(self, request: PlanRequest) -> PlanResponse:
        """Submit and wait on the owning shard: the blocking client call."""
        sid = self.route(request)
        response = self._shards[sid].request(request)
        self._count_routed(sid)
        return response

    # -- wave path -------------------------------------------------------------

    def wave(self) -> PlanWave:
        """One deterministic cluster-wide batch (see
        :class:`~repro.service.plan_service.PlanWave`)."""
        return PlanWave(self)

    def admit_wave_request(
        self, request: PlanRequest, admitted: "dict[str, int]"
    ) -> None:
        """Route one wave request and run its home shard's admission control
        (per-shard backpressure, exactly as N independent services would
        apply it); a bad routing hint raises ``ClusterError``."""
        self._shards[self.route(request)].admit_wave_request(request, admitted)

    def serve_wave(self, requests: list[PlanRequest]) -> list[PlanResponse]:
        """Place, steal, and serve one admitted wave; cluster arrival order.

        Every admitted request produces exactly one response (the zero-drop
        contract): store hits serve on their home shard, solve groups serve
        wherever :func:`~repro.cluster.scheduler.place_wave` put them, and
        the serving shard (the thief, for a stolen group) stamps its id on
        each response.
        """
        homes = [self.route(request) for request in requests]
        admitted = Counter(homes)
        groups: dict[tuple[str, PlanKey], SolveGroup] = {}
        groups_by_shard: dict[str, list[SolveGroup]] = {}
        cached_home: dict[str, list[int]] = {}
        for index, request in enumerate(requests):
            sid = homes[index]
            shard = self._shards[sid]
            key = request.key(shard.gpu_name)
            handle = (sid, key)
            if handle not in groups and key in shard.store:
                cached_home.setdefault(sid, []).append(index)
                continue
            group = groups.get(handle)
            if group is None:
                group = SolveGroup(
                    key=key, home=sid, cost=estimate_cost(shard, request)
                )
                groups[handle] = group
                groups_by_shard.setdefault(sid, []).append(group)
            group.indices.append(index)
        placement = place_wave(
            groups_by_shard, self._shards, self.map.device_shards,
            admitted, self.steal_watermark,
        )
        responses: list[PlanResponse | None] = [None] * len(requests)
        for sid in self.shard_ids:
            shard = self._shards[sid]
            # Home requests (cache hits + retained groups) replay the
            # shard's own arrival order; stolen-in groups append after, in
            # placement order -- they arrived "from elsewhere".
            own = list(cached_home.get(sid, []))
            foreign: list[int] = []
            for group in placement.assignments.get(sid, []):
                (own if group.home == sid else foreign).extend(group.indices)
            order = sorted(own) + foreign
            if not order:
                continue
            batch = [requests[index] for index in order]
            served = shard.serve_wave(batch)
            for index, response in zip(order, served):
                responses[index] = response
        # A stolen solve landed in the thief's store; copy the fresh plan
        # back to the home shard so the key's *next* wave hits at home.
        for key, victim, thief in placement.steals:
            leader = groups[(victim, key)].indices[0]
            answer = responses[leader]
            if answer is not None and answer.source == "fresh":
                self._shards[victim].store.put(key, answer.configuration)
        self._sync_clocks()
        self._account_wave(homes, admitted, groups_by_shard, placement.steals)
        out = [response for response in responses if response is not None]
        assert len(out) == len(requests), "cluster wave dropped a request"
        return out

    def _sync_clocks(self) -> None:
        """Advance every shard's manual clock to the cluster-wide maximum.

        Shards solve "in parallel": a wave's elapsed time is its slowest
        shard's, and the next wave must start from one shared instant or
        per-shard latencies would depend on placement history.
        """
        now = max(shard.clock.now() for shard in self.shards())
        for shard in self.shards():
            advance = getattr(shard.clock, "advance", None)
            behind = now - shard.clock.now()
            if advance is not None and behind > 0:
                advance(behind)

    def _account_wave(
        self,
        homes: list[str],
        admitted: "dict[str, int]",
        groups_by_shard: "dict[str, list[SolveGroup]]",
        steals: "list[tuple[PlanKey, str, str]]",
    ) -> None:
        """Update router counters and publish per-shard Prometheus series."""
        with self._lock:
            for sid in homes:
                self._routed[sid] += 1
            for _key, _victim, thief in steals:
                self._steals[thief] += 1
                self._steals_total += 1
            for sid in self.shard_ids:
                self._queue_depth[sid] = len(groups_by_shard.get(sid, []))
        if not telemetry.enabled():
            return
        stolen = Counter(thief for _key, _victim, thief in steals)
        for sid in self.shard_ids:
            shard = self._shards[sid]
            self._publish(sid, "cluster.shard.routed",
                          float(admitted.get(sid, 0)),
                          help="requests routed to this shard", delta=False)
            self._publish(sid, "cluster.shard.steals",
                          float(stolen.get(sid, 0)),
                          help="solve groups this shard stole", delta=False)
            self._publish(sid, "cluster.shard.plan_hits",
                          float(shard.stats.cache_hits),
                          help="plan-store hits on this shard")
            self._publish(sid, "cluster.shard.bench_hits",
                          float(shard.bench_cache.bench_hits),
                          help="benchmark-cache hits on this shard")
            self._publish(sid, "cluster.shard.solves",
                          float(shard.stats.solver_invocations),
                          help="solver invocations on this shard")

    def _publish(self, sid: str, name: str, value: float, *,
                 help: str, delta: bool = True) -> None:
        """Increment one labeled cluster counter.

        ``delta=True`` treats ``value`` as cumulative shard state and
        publishes the growth since the last wave; ``delta=False`` publishes
        the per-wave quantity as-is.  Zero increments still touch the
        counter, so every shard's series exists in the exposition.
        """
        amount = value
        if delta:
            with self._lock:
                previous = self._exported[sid].get(name, 0.0)
                self._exported[sid][name] = value
            amount = value - previous
        telemetry.count(name, amount, help=help, labels={"shard": sid})

    # -- summaries -------------------------------------------------------------

    def metrics_summary(self) -> dict[str, object]:
        """Aggregated counters plus per-shard and router breakdowns.

        The top-level keys keep the single-service shape (``service`` /
        ``store`` / ``delta`` / ``bench_cache`` as cluster-wide sums) so
        the admin surface reads a cluster like one big service; ``cluster``
        adds the router's own view.
        """
        service: dict[str, int] = {}
        delta: dict[str, float] = {}
        bench = {"hits": 0, "misses": 0, "evictions": 0}
        per_shard: dict[str, object] = {}
        for sid in self.shard_ids:
            summary = self._shards[sid].metrics_summary()
            per_shard[sid] = summary
            for name, value in summary["service"].items():  # type: ignore[union-attr]
                service[name] = service.get(name, 0) + value
            for name, value in summary["delta"].items():  # type: ignore[union-attr]
                delta[name] = delta.get(name, 0) + value
            for name in bench:
                bench[name] += summary["bench_cache"][name]  # type: ignore[index]
        with self._lock:
            cluster = {
                "devices": list(self.map.devices),
                "shards": self.map.shards,
                "steal_watermark": self.steal_watermark,
                "routed": {sid: self._routed[sid] for sid in self.shard_ids},
                "steals": self._steals_total,
                "steals_by_shard": {
                    sid: self._steals[sid] for sid in self.shard_ids
                },
                "queue_depth": {
                    sid: self._queue_depth[sid] for sid in self.shard_ids
                },
            }
        return {
            "gpu": self.gpu_name,
            "max_pending": self.max_pending,
            "service": service,
            "store": self.store.snapshot(),
            "delta": delta,
            "bench_cache": bench,
            "cluster": cluster,
            "by_shard": per_shard,
        }

    # -- persistence -----------------------------------------------------------

    def snapshot_document(
        self, meta: "dict[str, object] | None" = None
    ) -> dict:
        """One merged snapshot of every shard (plans + bench rows).

        Per-shard documents are merged under policy ``"error"``: the shard
        map partitions the key space, so two shards claiming *different*
        plans for one key is a routing bug this snapshot refuses to paper
        over (identical plans -- e.g. a stolen solve copied home -- agree
        and merge cleanly).  The document's ``gpu`` is the primary device;
        every plan entry carries its own device in its key.
        """
        meta = dict(meta) if meta else {}
        meta.setdefault("cluster", {
            "devices": list(self.map.devices),
            "shards": self.map.shards,
        })
        merged: dict | None = None
        for sid in self.shard_ids:
            shard = self._shards[sid]
            document = snapshot_store(
                shard.store, self.gpu_name,
                bench_cache=shard.bench_cache, meta=meta,
            )
            if merged is None:
                merged = document
            else:
                merged, _ = merge_snapshots(merged, document, policy="error")
        assert merged is not None  # ShardMap guarantees >= 1 shard
        return merged

    def warm_start_document(self, document: dict) -> int:
        """Restore a snapshot, routing every plan to its home shard.

        The counterpart of :func:`repro.persistence.warm.warm_start` for a
        cluster: plans keyed to devices this cluster serves land on the
        shard the map owns them to (so post-restore routing hits), plans
        for foreign devices are skipped, and each shard imports the bench
        rows of its own device.  Returns the number of restored plans.
        """
        validate_snapshot(document, "cluster warm-start")
        served = set(self.map.device_shards)
        restored = 0
        skipped = 0
        for key, configuration, stored_at in plans_of(document):
            if key.gpu not in served:
                skipped += 1
                continue
            sid = self.map.shard_for(key.gpu, key.kernel)
            self._shards[sid].store.restore(key, configuration, stored_at)
            restored += 1
        bench_rows = 0
        for sid in self.shard_ids:
            shard = self._shards[sid]
            bench_rows += shard.bench_cache.import_payload(
                document["bench"], only_gpu=canonical_gpu(shard.gpu_name)
            )
        if restored:
            telemetry.count("persistence.warm.keys", restored,
                            help="plans restored into stores from snapshots")
        telemetry.event(
            "persistence.warm_start", gpu=self.gpu_name,
            restored=restored, skipped=skipped, bench_rows=bench_rows,
        )
        return restored


__all__ = [
    "ClusterService",
    "ClusterStoreView",
]
