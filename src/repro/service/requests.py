"""Request/response types of the plan-compilation service.

A *plan request* asks the service the question every training process asks
at ``cudnnFindConvolution*`` time: "what is the best micro-batch division
for kernel ``K`` under workspace limit ``W``?".  Requests are identified by
a :class:`PlanKey` -- the coalescing and cache key -- so concurrent clients
asking the same question share one solve, exactly as the paper's benchmark
cache lets replicated layer shapes share one ``cudnnFind`` pass.

Every :class:`PlanResponse` carries a ``source`` provenance marker telling
the caller *how* the plan was produced:

==============  =============================================================
``cached``      served from the bounded plan store, no solver work
``fresh``       this request triggered (and paid for) the solve
``coalesced``   attached to another request's in-flight solve
``fallback``    the solve failed or missed its deadline; the plan is the
                ``undivided`` (plain-cuDNN) configuration under the same
                limit -- the graceful-degradation ladder's last rung
==============  =============================================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.config import Configuration
from repro.core.policies import BatchSizePolicy
from repro.cudnn.descriptors import ConvGeometry
from repro.units import MIB

#: The provenance markers a response's ``source`` field may carry.
SOURCES = ("cached", "fresh", "coalesced", "fallback")


@dataclass(frozen=True)
class PlanKey:
    """Identity of one plan question: ``(gpu, kernel, policy, limit, scheme)``.

    Two requests with equal keys are interchangeable -- same geometry on the
    same GPU model, optimized under the same policy and workspace limit --
    so they may share a cached plan or an in-flight solve.
    """

    gpu: str
    kernel: str
    policy: str
    workspace_limit: int
    scheme: str = "wr"

    def __str__(self) -> str:
        return (f"{self.gpu}|{self.kernel}|{self.policy}"
                f"|{self.workspace_limit}|{self.scheme}")


@dataclass(frozen=True)
class PlanRequest:
    """One client's plan question.

    ``deadline_s`` bounds how long the client is willing to wait for the
    exact answer; past it the service degrades to the ``undivided`` fallback
    (or raises :class:`~repro.errors.DeadlineExceededError` when fallbacks
    are disabled).  ``None`` waits indefinitely.
    """

    kernel: str
    geometry: ConvGeometry
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO
    workspace_limit: int = 64 * MIB
    deadline_s: float | None = None
    client: str = ""
    #: Distributed-trace context (W3C-style, carried over the wire): the
    #: request's trace id and the caller's span id.  Empty strings mean "not
    #: traced" -- the service then records/propagates nothing, keeping the
    #: untraced path allocation-free (ZOV001).
    trace_id: str = ""
    parent_span_id: str = ""
    #: Cluster routing hint: a shard id (``"shard-2"``) pins the request to
    #: that shard, a device name (``"v100-sxm2"``) routes it within that
    #: device's shard group, and ``""`` (the default) routes by the cluster's
    #: primary device.  Ignored entirely by a single :class:`PlanService`.
    shard: str = ""

    def key(self, gpu: str) -> PlanKey:
        return PlanKey(
            gpu=gpu,
            kernel=self.geometry.cache_key(),
            policy=self.policy.value,
            workspace_limit=self.workspace_limit,
        )


@dataclass(frozen=True)
class PlanResponse:
    """One served plan plus its provenance.

    ``solve_seconds`` is the simulated device time the answering solve spent
    benchmarking (0 for ``cached`` hits); ``latency_s`` is the request's
    wait as observed on the service clock.  ``fallback_reason`` is ``""``
    unless ``source == "fallback"``, in which case it names the rung that
    failed (``"timeout"`` or ``"solver_error"``).
    """

    kernel: str
    key: PlanKey
    configuration: Configuration
    source: str
    solve_seconds: float = 0.0
    latency_s: float = 0.0
    fallback_reason: str = ""
    client: str = ""
    #: Cluster provenance: the shard that served this response (``""`` from
    #: a plain single-shard service, and for work-stolen requests the
    #: *thief* shard -- the one that actually ran the solve).
    shard: str = ""

    @property
    def degraded(self) -> bool:
        return self.source == "fallback"


@dataclass
class ServiceStats:
    """Monotonic counters of one :class:`~repro.service.PlanService`.

    Mutated only under the service's lock; read freely (plain ints).  The
    same quantities are exported as ``service.*`` telemetry counters when
    telemetry is enabled, so Prometheus scrapes and this object agree.
    """

    requests: int = 0
    cache_hits: int = 0
    fresh: int = 0
    coalesced: int = 0
    fallbacks_timeout: int = 0
    fallbacks_error: int = 0
    overloaded: int = 0
    deadline_errors: int = 0
    solver_invocations: int = 0
    fallback_solves: int = 0
    #: Plans dropped from the store because fresh benchmark rows arrived
    #: for their kernel family (see ``PlanService.refresh_benchmark``).
    invalidated_plans: int = 0
    #: Invalidated plans re-solved in place by the incremental delta solver
    #: (without a client having to re-request them).
    delta_resolves: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class StoreStats:
    """Hit/miss/eviction accounting of a :class:`~repro.service.PlanStore`.

    ``warm_hits`` counts hits served from entries restored out of a
    persistence snapshot (:mod:`repro.persistence`) rather than solved in
    this process -- the number a cache-warm fleet rollout is measured by.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    warm_hits: int = 0
    #: Entries dropped by ``PlanStore.invalidate_matching`` (explicit
    #: benchmark-refresh invalidation, not LRU pressure or TTL age).
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


__all__ = [
    "SOURCES",
    "PlanKey",
    "PlanRequest",
    "PlanResponse",
    "ServiceStats",
    "StoreStats",
]
