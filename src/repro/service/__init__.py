"""Optimization-as-a-service: a concurrent plan-compilation layer.

The paper's section III-D shares benchmark results across replicated layers
through in-memory and file caches; this package completes that idea into a
*service*: many concurrent clients ask "best micro-batch division for kernel
``K`` under limit ``W``?", and the service answers from a bounded LRU plan
store, coalesces concurrent identical questions onto one solve, applies
admission control under overload, and degrades to the ``undivided``
(plain-cuDNN) plan when a solve faults or misses its deadline.

Entry points:

* :class:`PlanService` -- the service itself (threaded ``request``/``submit``
  path and the deterministic ``wave`` path);
* :class:`PlanRequest` / :class:`PlanResponse` / :class:`PlanKey` -- the
  request protocol, with ``source`` provenance on every response;
* :class:`PlanStore` -- the bounded LRU+TTL plan cache;
* :class:`FaultInjector` -- seeded fault schedules for testing degradation.

The deterministic closed-loop load driver behind ``runner serve --soak``
lives in :mod:`repro.service.soak`; a plan server never loads it.
"""

from repro.service.faults import (
    ACTION_FAIL,
    ACTION_OK,
    ACTION_STALL,
    ACTIONS,
    FaultInjector,
)
from repro.service.introspection import RequestLog, RequestRecord
from repro.service.plan_service import PlanService, PlanTicket, PlanWave
from repro.service.requests import (
    SOURCES,
    PlanKey,
    PlanRequest,
    PlanResponse,
    ServiceStats,
    StoreStats,
)
from repro.service.store import PlanStore

__all__ = [
    "ACTIONS",
    "ACTION_FAIL",
    "ACTION_OK",
    "ACTION_STALL",
    "SOURCES",
    "FaultInjector",
    "PlanKey",
    "PlanRequest",
    "PlanResponse",
    "PlanService",
    "PlanStore",
    "PlanTicket",
    "PlanWave",
    "RequestLog",
    "RequestRecord",
    "ServiceStats",
    "StoreStats",
]
