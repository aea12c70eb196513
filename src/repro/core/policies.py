"""Batch-size policies (paper section III-D).

The policy determines which micro-batch sizes the WR benchmarking step
measures:

* ``all``        -- every size ``1..N``; optimal but costs ``O(N)`` benchmark
  invocations per kernel.  :func:`~repro.core.benchmarker.benchmark_kernel`
  rejects an ``N`` past the performance model's int64 bound before listing
  the sizes, but within that bound ``all`` still costs ``O(N)`` time and
  memory (a wire request may carry any ``n`` the bound admits).
* ``powerOfTwo`` -- sizes ``1, 2, 4, ..., 2^floor(log2 N)`` plus ``N`` itself;
  ``O(log N)`` cost, near-optimal in practice (paper: 3.82 s vs 34.16 s for
  AlexNet at nearly identical quality).
* ``undivided``  -- only ``N``: equivalent to plain cuDNN, used to measure
  mu-cuDNN's overhead.

Policies are selectable programmatically or through the
``UCUDNN_BATCH_SIZE_POLICY`` environment variable (see
:mod:`repro.core.options`).
"""

from __future__ import annotations

import enum


class BatchSizePolicy(enum.Enum):
    """Which micro-batch sizes the benchmarking step evaluates."""

    ALL = "all"
    POWER_OF_TWO = "powerOfTwo"
    UNDIVIDED = "undivided"

    @classmethod
    def parse(cls, name: str) -> "BatchSizePolicy":
        """Parse the paper's spelling (``all``/``powerOfTwo``/``undivided``),
        case-insensitively."""
        lowered = name.strip().lower()
        for policy in cls:
            if policy.value.lower() == lowered:
                return policy
        raise ValueError(
            f"unknown batch size policy {name!r}; "
            f"expected one of {[p.value for p in cls]}"
        )


def candidate_sizes(policy: BatchSizePolicy, batch: int) -> list[int]:
    """Micro-batch sizes to benchmark for a mini-batch of ``batch``.

    Always includes ``batch`` itself (the undivided option must stay
    available so the optimizer can never do worse than plain cuDNN).
    Returned ascending and duplicate-free.
    """
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    if policy == BatchSizePolicy.UNDIVIDED:
        return [batch]
    if policy == BatchSizePolicy.POWER_OF_TWO:
        sizes = set()
        p = 1
        while p <= batch:
            sizes.add(p)
            p *= 2
        sizes.add(batch)
        return sorted(sizes)
    if policy == BatchSizePolicy.ALL:
        return list(range(1, batch + 1))
    raise AssertionError(f"unhandled policy {policy}")
