"""WR (Workspace Reuse) optimization -- the paper's section III-B.

Each convolutional kernel owns one workspace slot of at most ``M`` bytes,
shared sequentially by its micro-batches.  The optimal division of the
mini-batch ``B`` is found by dynamic programming over the total execution
time::

    T(0) = 0
    T(i) = min over benchmarked micro sizes m <= i of  T(i - m) + T1(m)

where ``T1(m)`` is the fastest single-kernel time at micro-batch ``m`` whose
workspace fits ``M`` (the paper states the recurrence as "either keep the
batch whole or split it and recurse", which unrolls to exactly this
coin-change form).  The DP is exact for the measured size set: with the
``all`` policy it is the true optimum; with ``powerOfTwo`` it is the optimum
over power-of-two compositions.

Key property (paper): the optimal configuration of a kernel is independent
of every other kernel, because WR assumes kernels never run concurrently --
which is what keeps this a per-kernel DP rather than a global problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

import repro.observability as observability
import repro.telemetry as telemetry
from repro.core.benchmarker import KernelBenchmark, T1Columns, benchmark_kernel
from repro.core.config import Configuration, MicroConfig
from repro.core.policies import BatchSizePolicy
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.handle import CudnnHandle
from repro.errors import OptimizationError

if TYPE_CHECKING:
    from repro.core.cache import BenchmarkCache


@dataclass
class WRResult:
    """Outcome of one kernel's WR optimization."""

    configuration: Configuration
    benchmark: KernelBenchmark
    workspace_limit: int
    #: ``T1(B)`` -- the undivided (plain cuDNN) time under the same limit,
    #: for speedup reporting.  ``inf`` if nothing fits undivided.
    undivided_time: float

    @property
    def speedup_vs_undivided(self) -> float:
        if not math.isfinite(self.undivided_time):
            return math.inf
        return self.undivided_time / self.configuration.time


#: Narrowest dense size set (``1..n``) whose DP runs in blocks of
#: :data:`_BLOCK` stages.  At full width the blocks beat the loop from about
#: 48 sizes on (b64 1.5x, b128 2.8x, b256 5x faster; b32 1.3x slower).
_DENSE_NUMPY_WIDTH = 48
_BLOCK = 16


def t1_table(benchmark: KernelBenchmark, workspace_limit: int | None) -> T1Columns:
    """The DP's coins under one limit: the memoized
    :meth:`~repro.core.benchmarker.KernelBenchmark.t1_columns`.  Raises
    :class:`OptimizationError` when nothing fits; an infeasible bucket
    keeps (and re-raises) one error, quoting its first-seen limit."""
    t1 = benchmark.t1_columns(workspace_limit)
    if t1.sizes:
        return t1
    if t1.error is None:
        t1.error = OptimizationError(
            f"no algorithm fits workspace limit {workspace_limit} for "
            f"{benchmark.geometry}")
    raise t1.error


def _wr_dp(sizes: list[int], t1_times: list[float], batch: int) -> list[float]:
    """``times[i]``: optimal time for batch ``i`` (``inf``: not composable).

    ``sizes`` ascend.  A dense set at least :data:`_DENSE_NUMPY_WIDTH` wide
    solves :data:`_BLOCK` stages at a time: candidates from before the block
    reduce in numpy, the rest loop.  Each candidate is one float64 add and
    a minimum is exact, so both paths give the same bits."""
    width = len(sizes)
    times = [0.0] + [math.inf] * batch
    if width >= _DENSE_NUMPY_WIDTH and sizes[-1] == width:
        table = np.array(times)
        # ``gather[r, c]`` is T1(r + width - c) (inf past ``width``): the
        # coin from T(s - width + c) to T(s + r) for a block starting at s.
        coins = np.array([math.inf, *t1_times] + [math.inf] * _BLOCK)
        gather = coins[np.arange(_BLOCK)[:, None] + width - np.arange(width)]
        for s in range(1, batch + 1, _BLOCK):
            e, lo = min(s + _BLOCK, batch + 1), max(0, s - width)
            bulk = np.minimum.reduce(table[lo:s] + gather[:e - s, width - s + lo:],
                                     axis=1).tolist()
            for i in range(s, e):
                best = bulk[i - s]
                for j in range(s, i):  # i - j < _BLOCK <= width
                    cand = times[j] + t1_times[i - j - 1]
                    if cand < best:
                        best = cand
                times[i] = best
            table[s:e] = times[s:e]
        return times
    coins = list(zip(sizes, t1_times))
    for i in range(1, batch + 1):
        best = math.inf
        for size, time in coins:
            if size > i:
                break
            cand = times[i - size] + time
            if cand < best:
                best = cand
        times[i] = best
    return times


def _last_summand(
    sizes: list[int], t1_times: list[float], times: list[float], i: int
) -> int:
    """Column of the last summand of an optimal division of ``i``: the
    smallest size whose candidate (same operands, so exact) equals the
    finite ``times[i]`` -- the loop's first strict minimum."""
    best = times[i]
    for j, size in enumerate(sizes):
        if times[i - size] + t1_times[j] == best:
            return j
    raise AssertionError(f"no summand attains T({i}) = {best}")


def _division(t1: T1Columns, batch: int, last: Callable[[int], int]) -> list[int]:
    """Columns dividing ``batch``, last summand (``last(i)``) first."""
    path: list[int] = []
    while batch > 0:
        path.append(last(batch))
        batch -= t1.sizes[path[-1]]
    return path


def _configuration(t1: T1Columns, path: list[int]) -> Configuration:
    """The division along ``path`` (columns of ``t1``), largest first."""
    micros = t1.micros(path)
    micros.sort(key=lambda m: -m.micro_batch)
    return Configuration(tuple(micros))


def _t1_micros(t1: T1Columns) -> dict[int, MicroConfig]:
    """``size -> T1 entry`` of every column (telemetry, provenance, trace)."""
    return dict(zip(t1.sizes, t1.micros(list(range(len(t1.sizes))))))


def optimize_from_benchmark(
    benchmark: KernelBenchmark, workspace_limit: int,
    kernel: str | None = None,
) -> Configuration:
    """Run the WR dynamic program against an existing benchmark table.

    ``kernel`` optionally names the kernel in provenance events (network
    optimizers pass their stable layer key); defaults to the geometry
    cache key.
    """
    with telemetry.span(
        "optimize.wr",
        kernel=benchmark.geometry.cache_key(),
        policy=benchmark.policy.value,
        workspace_limit=workspace_limit,
    ) as tspan:
        config = _optimize_from_benchmark(benchmark, workspace_limit, tspan,
                                          kernel=kernel)
        tspan.set("time", config.time)
        tspan.set("workspace", config.workspace)
        tspan.set("micro_batches", config.micro_batch_sizes())
    return config


def _optimize_from_benchmark(
    benchmark: KernelBenchmark, workspace_limit: int, tspan,
    kernel: str | None = None,
) -> Configuration:
    batch = benchmark.geometry.n
    t1 = t1_table(benchmark, workspace_limit)
    sizes, t1_times = t1.sizes, t1.times
    rec = observability.recorder()
    t1_micros: dict[int, MicroConfig] = {}
    unconstrained: MicroConfig | None = None
    constrained: MicroConfig | None = None
    if telemetry.enabled() or rec:
        # A fallback in the paper's Fig. 1 sense: the kernel's unconstrained
        # optimum at the full batch does not fit the limit, so slower (or
        # divided) execution must cover for it.  Only telemetry and
        # provenance report it, so only they pay for the look-ups.
        t1_micros = _t1_micros(t1)
        unconstrained = benchmark.fastest_micro(batch)
        constrained = t1_micros.get(batch)
        if unconstrained is not None and (
            constrained is None or constrained.algo != unconstrained.algo
        ):
            telemetry.count("fallback.events",
                            help="kernels whose unconstrained-fastest "
                                 "algorithm exceeds the workspace limit")
            tspan.set("fallback", True)
    telemetry.count("wr.dp_rows", batch, help="WR dynamic-program rows solved")

    times = _wr_dp(sizes, t1_times, batch)

    if not math.isfinite(times[batch]):
        raise OptimizationError(
            f"mini-batch {batch} is not composable from measured sizes "
            f"{sizes} (policy {benchmark.policy.value})"
        )
    path = _division(t1, batch, partial(_last_summand, sizes, t1_times, times))
    config = _configuration(t1, path)
    if rec:
        _record_wr_provenance(
            rec, benchmark, workspace_limit, t1_micros, times,
            sizes[path[0]], config, unconstrained, constrained, kernel,
        )
    return config


def _record_wr_provenance(
    rec: observability.ProvenanceRecorder, benchmark: KernelBenchmark, workspace_limit: int,
    t1: dict[int, MicroConfig], times: list[float], winner_size: int,
    config: Configuration, unconstrained: MicroConfig | None,
    constrained: MicroConfig | None, kernel: str | None = None,
) -> None:
    """Post-hoc decision log for one WR pass (only when provenance is on).

    Reconstructs candidate fates from the DP's ``times`` and the per-size
    ``T1`` entries ``t1``; ``winner_size`` is the last summand of the
    chosen division -- the hot loops above run identically whether or not
    this executes.
    """
    key = kernel or benchmark.geometry.cache_key()
    batch = benchmark.geometry.n
    pid = rec.begin_pass(
        "wr", kernel=key, batch=batch, policy=benchmark.policy.value,
        workspace_limit=workspace_limit,
    )
    if unconstrained is not None and (
        constrained is None or constrained.algo != unconstrained.algo
    ):
        # The Fig. 1 fallback, per candidate: the unconstrained-fastest
        # algorithm at the full batch overflows the limit.
        rec.record(
            "candidate.rejected.workspace", kernel=key,
            micro_batch=batch, algo=unconstrained.algo.name,
            workspace=unconstrained.workspace,
            workspace_limit=workspace_limit,
            unconstrained_time=unconstrained.time,
            admitted=constrained.algo.name if constrained else None,
            admitted_time=constrained.time if constrained else None,
        )
    for size in benchmark.sizes:
        micro = t1.get(size)
        if micro is None:
            rec.record(
                "candidate.infeasible", kernel=key, micro_batch=size,
                workspace_limit=workspace_limit,
            )
            continue
        if size > batch or not math.isfinite(times[batch - size]):
            continue
        # The Eq. 1 final cell: ending the division with T1(size) costs
        # `candidate_time`; strictly worse than the winning cell => pruned.
        candidate_time = times[batch - size] + micro.time
        if candidate_time > times[batch]:
            rec.record(
                "candidate.pruned.dp", kernel=key,
                micro_batch=size, algo=micro.algo.name, t1_time=micro.time,
                candidate_time=candidate_time, best_time=times[batch],
                beaten_by_size=winner_size,
            )
    rec.record("chosen", kernel=key, **observability.configuration_detail(config))
    rec.end_pass(pid, kernel=key, time=config.time, workspace=config.workspace)


def optimize_kernel(
    handle: CudnnHandle,
    geometry: ConvGeometry,
    workspace_limit: int,
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
    cache: BenchmarkCache | None = None,
) -> WRResult:
    """Benchmark + WR-optimize one convolution kernel."""
    benchmark = benchmark_kernel(handle, geometry, policy, cache=cache)
    configuration = optimize_from_benchmark(benchmark, workspace_limit)
    undivided = benchmark.fastest_micro(geometry.n, workspace_limit)
    return WRResult(
        configuration=configuration,
        benchmark=benchmark,
        workspace_limit=workspace_limit,
        undivided_time=undivided.time if undivided is not None else math.inf,
    )


@dataclass
class WRTraceRow:
    """One row of the DP table (the paper's Fig. 5 illustration)."""

    batch: int
    time: float
    chosen_micro: MicroConfig | None
    configuration: Configuration


def trace_wr(benchmark: KernelBenchmark, workspace_limit: int) -> list[WRTraceRow]:
    """The full WR DP table ``T(1..B)`` with reconstructed configurations.

    Exposes the recurrence the paper illustrates in Fig. 5: for every
    intermediate batch size, the optimal time, the micro-batch chosen as the
    last summand, and the implied full configuration.  Row ``B`` equals
    :func:`optimize_from_benchmark`'s result; intermediate rows show where
    divisions become profitable (useful for teaching and debugging).
    """
    batch = benchmark.geometry.n
    t1 = t1_table(benchmark, workspace_limit)
    times = _wr_dp(t1.sizes, t1.times, batch)
    last = partial(_last_summand, t1.sizes, t1.times, times)
    return [
        WRTraceRow(i, times[i], t1.micros([last(i)])[0],
                   _configuration(t1, _division(t1, i, last)))
        for i in range(1, batch + 1)
        if math.isfinite(times[i])
    ]


def optimize_greedy_halving(
    handle: CudnnHandle,
    geometry: ConvGeometry,
    workspace_limit: int,
) -> Configuration:
    """Naive halve-until-it-fits baseline (ablation comparator for the DP).

    The obvious heuristic a framework author might hand-roll: keep halving
    the micro-batch size until the *unconstrained-fastest* algorithm's
    workspace fits the limit, then run the whole mini-batch at that size.
    It ignores three effects the DP captures: (a) the fastest-at-full-batch
    algorithm is not necessarily fastest at the divided size, (b) mixed and
    non-power-of-two divisions can dominate uniform halving, and (c) when
    *nothing* fast ever fits, dividing is pure loss -- the heuristic halves
    to micro-batch 1 regardless and can end up several times slower than
    undivided cuDNN (the 8 MiB column of the division ablation), while the
    DP correctly stays whole.  Tests assert the DP never loses to this
    baseline; the ablation benchmark quantifies the gap.
    """
    batch = geometry.n
    micro = batch
    while micro > 1:
        best_any = handle.perf.fastest(geometry.with_batch(micro))
        if best_any is not None and best_any.workspace <= workspace_limit:
            break
        micro = -(-micro // 2)  # ceil halving
    micros: list[MicroConfig] = []
    remaining = batch
    while remaining > 0:
        m = min(micro, remaining)
        chosen = handle.perf.fastest(
            geometry.with_batch(m), workspace_limit=workspace_limit
        )
        if chosen is None:
            raise OptimizationError(
                f"no algorithm fits workspace limit {workspace_limit} at "
                f"micro-batch {m} for {geometry}"
            )
        micros.append(MicroConfig(m, chosen.algo, chosen.time, chosen.workspace))
        remaining -= m
    return Configuration(tuple(micros))
