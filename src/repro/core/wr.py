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
from typing import TYPE_CHECKING

import repro.observability as observability
import repro.telemetry as telemetry
from repro.core.benchmarker import KernelBenchmark, benchmark_kernel
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


def t1_table(
    benchmark: KernelBenchmark, workspace_limit: int | None
) -> dict[int, MicroConfig]:
    """Per-size ``T1`` entries under one limit (the DP's coin denominations).

    Raises :class:`OptimizationError` when no measured size has any algorithm
    fitting the limit.

    Memoized per ``(benchmark identity, limit bucket)`` through the
    benchmark's query cache: two limits between consecutive union workspace
    steps admit the same rows at every size and share one table, so repeated
    per-limit and trace calls stop rebuilding the same dict.  A miss reads
    the block's columns: one masked per-size minimum
    (:meth:`~repro.core.benchmarker.KernelBenchmark.t1_rows`), sizes in
    the ascending order :func:`_wr_dp` needs.  The returned dict is shared
    -- treat it as immutable.  Infeasible buckets cache (and re-raise) the
    same :class:`OptimizationError`, which therefore quotes the bucket's
    first-seen limit (the sweep solvers already document this for interval
    representatives).  Editing ``benchmark.results`` requires
    :meth:`~repro.core.benchmarker.KernelBenchmark.invalidate_query_cache`,
    which drops this memo too.
    """
    memo = benchmark._query_cache
    key = ("t1", benchmark.t1_bucket(workspace_limit))
    cached = memo.get(key)
    if cached is not None:
        if telemetry.enabled():
            telemetry.count("wr.t1_memo_hits",
                            help="T1 tables served from the per-benchmark memo")
        if isinstance(cached, OptimizationError):
            raise cached
        return cached
    t1 = benchmark.t1_micros(workspace_limit)
    if not t1:
        error = OptimizationError(
            f"no algorithm fits workspace limit {workspace_limit} for "
            f"{benchmark.geometry}"
        )
        memo[key] = error
        raise error
    memo[key] = t1
    return t1


def _wr_dp(
    t1: dict[int, MicroConfig], batch: int
) -> tuple[list[float], list[MicroConfig | None]]:
    """The coin-change DP core shared by the optimizer and the tracer.

    ``t1`` must list sizes ascending, as :func:`t1_table` builds it.
    Returns the ``times`` table (``times[i]`` = optimal time for batch ``i``,
    ``inf`` when not composable) and the ``choice`` table (last summand of an
    optimal division, ``None`` when not composable).
    """
    times = [0.0] + [math.inf] * batch
    choice: list[MicroConfig | None] = [None] * (batch + 1)
    coins = [(size, micro.time, micro) for size, micro in t1.items()]
    # Coin-change order: ascending i with all sizes admissible at each i
    # allows unlimited reuse of any measured size.  A non-composable
    # remainder is inf, so its candidate is inf and never wins the strict <.
    for i in range(1, batch + 1):
        best = math.inf
        best_micro = None
        for size, time, micro in coins:
            if size > i:
                break
            cand = times[i - size] + time
            if cand < best:
                best = cand
                best_micro = micro
        times[i] = best
        choice[i] = best_micro
    return times, choice


def _rebuild(choice: list[MicroConfig | None], batch: int) -> Configuration:
    """Reconstruct the configuration for batch ``batch`` from ``choice``."""
    micros: list[MicroConfig] = []
    remaining = batch
    while remaining > 0:
        micro = choice[remaining]
        assert micro is not None
        micros.append(micro)
        remaining -= micro.micro_batch
    # Largest micro-batches first, cosmetic but matches the paper's figures.
    micros.sort(key=lambda m: -m.micro_batch)
    return Configuration(tuple(micros))


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
    rec = observability.recorder()
    unconstrained: MicroConfig | None = None
    constrained: MicroConfig | None = None
    if telemetry.enabled() or rec:
        # A fallback in the paper's Fig. 1 sense: the kernel's unconstrained
        # optimum at the full batch does not fit the limit, so slower (or
        # divided) execution must cover for it.  Only telemetry and
        # provenance report it, so only they pay for the look-up.
        unconstrained = benchmark.fastest_micro(batch)
        constrained = t1.get(batch)
        if unconstrained is not None and (
            constrained is None or constrained.algo != unconstrained.algo
        ):
            telemetry.count("fallback.events",
                            help="kernels whose unconstrained-fastest "
                                 "algorithm exceeds the workspace limit")
            tspan.set("fallback", True)
    telemetry.count("wr.dp_rows", batch, help="WR dynamic-program rows solved")

    times, choice = _wr_dp(t1, batch)

    if not math.isfinite(times[batch]):
        raise OptimizationError(
            f"mini-batch {batch} is not composable from measured sizes "
            f"{sorted(t1)} (policy {benchmark.policy.value})"
        )
    config = _rebuild(choice, batch)
    if rec:
        _record_wr_provenance(
            rec, benchmark, workspace_limit, t1, times, choice, config,
            unconstrained, constrained, kernel,
        )
    return config


def _record_wr_provenance(
    rec, benchmark, workspace_limit, t1, times, choice, config,
    unconstrained, constrained, kernel=None,
) -> None:
    """Post-hoc decision log for one WR pass (only when provenance is on).

    Reconstructs candidate fates from the DP tables already computed -- the
    hot loops above run identically whether or not this executes.
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
    winner = choice[batch]
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
                beaten_by_size=winner.micro_batch if winner else None,
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
    times, choice = _wr_dp(t1, batch)
    return [
        WRTraceRow(i, times[i], choice[i], _rebuild(choice, i))
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
