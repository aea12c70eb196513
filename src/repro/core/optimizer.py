"""Network-level optimization orchestration.

Convenience layer used by the experiment harness: take every convolution
kernel of a network (as ``name -> ConvGeometry``), optimize under WR (one
limit per kernel) or WD (one pooled limit), and report per-kernel and total
times, workspace consumption, and optimization cost -- the quantities
Figures 10-14 plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import repro.observability as observability
import repro.telemetry as telemetry
from repro.core.benchmarker import benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.config import Configuration
from repro.core.pareto import desirable_set, record_pareto_provenance
from repro.core.policies import BatchSizePolicy
from repro.core.tensor_solve import bench_fingerprint, solve_network_wr
from repro.core.wd import WDKernel, WDResult, solve_from_kernels
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.handle import CudnnHandle


@dataclass
class KernelPlan:
    """Optimization outcome for one kernel."""

    name: str
    geometry: ConvGeometry
    configuration: Configuration
    #: Plain-cuDNN time under the same per-kernel limit (inf if nothing fits).
    undivided_time: float

    @property
    def speedup(self) -> float:
        if not math.isfinite(self.undivided_time):
            return math.inf
        return self.undivided_time / self.configuration.time


@dataclass
class NetworkPlan:
    """Optimization outcome for a whole network."""

    scheme: str  # "wr" or "wd"
    policy: BatchSizePolicy
    kernels: list[KernelPlan] = field(default_factory=list)
    benchmark_time: float = 0.0
    wd: WDResult | None = None

    @property
    def total_time(self) -> float:
        return sum(k.configuration.time for k in self.kernels)

    @property
    def total_undivided_time(self) -> float:
        return sum(k.undivided_time for k in self.kernels)

    @property
    def total_workspace(self) -> int:
        return sum(k.configuration.workspace for k in self.kernels)

    @property
    def speedup(self) -> float:
        return self.total_undivided_time / self.total_time

    def by_name(self) -> dict[str, KernelPlan]:
        return {k.name: k for k in self.kernels}


def optimize_network_wr(
    handle: CudnnHandle,
    geometries: dict[str, ConvGeometry],
    workspace_limit: int,
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
    cache: BenchmarkCache | None = None,
) -> NetworkPlan:
    """WR: each kernel gets its own ``workspace_limit``-byte slot.

    Every kernel is benchmarked, then all are solved in one vectorized
    pass (:func:`~repro.core.tensor_solve.solve_network_wr`), bit-identical
    to one :func:`~repro.core.wr.optimize_from_benchmark` per kernel.  On
    failure it raises that solver's error for the first failing kernel in
    input order.
    """
    plan = NetworkPlan(scheme="wr", policy=policy)
    rec = observability.recorder()
    pid = -1
    if rec:
        pid = rec.begin_pass(
            "network", scheme="wr", policy=policy.value,
            kernels=len(geometries), workspace_limit=workspace_limit,
        )
    with telemetry.span(
        "optimize.network", scheme="wr", kernels=len(geometries),
        policy=policy.value, workspace_limit=workspace_limit,
    ) as tspan:
        benches = {
            name: benchmark_kernel(handle, g, policy, cache=cache)
            for name, g in geometries.items()
        }
        plan.benchmark_time = sum(b.benchmark_time for b in benches.values())
        configs = solve_network_wr(benches, workspace_limit)
        for name, g in geometries.items():
            undivided = benches[name].fastest_micro(g.n, workspace_limit)
            plan.kernels.append(
                KernelPlan(
                    name=name,
                    geometry=g,
                    configuration=configs[name],
                    undivided_time=undivided.time if undivided else math.inf,
                )
            )
        tspan.set("benchmark_seconds", plan.benchmark_time)
        tspan.set("total_time", plan.total_time)
    if rec:
        _record_network_baselines(rec, pid, plan)
    return plan


def _record_network_baselines(rec, pid: int, plan: NetworkPlan) -> None:
    """Per-kernel speedup accounting + pass close (provenance on only)."""
    for k in plan.kernels:
        rec.record(
            "kernel.baseline", kernel=k.name,
            undivided_time=k.undivided_time,
            time=k.configuration.time,
            speedup=k.speedup,
        )
    rec.end_pass(
        pid, scheme=plan.scheme, total_time=plan.total_time,
        total_workspace=plan.total_workspace,
    )


def prepare_wd_kernels(
    handle: CudnnHandle,
    geometries: dict[str, ConvGeometry],
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
    cache: BenchmarkCache | None = None,
    workspace_limit: int | None = None,
    max_front: int | None = None,
    deterministic_only: bool = False,
) -> list[WDKernel]:
    """Benchmark every kernel and attach its desirable set: WD's input.

    Every kernel is benchmarked (so ``benchmark_time`` and cache accounting
    count each one), but the front is built once per distinct kernel:
    replicas (ResNet's repeated blocks) with equal geometry and equal
    benchmark rows share one front list.  Replicas whose rows differ -- a
    noisy handle without a cache -- get their own.  ``workspace_limit``
    caps the fronts at a WD pool; ``None`` keeps the full, limit-free
    fronts that :func:`~repro.core.sweep.sweep_wd` cuts per limit.
    Provenance stays per kernel: a replica's ``pareto`` pass is replayed
    from the shared front.
    """
    kernels: list[WDKernel] = []
    fronts: dict[tuple, list[Configuration]] = {}
    rec = observability.recorder()
    for name, g in geometries.items():
        bench = benchmark_kernel(handle, g, policy, cache=cache,
                                 deterministic_only=deterministic_only)
        distinct = (g.cache_key(), bench_fingerprint(bench))
        front = fronts.get(distinct)
        if front is None:
            front = fronts[distinct] = desirable_set(
                bench, workspace_limit=workspace_limit, max_front=max_front,
                kernel=name,
            )
        elif rec:
            record_pareto_provenance(rec, bench, workspace_limit, front, name)
        kernels.append(
            WDKernel(key=name, geometry=g, benchmark=bench, desirable=front)
        )
    return kernels


def optimize_network_wd(
    handle: CudnnHandle,
    geometries: dict[str, ConvGeometry],
    total_workspace: int,
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
    solver: str = "mckp",
    cache: BenchmarkCache | None = None,
    max_front: int | None = None,
) -> NetworkPlan:
    """WD: all kernels share one ``total_workspace``-byte pool.

    ``solver`` is ``"mckp"`` (production) or ``"ilp"`` (branch-and-bound);
    see :func:`~repro.core.wd.solve_from_kernels`.
    """
    rec = observability.recorder()
    pid = -1
    if rec:
        pid = rec.begin_pass(
            "network", scheme="wd", policy=policy.value,
            kernels=len(geometries), total_workspace=total_workspace,
        )
    with telemetry.span(
        "optimize.network", scheme="wd", kernels=len(geometries),
        policy=policy.value, total_workspace=total_workspace,
    ) as tspan:
        kernels = prepare_wd_kernels(
            handle, geometries, policy, cache=cache,
            workspace_limit=total_workspace, max_front=max_front,
        )
        plan = wd_network_plan(
            policy, kernels,
            solve_from_kernels(kernels, total_workspace, solver=solver),
        )
        tspan.set("benchmark_seconds", plan.benchmark_time)
        tspan.set("total_time", plan.total_time)
    if rec:
        _record_network_baselines(rec, pid, plan)
    return plan


def wd_network_plan(
    policy: BatchSizePolicy, kernels: list[WDKernel], result: WDResult
) -> NetworkPlan:
    """The network plan of a WD result over prepared kernels.

    Each kernel's undivided baseline is its fastest single micro-batch
    under the whole pool, as cuDNN alone would pick with that much memory.
    """
    plan = NetworkPlan(
        scheme="wd", policy=policy, wd=result,
        benchmark_time=sum(k.benchmark.benchmark_time for k in kernels),
    )
    for kernel in kernels:
        micro = kernel.benchmark.fastest_micro(
            kernel.geometry.n, result.total_workspace_limit
        )
        plan.kernels.append(
            KernelPlan(
                name=kernel.key,
                geometry=kernel.geometry,
                configuration=result.assignments[kernel.key],
                undivided_time=micro.time if micro else math.inf,
            )
        )
    return plan
