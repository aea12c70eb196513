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
from repro.core.pareto import desirable_set
from repro.core.policies import BatchSizePolicy
from repro.core.tensor_solve import solve_network_wr
from repro.core.wd import WDKernel, WDResult, solve_from_kernels
from repro.core.wr import optimize_from_benchmark
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.handle import CudnnHandle
from repro.errors import SolverError


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
    backend: str = "serial",
) -> NetworkPlan:
    """WR: each kernel gets its own ``workspace_limit``-byte slot.

    ``backend="serial"`` (default) runs one Python DP per kernel;
    ``"tensor"`` solves every kernel in one vectorized pass
    (:func:`~repro.core.tensor_solve.solve_network_wr`).  Plans are
    bit-identical; on failure both raise the same error for the first
    failing kernel in input order (the tensor path benchmarks every kernel
    before raising, the serial path stops at the failure).
    """
    if backend not in ("serial", "tensor"):
        raise SolverError(
            f"unknown WR backend {backend!r}; use 'serial' or 'tensor'"
        )
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
        if backend == "tensor":
            benches = {
                name: benchmark_kernel(handle, g, policy, cache=cache)
                for name, g in geometries.items()
            }
            plan.benchmark_time = sum(
                b.benchmark_time for b in benches.values()
            )
            configs = solve_network_wr(benches, workspace_limit)
            for name, g in geometries.items():
                undivided = benches[name].fastest_micro(g.n, workspace_limit)
                plan.kernels.append(
                    KernelPlan(
                        name=name,
                        geometry=g,
                        configuration=configs[name],
                        undivided_time=(
                            undivided.time if undivided else math.inf
                        ),
                    )
                )
        else:
            for name, g in geometries.items():
                bench = benchmark_kernel(handle, g, policy, cache=cache)
                plan.benchmark_time += bench.benchmark_time
                config = optimize_from_benchmark(
                    bench, workspace_limit, kernel=name
                )
                undivided = bench.fastest_micro(g.n, workspace_limit)
                plan.kernels.append(
                    KernelPlan(
                        name=name,
                        geometry=g,
                        configuration=config,
                        undivided_time=(
                            undivided.time if undivided else math.inf
                        ),
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
    plan = NetworkPlan(scheme="wd", policy=policy)
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
        wd_kernels: list[WDKernel] = []
        undivided: dict[str, float] = {}
        for name, g in geometries.items():
            bench = benchmark_kernel(handle, g, policy, cache=cache)
            plan.benchmark_time += bench.benchmark_time
            front = desirable_set(bench, workspace_limit=total_workspace,
                                  max_front=max_front, kernel=name)
            wd_kernels.append(
                WDKernel(key=name, geometry=g, benchmark=bench, desirable=front)
            )
            micro = bench.fastest_micro(g.n, total_workspace)
            undivided[name] = micro.time if micro else math.inf
        result = solve_from_kernels(wd_kernels, total_workspace, solver=solver)
        plan.wd = result
        for kernel in wd_kernels:
            plan.kernels.append(
                KernelPlan(
                    name=kernel.key,
                    geometry=kernel.geometry,
                    configuration=result.assignments[kernel.key],
                    undivided_time=undivided[kernel.key],
                )
            )
        tspan.set("benchmark_seconds", plan.benchmark_time)
        tspan.set("total_time", plan.total_time)
    if rec:
        _record_network_baselines(rec, pid, plan)
    return plan
