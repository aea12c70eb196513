"""Experiment registry: one entry point per paper figure/table.

Each function reproduces the workload behind one artifact of the paper's
evaluation (section IV) and returns structured rows plus a rendered
:class:`~repro.harness.tables.Table`.  The ``benchmarks/`` tree wraps these
in pytest-benchmark targets and asserts the paper-shape properties listed in
DESIGN.md's per-experiment index.

All experiments run on the simulated clock; GPU names default to the
paper's primary platform (P100-SXM2 / TSUBAME 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    # Runtime import stays lazy (inside serve_plans): repro.service.soak pulls
    # in harness.tables, which would close an import cycle through this module.
    from repro.service.soak import SoakReport

from repro.core.benchmarker import benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.config import Configuration
from repro.core.handle import UcudnnHandle
from repro.core.optimizer import (
    optimize_network_wd,
    optimize_network_wr,
    prepare_wd_kernels,
)
from repro.core.options import Options
from repro.core.pareto import desirable_set
from repro.core.policies import BatchSizePolicy
from repro.core.sweep import sweep_network_wd, sweep_network_wr, sweep_wd
from repro.core.wr import optimize_from_benchmark
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.device import Gpu, Node
from repro.cudnn.enums import ConvType
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks import time_net
from repro.frameworks.model_zoo import (
    build_alexnet,
    build_densenet40,
    build_resnet18,
    build_resnet50,
)
from repro.harness.tables import Table, fmt_ms, fmt_ratio
from repro.memory import memory_report
from repro.parallel.evaluator import benchmark_kernels_parallel
from repro.units import MIB, format_bytes

#: Mini-batch sizes of the paper's evaluation per network.
PAPER_BATCHES = {
    "alexnet": 256,
    "alexnet_v100": 1024,
    "resnet18": 128,
    "resnet50_tf": 64,
    "resnet50_wd": 32,
    "densenet40": 256,
}

#: Per-layer workspace limits swept throughout section IV.
PAPER_WORKSPACES_MIB = (8, 64, 512)


def conv_geometries_of(builder, batch: int, gpu: str = "p100-sxm2",
                       forward_only: bool = False) -> dict[str, ConvGeometry]:
    """Convolution kernel geometries of a zoo network at a batch size."""
    handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
    net = builder(batch=batch).setup(handle, workspace_limit=8 * MIB)
    geoms = net.conv_geometries()
    if forward_only:
        geoms = {k: g for k, g in geoms.items() if g.conv_type == ConvType.FORWARD}
    return geoms


def _timed_net(builder, batch: int, gpu: str, workspace_limit: int | None,
               policy: BatchSizePolicy | None, iterations: int = 2,
               total_workspace: int | None = None,
               framework_limit: int | None = "same",
               cache: BenchmarkCache | None = None,
               static_gradients: bool = True,
               transient_workspace: bool = False):
    """Build + time one network configuration.

    ``policy=None`` runs plain cuDNN; otherwise mu-cuDNN with the policy.
    ``framework_limit`` is what the framework passes to the Get calls
    ("same" forwards ``workspace_limit``; ``None`` models TensorFlow, which
    passes nothing -- section IV-B2).
    """
    if policy is None:
        handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
    else:
        handle = UcudnnHandle(
            gpu=Gpu.create(gpu),
            mode=ExecMode.TIMING,
            options=Options(
                policy=policy,
                workspace_limit=workspace_limit if workspace_limit is not None else 0,
                total_workspace=total_workspace,
            ),
            cache=cache,
            transient_workspace=transient_workspace,
        )
    fw_limit = workspace_limit if framework_limit == "same" else framework_limit
    net = builder(batch=batch).setup(
        handle, workspace_limit=fw_limit, static_gradients=static_gradients
    )
    report = time_net(net, iterations=iterations)
    return net, handle, report


# ---------------------------------------------------------------------------
# Fig. 1 -- cuDNN fallback cliff ("Best" vs "-1 byte")
# ---------------------------------------------------------------------------


@dataclass
class Fig1Row:
    layer: str
    best_algo: str
    best_time: float
    best_workspace: int
    fallback_algo: str
    fallback_time: float
    penalty: float


@dataclass
class Fig1Result:
    rows: list[Fig1Row]
    table: Table

    @property
    def worst_penalty(self) -> float:
        return max(r.penalty for r in self.rows)


def fig1_best_vs_minus_one_byte(gpu: str = "p100-sxm2", batch: int = 256) -> Fig1Result:
    """Fig. 1: forward convolution of AlexNet layers, unlimited workspace vs
    a limit one byte below the best algorithm's requirement."""
    handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
    geoms = conv_geometries_of(build_alexnet, batch, gpu, forward_only=True)
    table = Table(
        f"Fig.1 AlexNet fwd conv on {gpu} (N={batch}): Best vs -1 byte",
        ["layer", "best algo", "best ms", "best ws", "-1B algo", "-1B ms", "penalty"],
    )
    rows = []
    for key in sorted(geoms):
        g = geoms[key]
        layer = key.split(":")[0]
        best = handle.perf.fastest(g)
        limit = max(0, best.workspace - 1)
        fallback = handle.perf.fastest(g, workspace_limit=limit)
        penalty = fallback.time / best.time
        rows.append(
            Fig1Row(layer, best.algo.name, best.time, best.workspace,
                    fallback.algo.name, fallback.time, penalty)
        )
        table.add(layer, best.algo.name, fmt_ms(best.time),
                  format_bytes(best.workspace), fallback.algo.name,
                  fmt_ms(fallback.time), fmt_ratio(penalty))
    return Fig1Result(rows=rows, table=table)


# ---------------------------------------------------------------------------
# Fig. 8 -- desirable configurations (Pareto front) of conv2 forward
# ---------------------------------------------------------------------------


@dataclass
class Fig8Result:
    configurations: list[Configuration]
    table: Table
    workspace_limit: int


def fig8_pareto_front(gpu: str = "p100-sxm2", batch: int = 256,
                      workspace_limit: int = 120 * MIB,
                      policy: BatchSizePolicy = BatchSizePolicy.ALL) -> Fig8Result:
    """Fig. 8: the desirable set of AlexNet conv2 (Forward) under 120 MiB."""
    handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
    g = conv_geometries_of(build_alexnet, batch, gpu, forward_only=True)["conv2:Forward"]
    bench = benchmark_kernel(handle, g, policy)
    front = desirable_set(bench, workspace_limit=workspace_limit)
    table = Table(
        f"Fig.8 conv2 Forward desirable set on {gpu} "
        f"(N={batch}, limit {format_bytes(workspace_limit)}, policy {policy.value})",
        ["workspace", "time ms", "micro-batches", "algorithms"],
    )
    for config in front:
        algos = sorted({m.algo.name for m in config})
        table.add(format_bytes(config.workspace), fmt_ms(config.time),
                  str(config.micro_batch_sizes()), "+".join(algos))
    return Fig8Result(configurations=front, table=table, workspace_limit=workspace_limit)


# ---------------------------------------------------------------------------
# Fig. 9 -- conv2 forward under WR, per policy
# ---------------------------------------------------------------------------


@dataclass
class Fig9Row:
    policy: str
    time: float
    workspace: int
    configuration: Configuration


@dataclass
class Fig9Result:
    rows: list[Fig9Row]
    table: Table

    def by_policy(self) -> dict[str, Fig9Row]:
        return {r.policy: r for r in self.rows}


def fig9_conv2_wr(gpu: str = "p100-sxm2", batch: int = 256,
                  workspace_limit: int = 64 * MIB) -> Fig9Result:
    """Fig. 9: WR-optimized conv2 Forward at 64 MiB for the three policies."""
    handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
    g = conv_geometries_of(build_alexnet, batch, gpu, forward_only=True)["conv2:Forward"]
    table = Table(
        f"Fig.9 conv2 Forward WR on {gpu} (N={batch}, "
        f"limit {format_bytes(workspace_limit)})",
        ["policy", "time ms", "workspace", "micro-batches", "algorithms"],
    )
    rows = []
    # One cache across the three policies: undivided's single unit and every
    # powerOfTwo unit recur in the later policies' candidate sets, so this
    # skips the duplicate Find calls exactly as section III-D intends.
    cache = BenchmarkCache()
    for policy in (BatchSizePolicy.UNDIVIDED, BatchSizePolicy.POWER_OF_TWO,
                   BatchSizePolicy.ALL):
        plan = optimize_network_wr(
            handle, {"conv2:Forward": g}, workspace_limit, policy, cache=cache
        )
        config = plan.kernels[0].configuration
        rows.append(Fig9Row(policy.value, config.time, config.workspace, config))
        algos = sorted({m.algo.name for m in config})
        table.add(policy.value, fmt_ms(config.time), format_bytes(config.workspace),
                  str(config.micro_batch_sizes()), "+".join(algos))
    return Fig9Result(rows=rows, table=table)


# ---------------------------------------------------------------------------
# Fig. 10 -- Caffe AlexNet on three GPUs x three workspace limits x policies
# ---------------------------------------------------------------------------


@dataclass
class Fig10Row:
    gpu: str
    workspace_mib: int
    policy: str
    total_time: float
    conv_time: float
    other_time: float
    workspace_bytes: int
    benchmark_time: float


@dataclass
class Fig10Result:
    rows: list[Fig10Row]
    table: Table

    def cell(self, gpu: str, workspace_mib: int, policy: str) -> Fig10Row:
        for r in self.rows:
            if (r.gpu, r.workspace_mib, r.policy) == (gpu, workspace_mib, policy):
                return r
        raise KeyError((gpu, workspace_mib, policy))

    def conv_speedup(self, gpu: str, workspace_mib: int, policy: str) -> float:
        base = self.cell(gpu, workspace_mib, "undivided")
        return base.conv_time / self.cell(gpu, workspace_mib, policy).conv_time

    def total_speedup(self, gpu: str, workspace_mib: int, policy: str) -> float:
        base = self.cell(gpu, workspace_mib, "undivided")
        return base.total_time / self.cell(gpu, workspace_mib, policy).total_time


_FIG10_POLICIES = {
    "undivided": BatchSizePolicy.UNDIVIDED,
    "powerOfTwo": BatchSizePolicy.POWER_OF_TWO,
    "all": BatchSizePolicy.ALL,
}


def fig10_alexnet_three_gpus(
    gpus: tuple[str, ...] = ("k80", "p100-sxm2", "v100-sxm2"),
    workspaces_mib: tuple[int, ...] = PAPER_WORKSPACES_MIB,
    policies: tuple[str, ...] = ("undivided", "powerOfTwo", "all"),
    iterations: int = 2,
) -> Fig10Result:
    """Fig. 10: Caffe-driver AlexNet timing breakdowns.

    Mini-batch 256 on K80/P100 and 1024 on V100, as in the paper.
    """
    table = Table(
        "Fig.10 AlexNet fwd+bwd per iteration (Caffe driver)",
        ["gpu", "ws/layer", "policy", "total ms", "conv ms", "other ms",
         "ws used", "opt cost s"],
    )
    rows = []
    for gpu in gpus:
        batch = PAPER_BATCHES["alexnet_v100"] if gpu.startswith("v100") else PAPER_BATCHES["alexnet"]
        for ws_mib in workspaces_mib:
            for policy_name in policies:
                policy = _FIG10_POLICIES[policy_name]
                net, handle, report = _timed_net(
                    build_alexnet, batch, gpu, ws_mib * MIB, policy,
                    iterations=iterations,
                )
                ws_used = handle.total_workspace_bytes()
                rows.append(
                    Fig10Row(gpu, ws_mib, policy_name, report.total,
                             report.conv_total, report.other_total, ws_used,
                             handle.benchmark_time)
                )
                table.add(gpu, f"{ws_mib} MiB", policy_name,
                          fmt_ms(report.total), fmt_ms(report.conv_total),
                          fmt_ms(report.other_total), format_bytes(ws_used),
                          f"{handle.benchmark_time:.2f}")
    return Fig10Result(rows=rows, table=table)


# ---------------------------------------------------------------------------
# Fig. 11 -- TensorFlow driver: AlexNet / ResNet-50 / DenseNet-40 on P100
# ---------------------------------------------------------------------------


@dataclass
class Fig11Row:
    model: str
    workspace_mib: int
    policy: str
    total_time: float
    conv_time: float


@dataclass
class Fig11Result:
    rows: list[Fig11Row]
    table: Table

    def cell(self, model: str, workspace_mib: int, policy: str) -> Fig11Row:
        for r in self.rows:
            if (r.model, r.workspace_mib, r.policy) == (model, workspace_mib, policy):
                return r
        raise KeyError((model, workspace_mib, policy))

    def total_speedup(self, model: str, workspace_mib: int, policy: str) -> float:
        base = self.cell(model, workspace_mib, "undivided")
        return base.total_time / self.cell(model, workspace_mib, policy).total_time


_FIG11_MODELS = {
    "alexnet": (build_alexnet, PAPER_BATCHES["alexnet"]),
    "resnet50": (build_resnet50, PAPER_BATCHES["resnet50_tf"]),
    "densenet40": (build_densenet40, PAPER_BATCHES["densenet40"]),
}


def fig11_tensorflow(
    models: tuple[str, ...] = ("alexnet", "resnet50", "densenet40"),
    workspaces_mib: tuple[int, ...] = PAPER_WORKSPACES_MIB,
    policies: tuple[str, ...] = ("undivided", "powerOfTwo"),
    gpu: str = "p100-sxm2",
    iterations: int = 2,
) -> Fig11Result:
    """Fig. 11: TF-style driver -- the framework passes *no* workspace limit
    to the cuDNN benchmark calls; limits are handed to mu-cuDNN manually
    (section IV-B2)."""
    table = Table(
        f"Fig.11 TensorFlow driver on {gpu} (fwd+bwd per iteration)",
        ["model", "ws/layer", "policy", "total ms", "conv ms"],
    )
    rows = []
    for model in models:
        builder, batch = _FIG11_MODELS[model]
        cache = BenchmarkCache()  # shared across policies, like one TF session
        for ws_mib in workspaces_mib:
            for policy_name in policies:
                policy = _FIG10_POLICIES[policy_name]
                net, handle, report = _timed_net(
                    builder, batch, gpu, ws_mib * MIB, policy,
                    iterations=iterations, framework_limit=None, cache=cache,
                    static_gradients=False,  # TF's buffer-recycling optimizer
                    transient_workspace=True,  # TF's per-op scratch allocator
                )
                rows.append(
                    Fig11Row(model, ws_mib, policy_name, report.total,
                             report.conv_total)
                )
                table.add(model, f"{ws_mib} MiB", policy_name,
                          fmt_ms(report.total), fmt_ms(report.conv_total))
    return Fig11Result(rows=rows, table=table)


# ---------------------------------------------------------------------------
# Fig. 12 -- per-layer memory, cuDNN@512MiB vs mu-cuDNN@64MiB
# ---------------------------------------------------------------------------


@dataclass
class Fig12Model:
    model: str
    cudnn_report: object
    ucudnn_report: object
    cudnn_time: float
    ucudnn_time: float

    @property
    def workspace_reduction(self) -> float:
        base = self.cudnn_report.total_workspace
        ours = self.ucudnn_report.total_workspace
        return base / max(1, ours)

    @property
    def max_layer_reduction(self) -> float:
        """Largest per-layer total-memory reduction (the 3.43x/2.73x)."""
        base = self.cudnn_report.by_name()
        best = 1.0
        for layer in self.ucudnn_report.layers:
            if not layer.is_conv:
                continue
            b = base[layer.name]
            if layer.total > 0:
                best = max(best, b.total / layer.total)
        return best

    @property
    def slowdown(self) -> float:
        return self.ucudnn_time / self.cudnn_time


@dataclass
class Fig12Result:
    models: dict[str, Fig12Model]
    table: Table


def fig12_memory(
    gpu: str = "p100-sxm2",
    cudnn_limit: int = 512 * MIB,
    ucudnn_limit: int = 64 * MIB,
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
) -> Fig12Result:
    """Fig. 12: per-layer memory of AlexNet (N=256) and ResNet-18 (N=128)."""
    table = Table(
        f"Fig.12 per-layer memory on {gpu}: cuDNN@{format_bytes(cudnn_limit)} "
        f"vs mu-cuDNN@{format_bytes(ucudnn_limit)}",
        ["model", "layer", "cuDNN ws", "mu-cuDNN ws", "cut"],
    )
    models = {}
    for model, builder, batch in (
        ("alexnet", build_alexnet, PAPER_BATCHES["alexnet"]),
        ("resnet18", build_resnet18, PAPER_BATCHES["resnet18"]),
    ):
        net_c, handle_c, report_c = _timed_net(builder, batch, gpu, cudnn_limit, None)
        mem_c = memory_report(net_c)
        net_u, handle_u, report_u = _timed_net(builder, batch, gpu, ucudnn_limit, policy)
        mem_u = memory_report(net_u, handle_u)
        models[model] = Fig12Model(model, mem_c, mem_u, report_c.total, report_u.total)
        base = mem_c.by_name()
        for layer in mem_u.layers:
            if not layer.is_conv:
                continue
            b = base[layer.name]
            cut = b.workspace_bytes / max(1, layer.workspace_bytes)
            table.add(model, layer.name, format_bytes(b.workspace_bytes),
                      format_bytes(layer.workspace_bytes), fmt_ratio(cut))
    return Fig12Result(models=models, table=table)


# ---------------------------------------------------------------------------
# Fig. 13 -- WR vs WD at equal total workspace
# ---------------------------------------------------------------------------


@dataclass
class Fig13Row:
    model: str
    scheme: str
    policy: str
    total_limit: int
    conv_time: float
    workspace_used: int


@dataclass
class Fig13Result:
    rows: list[Fig13Row]
    table: Table

    def cell(self, model: str, scheme: str, total_limit: int, policy: str) -> Fig13Row:
        for r in self.rows:
            if (r.model, r.scheme, r.total_limit, r.policy) == (
                model, scheme, total_limit, policy,
            ):
                return r
        raise KeyError((model, scheme, total_limit, policy))


def fig13_wr_vs_wd(
    gpu: str = "p100-sxm2",
    models: tuple[str, ...] = ("alexnet", "resnet50"),
    per_kernel_mib: tuple[int, ...] = (8, 64),
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
) -> Fig13Result:
    """Fig. 13: WR and WD compared at identical *total* workspace.

    WR gets ``m`` MiB per kernel; WD gets ``m x num_kernels`` MiB pooled
    (the paper's adjoined bars: 8 MiB/kernel <-> 120 MiB total for AlexNet's
    15 kernels).  Conv-only times, since WR/WD differ only in convolutions.
    """
    builders = {
        "alexnet": (build_alexnet, PAPER_BATCHES["alexnet"]),
        "resnet50": (build_resnet50, PAPER_BATCHES["resnet50_wd"]),
    }
    table = Table(
        f"Fig.13 WR vs WD on {gpu} (conv time per iteration)",
        ["model", "scheme", "policy", "total ws limit", "conv ms", "ws used"],
    )
    rows = []
    for model in models:
        builder, batch = builders[model]
        geoms = conv_geometries_of(builder, batch, gpu)
        handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
        cache = BenchmarkCache()
        # All limits of a scheme are solved as one sweep (identical results
        # to the per-limit path; see repro.core.sweep).
        per_limits = [m * MIB for m in per_kernel_mib]
        undiv = sweep_network_wr(handle, geoms, per_limits,
                                 BatchSizePolicy.UNDIVIDED, cache=cache)
        wr = sweep_network_wr(handle, geoms, per_limits, policy, cache=cache)
        totals = [m * MIB * len(geoms) for m in per_kernel_mib]
        _, wd_plans = sweep_network_wd(handle, geoms, totals, policy,
                                       cache=cache)
        for mib_each in per_kernel_mib:
            total = mib_each * MIB * len(geoms)
            for scheme, plan, pol_name in (
                ("wr-undivided", undiv.plan(mib_each * MIB),
                 BatchSizePolicy.UNDIVIDED.value),
                ("wr", wr.plan(mib_each * MIB), policy.value),
                ("wd", wd_plans[total], policy.value),
            ):
                conv_time = plan.total_time
                ws_used = plan.total_workspace
                rows.append(Fig13Row(model, scheme, pol_name, total, conv_time, ws_used))
                table.add(model, scheme, pol_name, format_bytes(total),
                          fmt_ms(conv_time), format_bytes(ws_used))
    return Fig13Result(rows=rows, table=table)


# ---------------------------------------------------------------------------
# Fig. 14 -- WD workspace division of AlexNet at 120 MiB
# ---------------------------------------------------------------------------


@dataclass
class Fig14Result:
    assignments: dict[str, Configuration]
    table: Table
    total_limit: int

    def share_of(self, layer_names: tuple[str, ...]) -> float:
        """Fraction of assigned workspace going to the given conv layers."""
        total = sum(c.workspace for c in self.assignments.values())
        if total == 0:
            return 0.0
        chosen = sum(
            c.workspace
            for key, c in self.assignments.items()
            if key.split(":")[0] in layer_names
        )
        return chosen / total


def fig14_workspace_division(
    gpu: str = "p100-sxm2",
    total_workspace: int = 120 * MIB,
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
) -> Fig14Result:
    """Fig. 14: how WD divides a 120 MiB pool across AlexNet's 15 kernels."""
    geoms = conv_geometries_of(build_alexnet, PAPER_BATCHES["alexnet"], gpu)
    handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
    plan = optimize_network_wd(handle, geoms, total_workspace, policy)
    table = Table(
        f"Fig.14 WD workspace division of AlexNet on {gpu} "
        f"(total {format_bytes(total_workspace)})",
        ["kernel", "workspace", "share %", "time ms", "micro-batches"],
    )
    assignments = {k.name: k.configuration for k in plan.kernels}
    total_ws = sum(c.workspace for c in assignments.values())
    for key in sorted(assignments):
        c = assignments[key]
        share = 100.0 * c.workspace / max(1, total_ws)
        table.add(key, format_bytes(c.workspace), f"{share:.1f}",
                  fmt_ms(c.time), str(c.micro_batch_sizes()))
    return Fig14Result(assignments=assignments, table=table,
                       total_limit=total_workspace)


# ---------------------------------------------------------------------------
# Section IV-B1 text -- optimization cost (all vs powerOfTwo, + parallel)
# ---------------------------------------------------------------------------


@dataclass
class OptCostRow:
    policy: str
    num_gpus: int
    benchmark_time: float
    conv_time: float


@dataclass
class OptCostResult:
    rows: list[OptCostRow]
    table: Table

    def cell(self, policy: str, num_gpus: int) -> OptCostRow:
        for r in self.rows:
            if (r.policy, r.num_gpus) == (policy, num_gpus):
                return r
        raise KeyError((policy, num_gpus))


def tab_optimization_cost(
    gpu: str = "p100-sxm2",
    workspace_limit: int = 64 * MIB,
    node_gpus: int = 4,
) -> OptCostResult:
    """Section IV-B1: time-to-optimize AlexNet -- 34.16 s (all) vs 3.82 s
    (powerOfTwo) in the paper -- plus the parallel evaluation of III-D."""
    geoms = conv_geometries_of(build_alexnet, PAPER_BATCHES["alexnet"], gpu)
    table = Table(
        f"Optimization cost for AlexNet on {gpu} "
        f"(limit {format_bytes(workspace_limit)}/kernel)",
        ["policy", "GPUs", "benchmark s", "optimized conv ms"],
    )
    rows = []
    for policy in (BatchSizePolicy.POWER_OF_TWO, BatchSizePolicy.ALL):
        for num_gpus in (1, node_gpus):
            node = Node(gpu, num_gpus=num_gpus)
            result = benchmark_kernels_parallel(node, geoms, policy)
            conv_time = sum(
                optimize_from_benchmark(b, workspace_limit).time
                for b in result.benchmarks.values()
            )
            rows.append(OptCostRow(policy.value, num_gpus, result.parallel_time, conv_time))
            table.add(policy.value, str(num_gpus), f"{result.parallel_time:.2f}",
                      fmt_ms(conv_time))
    return OptCostResult(rows=rows, table=table)


# ---------------------------------------------------------------------------
# Section IV-D text -- WD ILP problem size and solve time for ResNet-50
# ---------------------------------------------------------------------------


@dataclass
class ILPStatsRow:
    model: str
    total_workspace: int
    solver: str
    num_variables: int
    solve_time: float
    conv_time: float
    #: Variables of the symmetry-reduced (aggregated) instance the sweep
    #: solver actually solved; at most ``num_variables``.
    aggregated_variables: int = 0
    #: Branch-and-bound nodes of that instance (0 for the mckp solver).
    nodes: int = 0


@dataclass
class ILPStatsResult:
    rows: list[ILPStatsRow]
    table: Table


def tab_ilp_stats(
    gpu: str = "p100-sxm2",
    per_kernel_mib: tuple[int, ...] = (8, 32),
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
    solvers: tuple[str, ...] = ("ilp", "mckp"),
) -> ILPStatsResult:
    """Section IV-D: the WD ILP for ResNet-50 stays small after Pareto
    pruning (paper: 562 binaries at 5088 MiB, 5.46 ms GLPK solve).

    Solved through :func:`repro.core.sweep.sweep_wd`, so the table also
    reports the symmetry-reduced instance size and its branch-and-bound
    node count.  ``num_variables`` remains the per-copy count after Pareto
    pruning (the paper's figure of merit).
    """
    geoms = conv_geometries_of(build_resnet50, PAPER_BATCHES["resnet50_wd"], gpu)
    handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
    cache = BenchmarkCache()
    kernels = prepare_wd_kernels(handle, geoms, policy, cache=cache)
    totals = [m * MIB * len(geoms) for m in per_kernel_mib]
    table = Table(
        f"WD ILP statistics, ResNet-50 on {gpu} ({len(geoms)} kernels)",
        ["total ws", "solver", "0-1 vars", "agg vars", "B&B nodes",
         "solve ms", "conv ms"],
    )
    sweeps = {solver: sweep_wd(kernels, totals, solver=solver)
              for solver in solvers}
    rows = []
    for total in totals:
        for solver in solvers:
            result = sweeps[solver].result(total)
            per_copy_vars = sum(len(k.desirable) for k in result.kernels)
            nodes = result.ilp.nodes_explored if result.ilp is not None else 0
            rows.append(
                ILPStatsRow("resnet50", total, solver, per_copy_vars,
                            result.solve_time, result.total_time,
                            aggregated_variables=result.num_variables,
                            nodes=nodes)
            )
            table.add(format_bytes(total), solver, str(per_copy_vars),
                      str(result.num_variables), str(nodes),
                      f"{result.solve_time * 1e3:.2f}",
                      fmt_ms(result.total_time))
    return ILPStatsResult(rows=rows, table=table)


# ---------------------------------------------------------------------------
# Cross-limit sweep cost (this reproduction's solver-level contribution)
# ---------------------------------------------------------------------------


@dataclass
class SweepCostResult:
    """Work accounting of the cross-limit sweep solvers on ResNet-50."""

    table: Table
    limits_per_kernel: list[int] = field(default_factory=list)
    totals: list[int] = field(default_factory=list)
    wr_dp_solves: int = 0
    wr_per_limit_solves: int = 0
    wd_solved: int = 0
    wd_ilp_nodes: int = 0
    wd_warm_started: int = 0
    wd_aggregated_variables: int = 0
    wd_per_copy_variables: int = 0


def tab_sweep_cost(
    gpu: str = "p100-sxm2",
    num_limits: int = 8,
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
) -> SweepCostResult:
    """How much solver work the cross-limit sweeps avoid on ResNet-50.

    Sweeps a geometric grid of workspace limits and reports the WR DP
    executions actually run vs the one-DP-per-(kernel, limit) baseline, and
    the WD sweep's symmetry-reduced instance sizes, branch-and-bound nodes,
    and warm-started solves.  ``benchmarks/test_perf_sweep.py`` measures the
    full baseline comparison (including cold per-limit WD solves) and
    records it in ``BENCH_sweep.json``.
    """
    geoms = conv_geometries_of(build_resnet50, PAPER_BATCHES["resnet50_wd"], gpu)
    handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
    cache = BenchmarkCache()
    k = len(geoms)
    per_kernel = sorted({int(x) for x in np.geomspace(MIB, 64 * MIB, num_limits)})
    totals = sorted({int(x) for x in np.geomspace(k * MIB, k * 64 * MIB, num_limits)})

    wr = sweep_network_wr(handle, geoms, per_kernel, policy, cache=cache)
    kernels = prepare_wd_kernels(handle, geoms, policy, cache=cache)
    wd = sweep_wd(kernels, totals, solver="ilp")

    per_copy_vars = sum(
        sum(len(kr.desirable) for kr in result.kernels)
        for result in wd.results.values()
    )
    agg_vars = sum(result.num_variables for result in wd.results.values())
    table = Table(
        f"Cross-limit sweep cost, ResNet-50 on {gpu} "
        f"({k} kernels, {num_limits} limits)",
        ["scheme", "metric", "sweep", "per-limit", "ratio"],
    )
    wr_baseline = k * len(set(per_kernel))
    table.add("wr", "DP solves", str(wr.dp_solves), str(wr_baseline),
              fmt_ratio(wr_baseline / max(1, wr.dp_solves)))
    table.add("wd", "0-1 variables", str(agg_vars), str(per_copy_vars),
              fmt_ratio(per_copy_vars / max(1, agg_vars)))
    table.add("wd", "B&B nodes", str(wd.ilp_nodes), "-", "-")
    table.add("wd", "warm-started solves", str(wd.warm_started_solves),
              str(len(wd.results)), "-")
    return SweepCostResult(
        table=table,
        limits_per_kernel=per_kernel,
        totals=totals,
        wr_dp_solves=wr.dp_solves,
        wr_per_limit_solves=wr_baseline,
        wd_solved=len(wd.results),
        wd_ilp_nodes=wd.ilp_nodes,
        wd_warm_started=wd.warm_started_solves,
        wd_aggregated_variables=agg_vars,
        wd_per_copy_variables=per_copy_vars,
    )


# ---------------------------------------------------------------------------
# Explain -- decision provenance report (observability tentpole)
# ---------------------------------------------------------------------------


@dataclass
class ExplainResult:
    """Decision provenance of one WD optimization, rendered three ways."""

    report: dict
    table: Table

    def to_json(self) -> str:
        from repro.observability import report as R
        return R.to_json(self.report)

    def to_html(self) -> str:
        from repro.observability import report as R
        return R.render_html(self.report)


def explain_report(
    gpu: str = "p100-sxm2",
    model: str = "alexnet",
    batch: int = 64,
    total_workspace_mib: int = 120,
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
) -> ExplainResult:
    """Run WD on a small network with provenance enabled and report *why*.

    Captures the full decision log -- per-kernel Pareto fronts, every
    rejected/dominated candidate, the MCKP solve's statistics, and the chosen
    configuration -- under a :class:`~repro.telemetry.clock.ManualClock`, so
    the serialized report is byte-deterministic (two runs produce identical
    JSON; the ``--diff`` report of a run against itself is empty).
    """
    import repro.observability as observability
    from repro.observability import report as R
    from repro.telemetry.clock import ManualClock

    builders = {"alexnet": build_alexnet, "resnet18": build_resnet18}
    if model not in builders:
        raise ValueError(f"unknown explain model {model!r}; "
                         f"use one of {sorted(builders)}")
    geoms = conv_geometries_of(builders[model], batch, gpu, forward_only=True)
    handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
    with observability.capture(clock=ManualClock()) as recorder:
        plan = optimize_network_wd(
            handle, geoms, total_workspace_mib * MIB, policy=policy,
        )
    report = R.build_report(
        recorder,
        model=model, gpu=gpu, batch=batch, policy=policy.value,
        scheme="wd", solver=plan.wd.solver,
        total_workspace_bytes=total_workspace_mib * MIB,
    )
    columns, rows = R.table_rows(report)
    table = Table(
        f"Decision provenance: {model} on {gpu} (WD, "
        f"{total_workspace_mib} MiB pool, {policy.value})",
        columns,
    )
    for row in rows:
        table.add(*row)
    return ExplainResult(report=report, table=table)


# -- plan service ("serve") ----------------------------------------------------


@dataclass
class ServeResult:
    """One deterministic plan-service soak run (report + rendered table)."""

    report: "SoakReport"
    #: Plans restored from ``store_path`` before the run (0 = cold start).
    warm_restored: int = 0
    #: Snapshot file the run saved to ("" when persistence was off).
    store_path: str = ""

    @property
    def table(self) -> Table:
        return self.report.table


def serve_plans(
    soak: bool = False, seed: int = 0, store_path: str | None = None,
    clients: int | None = None, shards: int = 1,
    devices: "tuple[str, ...]" = (), steal_watermark: int = 0,
    tenant_mix: str = "",
) -> ServeResult:
    """Exercise the plan service under a deterministic client population.

    The default parameterization is a quick demo (16 clients, no faults);
    ``soak=True`` runs the CI gate's configuration -- 64 clients for 6
    rounds over AlexNet's kernels with seeded solver faults and stalls plus
    a 1 s deadline, so every degradation rung (cache hit, coalesce, fresh
    solve, timeout fallback, fault fallback) is exercised.  Both run on a
    :class:`~repro.telemetry.clock.ManualClock`: two runs with equal
    arguments produce byte-identical report JSON.

    ``clients`` overrides the population size (``--soak-clients``);
    ``None`` keeps the historical defaults (64 soaking, 16 demo).
    ``shards`` / ``devices`` / ``steal_watermark`` switch the run onto a
    sharded :class:`~repro.cluster.ClusterService` with the same report
    contract (plus per-shard counts); ``tenant_mix`` names the clients by
    tenant (e.g. ``"train:3,infer:1"``).

    ``store_path`` turns on persistence: an existing snapshot there
    warm-starts the service before the run (a rerun of the same
    configuration then needs **zero** solver invocations -- the CI
    ``--expect-warm`` gate), and the final state is saved back atomically.
    Because the snapshot schema is byte-deterministic and the run is
    clock-deterministic, save -> warm-start -> re-save reproduces the file
    byte for byte.  Both delegate to the cluster's merged snapshot /
    routed warm-start when sharding is on.
    """
    from repro.persistence import (
        load_snapshot, save_snapshot, snapshot_service, warm_start,
    )
    from repro.service import RequestLog
    from repro.service.soak import SoakConfig, build_service, run_soak

    cluster_knobs = {
        "shards": shards,
        "devices": tuple(devices),
        "steal_watermark": steal_watermark,
        "tenant_mix": tenant_mix,
    }
    if soak:
        # Rates chosen so the seeded schedule exercises *both* fallback
        # rungs (timeout and solver_error) within the run's ~30 solves.
        config = SoakConfig(
            clients=64 if clients is None else clients,
            rounds=6, seed=seed, max_pending=64,
            deadline_s=1.0, fail_rate=0.15, stall_rate=0.12, stall_s=5.0,
            capacity=48, bench_capacity=64, **cluster_knobs,
        )
    else:
        config = SoakConfig(
            clients=16 if clients is None else clients,
            rounds=3, seed=seed, max_pending=64, **cluster_knobs,
        )
    if store_path is None:
        return ServeResult(report=run_soak(config))
    import os

    service = build_service(
        config,
        request_log=RequestLog(capacity=max(1, config.clients * config.rounds)),
    )
    try:
        restored = 0
        if os.path.exists(store_path):
            restored = warm_start(service, load_snapshot(store_path))
        report = run_soak(config, service=service)
        save_snapshot(store_path, snapshot_service(service))
    finally:
        service.close()
    return ServeResult(
        report=report, warm_restored=restored, store_path=store_path
    )


# -- wire client ("client") ----------------------------------------------------


@dataclass
class ClientResult:
    """One out-of-process client session against a running plan server."""

    server: dict
    responses: list = field(default_factory=list)
    wire: dict = field(default_factory=dict)

    @property
    def table(self) -> Table:
        t = Table(
            f"Wire client vs plan server (gpu {self.server.get('gpu', '?')}, "
            f"wire v{self.server.get('v', '?')})",
            ["kernel", "limit", "source", "micro-batches"],
        )
        for response in self.responses:
            t.add(
                response.kernel,
                format_bytes(response.key.workspace_limit),
                response.source,
                "+".join(str(m.micro_batch)
                         for m in response.configuration.micros),
            )
        return t


def client_plans(connect: str, count: int = 8) -> ClientResult:
    """Solve AlexNet plan requests against an out-of-process plan server.

    Connects to ``connect`` (``HOST:PORT``, e.g. from
    ``python -m repro.harness.runner serve --listen ...``), asks the server
    which GPU it serves, and requests plans for the first ``count`` AlexNet
    kernels (workspace limits alternating over the paper's 8/64 MiB) --
    deterministic, so CI can compare the answers against an in-process
    solve of the same requests.
    """
    from repro.service.requests import PlanRequest
    from repro.wire import PlanClient, parse_address

    host, port = parse_address(connect)
    with PlanClient(host, port, timeout_s=60.0) as client:
        server = client.ping()
        geometries = conv_geometries_of(
            build_alexnet, PAPER_BATCHES["alexnet"], str(server["gpu"])
        )
        names = sorted(geometries)[:count]
        responses = [
            client.plan(PlanRequest(
                kernel=name,
                geometry=geometries[name],
                policy=BatchSizePolicy.POWER_OF_TWO,
                workspace_limit=PAPER_WORKSPACES_MIB[index % 2] * MIB,
                client="runner-client",
            ))
            for index, name in enumerate(names)
        ]
        wire = client.stats().get("wire", {})
    return ClientResult(server=server, responses=responses, wire=wire)
