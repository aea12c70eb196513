"""Section V -- the paper's related-work comparisons, made runnable.

Three arguments the paper makes against/alongside prior art, each
quantified on our substrate:

* **ZNNi** (Zlateski et al.): micro-batching applied *only* to FFT
  convolution.  mu-cuDNN "generalizes the schema so that micro-batching can
  be applied to any convolution algorithm" -- restricting the WR optimizer
  to the FFT family measures exactly what that generalization buys.
* **Li et al.**: a static architecture-specific heuristic ("use FFT for
  large filters, GEMM otherwise") with "no guarantee that the algorithm
  always provides the best memory alignment" -- vs the DP/ILP guarantee.
* **vDNN** (Rhu et al.): activation offloading.  The paper: "even in such
  memory-efficient implementation mu-cuDNN is expected to save the peak
  memory usage of each layer" -- workspaces are live during kernels and
  cannot be offloaded, so micro-batching composes with offloading.
"""

from benchmarks.conftest import run_once
from repro.core.benchmarker import benchmark_kernel
from repro.core.handle import UcudnnHandle
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.core.wr import optimize_from_benchmark
from repro.cudnn.device import Gpu
from repro.cudnn.enums import AlgoFamily
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.errors import OptimizationError
from repro.frameworks import time_net
from repro.frameworks.model_zoo import build_alexnet
from repro.harness.experiments import conv_geometries_of
from repro.harness.tables import Table, fmt_ms
from repro.memory import memory_report, plan_offload
from repro.units import MIB

FFT_FAMILIES = {AlgoFamily.FFT, AlgoFamily.FFT_TILING}
GEMM_FAMILIES = {AlgoFamily.IMPLICIT_GEMM, AlgoFamily.IMPLICIT_PRECOMP_GEMM,
                 AlgoFamily.GEMM}


def run_znni_and_li(limit=64 * MIB):
    """AlexNet kernel sweep: mu-cuDNN vs FFT-only WR vs a static heuristic."""
    handle = CudnnHandle(gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING)
    geoms = conv_geometries_of(build_alexnet, 256)
    totals = {"ucudnn": 0.0, "znni": 0.0, "li": 0.0, "cudnn": 0.0}
    for g in geoms.values():
        bench = benchmark_kernel(handle, g, BatchSizePolicy.ALL)
        totals["cudnn"] += bench.fastest_micro(g.n, limit).time
        totals["ucudnn"] += optimize_from_benchmark(bench, limit).time
        # ZNNi-style: micro-batching over FFT only; layers where FFT is
        # unsupported (or never fits) fall back to plain cuDNN.
        try:
            znni = optimize_from_benchmark(bench.restricted(FFT_FAMILIES), limit)
            totals["znni"] += min(znni.time, bench.fastest_micro(g.n, limit).time)
        except OptimizationError:
            totals["znni"] += bench.fastest_micro(g.n, limit).time
        # Li-et-al-style static rule: FFT for r >= 5, GEMM otherwise
        # (undivided; their heuristic predates micro-batching).
        rule = FFT_FAMILIES if g.r >= 5 else GEMM_FAMILIES
        micro = bench.restricted(rule).fastest_micro(g.n, limit)
        if micro is None:  # rule's choice does not fit: framework fallback
            micro = bench.fastest_micro(g.n, limit)
        totals["li"] += micro.time

    table = Table(
        "Related work: AlexNet conv kernels @64 MiB (sum over 15 kernels)",
        ["approach", "conv ms", "vs mu-cuDNN"],
    )
    for key, label in (("cudnn", "plain cuDNN"), ("li", "Li et al. heuristic"),
                       ("znni", "ZNNi (FFT-only division)"),
                       ("ucudnn", "mu-cuDNN (WR, all)")):
        table.add(label, fmt_ms(totals[key]),
                  f"{totals[key] / totals['ucudnn']:.2f}x")
    return totals, table


def run_vdnn(limit_cudnn=512 * MIB, limit_ucudnn=64 * MIB):
    """vDNN-style offloading with and without mu-cuDNN underneath."""
    def build(policy, limit):
        if policy is None:
            handle = CudnnHandle(gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING)
        else:
            handle = UcudnnHandle(
                gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING,
                options=Options(policy=policy, workspace_limit=limit),
            )
        net = build_alexnet(batch=256).setup(handle, workspace_limit=limit)
        report = time_net(net, iterations=1)
        mem = memory_report(net, handle if policy else None)
        return plan_offload(net, mem, report, window=2)

    base = build(None, limit_cudnn)
    ours = build(BatchSizePolicy.POWER_OF_TWO, limit_ucudnn)
    table = Table(
        "vDNN-style offloading (AlexNet N=256, window 2)",
        ["configuration", "peak device mem", "of which workspace",
         "iter ms", "offload slowdown"],
    )
    from repro.units import format_bytes
    for label, plan in (("vDNN + cuDNN@512MiB", base),
                        ("vDNN + mu-cuDNN@64MiB", ours)):
        table.add(label, format_bytes(plan.peak_device_bytes),
                  format_bytes(plan.peak_workspace_bytes),
                  fmt_ms(plan.iteration_time),
                  f"{plan.slowdown_vs_no_offload:.2f}x")
    return base, ours, table


def test_znni_and_li_comparison(benchmark):
    totals, table = run_once(benchmark, run_znni_and_li)
    print("\n" + table.render())
    benchmark.extra_info["table"] = table.render()

    # The generalization hierarchy the paper claims: mu-cuDNN <= ZNNi-style
    # <= plain cuDNN (FFT-only division helps conv2 but leaves the 3x3
    # layers' Winograd wins on the table).
    assert totals["ucudnn"] <= totals["znni"] + 1e-12
    assert totals["znni"] <= totals["cudnn"] + 1e-12
    assert totals["znni"] / totals["ucudnn"] > 1.05
    # The static heuristic is brittle: never better than the optimizer, and
    # measurably worse overall.
    assert totals["li"] >= totals["ucudnn"] - 1e-12
    assert totals["li"] / totals["ucudnn"] > 1.05


def test_vdnn_composition(benchmark):
    base, ours, table = run_once(benchmark, run_vdnn)
    print("\n" + table.render())
    benchmark.extra_info["table"] = table.render()

    # Offloading leaves workspace untouched; mu-cuDNN shrinks it.
    assert ours.peak_workspace_bytes < 0.5 * base.peak_workspace_bytes
    # ... which shows up in the composed peak footprint.
    assert ours.peak_device_bytes < base.peak_device_bytes
    # Offloading everything (window 2) exposes some PCIe time on AlexNet --
    # a real vDNN would offload selectively; the model shows the tension.
    assert base.slowdown_vs_no_offload < 2.0
