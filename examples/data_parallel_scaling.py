#!/usr/bin/env python
"""Data-parallel scaling: where micro-batching fits in distributed training.

The paper's introduction argues: data-parallel frameworks favor large
per-GPU batches (utilization + hiding the gradient all-reduce inside the
backward pass), which drives GPU memory to capacity, which squeezes the
convolution workspace budget -- the regime micro-batching targets.

This example quantifies the whole chain on simulated P100 nodes: AlexNet
trained data-parallel over 1-16 GPUs (weak scaling, 256 samples per GPU),
with plain cuDNN vs mu-cuDNN at the memory-pressured 64 MiB workspace
budget.  mu-cuDNN's per-GPU speedup multiplies across the ensemble, and the
communication-hiding analysis shows why shrinking the per-GPU batch instead
(strong scaling) is not an alternative.

Run:  python examples/data_parallel_scaling.py
"""

from repro.core import BatchSizePolicy, Options, UcudnnHandle
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks import time_net
from repro.frameworks.model_zoo import build_alexnet
from repro.harness.tables import Table
from repro.parallel.data_parallel import simulate_iteration
from repro.units import MIB

BATCH = 256
LIMIT = 64 * MIB


def single_gpu_report(use_ucudnn: bool, batch: int = BATCH):
    if use_ucudnn:
        handle = UcudnnHandle(
            gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING,
            options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                            workspace_limit=LIMIT),
        )
    else:
        handle = CudnnHandle(gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING)
    net = build_alexnet(batch=batch).setup(handle, workspace_limit=LIMIT)
    return time_net(net, iterations=3), net.total_param_bytes()


def main() -> None:
    base_report, params = single_gpu_report(False)
    fast_report, _ = single_gpu_report(True)

    table = Table(
        f"Weak scaling, AlexNet, {BATCH} samples/GPU, NVLink ring all-reduce",
        ["GPUs", "global batch", "cuDNN img/s", "mu-cuDNN img/s", "speedup",
         "comm hidden"],
    )
    for p in (1, 2, 4, 8, 16):
        base = simulate_iteration(base_report, params, p, BATCH)
        fast = simulate_iteration(fast_report, params, p, BATCH)
        table.add(
            str(p), str(p * BATCH),
            f"{base.samples_per_second:,.0f}",
            f"{fast.samples_per_second:,.0f}",
            f"{fast.samples_per_second / base.samples_per_second:.2f}x",
            f"{fast.comm_hidden_fraction * 100:.0f}%",
        )
    print(table.render())

    print("\nWhy not just shrink the per-GPU batch (strong scaling)?")
    strong = Table(
        "Strong scaling a 256 global batch over 4 GPUs (plain cuDNN)",
        ["per-GPU batch", "img/s", "comm hidden"],
    )
    for per_gpu in (256, 64, 16, 8):
        report, _ = single_gpu_report(False, batch=per_gpu)
        it = simulate_iteration(report, params, 4, per_gpu)
        strong.add(str(per_gpu), f"{it.samples_per_second:,.0f}",
                   f"{it.comm_hidden_fraction * 100:.0f}%")
    print(strong.render())
    print("\nSmall per-GPU batches waste the machine and expose the "
          "all-reduce -- large per-GPU batches (and hence mu-cuDNN's "
          "workspace frugality) are the right operating point.")


if __name__ == "__main__":
    main()
