#!/usr/bin/env python
"""Per-layer memory breakdown (the paper's Fig. 12 workflow).

Builds AlexNet (N=256) and ResNet-18 (N=128) twice -- plain cuDNN with a
generous 512 MiB per-layer workspace limit, and mu-cuDNN at 64 MiB -- and
prints the per-layer data/params/workspace breakdowns side by side, plus
the headline reductions and the (small) slowdown the tighter limit costs.

Run:  python examples/memory_report.py [--model alexnet|resnet18]
"""

import argparse

from repro.core.handle import UcudnnHandle
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks import time_net
from repro.frameworks.model_zoo import build_alexnet, build_resnet18
from repro.memory import memory_report
from repro.units import MIB, format_bytes

MODELS = {
    "alexnet": (build_alexnet, 256),
    "resnet18": (build_resnet18, 128),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="alexnet", choices=sorted(MODELS))
    args = parser.parse_args()
    builder, batch = MODELS[args.model]

    # Plain cuDNN at the generous limit.
    cudnn_handle = CudnnHandle(gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING)
    cudnn_net = builder(batch=batch).setup(cudnn_handle,
                                           workspace_limit=512 * MIB)
    cudnn_time = time_net(cudnn_net, iterations=3).total
    cudnn_mem = memory_report(cudnn_net)

    # mu-cuDNN at 64 MiB.
    ucudnn_handle = UcudnnHandle(
        gpu=Gpu.create("p100-sxm2"),
        mode=ExecMode.TIMING,
        options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                        workspace_limit=64 * MIB),
    )
    ucudnn_net = builder(batch=batch).setup(ucudnn_handle,
                                            workspace_limit=64 * MIB)
    ucudnn_time = time_net(ucudnn_net, iterations=3).total
    ucudnn_mem = memory_report(ucudnn_net, ucudnn_handle)

    print(f"{args.model} at mini-batch {batch} on P100-SXM2\n")
    print("== cuDNN @ 512 MiB/layer ==")
    print(cudnn_mem.render())
    print("\n== mu-cuDNN @ 64 MiB/layer ==")
    print(ucudnn_mem.render())

    base = cudnn_mem.by_name()
    best_cut, best_layer = 1.0, "-"
    for layer in ucudnn_mem.layers:
        if layer.is_conv and layer.total > 0:
            cut = base[layer.name].total / layer.total
            if cut > best_cut:
                best_cut, best_layer = cut, layer.name
    print(f"\nlargest per-layer memory cut: {best_cut:.2f}x ({best_layer})")
    print(f"total workspace: {format_bytes(cudnn_mem.total_workspace)} -> "
          f"{format_bytes(ucudnn_mem.total_workspace)} "
          f"({cudnn_mem.total_workspace / max(1, ucudnn_mem.total_workspace):.2f}x)")
    print(f"iteration time: {cudnn_time * 1e3:.2f} ms -> "
          f"{ucudnn_time * 1e3:.2f} ms "
          f"(slowdown {ucudnn_time / cudnn_time:.2f}x)")


if __name__ == "__main__":
    main()
