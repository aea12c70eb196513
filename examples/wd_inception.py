#!/usr/bin/env python
"""WD (Workspace Division) on an Inception tower.

The paper motivates WD with exactly this topology: "WD enables small groups
of convolution operations, as in the Inception module, to run concurrently
with larger workspaces."  This example builds a two-module Inception tower,
runs both optimizers at the *same total* workspace budget, and prints the
per-kernel division WD chooses -- the pool flows to the 5x5 and 3x3 branch
kernels that profit from FFT/Winograd workspaces, while the 1x1 reductions
get (and need) nothing.

Run:  python examples/wd_inception.py [--total-mib 120]
"""

import argparse

from repro.core.optimizer import optimize_network_wd, optimize_network_wr
from repro.core.policies import BatchSizePolicy
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks.model_zoo import build_inception_tower
from repro.harness.tables import Table, fmt_ms
from repro.units import MIB, format_bytes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--total-mib", type=int, default=120)
    parser.add_argument("--batch", type=int, default=64)
    args = parser.parse_args()

    handle = CudnnHandle(gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING)
    net = build_inception_tower(batch=args.batch, modules=2).setup(
        handle, workspace_limit=8 * MIB
    )
    geoms = net.conv_geometries()
    total = args.total_mib * MIB
    per_kernel = total // len(geoms)

    print(f"Inception tower: {len(geoms)} convolution kernels, "
          f"mini-batch {args.batch}, total budget {format_bytes(total)} "
          f"(= {format_bytes(per_kernel)} per kernel under WR)\n")

    wr = optimize_network_wr(handle, geoms, per_kernel,
                             BatchSizePolicy.POWER_OF_TWO)
    wd = optimize_network_wd(handle, geoms, total,
                             BatchSizePolicy.POWER_OF_TWO)

    table = Table(
        "WD workspace division (vs WR at the same total budget)",
        ["kernel", "WD ws", "WD ms", "WR ws", "WR ms", "micro-batches"],
    )
    wr_by = wr.by_name()
    for plan in sorted(wd.kernels, key=lambda k: -k.configuration.workspace):
        w = wr_by[plan.name]
        table.add(plan.name, format_bytes(plan.configuration.workspace),
                  fmt_ms(plan.configuration.time),
                  format_bytes(w.configuration.workspace),
                  fmt_ms(w.configuration.time),
                  str(plan.configuration.micro_batch_sizes()))
    print(table.render())

    print(f"\ntotals: WD {fmt_ms(wd.total_time)} ms using "
          f"{format_bytes(wd.total_workspace)} | "
          f"WR {fmt_ms(wr.total_time)} ms using "
          f"{format_bytes(wr.total_workspace)}")
    print(f"WD speedup over WR at equal total budget: "
          f"{wr.total_time / wd.total_time:.2f}x")
    print(f"ILP after Pareto pruning: {wd.wd.num_variables} binary variables, "
          f"solved in {wd.wd.solve_time * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
