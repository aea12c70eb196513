#!/usr/bin/env python
"""``caffe time``-style benchmark of AlexNet under mu-cuDNN.

Reproduces the paper's Fig. 10 workflow from the command line: build
one-column AlexNet at mini-batch 256 (1024 on V100), run timed
forward+backward iterations on the simulated GPU of your choice, and print
the per-layer breakdown for each (workspace limit x batch-size policy)
combination -- including the workspace consumed and the one-off
optimization cost.

Run:  python examples/alexnet_caffe_time.py [--gpu p100-sxm2|k80|v100-sxm2]
                                            [--policies undivided,powerOfTwo,all]
                                            [--workspaces 8,64,512]
"""

import argparse

from repro.core.handle import UcudnnHandle
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn.device import Gpu
from repro.cudnn.handle import ExecMode
from repro.frameworks import export_chrome_trace, time_net
from repro.frameworks.model_zoo import build_alexnet
from repro.harness.tables import Table, fmt_ms
from repro.units import MIB, format_bytes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gpu", default="p100-sxm2",
                        choices=["k80", "p100-sxm2", "v100-sxm2"])
    parser.add_argument("--policies", default="undivided,powerOfTwo")
    parser.add_argument("--workspaces", default="8,64,512",
                        help="per-layer limits in MiB")
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--trace", metavar="FILE",
                        help="write a chrome://tracing JSON of the last "
                             "configuration's iteration")
    args = parser.parse_args()

    batch = 1024 if args.gpu.startswith("v100") else 256
    policies = [BatchSizePolicy.parse(p) for p in args.policies.split(",")]
    workspaces = [int(w) for w in args.workspaces.split(",")]

    print(f"AlexNet, mini-batch {batch}, GPU {args.gpu}, "
          f"{args.iterations} timed iterations\n")
    summary = Table(
        "Summary (fwd+bwd per iteration)",
        ["ws/layer", "policy", "total ms", "conv ms", "other ms",
         "ws used", "opt cost s"],
    )

    for ws_mib in workspaces:
        for policy in policies:
            handle = UcudnnHandle(
                gpu=Gpu.create(args.gpu),
                mode=ExecMode.TIMING,
                options=Options(policy=policy, workspace_limit=ws_mib * MIB),
            )
            net = build_alexnet(batch=batch).setup(
                handle, workspace_limit=ws_mib * MIB
            )
            report = time_net(net, iterations=args.iterations)
            last_report = report
            summary.add(
                f"{ws_mib} MiB", policy.value, fmt_ms(report.total),
                fmt_ms(report.conv_total), fmt_ms(report.other_total),
                format_bytes(handle.total_workspace_bytes()),
                f"{handle.benchmark_time:.2f}",
            )

            detail = Table(
                f"Per-layer, {ws_mib} MiB / {policy.value}",
                ["layer", "fwd ms", "bwd ms"],
            )
            for layer in report.layers:
                if layer.is_conv:
                    detail.add(layer.name, fmt_ms(layer.forward),
                               fmt_ms(layer.backward))
            print(detail.render() + "\n")

    print(summary.render())
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(export_chrome_trace(last_report))
        print(f"\nchrome trace written to {args.trace} "
              "(open in chrome://tracing or ui.perfetto.dev)")


if __name__ == "__main__":
    main()
