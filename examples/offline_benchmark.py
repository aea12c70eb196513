#!/usr/bin/env python
"""Offline benchmarking and cluster-wide result sharing (paper section III-D).

"The file-based caching enables offline benchmarking, as well as sharing the
results among a homogeneous GPU cluster via network file system."

This example plays both roles: a *benchmark node* runs the expensive
micro-configuration measurements for AlexNet once and saves the database;
then fresh *worker nodes* (new handles, standing in for other machines
mounting the same NFS path) optimize and train against the database with
ZERO additional benchmark time -- the paper's operational story for large
homogeneous clusters like TSUBAME 3.

Run:  python examples/offline_benchmark.py
"""

import tempfile
import time
from pathlib import Path

from repro.core.handle import UcudnnHandle
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn.device import Gpu
from repro.cudnn.handle import ExecMode
from repro.frameworks import time_net
from repro.frameworks.model_zoo import build_alexnet
from repro.units import MIB

LIMIT = 64 * MIB


def make_handle(db_path: str) -> UcudnnHandle:
    return UcudnnHandle(
        gpu=Gpu.create("p100-sxm2"),
        mode=ExecMode.TIMING,
        options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                        workspace_limit=LIMIT,
                        benchmark_db=db_path),
    )


def run_node(label: str, db_path: str) -> None:
    start = time.perf_counter()
    handle = make_handle(db_path)
    net = build_alexnet(batch=256).setup(handle, workspace_limit=LIMIT)
    report = time_net(net, iterations=2)
    handle.cache.save()
    print(f"{label:>16}: iteration {report.total * 1e3:6.1f} ms | "
          f"benchmarking cost {handle.benchmark_time:5.2f} s (simulated) | "
          f"wall {time.perf_counter() - start:.2f} s | "
          f"cache entries {len(handle.cache)}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        db = str(Path(tmp) / "ucudnn-p100.json")
        print(f"shared benchmark DB: {db}\n")
        run_node("benchmark node", db)
        for i in range(1, 4):
            run_node(f"worker node {i}", db)
        print("\nworkers spent 0 s benchmarking: the DB carried every "
              "measurement, as on a homogeneous cluster sharing one NFS path.")


if __name__ == "__main__":
    main()
