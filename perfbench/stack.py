"""Key sets, oracles and process helpers the three workloads share."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.core.benchmarker import benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.policies import BatchSizePolicy
from repro.core.wr import optimize_from_benchmark
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks.model_zoo.alexnet import build_alexnet
from repro.frameworks.model_zoo.googlenet import build_googlenet
from repro.frameworks.model_zoo.resnet import build_resnet50
from repro.harness.experiments import conv_geometries_of
from repro.service.requests import PlanRequest
from repro.units import MIB

#: (builder, mini-batch) of each network a workload draws kernels from.
ALEXNET = (build_alexnet, 256)
RESNET50 = (build_resnet50, 32)
GOOGLENET = (build_googlenet, 128)

SRC = Path(__file__).resolve().parent.parent / "src"


def distinct_geometries(networks, gpu: str) -> dict:
    """``cache_key -> geometry`` of every conv kernel of the networks."""
    out = {}
    for builder, batch in networks:
        for geometry in conv_geometries_of(builder, batch, gpu).values():
            out[geometry.cache_key()] = geometry
    return dict(sorted(out.items()))


def plan_requests(geometries: dict, limits_mib, policies=(BatchSizePolicy.POWER_OF_TWO,),
                  shard: str = "") -> "list[PlanRequest]":
    return [
        PlanRequest(kernel=key, geometry=geometry, policy=policy,
                    workspace_limit=limit * MIB, shard=shard)
        for policy in policies
        for limit in limits_mib
        for key, geometry in geometries.items()
    ]


class WROracle:
    """Expected WR plan and undivided time per request, from given rows.

    ``cache`` holds the benchmark rows the serving side used; the oracle
    rebuilds each kernel's table from them and runs the WR recurrence
    (``optimize_from_benchmark``) itself.
    """

    def __init__(self, gpu: str, cache: BenchmarkCache) -> None:
        self.handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
        self.cache = cache

    def answer(self, request: PlanRequest):
        bench = benchmark_kernel(self.handle, request.geometry, request.policy,
                                 cache=self.cache)
        plan = optimize_from_benchmark(bench, request.workspace_limit)
        undivided = bench.fastest_micro(request.geometry.n,
                                        request.workspace_limit)
        return plan, undivided.time


def spawn(args: "list[str]", workdir: Path, log_name: str) -> subprocess.Popen:
    """Start a child Python process with the checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    log = open(workdir / log_name, "wb")
    try:
        return subprocess.Popen([sys.executable, *args], cwd=workdir, env=env,
                                stdout=subprocess.PIPE, stderr=log)
    finally:
        log.close()


def read_until(proc: subprocess.Popen, marker: str, timeout_s: float) -> "list[str]":
    """Stdout lines of ``proc`` up to and including the first with ``marker``."""
    deadline = time.monotonic() + timeout_s
    assert proc.stdout is not None
    lines: "list[str]" = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline().decode("utf-8", "replace")
        lines.append(line)
        if marker in line:
            return lines
        if not line and proc.poll() is not None:
            break
    raise RuntimeError(f"child process never printed {marker!r} "
                       f"(exit code {proc.poll()})")


def stop(proc: subprocess.Popen, timeout_s: float = 20.0) -> "tuple[int, str]":
    """SIGTERM a child, wait for it, return ``(exit code, rest of stdout)``."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return proc.returncode, (out or b"").decode("utf-8", "replace")
