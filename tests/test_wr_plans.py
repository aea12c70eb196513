"""Golden WR plans: every cold-start key, pinned bit for bit.

``tests/goldens/wr_plans.json`` holds, for each conv kernel of AlexNet b256,
ResNet-50 b32 and GoogLeNet b128 on ``p100-sxm2`` and ``v100-sxm2``, under
``powerOfTwo`` and ``all`` at 8 and 64 MiB, the WR configuration (its
micro-batches and algorithms), ``repr`` of its time and of the undivided
time under the same limit, and its workspace.  Per device it also records
the SHA-256 of the benchmark cache's canonical ``export_payload()`` JSON
(sorted keys) once every key is solved: the rows themselves.

The test replays every key through the production path -- one shared
:class:`~repro.core.cache.BenchmarkCache` per device,
:func:`~repro.core.benchmarker.benchmark_kernel` and
:func:`~repro.core.wr.optimize_from_benchmark`, as a plan service solves a
request -- and through the network-wide tensor solver, and requires the
file back exactly.

Regenerate from the repository root::

    PYTHONPATH=src python -m tests.test_wr_plans
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import sys

from repro.core.benchmarker import benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.config import Configuration
from repro.core.policies import BatchSizePolicy
from repro.core.tensor_solve import solve_network_wr_outcomes
from repro.core.wr import optimize_from_benchmark
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks.model_zoo import (
    build_alexnet,
    build_googlenet,
    build_resnet50,
)
from repro.harness.experiments import conv_geometries_of
from repro.units import MIB

GOLDEN = pathlib.Path(__file__).resolve().parent / "goldens" / "wr_plans.json"
DEVICES = ("p100-sxm2", "v100-sxm2")
NETWORKS = ((build_alexnet, 256), (build_resnet50, 32), (build_googlenet, 128))
POLICIES = (BatchSizePolicy.POWER_OF_TWO, BatchSizePolicy.ALL)
LIMITS_MIB = (8, 64)


def kernels_of(gpu: str) -> dict:
    """``cache_key -> geometry`` of every distinct conv kernel, sorted."""
    out = {}
    for builder, batch in NETWORKS:
        for geometry in conv_geometries_of(builder, batch, gpu).values():
            out[geometry.cache_key()] = geometry
    return dict(sorted(out.items()))


def micros_of(config: Configuration) -> str:
    """``size:ALGO`` per micro-batch, runs of equal ones as ``count*``."""
    runs: list[list] = []
    for m in config.micros:
        label = f"{m.micro_batch}:{m.algo.name}"
        if runs and runs[-1][1] == label:
            runs[-1][0] += 1
        else:
            runs.append([1, label])
    return " ".join(label if count == 1 else f"{count}*{label}"
                    for count, label in runs)


def record(config: Configuration, undivided: float) -> dict:
    return {
        "micros": micros_of(config),
        "time": repr(config.time),
        "undivided": repr(undivided),
        "workspace": config.workspace,
    }


def rows_digest(cache: BenchmarkCache) -> str:
    payload = json.dumps(cache.export_payload(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def solve_keys(tensor: bool = False) -> dict:
    """Every golden key, solved per request or one tensor pass per group."""
    plans: dict[str, dict] = {}
    digests: dict[str, str] = {}
    for gpu in DEVICES:
        handle = CudnnHandle(gpu=Gpu.create(gpu), mode=ExecMode.TIMING)
        cache = BenchmarkCache()
        kernels = kernels_of(gpu)
        for policy in POLICIES:
            for limit_mib in LIMITS_MIB:
                limit = limit_mib * MIB
                benches = {
                    key: benchmark_kernel(handle, g, policy, cache=cache)
                    for key, g in kernels.items()
                }
                if tensor:
                    configs, errors = solve_network_wr_outcomes(benches, limit)
                    assert not errors
                else:
                    configs = {key: optimize_from_benchmark(bench, limit)
                               for key, bench in benches.items()}
                for key, bench in benches.items():
                    micro = bench.fastest_micro(bench.geometry.n, limit)
                    undivided = micro.time if micro is not None else math.inf
                    name = f"{gpu}|{policy.value}|{limit_mib}MiB|{key}"
                    plans[name] = record(configs[key], undivided)
        digests[gpu] = rows_digest(cache)
    return {"plans": plans, "rows_sha256": digests}


def render(golden: dict) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def test_production_path_reproduces_golden_plans():
    """Per-request WR solves return exactly the golden plans and rows."""
    assert render(solve_keys()) == GOLDEN.read_text()


def test_tensor_solver_reproduces_golden_plans():
    """The network-wide tensor WR pass returns the same golden file."""
    assert render(solve_keys(tensor=True)) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render(solve_keys()))
    sys.stdout.write(f"wrote {GOLDEN}\n")
