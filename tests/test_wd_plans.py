"""Golden WD plans: the production WD path against branch-and-bound answers.

``tests/goldens/wd_plans.json`` holds per-kernel WD assignments solved with
the branch-and-bound ILP (``solver="ilp"``), the independent exact solver,
for the instances the paper and the cold-start benchmark plan:

* ResNet-50 b32 on p100 at the cold-start pools of 64, 256 and 1024 MiB;
* Fig. 14: AlexNet b256 on p100 at 120 MiB;
* GoogLeNet N=32 on p100 at 1, 4 and 16 MiB per kernel, pooled.

Each instance records every kernel's configuration as its
``micro_batch:ALGORITHM`` micro-configurations, plus ``repr`` of the total
time and the total workspace.  The test replays each instance through
the default (production) solver and requires the file back exactly.

Regenerate with branch-and-bound, from the repository root::

    PYTHONPATH=src python -m tests.test_wd_plans
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.core.cache import BenchmarkCache
from repro.core.optimizer import NetworkPlan, optimize_network_wd
from repro.core.policies import BatchSizePolicy
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks.model_zoo import (
    build_alexnet,
    build_googlenet,
    build_resnet50,
)
from repro.harness.experiments import conv_geometries_of
from repro.units import MIB

GOLDEN = pathlib.Path(__file__).resolve().parent / "goldens" / "wd_plans.json"
GPU = "p100-sxm2"

#: (network, builder, batch, pools in MiB or ``None``, MiB per kernel or
#: ``None``): a network's instances share one benchmark cache.
NETWORKS = (
    ("resnet50_b32", build_resnet50, 32, (64, 256, 1024), None),
    ("alexnet_b256", build_alexnet, 256, (120,), None),
    ("googlenet_b32", build_googlenet, 32, None, (1, 4, 16)),
)


def plan_record(plan: NetworkPlan, pool: int) -> dict:
    """The golden form of one WD network plan."""
    return {
        "pool": pool,
        "total_time": repr(plan.total_time),
        "total_workspace": plan.total_workspace,
        "kernels": {
            k.name: " ".join(
                f"{m.micro_batch}:{m.algo.name}" for m in k.configuration.micros
            )
            for k in plan.kernels
        },
    }


def solve_instances(**solver) -> dict:
    """Every golden instance, solved with ``optimize_network_wd(**solver)``."""
    handle = CudnnHandle(gpu=Gpu.create(GPU), mode=ExecMode.TIMING)
    out: dict[str, dict] = {}
    for network, builder, batch, pools_mib, per_kernel_mib in NETWORKS:
        geoms = conv_geometries_of(builder, batch, GPU)
        if per_kernel_mib is not None:
            pools_mib = tuple(m * len(geoms) for m in per_kernel_mib)
        cache = BenchmarkCache()
        for pool_mib in pools_mib:
            pool = pool_mib * MIB
            plan = optimize_network_wd(
                handle, geoms, pool, BatchSizePolicy.POWER_OF_TWO,
                cache=cache, **solver,
            )
            out[f"{network}@{pool_mib}MiB"] = plan_record(plan, pool)
    return out


def render(instances: dict) -> str:
    return json.dumps(instances, indent=1, sort_keys=True) + "\n"


def test_production_path_reproduces_branch_and_bound_plans():
    """The default WD solver returns exactly the B&B golden: the same
    configuration for every kernel, bit-equal total time and workspace."""
    assert render(solve_instances()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render(solve_instances(solver="ilp")))
    sys.stdout.write(f"wrote {GOLDEN}\n")
