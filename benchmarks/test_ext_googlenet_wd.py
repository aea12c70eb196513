"""Extension -- WD on full GoogLeNet (the paper's §III-A motivation, scaled).

The paper motivates WD with Inception modules but never evaluates the full
GoogLeNet; this extension experiment does.  171 kernels across 1x1/3x3/5x5
branch geometries share one pool; WD must beat per-kernel WR at the same
total, concentrate budget on the 5x5/3x3 branch kernels, and keep the pruned
WD instance small enough to solve in milliseconds.
"""

from benchmarks.conftest import run_once
from repro.core.cache import BenchmarkCache
from repro.core.optimizer import optimize_network_wd, optimize_network_wr
from repro.core.policies import BatchSizePolicy
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks.model_zoo import build_googlenet
from repro.harness.tables import Table, fmt_ms
from repro.units import MIB, format_bytes


def run_experiment():
    handle = CudnnHandle(gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING)
    net = build_googlenet(batch=32).setup(
        CudnnHandle(mode=ExecMode.TIMING), workspace_limit=8 * MIB
    )
    geoms = net.conv_geometries()
    cache = BenchmarkCache()
    table = Table(
        f"GoogLeNet (N=32, {len(geoms)} kernels): WR vs WD at equal totals",
        ["per-kernel", "total", "WR ms", "WD ms", "WD/WR", "0-1 vars",
         "solve ms"],
    )
    cells = {}
    for per_mib in (1, 4, 16):
        total = per_mib * MIB * len(geoms)
        wr = optimize_network_wr(handle, geoms, per_mib * MIB,
                                 BatchSizePolicy.POWER_OF_TWO, cache=cache)
        wd = optimize_network_wd(handle, geoms, total,
                                 BatchSizePolicy.POWER_OF_TWO, cache=cache)
        cells[per_mib] = (wr, wd)
        table.add(f"{per_mib} MiB", format_bytes(total), fmt_ms(wr.total_time),
                  fmt_ms(wd.total_time),
                  f"{wd.total_time / wr.total_time:.3f}",
                  str(wd.wd.num_variables),
                  f"{wd.wd.solve_time * 1e3:.1f}")
    return geoms, cells, table


def test_googlenet_wd(benchmark):
    geoms, cells, table = run_once(benchmark, run_experiment)
    print("\n" + table.render())
    benchmark.extra_info["table"] = table.render()

    assert len(geoms) == 171  # 57 conv layers x 3 operations
    for per_mib, (wr, wd) in cells.items():
        assert wd.total_time <= wr.total_time + 1e-12, per_mib
        assert wd.total_workspace <= per_mib * MIB * len(geoms)
        assert wd.wd.solve_time < 5.0
    # At the tight budget WD's reallocation wins something real.
    wr1, wd1 = cells[1]
    assert wr1.total_time / wd1.total_time > 1.02
    # Budget flows to workspace-hungry branch kernels, not 1x1 reductions.
    by_name = {k.name: k.configuration for k in cells[1][1].kernels}
    reduce_ws = sum(c.workspace for n, c in by_name.items() if "reduce" in n)
    branch_ws = sum(
        c.workspace for n, c in by_name.items()
        if ("_5x5:" in n or "_3x3:" in n) and "reduce" not in n
    )
    assert branch_ws > 10 * max(1, reduce_ws)
