"""mu-cuDNN: the paper's contribution.

Micro-batching optimizer layers over the simulated cuDNN substrate:
configuration types, batch-size policies, the WR dynamic program, the
desirable-set Pareto pruning, the WD 0-1 ILP (solved by the MCKP merge),
benchmark/configuration caching, micro-batched execution, and the
transparent ``UcudnnHandle`` interposition wrapper.
"""

from repro.core.benchmarker import KernelBenchmark, benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.config import EMPTY, Configuration, MicroConfig
from repro.core.handle import UcudnnHandle, UcudnnHandle_t, VirtualAlgo
from repro.core.optimizer import (
    KernelPlan,
    NetworkPlan,
    optimize_network_wd,
    optimize_network_wr,
)
from repro.core.options import Options
from repro.core.pareto import configuration_front, desirable_set, pareto_front
from repro.core.policies import BatchSizePolicy, candidate_sizes
from repro.core.tensor_solve import (
    DeltaSolver,
    DeltaStats,
    bench_fingerprint,
    geometry_family,
    solve_network_wr,
    solve_network_wr_outcomes,
)
from repro.core.sweep import (
    WDSweep,
    WRNetworkSweep,
    WRSweep,
    prepare_wd_kernels,
    sweep_network_wd,
    sweep_network_wr,
    sweep_wd,
    sweep_wr,
    wr_breakpoints,
)
from repro.core.wd import WDKernel, WDResult
from repro.core.wr import WRResult, optimize_kernel

__all__ = [
    "BatchSizePolicy",
    "BenchmarkCache",
    "Configuration",
    "DeltaSolver",
    "DeltaStats",
    "EMPTY",
    "KernelBenchmark",
    "KernelPlan",
    "MicroConfig",
    "NetworkPlan",
    "Options",
    "UcudnnHandle",
    "UcudnnHandle_t",
    "VirtualAlgo",
    "WDKernel",
    "WDResult",
    "WDSweep",
    "WRNetworkSweep",
    "WRResult",
    "WRSweep",
    "bench_fingerprint",
    "benchmark_kernel",
    "candidate_sizes",
    "configuration_front",
    "desirable_set",
    "geometry_family",
    "optimize_kernel",
    "optimize_network_wd",
    "optimize_network_wr",
    "pareto_front",
    "prepare_wd_kernels",
    "solve_network_wr",
    "solve_network_wr_outcomes",
    "sweep_network_wd",
    "sweep_network_wr",
    "sweep_wd",
    "sweep_wr",
    "wr_breakpoints",
]
