"""mu-cuDNN: the paper's contribution.

Micro-batching optimizer layers over the simulated cuDNN substrate:
configuration types, batch-size policies, the WR dynamic program, the
desirable-set Pareto pruning, the WD 0-1 ILP (solved by the MCKP merge),
benchmark/configuration caching, micro-batched execution, and the
transparent ``UcudnnHandle`` interposition wrapper.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.benchmarker import KernelBenchmark, benchmark_kernel
    from repro.core.cache import BenchmarkCache
    from repro.core.config import EMPTY, Configuration, MicroConfig
    from repro.core.delta import DeltaStats, geometry_family
    from repro.core.handle import UcudnnHandle, UcudnnHandle_t, VirtualAlgo
    from repro.core.optimizer import (
        KernelPlan,
        NetworkPlan,
        optimize_network_wd,
        optimize_network_wr,
        prepare_wd_kernels,
    )
    from repro.core.options import Options
    from repro.core.pareto import configuration_front, desirable_set, pareto_front
    from repro.core.policies import BatchSizePolicy, candidate_sizes
    from repro.core.sweep import (
        WDSweep,
        WRNetworkSweep,
        WRSweep,
        sweep_network_wd,
        sweep_network_wr,
        sweep_wd,
        sweep_wr,
        wr_breakpoints,
    )
    from repro.core.tensor_solve import (
        DeltaSolver,
        bench_fingerprint,
        solve_network_wr,
        solve_network_wr_outcomes,
    )
    from repro.core.wd import WDKernel, WDResult
    from repro.core.wr import WRResult, optimize_kernel

#: Each public name and the submodule that defines it.  The package imports
#: none of them: a name's submodule loads on first access (PEP 562), so
#: importing one numpy-free submodule does not load the others.
_SUBMODULE = {
    "BatchSizePolicy": "policies",
    "BenchmarkCache": "cache",
    "Configuration": "config",
    "DeltaSolver": "tensor_solve",
    "DeltaStats": "delta",
    "EMPTY": "config",
    "KernelBenchmark": "benchmarker",
    "KernelPlan": "optimizer",
    "MicroConfig": "config",
    "NetworkPlan": "optimizer",
    "Options": "options",
    "UcudnnHandle": "handle",
    "UcudnnHandle_t": "handle",
    "VirtualAlgo": "handle",
    "WDKernel": "wd",
    "WDResult": "wd",
    "WDSweep": "sweep",
    "WRNetworkSweep": "sweep",
    "WRResult": "wr",
    "WRSweep": "sweep",
    "bench_fingerprint": "tensor_solve",
    "benchmark_kernel": "benchmarker",
    "candidate_sizes": "policies",
    "configuration_front": "pareto",
    "desirable_set": "pareto",
    "geometry_family": "delta",
    "optimize_kernel": "wr",
    "optimize_network_wd": "optimizer",
    "optimize_network_wr": "optimizer",
    "pareto_front": "pareto",
    "prepare_wd_kernels": "optimizer",
    "solve_network_wr": "tensor_solve",
    "solve_network_wr_outcomes": "tensor_solve",
    "sweep_network_wd": "sweep",
    "sweep_network_wr": "sweep",
    "sweep_wd": "sweep",
    "sweep_wr": "sweep",
    "wr_breakpoints": "sweep",
}

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


def __getattr__(name: str) -> object:
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULE))
