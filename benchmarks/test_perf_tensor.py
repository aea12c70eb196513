"""Tensorized network-wide WR solve vs the serial per-kernel path, measured.

Solves ResNet-50 (batch 32, P100) over a 32-point geometric grid of
workspace limits twice: once with the serial reference -- one Python DP
per (kernel, limit) pair -- and once with the tensorized network-wide
solve (``repro.core.sweep._tensor_shared_sweeps``), asserting the
configurations are bit-identical at every limit and the tensor path at
least 5x faster.  The timed region is the *solve* on both sides; the
per-limit ``NetworkPlan`` object assembly of ``sweep_network_wr`` is
excluded (``tests/test_tensor_solve.py`` property-tests the tensor sweeps
against the full serial ``sweep_network_wr`` separately).  A second phase mutates one
kernel's benchmark rows and re-solves through the
:class:`~repro.core.tensor_solve.DeltaSolver`, asserting the repair runs
zero full network solves and matches a from-scratch serial solve.  Both
phases' counters and wall times land in ``BENCH_tensor.json`` at the
repository root (uploaded as a CI artifact and gated by
``benchmarks/check_regression.py``'s ``tensor`` gate set).

Benchmarking happens once up front through a shared cache, and each
measured side gets its *own* fresh ``KernelBenchmark`` objects, so neither
side's memoized ``t1_table`` state can subsidize the other -- the walls
compare pure solver work.  Telemetry stays disabled inside the timed
regions (the zero-overhead contract keeps disabled telemetry off the hot
path, and enabling it would bill span/counter work to the solver).

Runs under plain pytest (no pytest-benchmark fixture) so the CI perf job
needs nothing beyond the tier-1 dependencies::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_tensor.py -q -s
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from repro.core.benchmarker import benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.policies import BatchSizePolicy
from repro.core.sweep import _tensor_shared_sweeps
from repro.core.tensor_solve import DeltaSolver
from repro.core.wr import optimize_from_benchmark
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks.model_zoo.resnet import build_resnet50
from repro.harness.experiments import PAPER_BATCHES, conv_geometries_of
from repro.units import MIB

GPU = "p100-sxm2"
NUM_LIMITS = 32
POLICY = BatchSizePolicy.POWER_OF_TWO
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_tensor.json"


def _fresh_benches(handle, geoms, cache):
    """Fresh KernelBenchmark objects (cache-hit rows, cold query memos)."""
    return {
        name: benchmark_kernel(handle, g, POLICY, cache=cache)
        for name, g in geoms.items()
    }


def test_tensor_network_solve_beats_serial():
    geoms = conv_geometries_of(build_resnet50, PAPER_BATCHES["resnet50_wd"], GPU)
    handle = CudnnHandle(gpu=Gpu.create(GPU), mode=ExecMode.TIMING)
    cache = BenchmarkCache()
    k = len(geoms)
    limits = sorted({int(x) for x in np.geomspace(MIB, 64 * MIB, NUM_LIMITS)})

    # Warm the shared cache so neither measured side pays benchmark cost.
    _fresh_benches(handle, geoms, cache)

    # --- serial reference: one DP per (kernel, limit) --------------------
    serial_benches = _fresh_benches(handle, geoms, cache)
    t0 = time.perf_counter()
    expected: dict[int, dict[str, object]] = {}
    for limit in limits:
        expected[limit] = {
            name: optimize_from_benchmark(bench, limit)
            for name, bench in serial_benches.items()
        }
    serial_wall = time.perf_counter() - t0

    # --- tensorized network-wide solve -----------------------------------
    tensor_benches = _fresh_benches(handle, geoms, cache)
    t0 = time.perf_counter()
    shared = _tensor_shared_sweeps(tensor_benches, tuple(limits))
    tensor_wall = time.perf_counter() - t0
    # One tensor pass answers one occupied network-union bucket, and every
    # returned sweep records that same pass count.
    tensor_passes = next(iter(shared.values())).dp_solves

    mismatches = 0
    for limit in limits:
        for name, bench in tensor_benches.items():
            sweep = shared[bench.geometry.cache_key()]
            if sweep.configuration(limit) != expected[limit][name]:
                mismatches += 1
    assert mismatches == 0
    speedup = serial_wall / tensor_wall
    assert speedup >= 5.0  # acceptance floor

    # --- delta: one kernel's rows change, nothing else re-solves ---------
    delta = DeltaSolver(GPU)
    delta_benches = _fresh_benches(handle, geoms, cache)
    delta.solve_network(delta_benches, 64 * MIB)
    victim = next(iter(delta_benches))
    bench = delta_benches[victim]
    for size, rows in bench.results.items():
        bench.results[size] = [
            dataclasses.replace(r, time=r.time * 1.5) for r in rows
        ]
    bench.invalidate_query_cache()

    full_before = delta.stats.full_solves
    solved_before = delta.stats.kernels_solved
    t0 = time.perf_counter()
    repaired = delta.solve_network(delta_benches, 64 * MIB)
    mutation_wall = time.perf_counter() - t0
    full_network_solves = delta.stats.full_solves - full_before
    kernels_resolved = delta.stats.kernels_solved - solved_before

    resolve_mismatches = sum(
        1 for name, b in delta_benches.items()
        if repaired[name] != optimize_from_benchmark(b, 64 * MIB)
    )
    assert full_network_solves == 0  # acceptance: no full re-solve
    assert resolve_mismatches == 0
    assert kernels_resolved == 1  # exactly the mutated kernel

    record = {
        "bench": "tensor",
        "model": "resnet50",
        "batch": PAPER_BATCHES["resnet50_wd"],
        "gpu": GPU,
        "policy": POLICY.value,
        "kernels": k,
        "num_limits": NUM_LIMITS,
        "wr": {
            "config_mismatches": mismatches,
            "tensor_speedup": round(speedup, 2),
            "tensor_passes": tensor_passes,
            "serial_wall_s": round(serial_wall, 3),
            "tensor_wall_s": round(tensor_wall, 3),
        },
        "delta": {
            "resolve_mismatches": resolve_mismatches,
            "full_network_solves": full_network_solves,
            "kernels_resolved": kernels_resolved,
            "delta_solves": delta.stats.delta_solves,
            "kernels_reused": delta.stats.kernels_reused,
            "mutation_wall_s": round(mutation_wall, 3),
        },
    }
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\n{json.dumps(record, indent=2)}\n[written to {OUTPUT}]")
