"""The one WD kernel builder: one desirable set per distinct kernel.

:func:`~repro.core.optimizer.prepare_wd_kernels` is the only place WD
kernels are built.  It benchmarks every kernel but builds one front per
distinct (geometry, benchmark rows) pair, so replicated layers share a
front.  These properties pin that the sharing is invisible: every kernel's
front equals the desirable set of its own benchmark, replicas whose rows
differ (a noisy handle without a cache) keep their own front, and the
per-pool optimizer equals the sweep at that pool.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.observability as observability
from repro.core.benchmarker import benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.optimizer import optimize_network_wd, prepare_wd_kernels
from repro.core.pareto import desirable_set
from repro.core.policies import BatchSizePolicy
from repro.core.sweep import sweep_network_wd
from repro.core.tensor_solve import bench_fingerprint
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.errors import OptimizationError
from repro.telemetry.clock import ManualClock
from repro.units import MIB
from tests.conftest import make_geometry
from tests.test_optimizer_properties import model_geometry

SETTINGS = dict(max_examples=12, deadline=None)

CONV = make_geometry(n=16, c=16, k=32, h=14, w=14)

#: Pools from "nothing fits" through generous; None is the limit-free front.
pools = st.one_of(st.none(), st.integers(0, 64 * MIB))


@st.composite
def networks_with_replicas(draw):
    """``name -> geometry`` drawing 2-5 layers from 1-3 distinct shapes."""
    shapes = draw(st.lists(model_geometry(), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(shapes) - 1),
                          min_size=2, max_size=5))
    return {f"layer{i}": shapes[pick] for i, pick in enumerate(picks)}


class TestPrepareWDKernels:
    @settings(**SETTINGS)
    @given(geometries=networks_with_replicas(), pool=pools,
           noisy=st.booleans(), cached=st.booleans())
    def test_fronts_equal_own_desirable_set(self, geometries, pool, noisy,
                                            cached):
        # A noisy handle re-measures every Find, so without a cache the
        # replicas of one shape get different rows.
        handle = CudnnHandle(mode=ExecMode.TIMING, jitter=0.2 if noisy else 0.0)
        cache = BenchmarkCache() if cached else None
        try:
            kernels = prepare_wd_kernels(
                handle, geometries, BatchSizePolicy.POWER_OF_TWO, cache=cache,
                workspace_limit=pool,
            )
        except OptimizationError:
            return  # some kernel has nothing under the pool
        assert [k.key for k in kernels] == list(geometries)
        for kernel in kernels:
            assert kernel.geometry == geometries[kernel.key]
            assert kernel.desirable == desirable_set(
                kernel.benchmark, workspace_limit=pool)
        for a in kernels:
            for b in kernels:
                same_rows = (
                    a.geometry.cache_key() == b.geometry.cache_key()
                    and bench_fingerprint(a.benchmark)
                    == bench_fingerprint(b.benchmark)
                )
                assert (a.desirable is b.desirable) == same_rows

    def test_noisy_replicas_keep_their_own_fronts(self):
        handle = CudnnHandle(mode=ExecMode.TIMING, jitter=0.2)
        a, b = prepare_wd_kernels(handle, {"a": CONV, "b": CONV})
        assert bench_fingerprint(a.benchmark) != bench_fingerprint(b.benchmark)
        assert a.desirable is not b.desirable

    def test_every_replica_is_benchmarked(self):
        cache = BenchmarkCache()
        handle = CudnnHandle(mode=ExecMode.TIMING)
        kernels = prepare_wd_kernels(handle, {"a": CONV, "b": CONV, "c": CONV},
                                     cache=cache)
        assert kernels[0].desirable is kernels[1].desirable is kernels[2].desirable
        sizes = len(kernels[0].benchmark.sizes)
        # One miss per size for the first copy, hits for the other two.
        assert (cache.misses, cache.hits) == (sizes, 2 * sizes)


class TestOnePoolEqualsSweep:
    @settings(**SETTINGS)
    @given(geometries=networks_with_replicas(),
           pool=st.integers(0, 64 * MIB))
    def test_optimize_network_wd_equals_sweep(self, geometries, pool):
        handle = CudnnHandle(mode=ExecMode.TIMING)
        sweep, plans = sweep_network_wd(handle, geometries, [pool])
        try:
            plan = optimize_network_wd(handle, geometries, pool)
        except OptimizationError as exc:
            assert type(sweep.errors[pool]) is type(exc)
            return
        swept = plans[pool]
        assert [(k.name, k.configuration, k.undivided_time)
                for k in plan.kernels] == [
            (k.name, k.configuration, k.undivided_time)
            for k in swept.kernels
        ]
        assert [k.desirable for k in plan.wd.kernels] == [
            k.desirable for k in swept.wd.kernels
        ]
        assert plan.total_time == swept.total_time
        assert plan.benchmark_time == swept.benchmark_time


@pytest.mark.parametrize("limit", [None, 8 * MIB])
def test_provenance_equals_one_desirable_set_per_kernel(limit):
    """Replicas share a front, yet the decision log is the one a
    desirable-set pass per kernel records: each replica replays its own
    ``pareto`` pass from the shared front."""
    geometries = {"a": CONV, "b": CONV, "c": make_geometry(k=8), "d": CONV}
    handle = CudnnHandle(mode=ExecMode.TIMING)
    with observability.capture(clock=ManualClock()) as shared:
        prepare_wd_kernels(handle, geometries, workspace_limit=limit)
    with observability.capture(clock=ManualClock()) as per_kernel:
        for name, g in geometries.items():
            desirable_set(benchmark_kernel(handle, g), workspace_limit=limit,
                          kernel=name)
    assert shared.to_dicts() == per_kernel.to_dicts()
    assert [e.kernel for e in shared.events_named("front")] == list(geometries)
