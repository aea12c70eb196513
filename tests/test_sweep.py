"""Tests for the cross-limit sweep solvers and the vectorized fast paths.

The sweep module's whole contract is *exactness*: every answer must equal
the per-limit solver's, bit for bit, including which error an infeasible
limit raises.  These tests pit the sweeps against the per-limit solvers on
hypothesis-generated workloads and limit grids, and pin the equivalences
the fast paths rely on (batched find == per-size find, concurrent
evaluation == serial evaluation).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.benchmarker import benchmark_kernel
from repro.core.pareto import desirable_set
from repro.core.policies import BatchSizePolicy, candidate_sizes
from repro.core.sweep import (
    prepare_wd_kernels,
    sweep_wd,
    sweep_wr,
    truncate_front,
    wr_breakpoints,
)
from repro.core.wd import WDKernel, solve_from_kernels
from repro.core.wr import optimize_from_benchmark
from repro.cudnn.api import find_algorithms, find_algorithms_batched
from repro.cudnn.device import Node
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.errors import (
    BadParamError,
    InfeasibleError,
    NotSupportedError,
    OptimizationError,
)
from repro.parallel.evaluator import benchmark_kernels_parallel
from repro.units import MIB
from tests.conftest import make_geometry
from tests.test_optimizer_properties import model_geometry

SETTINGS = dict(max_examples=10, deadline=None)

#: Limit grids mixing the interesting regimes: infeasible (-1), the
#: zero-workspace boundary, byte-granular small limits, and generous caps.
limit_grids = st.lists(
    st.one_of(st.just(-1), st.integers(0, 4096), st.integers(0, 512 * MIB)),
    min_size=1, max_size=6,
)


@pytest.fixture(scope="module")
def handle():
    return CudnnHandle(mode=ExecMode.TIMING)


class TestWRSweep:
    @settings(**SETTINGS)
    @given(g=model_geometry(), data=st.data())
    def test_equals_per_limit_solver_exactly(self, handle, g, data):
        """Same Configuration object contents at every limit, same error on
        infeasible limits -- the sweep is a cache, not an approximation."""
        bench = benchmark_kernel(handle, g, BatchSizePolicy.POWER_OF_TWO)
        limits = data.draw(limit_grids)
        sweep = sweep_wr(bench, limits)
        for limit in limits:
            try:
                expected = optimize_from_benchmark(bench, limit)
            except OptimizationError:
                with pytest.raises(OptimizationError):
                    sweep.configuration(limit)
            else:
                assert sweep.configuration(limit) == expected

    @settings(**SETTINGS)
    @given(g=model_geometry(), data=st.data())
    def test_dp_solve_count_bounded_by_breakpoints(self, handle, g, data):
        bench = benchmark_kernel(handle, g, BatchSizePolicy.POWER_OF_TWO)
        limits = data.draw(limit_grids)
        sweep = sweep_wr(bench, limits)
        assert sweep.dp_solves <= len(set(limits))
        # One interval below each breakpoint plus the unbounded tail.
        assert sweep.dp_solves <= len(sweep.breakpoints) + 1
        assert sweep.dp_solves_saved == len(set(limits)) - sweep.dp_solves

    def test_breakpoints_are_the_measured_workspaces(self, handle):
        bench = benchmark_kernel(handle, make_geometry(n=8),
                                 BatchSizePolicy.POWER_OF_TWO)
        points = set(wr_breakpoints(bench))
        measured = {
            r.workspace
            for size in bench.sizes
            for r in bench.results[size]
        }
        assert points == measured

    def test_limits_in_same_interval_share_one_solve(self, handle):
        bench = benchmark_kernel(handle, make_geometry(n=8),
                                 BatchSizePolicy.POWER_OF_TWO)
        points = wr_breakpoints(bench)
        assert len(points) >= 2
        # Two limits straddling no breakpoint; two straddling one.
        lo, hi = points[-2], points[-1]
        same = sweep_wr(bench, [lo, lo + 1 if lo + 1 < hi else lo])
        assert same.dp_solves == 1
        crossing = sweep_wr(bench, [lo - 1, hi])
        assert crossing.dp_solves == 2


class TestWDSweep:
    @settings(max_examples=8, deadline=None)
    @given(g1=model_geometry(), g2=model_geometry(), data=st.data())
    def test_equals_per_limit_solver_exactly(self, handle, g1, g2, data):
        """Aggregated + warm-started sweep == cold per-copy per-limit solve:
        identical per-kernel assignments, identical errors.  The duplicated
        ``g1`` forces a symmetry class of multiplicity >= 2."""
        geoms = {"a0": g1, "a1": g1, "b": g2}
        kernels = prepare_wd_kernels(handle, geoms,
                                     BatchSizePolicy.POWER_OF_TWO)
        limits = data.draw(limit_grids)
        for solver in ("ilp", "mckp"):
            sweep = sweep_wd(kernels, limits, solver=solver)
            for limit in set(limits):
                try:
                    expected = self._per_limit(kernels, limit, solver)
                except (OptimizationError, InfeasibleError):
                    with pytest.raises((OptimizationError, InfeasibleError)):
                        sweep.result(limit)
                else:
                    result = sweep.result(limit)
                    assert result.assignments == expected.assignments
                    assert result.total_workspace <= limit

    @staticmethod
    def _per_limit(kernels, limit, solver):
        """The baseline: re-prune every front and solve per-copy, cold."""
        truncated = [
            WDKernel(
                key=k.key, geometry=k.geometry, benchmark=k.benchmark,
                desirable=desirable_set(k.benchmark, workspace_limit=limit),
            )
            for k in kernels
        ]
        return solve_from_kernels(truncated, limit, solver=solver)

    @settings(**SETTINGS)
    @given(g=model_geometry(),
           limit=st.one_of(st.just(-1), st.integers(0, 512 * MIB)))
    def test_truncation_equals_per_limit_front(self, handle, g, limit):
        """Prefix truncation of the full front is the per-limit desirable
        set -- dominance is limit-independent."""
        bench = benchmark_kernel(handle, g, BatchSizePolicy.POWER_OF_TWO)
        kernel = WDKernel(key="k", geometry=g, benchmark=bench,
                          desirable=desirable_set(bench, workspace_limit=None))
        try:
            expected = desirable_set(bench, workspace_limit=limit)
        except OptimizationError:
            with pytest.raises(OptimizationError):
                truncate_front(kernel, limit)
        else:
            assert truncate_front(kernel, limit).desirable == expected

    def test_solvers_agree_and_warm_starts_track_feasible_solves(self, handle):
        geoms = {
            "a0": make_geometry(n=16, c=16, k=16, h=13, w=13),
            "a1": make_geometry(n=16, c=16, k=16, h=13, w=13),
            "b": make_geometry(n=16, c=8, k=32, h=9, w=9),
        }
        kernels = prepare_wd_kernels(handle, geoms, BatchSizePolicy.POWER_OF_TWO)
        limits = [m * MIB for m in (2, 8, 32, 128)]
        ilp = sweep_wd(kernels, limits, solver="ilp")
        mckp = sweep_wd(kernels, limits, solver="mckp")
        assert set(ilp.results) == set(mckp.results)
        for limit in ilp.results:
            assert ilp.results[limit].total_time == \
                pytest.approx(mckp.results[limit].total_time, abs=1e-12)
        # All feasible limits after the first can reuse the previous optimum.
        assert ilp.warm_started_solves <= max(0, len(ilp.results) - 1)
        assert mckp.warm_started_solves == 0  # DP solver takes no incumbent


class TestBatchedFind:
    @settings(**SETTINGS)
    @given(g=model_geometry())
    def test_equals_per_size_find(self, g):
        """find_algorithms_batched returns the exact per-size tables and
        burns the exact same number of measurement samples."""
        sizes = candidate_sizes(BatchSizePolicy.ALL, g.n)
        serial_handle = CudnnHandle(mode=ExecMode.TIMING)
        batched_handle = CudnnHandle(mode=ExecMode.TIMING)
        serial = [find_algorithms(serial_handle, g.with_batch(n))
                  for n in sizes]
        batched = find_algorithms_batched(batched_handle, g, sizes)
        assert list(batched) == serial
        assert batched_handle.next_sample() == serial_handle.next_sample()

    def test_grouped_convolution(self):
        g = dataclasses.replace(
            make_geometry(n=16, c=64, k=32, h=13, w=13), groups=2)
        sizes = candidate_sizes(BatchSizePolicy.POWER_OF_TWO, g.n)
        serial = [find_algorithms(CudnnHandle(mode=ExecMode.TIMING),
                                  g.with_batch(n)) for n in sizes]
        batched = find_algorithms_batched(
            CudnnHandle(mode=ExecMode.TIMING), g, sizes)
        assert list(batched) == serial

    def test_jittered_handle_falls_back_to_per_size_sampling(self):
        """With noise the batched path must not be taken (each size needs
        its own sample), but the entry point still works."""
        g = make_geometry(n=8)
        sizes = candidate_sizes(BatchSizePolicy.POWER_OF_TWO, g.n)
        noisy = CudnnHandle(mode=ExecMode.TIMING, jitter=0.2)
        with pytest.raises(NotSupportedError):
            noisy.perf.find_all_batched(g, sizes)
        rows = find_algorithms_batched(noisy, g, sizes)
        assert len(rows) == len(sizes)

    @pytest.mark.parametrize("bad", [[0], [-2], [2.5], [True], [4, 2.0], [3, 0]])
    def test_rejects_sizes_the_per_size_path_rejects(self, bad):
        """A non-positive, non-integral or bool size raises BadParamError
        (once yielding NaN rows, invented times, or a silent n=2)."""
        g = make_geometry(n=8)
        with pytest.raises(BadParamError):
            find_algorithms_batched(CudnnHandle(mode=ExecMode.TIMING), g, bad)
        with pytest.raises(BadParamError):
            CudnnHandle(mode=ExecMode.TIMING).perf.find_all_batched(g, bad)

    def test_huge_batch_sizes_raise_on_both_paths(self):
        """Past the int64 range of the batched arithmetic both paths raise
        BadParamError (the batched path once wrapped to negative times and
        workspaces at n = 2**40, and overflowed at 2**70); at 2**31 they
        still agree."""
        g = make_geometry(n=256, c=256, k=256, h=56, w=56)
        model = CudnnHandle(mode=ExecMode.TIMING).perf
        assert list(model.find_all_batched(g, [2**31])) == \
            [model.find_all(g.with_batch(2**31))]
        for n in (2**32, 2**40, 2**70):
            with pytest.raises(BadParamError):
                model.find_all_batched(g, [1, n])
            with pytest.raises(BadParamError):
                model.find_all(g.with_batch(n))
            with pytest.raises(BadParamError):
                find_algorithms_batched(CudnnHandle(mode=ExecMode.TIMING),
                                        g, [n])

    def test_all_policy_rejects_huge_batch_before_listing_sizes(
        self, monkeypatch
    ):
        """The ``all`` policy lists every size 1..N, so an N past the int64
        bound must fail as BadParamError before that list (of 2**40 ints,
        once) is built.  The spy never builds it, even where the bound is
        missing."""
        calls = []

        def spy(policy, batch):
            calls.append((policy, batch))
            raise AssertionError("candidate_sizes ran before the bound")

        monkeypatch.setattr("repro.core.benchmarker.candidate_sizes", spy)
        g = make_geometry(n=2**40, c=256, k=256, h=56, w=56)
        with pytest.raises(BadParamError):
            benchmark_kernel(CudnnHandle(mode=ExecMode.TIMING), g,
                             BatchSizePolicy.ALL)
        assert calls == []

    def test_benchmark_kernel_fast_path_equals_serial_path(self):
        """samples=1 takes the batched path, samples>1 the per-size loop; a
        deterministic handle must get identical tables from both."""
        g = make_geometry(n=32, c=16, k=16, h=13, w=13)
        fast = benchmark_kernel(CudnnHandle(mode=ExecMode.TIMING), g,
                                BatchSizePolicy.ALL)
        slow = benchmark_kernel(CudnnHandle(mode=ExecMode.TIMING), g,
                                BatchSizePolicy.ALL, samples=3)
        assert fast.sizes == slow.sizes
        for size in fast.sizes:
            assert fast.results[size] == slow.results[size]


class TestSweepTelemetry:
    """Span parity: the sweep paths must emit the same span vocabulary as
    the per-limit paths they replace (plus their own ``sweep.*`` wrappers),
    so profiles stay comparable whichever solver a harness picks."""

    def test_wr_sweep_spans_cover_per_limit_vocabulary(self, handle):
        import repro.telemetry as telemetry

        bench = benchmark_kernel(handle, make_geometry(n=8),
                                 BatchSizePolicy.POWER_OF_TWO)
        limits = [4096, 8192, 1 * MIB, 8 * MIB]
        with telemetry.capture() as per_limit:
            for limit in limits:
                optimize_from_benchmark(bench, limit)
        with telemetry.capture() as swept:
            sweep = sweep_wr(bench, limits)

        per_limit_names = {s.name for r in per_limit.tracer.roots()
                           for s in r.walk()}
        sweep_names = {s.name for r in swept.tracer.roots() for s in r.walk()}
        assert per_limit_names <= sweep_names
        assert "sweep.wr" in sweep_names
        # One nested WR solve per occupied interval, all under the sweep span.
        (root,) = swept.tracer.roots()
        assert root.name == "sweep.wr"
        nested = [s for s in root.walk() if s.name == "optimize.wr"]
        assert len(nested) == sweep.dp_solves
        assert swept.metrics.value("sweep.intervals_solved") == sweep.dp_solves
        assert swept.metrics.value("sweep.dp_solves_saved") == \
            sweep.dp_solves_saved

    def test_wd_sweep_emits_one_limit_span_per_feasible_limit(self, handle):
        import repro.telemetry as telemetry

        geoms = {
            "a0": make_geometry(n=16, c=16, k=16, h=13, w=13),
            "b": make_geometry(n=16, c=8, k=32, h=9, w=9),
        }
        kernels = prepare_wd_kernels(handle, geoms,
                                     BatchSizePolicy.POWER_OF_TWO)
        limits = [-1] + [m * MIB for m in (2, 8, 32)]
        with telemetry.capture() as session:
            sweep = sweep_wd(kernels, limits, solver="ilp")

        limit_spans = session.tracer.find("sweep.wd.limit")
        assert len(limit_spans) == len(sweep.results)
        assert {s.attributes["limit"] for s in limit_spans} == \
            set(sweep.results)
        for span in limit_spans:
            assert span.attributes["variables"] >= 1
            assert isinstance(span.attributes["warm_start"], bool)
        # The aggregated path still goes through the instrumented ILP core.
        assert session.tracer.find("ilp.solve")
        assert session.metrics.value("sweep.wd.solves") == len(sweep.results)

    def test_wd_sweep_and_per_limit_share_solver_spans(self, handle):
        import repro.telemetry as telemetry

        geoms = {"a": make_geometry(n=16, c=16, k=16, h=13, w=13)}
        kernels = prepare_wd_kernels(handle, geoms,
                                     BatchSizePolicy.POWER_OF_TWO)
        with telemetry.capture() as per_limit:
            solve_from_kernels(kernels, 32 * MIB, solver="ilp")
        with telemetry.capture() as swept:
            sweep_wd(kernels, [32 * MIB], solver="ilp")
        solver_names = {"ilp.solve"}
        per_limit_names = {s.name for r in per_limit.tracer.roots()
                           for s in r.walk()}
        sweep_names = {s.name for r in swept.tracer.roots() for s in r.walk()}
        assert solver_names <= per_limit_names
        assert solver_names <= sweep_names

    def test_batched_find_span_and_counters(self):
        import repro.telemetry as telemetry

        g = make_geometry(n=16)
        sizes = candidate_sizes(BatchSizePolicy.POWER_OF_TWO, g.n)
        handle = CudnnHandle(mode=ExecMode.TIMING)
        with telemetry.capture() as session:
            find_algorithms_batched(handle, g, sizes)
        (span,) = session.tracer.find("perfmodel.batched_find")
        assert span.attributes["kernel"] == g.cache_key()
        assert span.attributes["sizes"] == len(sizes)
        assert span.attributes["supported_algos"] >= 1
        assert session.metrics.value("perfmodel.batched_finds") == 1
        assert session.metrics.value("perfmodel.batched_sizes") == len(sizes)


class TestConcurrentEvaluator:
    def test_concurrent_equals_serial_exactly(self):
        """Thread-pooled evaluation returns the same PerfResult rows (not
        just times) as one-by-one benchmarking on a single handle."""
        geoms = {
            "a": make_geometry(n=16, c=8, k=8, h=13, w=13),
            "b": make_geometry(n=16, c=16, k=16, h=9, w=9),
            "c": make_geometry(n=16, c=4, k=32, h=27, w=27, r=5, s=5, pad=2),
        }
        par = benchmark_kernels_parallel(Node("p100-sxm2", num_gpus=4), geoms,
                                         BatchSizePolicy.ALL)
        serial_handle = CudnnHandle(mode=ExecMode.TIMING)
        for key, g in geoms.items():
            serial = benchmark_kernel(serial_handle, g, BatchSizePolicy.ALL)
            assert par.benchmarks[key].sizes == serial.sizes
            assert par.benchmarks[key].results == serial.results
