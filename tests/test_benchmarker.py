"""Tests for the micro-batch benchmarking step (and its cache coupling)."""

from hypothesis import given, settings, strategies as st

from repro.core.benchmarker import KernelBenchmark, benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.config import MicroConfig
from repro.core.policies import BatchSizePolicy
from repro.cudnn.enums import FwdAlgo
from repro.cudnn.perfmodel import PerfResult
from repro.cudnn.status import Status
from tests.conftest import make_geometry


def synth_benchmark(n: int, table: dict[int, list[tuple[float, int]]],
                    policy=BatchSizePolicy.ALL) -> KernelBenchmark:
    """Build a benchmark with an arbitrary synthetic cost table.

    ``table`` maps micro-batch size -> list of (time, workspace) entries;
    algorithms are assigned arbitrarily by position.
    """
    bench = KernelBenchmark(geometry=make_geometry(n=n), policy=policy)
    algos = list(FwdAlgo)
    for size, entries in table.items():
        bench.results[size] = [
            PerfResult(algos[i % len(algos)], Status.SUCCESS, t, ws)
            for i, (t, ws) in enumerate(entries)
        ]
    return bench


class TestMicroOptions:
    def test_dominated_algorithms_pruned(self):
        bench = synth_benchmark(4, {4: [(1.0, 100), (2.0, 200), (0.5, 300)]})
        opts = bench.micro_options(4)
        # (2.0, 200) is dominated by (1.0, 100); the others form the front.
        assert [(o.time, o.workspace) for o in opts] == [(1.0, 100), (0.5, 300)]

    def test_limit_filters(self):
        bench = synth_benchmark(4, {4: [(1.0, 100), (0.5, 300)]})
        opts = bench.micro_options(4, workspace_limit=150)
        assert [(o.time, o.workspace) for o in opts] == [(1.0, 100)]

    def test_tie_keeps_one(self):
        bench = synth_benchmark(2, {2: [(1.0, 100), (1.0, 100)]})
        assert len(bench.micro_options(2)) == 1

    def test_unmeasured_size_empty(self):
        bench = synth_benchmark(4, {4: [(1.0, 0)]})
        assert bench.micro_options(3) == []


class TestFastestMicro:
    def test_ignores_workspace_among_feasible(self):
        bench = synth_benchmark(4, {4: [(1.0, 100), (0.5, 300)]})
        assert bench.fastest_micro(4).time == 0.5
        assert bench.fastest_micro(4, workspace_limit=100).time == 1.0

    def test_none_when_nothing_fits(self):
        bench = synth_benchmark(4, {4: [(1.0, 100)]})
        assert bench.fastest_micro(4, workspace_limit=50) is None

    def test_returns_microconfig(self):
        bench = synth_benchmark(4, {4: [(1.0, 100)]})
        micro = bench.fastest_micro(4)
        assert isinstance(micro, MicroConfig)
        assert micro.micro_batch == 4


def _first_fastest(rows, limit):
    """The scan the block's masked minimum replaced: the first row of the
    strictly smallest time among those within the limit."""
    best = None
    for res in rows:
        if limit is not None and res.workspace > limit:
            continue
        if best is None or res.time < best.time:
            best = res
    return best


class TestColumnarT1AgainstScan:
    """``T1`` from the block columns equals the per-size scan, on unsorted
    rows with ties and sizes with no rows."""

    @settings(max_examples=150, deadline=None)
    @given(table=st.dictionaries(
               st.integers(1, 16),
               st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                                  st.sampled_from([0, 64, 128, 4096])),
                        max_size=5),
               min_size=1, max_size=8),
           limit=st.none() | st.sampled_from([0, 63, 64, 100, 128, 5000]))
    def test_fastest_micro_and_t1_equal_the_scan(self, table, limit):
        bench = synth_benchmark(16, table)
        columns = bench.t1_columns(limit)
        sizes, times, rows = columns.sizes, columns.times, columns.rows
        t1 = {
            size: MicroConfig(size, algo, time, workspace)
            for size, (algo, time, workspace) in zip(
                sizes, bench.columns().row_values(rows))
        }
        assert times == [micro.time for micro in t1.values()]
        every = list(range(len(sizes)))
        assert columns.micros(every) == list(t1.values())
        # Built once per column: a second ask returns the same objects.
        assert all(a is b for a, b in zip(
            bench.t1_columns(limit).micros(every[::-1]),
            columns.micros(every)[::-1]))
        for size in sorted(table):
            best = _first_fastest(bench.results[size], limit)
            micro = bench.fastest_micro(size, limit)
            if best is None:
                assert micro is None and size not in t1
            else:
                expected = MicroConfig(size, best.algo, best.time,
                                       best.workspace)
                assert micro == expected and t1[size] == expected
        assert list(t1) == sorted(t1)


class TestBenchmarkKernel:
    def test_measures_policy_sizes(self, timing_handle):
        g = make_geometry(n=8)
        bench = benchmark_kernel(timing_handle, g, BatchSizePolicy.POWER_OF_TWO)
        assert bench.sizes == [1, 2, 4, 8]
        assert all(bench.results[s] for s in bench.sizes)
        assert bench.benchmark_time > 0

    def test_only_successful_results_kept(self, timing_handle):
        g = make_geometry(n=4, stride=2)  # FFT/Winograd unsupported
        bench = benchmark_kernel(timing_handle, g, BatchSizePolicy.UNDIVIDED)
        algos = {r.algo for r in bench.results[4]}
        assert FwdAlgo.FFT not in algos
        assert FwdAlgo.WINOGRAD not in algos
        assert FwdAlgo.IMPLICIT_GEMM in algos

    def test_cache_hits_cost_nothing(self, timing_handle):
        g = make_geometry(n=8)
        cache = BenchmarkCache()
        first = benchmark_kernel(timing_handle, g, BatchSizePolicy.POWER_OF_TWO,
                                 cache=cache)
        assert first.benchmark_time > 0
        second = benchmark_kernel(timing_handle, g, BatchSizePolicy.POWER_OF_TWO,
                                  cache=cache)
        assert second.benchmark_time == 0.0
        assert second.results.keys() == first.results.keys()
        for size in first.results:
            assert [r.time for r in second.results[size]] == \
                [r.time for r in first.results[size]]

    def test_cache_shared_across_policies(self, timing_handle):
        """undivided's single size is a subset of powerOfTwo's -- the cache
        must serve it (paper: replicated shapes skip recomputation)."""
        g = make_geometry(n=8)
        cache = BenchmarkCache()
        benchmark_kernel(timing_handle, g, BatchSizePolicy.POWER_OF_TWO, cache=cache)
        undiv = benchmark_kernel(timing_handle, g, BatchSizePolicy.UNDIVIDED,
                                 cache=cache)
        assert undiv.benchmark_time == 0.0

    def test_resnet_style_shape_reuse(self, timing_handle):
        """Identical geometries (ResNet's replicated blocks) hit the cache."""
        cache = BenchmarkCache()
        g1 = make_geometry(n=8, c=16, k=16, h=14, w=14)
        g2 = make_geometry(n=8, c=16, k=16, h=14, w=14)  # same shape, new obj
        benchmark_kernel(timing_handle, g1, BatchSizePolicy.POWER_OF_TWO, cache=cache)
        reused = benchmark_kernel(timing_handle, g2, BatchSizePolicy.POWER_OF_TWO,
                                  cache=cache)
        assert reused.benchmark_time == 0.0
