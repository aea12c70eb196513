"""Tests for the WR dynamic program (paper section III-B).

The key theorem checked here: the DP finds the true optimum over all
compositions of the mini-batch from measured sizes -- verified against an
exhaustive partition enumeration on randomized synthetic cost tables.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MicroConfig
from repro.core.policies import BatchSizePolicy
from repro.core.wr import (
    WRTraceRow,
    _rebuild,
    _wr_dp,
    optimize_from_benchmark,
    optimize_kernel,
    t1_table,
    trace_wr,
)
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import ConvType, FwdAlgo
from repro.errors import OptimizationError
from repro.units import MIB
from tests.conftest import make_geometry
from tests.test_benchmarker import synth_benchmark

CONV2 = ConvGeometry(ConvType.FORWARD, 256, 64, 27, 27, 192, 5, 5, 2, 2)


def brute_force_optimum(table: dict[int, list[tuple[float, int]]], n: int,
                        limit: int) -> float:
    """Minimum total time over all partitions of ``n`` (exponential)."""
    best_at = {}
    for size, entries in table.items():
        feasible = [t for t, ws in entries if ws <= limit]
        if feasible:
            best_at[size] = min(feasible)

    @lru_cache(maxsize=None)
    def solve(remaining: int) -> float:
        if remaining == 0:
            return 0.0
        best = math.inf
        for size, t in best_at.items():
            if size <= remaining:
                best = min(best, t + solve(remaining - size))
        return best

    return solve(n)


class TestDPOptimality:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 14),
        data=st.data(),
    )
    def test_matches_brute_force(self, n, data):
        sizes = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4,
                                   unique=True))
        if 1 not in sizes:
            sizes.append(1)  # keep the instance feasible
        table = {
            s: [(data.draw(st.floats(0.01, 10.0)), data.draw(st.integers(0, 100)))
                for _ in range(data.draw(st.integers(1, 3)))]
            for s in sizes
        }
        limit = data.draw(st.integers(0, 100))
        # Ensure feasibility: at least one zero-workspace entry at size 1.
        table[1].append((5.0, 0))
        bench = synth_benchmark(n, table)
        config = optimize_from_benchmark(bench, limit)
        expected = brute_force_optimum(table, n, limit)
        assert config.time == pytest.approx(expected)
        assert config.batch == n
        assert config.workspace <= limit

    def test_prefers_division_when_beneficial(self):
        # Dividing 4 = 2 + 2 at 1.0 each beats undivided 3.0.
        bench = synth_benchmark(4, {4: [(3.0, 0)], 2: [(1.0, 0)]})
        config = optimize_from_benchmark(bench, 0)
        assert config.micro_batch_sizes() == (2, 2)
        assert config.time == pytest.approx(2.0)

    def test_keeps_batch_whole_when_best(self):
        bench = synth_benchmark(4, {4: [(1.0, 0)], 2: [(0.9, 0)]})
        config = optimize_from_benchmark(bench, 0)
        assert config.is_undivided

    def test_mixed_sizes(self):
        # 6 = 4 + 2 with t(4)=1, t(2)=0.7 beats 3x2 (2.1) and its own 1.9... 1.7.
        bench = synth_benchmark(6, {6: [(5.0, 0)], 4: [(1.0, 0)], 2: [(0.7, 0)]})
        config = optimize_from_benchmark(bench, 0)
        assert sorted(config.micro_batch_sizes()) == [2, 4]

    def test_workspace_constraint_changes_choice(self):
        bench = synth_benchmark(4, {4: [(3.0, 0), (1.0, 100)], 2: [(1.2, 10)]})
        assert optimize_from_benchmark(bench, 100).time == pytest.approx(1.0)
        assert optimize_from_benchmark(bench, 10).time == pytest.approx(2.4)
        assert optimize_from_benchmark(bench, 0).time == pytest.approx(3.0)

    def test_infeasible_when_nothing_fits(self):
        bench = synth_benchmark(4, {4: [(1.0, 100)]})
        with pytest.raises(OptimizationError):
            optimize_from_benchmark(bench, 50)

    def test_uncomposable_batch(self):
        bench = synth_benchmark(5, {2: [(1.0, 0)]})  # 5 not a sum of 2s
        with pytest.raises(OptimizationError):
            optimize_from_benchmark(bench, 0)


def reference_t1(bench, limit) -> dict[int, MicroConfig]:
    """``T1`` by the definition: first strictly fastest row within the limit."""
    t1 = {}
    for size in sorted(bench.results):
        fits = [r for r in bench.results[size] if r.workspace <= limit]
        if fits:
            best = fits[0]
            for r in fits[1:]:
                if r.time < best.time:
                    best = r
            t1[size] = MicroConfig(size, best.algo, best.time, best.workspace)
    return t1


def reference_wr_dp(t1: dict[int, MicroConfig], batch: int):
    """The straightforward coin-change loop the fast ``_wr_dp`` replaced."""
    times = [0.0] + [math.inf] * batch
    choice = [None] * (batch + 1)
    for i in range(1, batch + 1):
        best = math.inf
        best_micro = None
        for size, micro in t1.items():
            if size > i or not math.isfinite(times[i - size]):
                continue
            cand = times[i - size] + micro.time
            if cand < best:
                best = cand
                best_micro = micro
        times[i] = best
        choice[i] = best_micro
    return times, choice


#: Few distinct times, so equal-cost divisions (tie-breaks) are common.
_TIMES = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5]),
                   st.floats(0.01, 10.0))


@st.composite
def wr_tables(draw):
    """A benchmark table, a limit and a batch for the DP to solve."""
    shape = draw(st.sampled_from(["any", "single", "no_one", "batch_is_max"]))
    sizes = draw(st.lists(st.integers(1, 24), min_size=1, max_size=7,
                          unique=True))
    if shape == "single":
        sizes = sizes[:1]
    elif shape == "no_one":
        sizes = [s for s in sizes if s != 1] or [2]
    batch = (max(sizes) if shape == "batch_is_max"
             else draw(st.integers(max(sizes), 40)))
    table = {
        size: draw(st.lists(st.tuples(_TIMES, st.integers(0, 100)),
                            min_size=1, max_size=4))
        for size in sizes
    }
    return batch, table, draw(st.integers(0, 100))


class TestFastDPAgainstReference:
    """``t1_table``/``_wr_dp`` equal the plain definitions bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=wr_tables())
    def test_tables_equal_element_by_element(self, case):
        batch, table, limit = case
        bench = synth_benchmark(batch, table)
        expected_t1 = reference_t1(bench, limit)
        if not expected_t1:
            with pytest.raises(OptimizationError):
                t1_table(bench, limit)
            return
        t1 = t1_table(bench, limit)
        assert list(t1.items()) == list(expected_t1.items())
        times, choice = _wr_dp(t1, batch)
        ref_times, ref_choice = reference_wr_dp(t1, batch)
        assert len(times) == len(ref_times) == batch + 1
        for got, want in zip(times, ref_times):
            assert got == want
        for got, want in zip(choice, ref_choice):
            assert got == want
        assert trace_wr(bench, limit) == [
            WRTraceRow(i, ref_times[i], ref_choice[i], _rebuild(ref_choice, i))
            for i in range(1, batch + 1)
            if math.isfinite(ref_times[i])
        ]

    def test_equal_times_keep_the_first_smallest_size(self):
        t1 = {size: MicroConfig(size, FwdAlgo.GEMM, float(size), 0)
              for size in (1, 2, 4)}
        times, choice = _wr_dp(t1, 4)
        assert times == reference_wr_dp(t1, 4)[0] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert [c.micro_batch for c in choice[1:]] == [1, 1, 1, 1]


class TestOnPerfModel:
    def test_conv2_paper_shape(self, timing_handle):
        """Fig. 9: at 64 MiB, WR divides conv2 and engages the FFT family
        with a large speedup; undivided stays on the GEMM family."""
        res = optimize_kernel(timing_handle, CONV2, 64 * MIB,
                              BatchSizePolicy.POWER_OF_TWO)
        assert not res.configuration.is_undivided
        assert res.speedup_vs_undivided > 1.5
        assert res.configuration.workspace <= 64 * MIB
        names = {m.algo.name for m in res.configuration}
        assert names <= {"FFT", "FFT_TILING"}

    def test_tight_limit_no_gain(self, timing_handle):
        """Fig. 10's 8 MiB column: nothing useful fits, mu-cuDNN == cuDNN."""
        res = optimize_kernel(timing_handle, CONV2, 1 * MIB,
                              BatchSizePolicy.POWER_OF_TWO)
        assert res.speedup_vs_undivided == pytest.approx(1.0, abs=0.05)

    def test_generous_limit_no_division_needed(self, timing_handle):
        """Fig. 10's 512 MiB column: everything fits undivided."""
        res = optimize_kernel(timing_handle, CONV2, 512 * MIB,
                              BatchSizePolicy.POWER_OF_TWO)
        assert res.configuration.time <= res.undivided_time
        assert res.speedup_vs_undivided == pytest.approx(1.0, abs=0.02)

    def test_all_at_least_as_good_as_power_of_two(self, timing_handle):
        all_res = optimize_kernel(timing_handle, CONV2, 64 * MIB,
                                  BatchSizePolicy.ALL)
        p2_res = optimize_kernel(timing_handle, CONV2, 64 * MIB,
                                 BatchSizePolicy.POWER_OF_TWO)
        assert all_res.configuration.time <= p2_res.configuration.time + 1e-12

    def test_undivided_policy_equals_plain_cudnn(self, timing_handle):
        res = optimize_kernel(timing_handle, CONV2, 64 * MIB,
                              BatchSizePolicy.UNDIVIDED)
        assert res.configuration.is_undivided
        assert res.speedup_vs_undivided == pytest.approx(1.0)

    def test_never_slower_than_undivided(self, timing_handle):
        """mu-cuDNN's guarantee: the DP can always fall back to undivided."""
        for limit_mib in (1, 8, 64, 512):
            res = optimize_kernel(timing_handle, CONV2, limit_mib * MIB,
                                  BatchSizePolicy.POWER_OF_TWO)
            assert res.configuration.time <= res.undivided_time + 1e-12

    def test_result_covers_batch_exactly(self, timing_handle):
        g = make_geometry(n=24, c=8, k=16, h=14, w=14)  # non-power-of-two
        res = optimize_kernel(timing_handle, g, 4 * MIB,
                              BatchSizePolicy.POWER_OF_TWO)
        assert res.configuration.batch == 24


class TestFallbackReport:
    """The Fig. 1 fallback (the unconstrained-fastest algorithm at the full
    batch overflows the limit) is looked up only for telemetry and
    provenance, which report it; the plan never depends on it."""

    LIMIT = 8 * MIB

    def test_looked_up_only_when_reported(self, timing_handle, monkeypatch):
        import repro.observability as observability
        import repro.telemetry as telemetry
        from repro.core.benchmarker import KernelBenchmark, benchmark_kernel

        bench = benchmark_kernel(timing_handle, CONV2,
                                 BatchSizePolicy.POWER_OF_TWO)
        lookups = []
        fastest_micro = KernelBenchmark.fastest_micro

        def spy(self, *args, **kwargs):
            lookups.append(args)
            return fastest_micro(self, *args, **kwargs)

        monkeypatch.setattr(KernelBenchmark, "fastest_micro", spy)
        plain = optimize_from_benchmark(bench, self.LIMIT)
        assert lookups == []
        with telemetry.capture() as session:
            traced = optimize_from_benchmark(bench, self.LIMIT)
        assert session.metrics.value("fallback.events") == 1.0
        (span,) = session.tracer.find("optimize.wr")
        assert span.attributes["fallback"] is True
        with observability.capture() as recorder:
            recorded = optimize_from_benchmark(bench, self.LIMIT)
        (rejected,) = recorder.events_named("candidate.rejected.workspace")
        assert rejected.detail["micro_batch"] == CONV2.n
        assert lookups == [(CONV2.n,)] * 2
        assert plain == traced == recorded
