"""Tests for the WR DP trace (the paper's Fig. 5 illustration tool)."""

import pytest

from repro.core.benchmarker import benchmark_kernel
from repro.core.policies import BatchSizePolicy
from repro.core.wr import optimize_from_benchmark, trace_wr
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import ConvType
from repro.errors import OptimizationError
from repro.units import MIB
from tests.test_benchmarker import synth_benchmark

CONV2 = ConvGeometry(ConvType.FORWARD, 256, 64, 27, 27, 192, 5, 5, 2, 2)


class TestTraceWR:
    def test_final_row_matches_optimizer(self, timing_handle):
        bench = benchmark_kernel(timing_handle, CONV2, BatchSizePolicy.POWER_OF_TWO)
        rows = trace_wr(bench, 64 * MIB)
        opt = optimize_from_benchmark(bench, 64 * MIB)
        last = rows[-1]
        assert last.batch == 256
        assert last.time == pytest.approx(opt.time)
        assert last.configuration.canonical() == opt.canonical() \
            if hasattr(opt, "canonical") else True
        assert last.configuration.micro_batch_sizes() == opt.micro_batch_sizes()

    def test_every_row_internally_consistent(self, timing_handle):
        bench = benchmark_kernel(timing_handle, CONV2.with_batch(32),
                                 BatchSizePolicy.ALL)
        for row in trace_wr(bench, 16 * MIB):
            assert row.configuration.batch == row.batch
            assert row.configuration.time == pytest.approx(row.time)
            assert row.configuration.workspace <= 16 * MIB
            assert row.chosen_micro in row.configuration.micros

    def test_times_reflect_marginal_structure(self):
        """T(i) - T(i - m_i) == T1(m_i) where m_i is the chosen micro."""
        bench = synth_benchmark(8, {1: [(1.0, 0)], 2: [(1.5, 0)], 8: [(9.0, 0)]})
        rows = {r.batch: r for r in trace_wr(bench, 0)}
        for i, row in rows.items():
            prev = rows[i - row.chosen_micro.micro_batch].time \
                if i - row.chosen_micro.micro_batch > 0 else 0.0
            assert row.time == pytest.approx(prev + row.chosen_micro.time)

    def test_skips_uncomposable_rows(self):
        bench = synth_benchmark(6, {2: [(1.0, 0)]})  # odd batches unreachable
        rows = trace_wr(bench, 0)
        assert [r.batch for r in rows] == [2, 4, 6]

    def test_infeasible_raises(self):
        bench = synth_benchmark(4, {4: [(1.0, 100)]})
        with pytest.raises(OptimizationError):
            trace_wr(bench, 10)

    def test_division_onset_visible(self, timing_handle):
        """The trace shows where dividing starts to pay: once the chosen
        micro stops equaling the full batch, it stays a strict summand."""
        bench = benchmark_kernel(timing_handle, CONV2, BatchSizePolicy.POWER_OF_TWO)
        rows = trace_wr(bench, 64 * MIB)
        divided = [r for r in rows if len(r.configuration) > 1]
        assert divided, "expected division under the 64 MiB limit"
        assert divided[-1].batch == 256
