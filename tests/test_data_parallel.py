"""Tests for the data-parallel training simulation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BatchSizePolicy, Options, UcudnnHandle
from repro.cudnn.device import Gpu
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks import time_net
from repro.frameworks.model_zoo import build_alexnet
from repro.parallel.data_parallel import ring_allreduce_time, simulate_iteration
from repro.units import MIB


class TestRingAllreduce:
    def test_single_gpu_free(self):
        assert ring_allreduce_time(10**9, 1) == 0.0

    def test_scales_with_message_size(self):
        small = ring_allreduce_time(10**6, 4)
        big = ring_allreduce_time(10**8, 4)
        assert big > small

    def test_bandwidth_term_approaches_2x_message_over_bw(self):
        """For large p and large messages, time -> 2 * message / bandwidth."""
        msg = 10**9
        t = ring_allreduce_time(msg, 64, "nvlink")
        asymptote = 2 * msg / 20e9
        assert t == pytest.approx(asymptote, rel=0.1)

    def test_unknown_interconnect(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(1, 2, "carrier-pigeon")

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(1, 0)

    @settings(max_examples=25)
    @given(p=st.integers(2, 128), msg=st.integers(1, 10**9))
    def test_monotone_in_message(self, p, msg):
        assert ring_allreduce_time(msg, p) <= ring_allreduce_time(msg + 10**6, p)


class TestSimulateIteration:
    def _report(self, batch, handle=None):
        handle = handle or CudnnHandle(mode=ExecMode.TIMING)
        net = build_alexnet(batch=batch).setup(handle, workspace_limit=64 * MIB)
        return time_net(net, iterations=1), net.total_param_bytes()

    def test_overlap_hides_communication(self):
        """AlexNet's backward pass is long enough to hide a 4-GPU NVLink
        all-reduce of its ~244 MB of gradients -- the paper's 'hiding the
        communication of parameter gradients in the computation'."""
        report, param_bytes = self._report(256)
        it = simulate_iteration(report, param_bytes, 4, 256)
        assert it.allreduce_time > 0
        assert it.comm_hidden_fraction > 0.5
        assert it.iteration_time < report.total + it.allreduce_time

    def test_small_batches_expose_communication(self):
        """Strong scaling: at tiny per-GPU batches the backward window
        shrinks and the all-reduce leaks out -- why per-GPU batches stay
        large, hence why memory is at capacity, hence the paper."""
        big_report, params = self._report(256)
        small_report, _ = self._report(8)
        big = simulate_iteration(big_report, params, 4, 256)
        small = simulate_iteration(small_report, params, 4, 8)
        assert small.comm_hidden_fraction < big.comm_hidden_fraction
        # Per-sample efficiency collapses at the small batch.
        assert small.samples_per_second < big.samples_per_second

    def test_weak_scaling_throughput_grows(self):
        report, params = self._report(256)
        t1 = simulate_iteration(report, params, 1, 256)
        t4 = simulate_iteration(report, params, 4, 256)
        t8 = simulate_iteration(report, params, 8, 256)
        assert t1.samples_per_second < t4.samples_per_second < t8.samples_per_second
        # Never better than perfect scaling.
        assert t8.samples_per_second <= 8 * t1.samples_per_second + 1e-6

    def test_ucudnn_speeds_up_the_whole_ensemble(self):
        """End to end: mu-cuDNN's single-GPU gain carries straight through
        the data-parallel model (compute dominates at healthy batch)."""
        base_report, params = self._report(256)
        handle = UcudnnHandle(
            gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING,
            options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                            workspace_limit=64 * MIB),
        )
        fast_report, _ = self._report(256, handle=handle)
        base = simulate_iteration(base_report, params, 4, 256)
        fast = simulate_iteration(fast_report, params, 4, 256)
        assert fast.samples_per_second / base.samples_per_second > 1.3
