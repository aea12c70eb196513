"""Semantics-preservation tests for micro-batched execution (section II).

DESIGN.md invariant 1: for every operation type and any partition of the
mini-batch, micro-batched execution equals undivided execution --
Forward/BackwardData over disjoint slices, BackwardFilter via beta=1
accumulation.  Partitions are hypothesis-generated.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import convolution as uconv
from repro.core.config import Configuration, MicroConfig
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import BwdDataAlgo, BwdFilterAlgo, ConvType, FwdAlgo
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.cudnn.kernels import direct
from repro.cudnn.workspace import is_supported, workspace_size
from repro.errors import BadParamError
from tests.conftest import assert_close, make_geometry


@st.composite
def partitions(draw, total=12):
    """Random ordered partition of ``total`` into positive parts."""
    parts = []
    remaining = total
    while remaining > 0:
        part = draw(st.integers(1, remaining))
        parts.append(part)
        remaining -= part
    return parts


def make_config(g: ConvGeometry, parts, algo) -> Configuration:
    micros = []
    for m in parts:
        gm = g.with_batch(m)
        micros.append(MicroConfig(m, algo, 1e-6, workspace_size(gm, algo)))
    return Configuration(tuple(micros))


def algos_to_test(g, enum):
    return [a for a in enum if is_supported(g.with_batch(1), a)
            and is_supported(g, a)]


@pytest.fixture
def io(rng):
    g = make_geometry(n=12, c=4, h=9, w=9, k=6, r=3, s=3, pad=1)
    x = rng.standard_normal(g.x_desc.shape).astype(np.float32)
    w = rng.standard_normal(g.w_desc.shape).astype(np.float32)
    dy = rng.standard_normal(g.y_desc.shape).astype(np.float32)
    return g, x, w, dy


class TestForward:
    @settings(max_examples=20, deadline=None)
    @given(parts=partitions(12))
    def test_any_partition_matches_undivided(self, parts):
        rng = np.random.default_rng(42)
        handle = CudnnHandle()
        g = make_geometry(n=12, c=4, h=9, w=9, k=6, r=3, s=3, pad=1)
        x = rng.standard_normal(g.x_desc.shape).astype(np.float32)
        w = rng.standard_normal(g.w_desc.shape).astype(np.float32)
        ref = direct.forward(g, x, w)
        for algo in (FwdAlgo.IMPLICIT_GEMM, FwdAlgo.FFT, FwdAlgo.WINOGRAD):
            config = make_config(g, parts, algo)
            y = uconv.forward(handle, config, g.x_desc, x, g.w_desc, w,
                              g.conv_desc, config.workspace, g.y_desc)
            assert_close(y, ref, context=f"{algo.name} parts={parts}")

    def test_mixed_algorithms_across_micro_batches(self, handle, io):
        """A configuration may use different algorithms per micro-batch
        (Fig. 3's '@256 ... @128+@128' timeline)."""
        g, x, w, dy = io
        micros = (
            MicroConfig(4, FwdAlgo.FFT, 1e-6,
                        workspace_size(g.with_batch(4), FwdAlgo.FFT)),
            MicroConfig(5, FwdAlgo.WINOGRAD, 1e-6, 0),
            MicroConfig(3, FwdAlgo.IMPLICIT_PRECOMP_GEMM, 1e-6,
                        workspace_size(g.with_batch(3),
                                       FwdAlgo.IMPLICIT_PRECOMP_GEMM)),
        )
        config = Configuration(micros)
        y = uconv.forward(handle, config, g.x_desc, x, g.w_desc, w,
                          g.conv_desc, config.workspace, g.y_desc)
        assert_close(y, direct.forward(g, x, w))

    def test_batch_mismatch_rejected(self, handle, io):
        g, x, w, _ = io
        config = make_config(g, [4, 4], FwdAlgo.IMPLICIT_GEMM)  # covers 8 != 12
        with pytest.raises(BadParamError):
            uconv.forward(handle, config, g.x_desc, x, g.w_desc, w,
                          g.conv_desc, 0, g.y_desc)

    def test_timing_mode_advances_clock_per_micro_batch(self, io):
        g, *_ = io
        handle = CudnnHandle(mode=ExecMode.TIMING)
        config = make_config(g, [4, 4, 4], FwdAlgo.IMPLICIT_GEMM)
        uconv.forward(handle, config, g.x_desc, None, g.w_desc, None,
                      g.conv_desc, 0, g.y_desc)
        assert handle.gpu.kernels_launched == 3
        expected = 3 * handle.perf.time(g.with_batch(4), FwdAlgo.IMPLICIT_GEMM)
        assert handle.elapsed == pytest.approx(expected)


class TestBackwardData:
    @settings(max_examples=15, deadline=None)
    @given(parts=partitions(12))
    def test_any_partition(self, parts):
        rng = np.random.default_rng(43)
        handle = CudnnHandle()
        g = make_geometry(n=12, c=4, h=9, w=9, k=6, r=3, s=3,
                          pad=1).with_type(ConvType.BACKWARD_DATA)
        w = rng.standard_normal(g.w_desc.shape).astype(np.float32)
        dy = rng.standard_normal(g.y_desc.shape).astype(np.float32)
        ref = direct.backward_data(g, dy, w)
        config = make_config(g, parts, BwdDataAlgo.FFT)
        dx = uconv.backward_data(handle, config, g.w_desc, w, g.y_desc, dy,
                                 g.conv_desc, config.workspace, g.x_desc)
        assert_close(dx, ref)


class TestBackwardFilter:
    @settings(max_examples=15, deadline=None)
    @given(parts=partitions(12))
    def test_accumulation_matches_undivided(self, parts):
        """The output-dependency case: accumulation with beta=1 must make
        any partition equivalent to the undivided filter gradient."""
        rng = np.random.default_rng(44)
        handle = CudnnHandle()
        g = make_geometry(n=12, c=4, h=9, w=9, k=6, r=3, s=3,
                          pad=1).with_type(ConvType.BACKWARD_FILTER)
        x = rng.standard_normal(g.x_desc.shape).astype(np.float32)
        dy = rng.standard_normal(g.y_desc.shape).astype(np.float32)
        ref = direct.backward_filter(g, x, dy)
        config = make_config(g, parts, BwdFilterAlgo.ALGO_1)
        dw = uconv.backward_filter(handle, config, g.x_desc, x, g.y_desc, dy,
                                   g.conv_desc, config.workspace, g.w_desc)
        assert_close(dw, ref, tol=1e-3)

    def test_caller_beta_applied_once(self, handle, io):
        """With an existing dw and beta=1, the prior contents are added
        exactly once, independent of the partition."""
        g0, x, w, dy = io
        g = g0.with_type(ConvType.BACKWARD_FILTER)
        ref = direct.backward_filter(g, x, dy)
        prior = np.full(g.w_desc.shape, 2.5, dtype=np.float32)
        config = make_config(g, [5, 4, 3], BwdFilterAlgo.ALGO_1)
        dw = prior.copy()
        uconv.backward_filter(handle, config, g.x_desc, x, g.y_desc, dy,
                              g.conv_desc, config.workspace, g.w_desc, dw,
                              beta=1.0)
        assert_close(dw, ref + 2.5, tol=1e-3)

    def test_caller_beta_zero_discards_prior(self, handle, io):
        g0, x, w, dy = io
        g = g0.with_type(ConvType.BACKWARD_FILTER)
        ref = direct.backward_filter(g, x, dy)
        dw = np.full(g.w_desc.shape, 99.0, dtype=np.float32)
        config = make_config(g, [6, 6], BwdFilterAlgo.ALGO_1)
        uconv.backward_filter(handle, config, g.x_desc, x, g.y_desc, dy,
                              g.conv_desc, config.workspace, g.w_desc, dw,
                              beta=0.0)
        assert_close(dw, ref, tol=1e-3)
