"""Tests for the simulated cuDNN API entry points."""

import numpy as np
import pytest

from repro.cudnn import api
from repro.cudnn.descriptors import (
    ConvolutionDescriptor,
    FilterDescriptor,
    TensorDescriptor,
)
from repro.cudnn.enums import BwdFilterAlgo, ConvType, FwdAlgo
from repro.cudnn.handle import CudnnHandle
from repro.cudnn.kernels import direct
from repro.errors import (
    BadParamError,
    NotSupportedError,
    WorkspaceTooSmallError,
)
from repro.units import MIB
from tests.conftest import assert_close


@pytest.fixture
def setup(rng):
    xd = TensorDescriptor(6, 4, 10, 10)
    wd = FilterDescriptor(8, 4, 3, 3)
    cd = ConvolutionDescriptor(1, 1)
    g = api.make_geometry(ConvType.FORWARD, xd, wd, cd)
    x = rng.standard_normal(xd.shape).astype(np.float32)
    w = rng.standard_normal(wd.shape).astype(np.float32)
    dy = rng.standard_normal(g.y_desc.shape).astype(np.float32)
    return xd, wd, cd, g, x, w, dy


class TestMakeGeometry:
    def test_validates_output_descriptor(self, setup):
        xd, wd, cd, g, *_ = setup
        bad_y = TensorDescriptor(6, 8, 5, 5)
        with pytest.raises(BadParamError):
            api.make_geometry(ConvType.FORWARD, xd, wd, cd, bad_y)

    def test_accepts_correct_output(self, setup):
        xd, wd, cd, g, *_ = setup
        assert api.make_geometry(ConvType.FORWARD, xd, wd, cd, g.y_desc) == g


class TestGetAlgorithm:
    def test_prefer_fastest(self, handle, setup):
        *_, g, _, _, _ = setup[:4] + setup[4:]
        g = setup[3]
        algo = api.get_algorithm(handle, g, api.AlgoPreference.PREFER_FASTEST)
        assert algo == handle.perf.find_all(g)[0].algo

    def test_no_workspace(self, handle, setup):
        g = setup[3]
        algo = api.get_algorithm(handle, g, api.AlgoPreference.NO_WORKSPACE)
        assert api.get_workspace_size(handle, g, algo) == 0

    def test_limit_respected(self, handle, setup):
        g = setup[3]
        algo = api.get_algorithm(
            handle, g, api.AlgoPreference.SPECIFY_WORKSPACE_LIMIT, 1 * MIB
        )
        assert api.get_workspace_size(handle, g, algo) <= 1 * MIB

    def test_limit_required(self, handle, setup):
        g = setup[3]
        with pytest.raises(BadParamError):
            api.get_algorithm(handle, g, api.AlgoPreference.SPECIFY_WORKSPACE_LIMIT)

    def test_fallback_differs_under_tight_limit(self, handle):
        """The Fig. 1 behavior: limits silently change the selection."""
        conv2 = api.make_geometry(
            ConvType.FORWARD,
            TensorDescriptor(256, 64, 27, 27),
            FilterDescriptor(192, 64, 5, 5),
            ConvolutionDescriptor(2, 2),
        )
        fast = api.get_algorithm(handle, conv2, api.AlgoPreference.PREFER_FASTEST)
        tight = api.get_algorithm(
            handle, conv2, api.AlgoPreference.SPECIFY_WORKSPACE_LIMIT, 1 * MIB
        )
        assert fast != tight


class TestWorkspaceSize:
    def test_unsupported_algo_raises(self, handle, setup):
        g = setup[3]
        with pytest.raises(NotSupportedError):
            api.get_workspace_size(handle, g, FwdAlgo.DIRECT)


class TestConvolutionForward:
    def test_numeric_matches_reference(self, handle, setup):
        xd, wd, cd, g, x, w, dy = setup
        ws = api.get_workspace_size(handle, g, FwdAlgo.FFT)
        y = api.convolution_forward(handle, xd, x, wd, w, cd, FwdAlgo.FFT, ws, g.y_desc)
        assert_close(y, direct.forward(g, x, w))

    def test_workspace_too_small(self, handle, setup):
        xd, wd, cd, g, x, w, dy = setup
        ws = api.get_workspace_size(handle, g, FwdAlgo.FFT)
        with pytest.raises(WorkspaceTooSmallError) as exc:
            api.convolution_forward(handle, xd, x, wd, w, cd, FwdAlgo.FFT,
                                    ws - 1, g.y_desc)
        assert exc.value.required == ws
        assert exc.value.provided == ws - 1

    def test_advances_clock(self, handle, setup):
        xd, wd, cd, g, x, w, dy = setup
        before = handle.elapsed
        api.convolution_forward(handle, xd, x, wd, w, cd,
                                FwdAlgo.IMPLICIT_GEMM, 0, g.y_desc)
        assert handle.elapsed > before
        assert handle.elapsed - before == pytest.approx(
            handle.perf.time(g, FwdAlgo.IMPLICIT_GEMM)
        )

    def test_alpha_beta_blending(self, handle, setup):
        xd, wd, cd, g, x, w, dy = setup
        base = direct.forward(g, x, w)
        y = np.ones(g.y_desc.shape, dtype=np.float32)
        out = api.convolution_forward(handle, xd, x, wd, w, cd,
                                      FwdAlgo.IMPLICIT_GEMM, 0, g.y_desc, y,
                                      alpha=2.0, beta=0.5)
        assert_close(out, 2.0 * base + 0.5, tol=1e-4)
        assert out is y  # written in place

    def test_beta_without_output_rejected(self, handle, setup):
        xd, wd, cd, g, x, w, dy = setup
        with pytest.raises(BadParamError):
            api.convolution_forward(handle, xd, x, wd, w, cd,
                                    FwdAlgo.IMPLICIT_GEMM, 0, g.y_desc,
                                    None, beta=1.0)

    def test_timing_mode_returns_none(self, timing_handle, setup):
        xd, wd, cd, g, *_ = setup
        out = api.convolution_forward(timing_handle, xd, None, wd, None, cd,
                                      FwdAlgo.IMPLICIT_GEMM, 0, g.y_desc)
        assert out is None
        assert timing_handle.elapsed > 0


class TestBackwardOps:
    def test_backward_data_matches_reference(self, handle, setup):
        xd, wd, cd, g, x, w, dy = setup
        gd = api.make_geometry(ConvType.BACKWARD_DATA, xd, wd, cd)
        from repro.cudnn.enums import BwdDataAlgo
        dx = api.convolution_backward_data(handle, wd, w, g.y_desc, dy, cd,
                                           BwdDataAlgo.ALGO_0, 0, xd)
        assert_close(dx, direct.backward_data(gd, dy, w))

    def test_backward_filter_accumulation(self, handle, setup):
        """cuDNN output-scale: beta=1 adds onto the existing gradient --
        the primitive mu-cuDNN's BackwardFilter splitting is built on."""
        xd, wd, cd, g, x, w, dy = setup
        gw = api.make_geometry(ConvType.BACKWARD_FILTER, xd, wd, cd)
        ref = direct.backward_filter(gw, x, dy)
        dw = np.zeros(wd.shape, dtype=np.float32)
        for _ in range(3):
            api.convolution_backward_filter(handle, xd, x, g.y_desc, dy, cd,
                                            BwdFilterAlgo.ALGO_1,
                                            10**9, wd, dw, beta=1.0)
        assert_close(dw, 3.0 * ref, tol=1e-3)

    def test_backward_filter_beta_zero_overwrites(self, handle, setup):
        xd, wd, cd, g, x, w, dy = setup
        gw = api.make_geometry(ConvType.BACKWARD_FILTER, xd, wd, cd)
        ref = direct.backward_filter(gw, x, dy)
        dw = np.full(wd.shape, 123.0, dtype=np.float32)
        api.convolution_backward_filter(handle, xd, x, g.y_desc, dy, cd,
                                        BwdFilterAlgo.ALGO_1, 10**9, wd, dw,
                                        beta=0.0)
        assert_close(dw, ref)


class TestFindAlgorithms:
    def test_jittered_find_produces_fresh_samples(self):
        handle = CudnnHandle(jitter=0.05)
        g = api.make_geometry(
            ConvType.FORWARD,
            TensorDescriptor(8, 4, 10, 10),
            FilterDescriptor(8, 4, 3, 3),
            ConvolutionDescriptor(1, 1),
        )
        t1 = {r.algo: r.time for r in api.find_algorithms(handle, g) if r.ok}
        t2 = {r.algo: r.time for r in api.find_algorithms(handle, g) if r.ok}
        assert any(t1[a] != t2[a] for a in t1)
