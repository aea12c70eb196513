"""Numeric equivalence tests: every algorithm family vs the direct reference.

This is correctness invariant 2 of DESIGN.md: all kernels (GEMM, precomp,
FFT, FFT-tiling, Winograd) must agree with the vectorized loop nest for all
three operation types across strides, pads, and awkward shapes.
"""

import numpy as np
import pytest

from repro.cudnn import kernels
from repro.cudnn.enums import BwdDataAlgo, BwdFilterAlgo, ConvType, FwdAlgo
from repro.cudnn.kernels import direct, gemm, im2col, precomp
from repro.cudnn.workspace import is_supported
from repro.errors import BadParamError, NotSupportedError
from tests.conftest import assert_close, make_geometry, random_operands

GEOMETRIES = [
    pytest.param(make_geometry(n=3, c=5, h=13, w=11, k=7, r=3, s=3, pad=1), id="3x3-odd"),
    pytest.param(make_geometry(n=2, c=4, h=27, w=27, k=6, r=5, s=5, pad=2), id="5x5-conv2ish"),
    pytest.param(make_geometry(n=2, c=3, h=35, w=35, k=4, r=11, s=11, pad=0, stride=4), id="11x11-s4"),
    pytest.param(make_geometry(n=2, c=8, h=9, w=9, k=5, r=1, s=1, pad=0), id="1x1"),
    pytest.param(make_geometry(n=2, c=3, h=40, w=37, k=4, r=3, s=3, pad=1), id="multi-tile"),
    pytest.param(make_geometry(n=1, c=1, h=4, w=4, k=1, r=3, s=3, pad=0), id="minimal"),
    pytest.param(make_geometry(n=2, c=3, h=15, w=15, k=4, r=3, s=3, pad=0, dilation=2), id="dilated"),
    pytest.param(make_geometry(n=5, c=2, h=10, w=14, k=3, r=3, s=3, pad=2), id="pad2-3x3"),
]


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(7)
    cache = {}

    def get(g):
        if g not in cache:
            cache[g] = random_operands(rng, g)
        return cache[g]

    return get


@pytest.mark.parametrize("g", GEOMETRIES)
class TestAllFamiliesAgree:
    def test_forward(self, g, operands):
        x, w, _ = operands(g)
        ref = direct.forward(g, x, w)
        tested = 0
        for algo in FwdAlgo:
            if is_supported(g, algo):
                assert_close(kernels.forward(g, x, w, algo), ref,
                             context=f"fwd {algo.name}")
                tested += 1
        assert tested >= 3  # gemm families always present

    def test_backward_data(self, g, operands):
        x, w, dy = operands(g)
        gd = g.with_type(ConvType.BACKWARD_DATA)
        ref = direct.backward_data(gd, dy, w)
        for algo in BwdDataAlgo:
            if is_supported(gd, algo):
                assert_close(kernels.backward_data(gd, dy, w, algo), ref,
                             context=f"bwd_data {algo.name}")

    def test_backward_filter(self, g, operands):
        x, w, dy = operands(g)
        gw = g.with_type(ConvType.BACKWARD_FILTER)
        ref = direct.backward_filter(gw, x, dy)
        for algo in BwdFilterAlgo:
            if is_supported(gw, algo):
                assert_close(kernels.backward_filter(gw, x, dy, algo), ref,
                             context=f"bwd_filter {algo.name}")


class TestAdjointConsistency:
    """backward_data/backward_filter are the true adjoints of forward:
    <conv(x, w), dy> == <x, bwd_data(dy, w)> == <w, bwd_filter(x, dy)>."""

    @pytest.mark.parametrize("g", GEOMETRIES)
    def test_inner_product_identity(self, g, operands):
        x, w, dy = operands(g)
        y = direct.forward(g, x, w)
        dx = direct.backward_data(g.with_type(ConvType.BACKWARD_DATA), dy, w)
        dw = direct.backward_filter(g.with_type(ConvType.BACKWARD_FILTER), x, dy)
        lhs = float(np.vdot(y.astype(np.float64), dy.astype(np.float64)))
        via_x = float(np.vdot(x.astype(np.float64), dx.astype(np.float64)))
        via_w = float(np.vdot(w.astype(np.float64), dw.astype(np.float64)))
        scale = max(abs(lhs), 1.0)
        assert abs(lhs - via_x) / scale < 1e-3
        assert abs(lhs - via_w) / scale < 1e-3


class TestDispatcher:
    def test_rejects_wrong_conv_type(self, operands):
        g = make_geometry()
        x, w, dy = operands(g)
        with pytest.raises(BadParamError):
            kernels.forward(g.with_type(ConvType.BACKWARD_DATA), x, w,
                            FwdAlgo.IMPLICIT_GEMM)

    def test_rejects_unsupported_algo(self, operands):
        g = make_geometry(stride=2)
        x, w, _ = operands(g)
        with pytest.raises(NotSupportedError):
            kernels.forward(g, x, w, FwdAlgo.WINOGRAD)

    def test_rejects_bad_shapes(self):
        g = make_geometry()
        x = np.zeros((1, 1, 1, 1), dtype=np.float32)
        w = np.zeros(g.w_desc.shape, dtype=np.float32)
        with pytest.raises(BadParamError):
            kernels.forward(g, x, w, FwdAlgo.IMPLICIT_GEMM)


class TestIm2col:
    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), c> == <x, col2im(c)> for random c (adjoint pair)."""
        rng = np.random.default_rng(3)
        g = make_geometry(n=2, c=3, h=7, w=6, k=2, r=3, s=3, pad=1, stride=2)
        x = rng.standard_normal(g.x_desc.shape).astype(np.float32)
        col = im2col.im2col(g, x)
        c = rng.standard_normal(col.shape).astype(np.float32)
        lhs = float(np.vdot(col.astype(np.float64), c.astype(np.float64)))
        rhs = float(np.vdot(x.astype(np.float64),
                            im2col.col2im(g, c).astype(np.float64)))
        assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-4

    def test_gemm_call_counting(self):
        rng = np.random.default_rng(5)
        g = make_geometry()
        x, w, _ = random_operands(rng, g)
        gemm.reset_call_count()
        im2col.forward(g, x, w)
        assert gemm.CALL_COUNT == 1
        precomp.forward(g, x, w)
        assert gemm.CALL_COUNT == 2

    def test_sgemm_validates_dims(self):
        with pytest.raises(ValueError):
            gemm.sgemm(np.zeros((2, 3), np.float32), np.zeros((4, 5), np.float32))
        with pytest.raises(ValueError):
            gemm.sgemm(np.zeros(3, np.float32), np.zeros((3, 2), np.float32))


class TestPrecomp:
    def test_index_bytes_positive_and_batch_free(self):
        g = make_geometry(n=16)
        assert precomp.precomputed_index_bytes(g) == \
            precomp.precomputed_index_bytes(g.with_batch(1))
        assert precomp.precomputed_index_bytes(g) > 0

    def test_padding_taps_are_zero(self):
        """The gather's zero sentinel must behave exactly like zero padding."""
        rng = np.random.default_rng(11)
        g = make_geometry(n=1, c=1, h=4, w=4, k=1, r=3, s=3, pad=2)
        x = rng.standard_normal(g.x_desc.shape).astype(np.float32)
        w = rng.standard_normal(g.w_desc.shape).astype(np.float32)
        assert_close(precomp.forward(g, x, w), direct.forward(g, x, w))


class TestOutputDtypeAndContiguity:
    @pytest.mark.parametrize("g", GEOMETRIES[:3])
    def test_fp32_contiguous(self, g, operands):
        x, w, dy = operands(g)
        for algo in FwdAlgo:
            if is_supported(g, algo):
                y = kernels.forward(g, x, w, algo)
                assert y.dtype == np.float32
                assert y.flags["C_CONTIGUOUS"]
