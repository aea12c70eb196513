"""Tests for non-square kernels/strides/pads through the whole stack."""

import numpy as np
import pytest

from repro.core.handle import UcudnnHandle
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn import kernels
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import ConvType, FwdAlgo
from repro.cudnn.handle import CudnnHandle
from repro.cudnn.kernels import direct
from repro.cudnn.workspace import is_supported
from repro.frameworks.layers import Convolution, InnerProduct, SoftmaxWithLoss
from repro.frameworks.layers.base import Context
from repro.frameworks.net import Net
from repro.units import MIB
from tests.conftest import assert_close


@pytest.fixture
def rect_geometry():
    """A 1x7 'asymmetric' kernel (inception-v3 style factorized conv)."""
    return ConvGeometry(ConvType.FORWARD, 4, 6, 12, 14, 8, 1, 7,
                        pad_h=0, pad_w=3)


class TestRectangularKernels:
    def test_output_dims(self, rect_geometry):
        y = rect_geometry.y_desc
        assert (y.h, y.w) == (12, 14)

    @pytest.mark.parametrize("algo", [FwdAlgo.IMPLICIT_GEMM, FwdAlgo.GEMM,
                                      FwdAlgo.FFT, FwdAlgo.FFT_TILING])
    def test_families_agree(self, rng, rect_geometry, algo):
        g = rect_geometry
        if not is_supported(g, algo):
            pytest.skip(f"{algo.name} unsupported here")
        x = rng.standard_normal(g.x_desc.shape).astype(np.float32)
        w = rng.standard_normal(g.w_desc.shape).astype(np.float32)
        assert_close(kernels.forward(g, x, w, algo),
                     direct.forward(g, x, w), context=algo.name)

    def test_winograd_rejects_non_square(self, rect_geometry):
        assert not is_supported(rect_geometry, FwdAlgo.WINOGRAD)

    def test_asymmetric_stride(self, rng):
        g = ConvGeometry(ConvType.FORWARD, 2, 3, 16, 16, 4, 3, 3,
                         pad_h=1, pad_w=1, stride_h=2, stride_w=1)
        assert (g.y_desc.h, g.y_desc.w) == (8, 16)
        x = rng.standard_normal(g.x_desc.shape).astype(np.float32)
        w = rng.standard_normal(g.w_desc.shape).astype(np.float32)
        assert_close(kernels.forward(g, x, w, FwdAlgo.GEMM),
                     direct.forward(g, x, w))


class TestConvolutionLayerPairs:
    def test_tuple_parameters(self):
        ctx = Context(CudnnHandle(), workspace_limit=1 * MIB,
                      rng=np.random.default_rng(0))
        conv = Convolution("c", 8, kernel_size=(1, 7), pad=(0, 3))
        out = conv.setup(ctx, [(2, 4, 10, 12)])
        assert out[0] == (2, 8, 10, 12)
        assert conv.w_desc.shape == (8, 4, 1, 7)

    def test_int_parameters_unchanged(self):
        ctx = Context(CudnnHandle(), workspace_limit=1 * MIB,
                      rng=np.random.default_rng(0))
        conv = Convolution("c", 8, 3, pad=1)
        assert conv.setup(ctx, [(2, 4, 10, 10)])[0] == (2, 8, 10, 10)

    def test_bad_tuple_rejected(self):
        with pytest.raises(ValueError):
            Convolution("c", 8, kernel_size=(1, 2, 3))

    def test_factorized_conv_trains(self, rng):
        """Inception-v3-style 1x7 then 7x1 factorization, end to end."""
        net = Net("factorized", {"data": (2, 3, 12, 12)})
        net.add(Convolution("c1", 6, (1, 7), pad=(0, 3)), "data", "a")
        net.add(Convolution("c2", 6, (7, 1), pad=(3, 0)), "a", "b")
        net.add(InnerProduct("fc", 4), "b", "logits")
        net.add(SoftmaxWithLoss("loss"), "logits", "loss")
        net.setup(CudnnHandle(), workspace_limit=1 * MIB,
                  rng=np.random.default_rng(1))
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        loss = net.forward({"data": x}, np.array([0, 3]))
        assert np.isfinite(loss)
        net.backward()

    def test_ucudnn_handles_rectangular(self, rng):
        """WR through the interposition layer on a 1x7 kernel."""
        handle = UcudnnHandle(options=Options(
            policy=BatchSizePolicy.POWER_OF_TWO, workspace_limit=1 * MIB))
        net = Net("rect", {"data": (8, 4, 10, 12)})
        net.add(Convolution("c", 8, (1, 7), pad=(0, 3)), "data", "y")
        net.add(InnerProduct("fc", 2), "y", "logits")
        net.add(SoftmaxWithLoss("loss"), "logits", "loss")
        net.setup(handle, workspace_limit=1 * MIB, rng=np.random.default_rng(2))
        x = rng.standard_normal((8, 4, 10, 12)).astype(np.float32)
        loss = net.forward({"data": x}, np.zeros(8, dtype=np.int64))
        net.backward()
        assert np.isfinite(loss)
        for g, config in handle.configurations().items():
            assert config.workspace <= 1 * MIB
