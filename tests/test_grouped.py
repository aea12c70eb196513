"""Tests for grouped convolution (``cudnnSetConvolutionGroupCount``)."""

import dataclasses

import numpy as np
import pytest

from repro.core.handle import UcudnnHandle
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn import kernels
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import BwdDataAlgo, BwdFilterAlgo, ConvType, FwdAlgo
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.cudnn.kernels import direct
from repro.cudnn.perfmodel import PerfModel
from repro.cudnn.device import P100_SXM2
from repro.cudnn.workspace import is_supported, workspace_size
from repro.errors import BadParamError
from repro.frameworks.model_zoo import build_alexnet_grouped
from repro.units import MIB
from tests.conftest import assert_close


def grouped_geometry(groups=2, n=3, c=8, k=6, hw=9, r=3, pad=1):
    return ConvGeometry(ConvType.FORWARD, n, c, hw, hw, k, r, r, pad, pad,
                        groups=groups)


def reference_grouped_forward(g, x, w):
    """Group loop over the direct reference kernel."""
    sub = g.group_geometry()
    cg, kg = g.c // g.groups, g.k // g.groups
    outs = [
        direct.forward(sub, x[:, gi * cg:(gi + 1) * cg], w[gi * kg:(gi + 1) * kg])
        for gi in range(g.groups)
    ]
    return np.concatenate(outs, axis=1)


class TestGeometry:
    def test_filter_carries_per_group_channels(self):
        g = grouped_geometry()
        assert g.w_desc.shape == (6, 4, 3, 3)
        assert g.y_desc.c == 6

    def test_macs_scale_down_by_groups(self):
        g1 = grouped_geometry(groups=1)
        g2 = grouped_geometry(groups=2)
        assert g2.macs == g1.macs // 2

    def test_indivisible_channels_rejected(self):
        with pytest.raises(BadParamError):
            grouped_geometry(groups=3, c=8, k=6)

    def test_group_geometry(self):
        sub = grouped_geometry(groups=2).group_geometry()
        assert (sub.c, sub.k, sub.groups) == (4, 3, 1)
        assert grouped_geometry(groups=1).group_geometry() is not None

    def test_cache_key_distinguishes_groups(self):
        assert grouped_geometry(groups=1).cache_key() != \
            grouped_geometry(groups=2).cache_key()

    def test_surgery_preserves_groups(self):
        g = grouped_geometry(groups=2)
        assert g.with_batch(1).groups == 2
        assert g.with_type(ConvType.BACKWARD_DATA).groups == 2


class TestModels:
    def test_workspace_is_one_groups_worth(self):
        g2 = grouped_geometry(groups=2, n=16, c=32, k=32, hw=14)
        assert workspace_size(g2, FwdAlgo.FFT) == \
            workspace_size(g2.group_geometry(), FwdAlgo.FFT)
        assert workspace_size(g2, FwdAlgo.FFT) < \
            workspace_size(dataclasses.replace(g2, groups=1), FwdAlgo.FFT)

    def test_time_composes_across_groups(self):
        pm = PerfModel(P100_SXM2)
        g2 = grouped_geometry(groups=2, n=16, c=32, k=32, hw=14)
        assert pm.time(g2, FwdAlgo.WINOGRAD) == pytest.approx(
            2 * pm.time(g2.group_geometry(), FwdAlgo.WINOGRAD)
        )

    def test_support_follows_subproblem(self):
        g = grouped_geometry(groups=2)
        assert is_supported(g, FwdAlgo.WINOGRAD)
        assert not is_supported(dataclasses.replace(g, stride_h=2, stride_w=2),
                                FwdAlgo.WINOGRAD)


class TestNumerics:
    @pytest.mark.parametrize("algo", [FwdAlgo.IMPLICIT_GEMM, FwdAlgo.GEMM,
                                      FwdAlgo.FFT, FwdAlgo.WINOGRAD])
    def test_forward_matches_group_loop(self, rng, algo):
        g = grouped_geometry(groups=2)
        x = rng.standard_normal(g.x_desc.shape).astype(np.float32)
        w = rng.standard_normal(g.w_desc.shape).astype(np.float32)
        assert_close(kernels.forward(g, x, w, algo),
                     reference_grouped_forward(g, x, w), context=algo.name)

    def test_backward_adjoints(self, rng):
        g = grouped_geometry(groups=4, c=8, k=8)
        x = rng.standard_normal(g.x_desc.shape).astype(np.float32)
        w = rng.standard_normal(g.w_desc.shape).astype(np.float32)
        dy = rng.standard_normal(g.y_desc.shape).astype(np.float32)
        y = kernels.forward(g, x, w, FwdAlgo.IMPLICIT_GEMM)
        dx = kernels.backward_data(g.with_type(ConvType.BACKWARD_DATA), dy, w,
                                   BwdDataAlgo.ALGO_0)
        dw = kernels.backward_filter(g.with_type(ConvType.BACKWARD_FILTER), x,
                                     dy, BwdFilterAlgo.ALGO_1)
        lhs = float(np.vdot(y.astype(np.float64), dy.astype(np.float64)))
        assert abs(lhs - float(np.vdot(x.astype(np.float64), dx.astype(np.float64)))) \
            < 1e-3 * max(abs(lhs), 1.0)
        assert abs(lhs - float(np.vdot(w.astype(np.float64), dw.astype(np.float64)))) \
            < 1e-3 * max(abs(lhs), 1.0)

    def test_groups_equal_channels_is_depthwise(self, rng):
        """groups == c == k degenerates to depthwise convolution."""
        g = grouped_geometry(groups=4, c=4, k=4)
        x = rng.standard_normal(g.x_desc.shape).astype(np.float32)
        w = rng.standard_normal(g.w_desc.shape).astype(np.float32)  # (4,1,3,3)
        y = kernels.forward(g, x, w, FwdAlgo.IMPLICIT_GEMM)
        for ch in range(4):
            sub = dataclasses.replace(g, c=1, k=1, groups=1)
            expected = direct.forward(sub, x[:, ch:ch + 1], w[ch:ch + 1])
            assert_close(y[:, ch:ch + 1], expected)


class TestGroupedAlexNet:
    def test_bvlc_channel_plan(self):
        net = build_alexnet_grouped(batch=4).setup(
            CudnnHandle(mode=ExecMode.TIMING), workspace_limit=8 * MIB
        )
        conv2 = net.layer("conv2")
        assert conv2.w_desc.shape == (256, 48, 5, 5)  # 96/2 input channels
        assert net.blobs["c2"].shape == (4, 256, 27, 27)
        conv4 = net.layer("conv4")
        assert conv4.w_desc.shape == (384, 192, 3, 3)
        # ~61M params, like the original AlexNet.
        params = sum(p.count for p in net.params())
        assert 55e6 < params < 65e6

    def test_trains_numerically(self, rng):
        net = build_alexnet_grouped(batch=2, num_classes=5).setup(
            CudnnHandle(), workspace_limit=8 * MIB, rng=rng
        )
        x = rng.standard_normal((2, 3, 227, 227)).astype(np.float32)
        loss = net.forward({"data": x}, np.array([0, 4]))
        assert np.isfinite(loss)
        net.backward()
        assert float(np.abs(net.layer("conv2").params[0].grad).sum()) > 0

    def test_micro_batching_grouped_conv2(self):
        """WR still divides the grouped conv2 under a tight limit, and the
        division is over the batch (groups are orthogonal to it)."""
        handle = UcudnnHandle(
            mode=ExecMode.TIMING,
            options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                            workspace_limit=16 * MIB),
        )
        net = build_alexnet_grouped(batch=256).setup(
            handle, workspace_limit=16 * MIB
        )
        net.forward()
        net.backward()
        g = net.layer("conv2").geometry(ConvType.FORWARD)
        config = handle.configurations()[g]
        assert config.batch == 256
        assert config.workspace <= 16 * MIB
