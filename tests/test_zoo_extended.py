"""Tests for the extended model zoo: GoogLeNet and VGG-16."""

import numpy as np
import pytest

from repro.core.cache import BenchmarkCache
from repro.core.optimizer import optimize_network_wd, optimize_network_wr
from repro.core.policies import BatchSizePolicy
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks import time_net
from repro.frameworks.model_zoo import build_googlenet, build_vgg16
from repro.units import MIB


def setup_timing(net, limit=8 * MIB):
    return net.setup(CudnnHandle(mode=ExecMode.TIMING), workspace_limit=limit)


class TestGoogLeNet:
    def test_architecture(self):
        net = setup_timing(build_googlenet(batch=4))
        assert len(net.conv_layers()) == 57  # 3 stem + 9 modules x 6
        assert net.blobs["p2"].shape == (4, 192, 28, 28)
        assert net.blobs["inception_3b_y"].shape == (4, 480, 28, 28)
        assert net.blobs["inception_4e_y"].shape == (4, 832, 14, 14)
        assert net.blobs["inception_5b_y"].shape == (4, 1024, 7, 7)
        assert net.blobs["logits"].shape == (4, 1000)

    def test_param_count(self):
        # GoogLeNet's famous frugality: ~7M (incl. classifier, no aux heads).
        net = setup_timing(build_googlenet(batch=1))
        params = sum(p.count for p in net.params())
        assert 5e6 < params < 9e6

    def test_trains(self, rng):
        net = build_googlenet(batch=2, num_classes=6).setup(
            CudnnHandle(), workspace_limit=8 * MIB, rng=rng
        )
        x = rng.standard_normal((2, 3, 224, 224)).astype(np.float32)
        loss = net.forward({"data": x}, np.array([0, 5]))
        assert np.isfinite(loss)
        net.backward()

    def test_wd_divides_pool_across_modules(self):
        """The paper's WD motivation on the real thing: a pooled budget over
        GoogLeNet's 171 kernels beats per-kernel WR at the same total."""
        handle = CudnnHandle(mode=ExecMode.TIMING)
        net = setup_timing(build_googlenet(batch=32))
        geoms = net.conv_geometries()
        cache = BenchmarkCache()
        per_kernel = 2 * MIB
        total = per_kernel * len(geoms)
        wr = optimize_network_wr(handle, geoms, per_kernel,
                                 BatchSizePolicy.POWER_OF_TWO, cache=cache)
        wd = optimize_network_wd(handle, geoms, total,
                                 BatchSizePolicy.POWER_OF_TWO, cache=cache)
        assert wd.total_time <= wr.total_time + 1e-12
        assert wd.total_workspace <= total
        # The 5x5 branches are where the pool should flow.
        by_name = {k.name: k.configuration for k in wd.kernels}
        five_by_five_ws = sum(
            c.workspace for name, c in by_name.items() if "_5x5:" in name
        )
        assert five_by_five_ws > 0


class TestVGG16:
    def test_architecture(self):
        net = setup_timing(build_vgg16(batch=2))
        assert len(net.conv_layers()) == 13
        assert net.blobs["p5"].shape == (2, 512, 7, 7)
        params = sum(p.count for p in net.params())
        assert params == pytest.approx(138.36e6, rel=0.01)

    def test_all_convs_winograd_eligible(self):
        """Every VGG conv is 3x3/stride-1: the whole net is Winograd
        territory, so mu-cuDNN's gain should be small -- and is."""
        handle = CudnnHandle(mode=ExecMode.TIMING)
        net = setup_timing(build_vgg16(batch=16))
        from repro.cudnn.enums import ConvType, FwdAlgo
        from repro.cudnn.workspace import is_supported
        for conv in net.conv_layers():
            assert is_supported(conv.geometry(ConvType.FORWARD),
                                FwdAlgo.WINOGRAD), conv.name

    def test_mu_cudnn_gain_is_small_on_vgg(self):
        """Negative-control: workspace frugality barely matters when free
        fused Winograd is already near-optimal everywhere."""
        from repro.core.handle import UcudnnHandle
        from repro.core.options import Options

        def run(policy):
            handle = UcudnnHandle(
                mode=ExecMode.TIMING,
                options=Options(policy=policy, workspace_limit=64 * MIB),
            )
            net = build_vgg16(batch=16).setup(handle, workspace_limit=64 * MIB)
            return time_net(net, iterations=1).conv_total

        undiv = run(BatchSizePolicy.UNDIVIDED)
        p2 = run(BatchSizePolicy.POWER_OF_TWO)
        assert p2 <= undiv + 1e-12
        assert undiv / p2 < 1.4  # nothing like AlexNet's 1.76x

    def test_trains(self, rng):
        net = build_vgg16(batch=1, num_classes=3).setup(
            CudnnHandle(), workspace_limit=8 * MIB, rng=rng
        )
        x = rng.standard_normal((1, 3, 224, 224)).astype(np.float32)
        loss = net.forward({"data": x}, np.array([2]))
        assert np.isfinite(loss)
