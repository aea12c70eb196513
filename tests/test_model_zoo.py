"""Tests for the model zoo: layer geometry tables of the paper's networks."""

import numpy as np

from repro.cudnn.enums import ConvType
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks.model_zoo import (
    build_alexnet,
    build_conv_pair,
    build_densenet40,
    build_inception_tower,
    build_resnet18,
    build_resnet50,
    build_tiny_cnn,
)
from repro.units import MIB


def setup_timing(net):
    return net.setup(CudnnHandle(mode=ExecMode.TIMING), workspace_limit=8 * MIB)


class TestAlexNet:
    def test_conv_geometry_table(self):
        """The one-column AlexNet plan the whole evaluation references."""
        net = setup_timing(build_alexnet(batch=256))
        geoms = {k: g for k, g in net.conv_geometries().items()
                 if g.conv_type == ConvType.FORWARD}
        expect = {
            "conv1": (256, 3, 227, 227, 64, 11, 4),
            "conv2": (256, 64, 27, 27, 192, 5, 1),
            "conv3": (256, 192, 13, 13, 384, 3, 1),
            "conv4": (256, 384, 13, 13, 256, 3, 1),
            "conv5": (256, 256, 13, 13, 256, 3, 1),
        }
        for name, (n, c, h, w, k, r, stride) in expect.items():
            g = geoms[f"{name}:Forward"]
            assert (g.n, g.c, g.h, g.w, g.k, g.r, g.stride_h) == \
                (n, c, h, w, k, r, stride), name

    def test_15_conv_kernels(self):
        """5 conv layers x 3 operations = the 15 kernels of Fig. 14."""
        net = setup_timing(build_alexnet(batch=256))
        assert len(net.conv_geometries()) == 15

    def test_fc_shapes(self):
        net = setup_timing(build_alexnet(batch=4))
        assert net.blobs["p5"].shape == (4, 256, 6, 6)
        assert net.blobs["f6"].shape == (4, 4096)
        assert net.blobs["f8"].shape == (4, 1000)

    def test_param_count(self):
        """One-column AlexNet has ~61M parameters."""
        net = setup_timing(build_alexnet(batch=1))
        params = sum(p.count for p in net.params())
        assert 55e6 < params < 65e6

    def test_trains_numerically(self, rng):
        net = build_alexnet(batch=2, num_classes=10).setup(
            CudnnHandle(), workspace_limit=8 * MIB, rng=rng
        )
        x = rng.standard_normal((2, 3, 227, 227)).astype(np.float32)
        loss = net.forward({"data": x}, np.array([1, 2]))
        assert np.isfinite(loss)
        net.backward()


class TestResNet:
    def test_resnet18_stage_shapes(self):
        net = setup_timing(build_resnet18(batch=2))
        assert net.blobs["conv1_c"].shape == (2, 64, 112, 112)
        assert net.blobs["p1"].shape == (2, 64, 56, 56)
        assert net.blobs["res2b_sum"].shape == (2, 64, 56, 56)
        assert net.blobs["res3a_sum"].shape == (2, 128, 28, 28)
        assert net.blobs["res5b_sum"].shape == (2, 512, 7, 7)
        assert net.blobs["logits"].shape == (2, 1000)

    def test_resnet18_conv_count(self):
        # 1 stem + 8 blocks x 2 + 3 projections = 20 conv layers.
        net = setup_timing(build_resnet18(batch=2))
        assert len(net.conv_layers()) == 20

    def test_resnet50_conv_count(self):
        # 1 stem + 16 blocks x 3 + 4 projections = 53 conv layers.
        net = setup_timing(build_resnet50(batch=2))
        assert len(net.conv_layers()) == 53
        assert len(net.conv_geometries()) == 159  # ~paper's ILP scale

    def test_resnet50_bottleneck_shapes(self):
        net = setup_timing(build_resnet50(batch=2))
        assert net.blobs["res2a_sum"].shape == (2, 256, 56, 56)
        assert net.blobs["res5c_sum"].shape == (2, 2048, 7, 7)

    def test_resnet18_param_count(self):
        net = setup_timing(build_resnet18(batch=1))
        params = sum(p.count for p in net.params())
        assert 11e6 < params < 13e6  # ~11.7M

    def test_resnet18_trains(self, rng):
        net = build_resnet18(batch=2, num_classes=4).setup(
            CudnnHandle(), workspace_limit=8 * MIB, rng=rng
        )
        x = rng.standard_normal((2, 3, 224, 224)).astype(np.float32)
        loss = net.forward({"data": x}, np.array([0, 3]))
        assert np.isfinite(loss)
        net.backward()
        conv1 = net.layer("conv1")
        assert float(np.abs(conv1.params[0].grad).sum()) > 0


class TestDenseNet:
    def test_channel_growth(self):
        net = setup_timing(build_densenet40(batch=2, growth_rate=40))
        # Block 1: 16 + 12 * 40 = 496 channels at 32x32.
        assert net.blobs["b1l12_x"].shape == (2, 496, 32, 32)
        assert net.blobs["trans1_p"].shape == (2, 496, 16, 16)
        assert net.blobs["b2l12_x"].shape == (2, 976, 16, 16)
        assert net.blobs["b3l12_x"].shape == (2, 1456, 8, 8)
        assert net.blobs["logits"].shape == (2, 10)

    def test_40_layers(self):
        """L=40: 1 stem + 36 dense + 2 transitions + 1 fc."""
        net = setup_timing(build_densenet40(batch=2))
        assert len(net.conv_layers()) == 39  # 40 minus the final fc
        from repro.frameworks.layers import InnerProduct
        fcs = [l for l in net.layers if isinstance(l, InnerProduct)]
        assert len(fcs) == 1

    def test_trains(self, rng):
        net = build_densenet40(batch=2, growth_rate=4).setup(
            CudnnHandle(), workspace_limit=8 * MIB, rng=rng
        )
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        loss = net.forward({"data": x}, np.array([1, 9]))
        assert np.isfinite(loss)
        net.backward()


class TestInception:
    def test_module_output_channels(self):
        net = setup_timing(build_inception_tower(batch=2, modules=1))
        # 64 + 128 + 32 + 32 = 256 (inception_3a widths).
        assert net.blobs["inception_1_y"].shape == (2, 256, 28, 28)

    def test_concurrent_branch_kernels(self):
        """Six conv layers per module -- the WD concurrency workload."""
        net = setup_timing(build_inception_tower(batch=2, modules=2))
        assert len(net.conv_layers()) == 12

    def test_trains(self, rng):
        net = build_inception_tower(batch=2, modules=1, num_classes=5).setup(
            CudnnHandle(), workspace_limit=8 * MIB, rng=rng
        )
        x = rng.standard_normal((2, 192, 28, 28)).astype(np.float32)
        loss = net.forward({"data": x}, np.array([0, 4]))
        assert np.isfinite(loss)
        net.backward()


class TestTinyNets:
    def test_tiny_cnn(self):
        net = setup_timing(build_tiny_cnn(batch=4))
        assert net.blobs["logits"].shape == (4, 10)

    def test_conv_pair(self):
        net = setup_timing(build_conv_pair(batch=4))
        assert net.blobs["logits"].shape == (4, 3)
