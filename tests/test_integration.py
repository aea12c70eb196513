"""Cross-module integration tests: the full pipeline, end to end.

Everything at once: a real network, a UcudnnHandle, numeric execution,
WD over an Inception topology, memory accounting, and the file cache --
exercised together the way a downstream user would.
"""

import numpy as np
import pytest

from repro.core.handle import UcudnnHandle
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks import time_net
from repro.frameworks.data import synthetic_batch
from repro.frameworks.model_zoo import (
    build_inception_tower,
    build_resnet18,
    build_tiny_cnn,
)
from repro.frameworks.solver import SGDSolver
from repro.memory import memory_report
from repro.units import KIB, MIB


class TestInceptionWDEndToEnd:
    def test_numeric_wd_training_step(self, rng):
        """WD mode driving a real (numeric) Inception module: the first
        convolution triggers benchmarking + Pareto pruning + the ILP, then
        the step runs micro-batched and matches plain cuDNN."""
        def step(handle):
            net = build_inception_tower(batch=8, modules=1, num_classes=5).setup(
                handle, workspace_limit=None, rng=np.random.default_rng(3)
            )
            x = np.random.default_rng(4).standard_normal(
                (8, 192, 28, 28)).astype(np.float32)
            labels = np.array([0, 1, 2, 3, 4, 0, 1, 2])
            loss = net.forward({"data": x}, labels)
            net.backward()
            return loss, net

        ref_loss, _ = step(CudnnHandle())
        handle = UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                                              total_workspace=4 * MIB))
        wd_loss, _ = step(handle)
        assert wd_loss == pytest.approx(ref_loss, rel=1e-4)
        assert handle.wd_result is not None
        assert handle.wd_result.total_workspace <= 4 * MIB
        # Every one of the module's 18 kernels (6 convs x 3 ops) got a config.
        assert len(handle.configurations()) == 18

    def test_wd_memory_books_balance(self):
        handle = UcudnnHandle(
            mode=ExecMode.TIMING,
            options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                            total_workspace=32 * MIB),
        )
        net = build_inception_tower(batch=32, modules=2).setup(
            handle, workspace_limit=None
        )
        net.forward()
        net.backward()
        live_ws = handle.gpu.memory.live_by_tag().get("workspace", 0)
        assert live_ws == handle.total_workspace_bytes()
        assert live_ws <= 32 * MIB
        report = memory_report(net, handle)
        # Per-layer attribution can exceed the physical footprint because
        # the two identical inception modules share workspace slots (one
        # slot per distinct geometry); the physical book is `live_ws`.
        assert report.total_workspace >= live_ws
        for layer in report.layers:
            assert layer.workspace_bytes <= 32 * MIB


class TestResNetTimingEndToEnd:
    def test_resnet18_caffe_driver_with_cache_reuse(self, tmp_path):
        """ResNet-18's replicated blocks hit the benchmark cache; a second
        process-equivalent handle reuses the file DB entirely."""
        db = tmp_path / "bench.json"
        handle = UcudnnHandle(
            mode=ExecMode.TIMING,
            options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                            workspace_limit=64 * MIB,
                            benchmark_db=str(db)),
        )
        net = build_resnet18(batch=128).setup(handle, workspace_limit=64 * MIB)
        report = time_net(net, iterations=1)
        assert report.conv_total > 0
        first_cost = handle.benchmark_time
        assert first_cost > 0
        # 20 conv layers but far fewer distinct geometries: replicated
        # blocks were deduplicated before ever reaching the benchmarker.
        distinct = len(handle.configurations())
        assert distinct < 3 * len(net.conv_layers())
        handle.cache.save()

        second = UcudnnHandle(
            mode=ExecMode.TIMING,
            options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                            workspace_limit=64 * MIB,
                            benchmark_db=str(db)),
        )
        net2 = build_resnet18(batch=128).setup(second, workspace_limit=64 * MIB)
        time_net(net2, iterations=1)
        assert second.benchmark_time == 0.0  # offline benchmarking, realized


class TestSolverOnUcudnn:
    def test_full_training_loop_under_wd(self):
        """SGD + WD + numeric kernels, several steps, loss decreases."""
        handle = UcudnnHandle(options=Options(
            policy=BatchSizePolicy.POWER_OF_TWO, total_workspace=256 * KIB))
        net = build_tiny_cnn(batch=16).setup(
            handle, workspace_limit=None, rng=np.random.default_rng(0)
        )
        solver = SGDSolver(net, lr=0.05, momentum=0.9)
        x, y = synthetic_batch(np.random.default_rng(1), 16, (3, 16, 16), 10)
        losses = [solver.step({"data": x}, y) for _ in range(12)]
        assert losses[-1] < 0.5 * losses[0]
