"""End-to-end training semantics: mu-cuDNN must not change learning.

The paper's central safety claim -- micro-batching "decouples statistical
efficiency from hardware efficiency safely" -- is tested literally: training
the same network from the same seed with plain cuDNN and with mu-cuDNN (WR
and WD) produces matching loss trajectories and parameters.
"""

import numpy as np
import pytest

from repro.core.handle import UcudnnHandle
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn.handle import CudnnHandle
from repro.frameworks.data import synthetic_batch, synthetic_stream
from repro.frameworks.model_zoo import build_tiny_cnn
from repro.frameworks.solver import SGDSolver
from repro.units import KIB


def train(handle, steps=6, batch=16, lr=0.05, momentum=0.9, wd=1e-4):
    net = build_tiny_cnn(batch=batch).setup(
        handle, workspace_limit=64 * KIB, rng=np.random.default_rng(7)
    )
    solver = SGDSolver(net, lr=lr, momentum=momentum, weight_decay=wd)
    stream = synthetic_stream(99, batch, (3, 16, 16), 10)
    losses = []
    for _ in range(steps):
        x, y = next(stream)
        losses.append(solver.step({"data": x}, y))
    return losses, net


class TestTrajectoryEquivalence:
    def test_wr_matches_plain_cudnn(self):
        ref_losses, ref_net = train(CudnnHandle())
        uc_losses, uc_net = train(
            UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                                         workspace_limit=64 * KIB))
        )
        # Loss trajectories agree step by step (FP32 reassociation only).
        for a, b in zip(ref_losses, uc_losses):
            assert b == pytest.approx(a, rel=1e-3, abs=1e-3)
        # Final parameters agree.
        for pa, pb in zip(ref_net.params(), uc_net.params()):
            np.testing.assert_allclose(pb.data, pa.data, rtol=1e-2, atol=1e-3)

    def test_wd_matches_plain_cudnn(self):
        ref_losses, _ = train(CudnnHandle())
        uc_losses, _ = train(
            UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                                         total_workspace=256 * KIB))
        )
        for a, b in zip(ref_losses, uc_losses):
            assert b == pytest.approx(a, rel=1e-3, abs=1e-3)

    def test_training_actually_learns(self):
        """Overfit one fixed batch: loss must drop substantially."""
        handle = CudnnHandle()
        net = build_tiny_cnn(batch=16).setup(
            handle, workspace_limit=64 * KIB, rng=np.random.default_rng(7)
        )
        solver = SGDSolver(net, lr=0.05, momentum=0.9)
        x, y = synthetic_batch(np.random.default_rng(5), 16, (3, 16, 16), 10)
        losses = [solver.step({"data": x}, y) for _ in range(20)]
        assert losses[-1] < 0.25 * losses[0]

    def test_determinism_of_training(self):
        """Same seeds, same machine state -> bitwise-identical trajectory."""
        a, _ = train(CudnnHandle())
        b, _ = train(CudnnHandle())
        assert a == b


class TestSolver:
    def test_weight_decay_shrinks_weights(self):
        handle = CudnnHandle()
        net = build_tiny_cnn(batch=8).setup(
            handle, workspace_limit=64 * KIB, rng=np.random.default_rng(1)
        )
        solver = SGDSolver(net, lr=0.1, momentum=0.0, weight_decay=1.0)
        w = net.layer("conv1").params[0]
        before = float(np.abs(w.data).sum())
        # Zero gradients: only decay acts.
        net.zero_param_grads()
        solver.apply_update()
        after = float(np.abs(w.data).sum())
        assert after < before

    def test_momentum_accumulates(self):
        handle = CudnnHandle()
        net = build_tiny_cnn(batch=8).setup(
            handle, workspace_limit=64 * KIB, rng=np.random.default_rng(1)
        )
        solver = SGDSolver(net, lr=0.01, momentum=0.9)
        w = net.layer("conv1").params[0]
        w.grad[...] = 1.0
        w0 = w.data.copy()
        solver.apply_update()
        step1 = w0 - w.data
        w.grad[...] = 1.0
        w1 = w.data.copy()
        solver.apply_update()
        step2 = w1 - w.data
        assert float(step2.mean()) > float(step1.mean())  # velocity built up
