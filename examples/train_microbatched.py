#!/usr/bin/env python
"""Training with mu-cuDNN: statistical efficiency is untouched.

The paper's safety claim -- micro-batching "decouples the statistical
efficiency from the hardware efficiency safely" -- demonstrated end to end:
the same CNN is trained from the same seed twice, once on plain (simulated)
cuDNN and once through mu-cuDNN under a tight workspace limit that forces
micro-batched execution.  The loss trajectories coincide step by step, while
the simulated device time per step drops.

Run:  python examples/train_microbatched.py
"""

import numpy as np

from repro.core.handle import UcudnnHandle
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn.handle import CudnnHandle
from repro.frameworks.data import synthetic_stream
from repro.frameworks.layers import (
    Convolution,
    InnerProduct,
    Pooling,
    ReLU,
    SoftmaxWithLoss,
)
from repro.frameworks.net import Net
from repro.frameworks.solver import SGDSolver
from repro.units import MIB, format_bytes

STEPS = 6
BATCH = 32
# Tight enough that the 5x5 layer's FFT workspace only fits when the
# mini-batch is divided (the AlexNet-conv2 situation, in miniature: its
# FFT_TILING workspace at the full batch is ~11 MiB, ~5.7 MiB at half).
LIMIT = 8 * MIB


def build_net(batch):
    """A small CNN whose 5x5 layer is the workspace-hungry case."""
    net = Net("demo_cnn", {"data": (batch, 3, 27, 27)})
    net.add(Convolution("conv1", 32, 3, pad=1), "data", "c1")
    net.add(ReLU("relu1"), "c1", "c1")
    net.add(Convolution("conv2", 64, 5, pad=2), "c1", "c2")
    net.add(ReLU("relu2"), "c2", "c2")
    net.add(Pooling("pool2", 2, stride=2, mode="max"), "c2", "p2")
    net.add(InnerProduct("fc", 10), "p2", "logits")
    net.add(SoftmaxWithLoss("loss"), "logits", "loss")
    return net


def train(handle, label):
    net = build_net(BATCH).setup(
        handle, workspace_limit=LIMIT, rng=np.random.default_rng(2024)
    )
    solver = SGDSolver(net, lr=0.05, momentum=0.9, weight_decay=1e-4)
    stream = synthetic_stream(7, BATCH, (3, 27, 27), 10)
    handle.reset_clock()
    losses = []
    for _ in range(STEPS):
        x, y = next(stream)
        losses.append(solver.step({"data": x}, y))
    return losses, handle.elapsed, net


print(f"training tiny CNN, batch {BATCH}, workspace limit {format_bytes(LIMIT)}\n")

ref_losses, ref_time, _ = train(CudnnHandle(), "cuDNN")
handle = UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                                      workspace_limit=LIMIT))
uc_losses, uc_time, _ = train(handle, "mu-cuDNN")

print(f"{'step':>4} | {'cuDNN loss':>12} | {'mu-cuDNN loss':>13} | match")
for i, (a, b) in enumerate(zip(ref_losses, uc_losses)):
    print(f"{i:>4} | {a:>12.6f} | {b:>13.6f} | {'yes' if abs(a-b) < 1e-3 else 'NO'}")

print("\nmicro-batched configurations chosen by WR:")
for g, config in handle.configurations().items():
    print(f"  {g}: {config}")

print(f"\nsimulated conv device time: cuDNN {ref_time*1e3:.2f} ms, "
      f"mu-cuDNN {uc_time*1e3:.2f} ms "
      f"({ref_time/uc_time:.2f}x)")
assert all(abs(a - b) < 1e-3 for a, b in zip(ref_losses, uc_losses)), \
    "trajectories diverged!"
print("loss trajectories identical: statistical efficiency preserved.")
