#!/usr/bin/env python
"""Quickstart: the mu-cuDNN mechanism on one convolution layer.

Reproduces the paper's motivating story end to end on AlexNet's conv2
(the 5x5 layer of Fig. 1/9):

1. plain cuDNN under a 64 MiB workspace limit falls back to a slow
   GEMM-family algorithm, because the fast FFT needs ~187 MiB;
2. mu-cuDNN's WR optimizer divides the mini-batch into micro-batches whose
   FFT workspace fits the same 64 MiB, recovering most of the speed;
3. the numerical outputs are identical either way.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core.handle import UcudnnHandle
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn import api
from repro.cudnn.descriptors import (
    ConvolutionDescriptor,
    FilterDescriptor,
    TensorDescriptor,
)
from repro.cudnn.enums import ConvType
from repro.cudnn.handle import CudnnHandle
from repro.units import MIB, format_bytes, format_time

LIMIT = 64 * MIB

# AlexNet conv2 geometry at a (numerically tractable) mini-batch of 128:
# large enough that the FFT-family workspace (~94 MiB) misses the 64 MiB
# limit undivided, small enough to compute numerically on a CPU in seconds.
x_desc = TensorDescriptor(128, 64, 27, 27)
w_desc = FilterDescriptor(192, 64, 5, 5)
conv_desc = ConvolutionDescriptor(pad_h=2, pad_w=2)
geometry = api.make_geometry(ConvType.FORWARD, x_desc, w_desc, conv_desc)

rng = np.random.default_rng(0)
x = rng.standard_normal(x_desc.shape).astype(np.float32)
w = rng.standard_normal(w_desc.shape).astype(np.float32)


def run(handle, label):
    """Framework-style cuDNN usage: Get an algorithm, then convolve."""
    algo = api.get_algorithm(
        handle, geometry, api.AlgoPreference.SPECIFY_WORKSPACE_LIMIT, LIMIT
    )
    workspace = api.get_workspace_size(handle, geometry, algo)
    handle.reset_clock()
    y = api.convolution_forward(
        handle, x_desc, x, w_desc, w, conv_desc, algo, workspace, geometry.y_desc
    )
    name = getattr(algo, "name", str(algo))
    print(f"{label:>9}: algo={name:<22} workspace={format_bytes(workspace):>9} "
          f"modeled time={format_time(handle.elapsed)}")
    return y, handle.elapsed


print(f"AlexNet conv2 forward, {geometry}, limit {format_bytes(LIMIT)}\n")

# 1) Plain cuDNN: picks the best algorithm that fits 64 MiB.
y_ref, t_cudnn = run(CudnnHandle(), "cuDNN")

# 2) What cuDNN would love to run, workspace permitting:
best = CudnnHandle().perf.fastest(geometry)
print(f"          (unconstrained best would be {best.algo.name} "
      f"needing {format_bytes(best.workspace)})")

# 3) mu-cuDNN: same API calls, micro-batched execution under the hood.
ucudnn = UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                                      workspace_limit=LIMIT))
y_ucudnn, t_ucudnn = run(ucudnn, "mu-cuDNN")

config = ucudnn.configurations()[geometry]
print(f"          configuration: {config} "
      f"(workspace {format_bytes(config.workspace)})")

print(f"\nspeedup: {t_cudnn / t_ucudnn:.2f}x at the same {format_bytes(LIMIT)} limit")
print("outputs identical:",
      bool(np.allclose(y_ref, y_ucudnn, rtol=1e-4, atol=1e-4)))
