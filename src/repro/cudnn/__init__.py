"""Simulated cuDNN substrate.

A from-scratch stand-in for NVIDIA cuDNN sufficient to host the paper's
mu-cuDNN wrapper: descriptor types, the convolution algorithm enumerations,
``Get``/``Find`` algorithm selection with workspace limits, the convolution
execution entry points (with real numpy kernels and cuDNN-faithful workspace
checking), and a deterministic analytic performance model standing in for
on-device measurement.  See DESIGN.md section 2 for the substitution
rationale.

Import each name from the submodule that defines it, e.g.
:class:`~repro.cudnn.descriptors.ConvGeometry`,
:class:`~repro.cudnn.enums.FwdAlgo` and :class:`~repro.cudnn.device.Gpu`.
The package loads none of them, so the numpy-free descriptors and enums do
not load the performance model or the numpy kernels.
"""
