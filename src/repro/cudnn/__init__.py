"""Simulated cuDNN substrate.

A from-scratch stand-in for NVIDIA cuDNN sufficient to host the paper's
mu-cuDNN wrapper: descriptor types, the convolution algorithm enumerations,
``Get``/``Find`` algorithm selection with workspace limits, the convolution
execution entry points (with real numpy kernels and cuDNN-faithful workspace
checking), and a deterministic analytic performance model standing in for
on-device measurement.  See DESIGN.md section 2 for the substitution
rationale.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cudnn.descriptors import (
        ConvGeometry,
        ConvolutionDescriptor,
        FilterDescriptor,
        TensorDescriptor,
        output_dims,
    )
    from repro.cudnn.device import (
        K80,
        P100_SXM2,
        V100_SXM2,
        DeviceMemory,
        Gpu,
        GpuSpec,
        Node,
        available_gpus,
        gpu_spec,
    )
    from repro.cudnn.enums import (
        Algo,
        AlgoFamily,
        BwdDataAlgo,
        BwdFilterAlgo,
        ConvType,
        ConvolutionMode,
        FwdAlgo,
        algos_for,
        family_of,
    )
    from repro.cudnn.perfmodel import PerfModel, PerfResult
    from repro.cudnn.status import Status
    from repro.cudnn.workspace import is_supported, workspace_size

#: Each public name and the submodule that defines it.  The package imports
#: none of them: a name's submodule loads on first access (PEP 562), so
#: importing one numpy-free submodule does not load the others.
_SUBMODULE = {
    "Algo": "enums",
    "AlgoFamily": "enums",
    "BwdDataAlgo": "enums",
    "BwdFilterAlgo": "enums",
    "ConvGeometry": "descriptors",
    "ConvType": "enums",
    "ConvolutionDescriptor": "descriptors",
    "ConvolutionMode": "enums",
    "DeviceMemory": "device",
    "FilterDescriptor": "descriptors",
    "FwdAlgo": "enums",
    "Gpu": "device",
    "GpuSpec": "device",
    "K80": "device",
    "Node": "device",
    "P100_SXM2": "device",
    "PerfModel": "perfmodel",
    "PerfResult": "perfmodel",
    "Status": "status",
    "TensorDescriptor": "descriptors",
    "V100_SXM2": "device",
    "algos_for": "enums",
    "available_gpus": "device",
    "family_of": "enums",
    "gpu_spec": "device",
    "is_supported": "workspace",
    "output_dims": "descriptors",
    "workspace_size": "workspace",
}

__all__ = [
    "Algo",
    "AlgoFamily",
    "BwdDataAlgo",
    "BwdFilterAlgo",
    "ConvGeometry",
    "ConvType",
    "ConvolutionDescriptor",
    "ConvolutionMode",
    "DeviceMemory",
    "FilterDescriptor",
    "FwdAlgo",
    "Gpu",
    "GpuSpec",
    "K80",
    "Node",
    "P100_SXM2",
    "PerfModel",
    "PerfResult",
    "Status",
    "TensorDescriptor",
    "V100_SXM2",
    "algos_for",
    "available_gpus",
    "family_of",
    "gpu_spec",
    "is_supported",
    "output_dims",
    "workspace_size",
]


def __getattr__(name: str) -> object:
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULE))
