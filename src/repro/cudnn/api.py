"""cuDNN convolution API entry points for the simulated library.

These functions mirror the C API that deep learning frameworks call and that
mu-cuDNN interposes on:

* ``cudnnGetConvolution*Algorithm``      -> :func:`get_algorithm`
* ``cudnnFindConvolution*Algorithm``     -> :func:`find_algorithms`
* ``cudnnGetConvolution*WorkspaceSize``  -> :func:`get_workspace_size`
* ``cudnnConvolutionForward``            -> :func:`convolution_forward`
* ``cudnnConvolutionBackwardData``       -> :func:`convolution_backward_data`
* ``cudnnConvolutionBackwardFilter``     -> :func:`convolution_backward_filter`

Faithful behavioral details that the paper's problem statement depends on:

* ``get_algorithm`` with ``SPECIFY_WORKSPACE_LIMIT`` returns the fastest
  algorithm whose workspace fits the limit -- and silently "resorts to slower
  algorithms" when a fast one misses the limit by even one byte (Fig. 1).
* The ``Convolution*`` entry points validate the provided workspace size
  against the algorithm's requirement and fail with ``BAD_PARAM`` when it is
  too small, rather than falling back.
* ``ConvolutionBackwardFilter`` honors ``beta`` (output blending), the
  accumulation mode micro-batched filter gradients rely on (section II).

Every execution advances the handle's simulated device clock by the modeled
kernel duration; in ``NUMERIC`` mode the numpy kernels also run, with
``alpha``/``beta`` blending applied as cuDNN defines it.
"""

from __future__ import annotations

import enum

import numpy as np

import repro.telemetry as telemetry
from repro.cudnn import kernels
from repro.cudnn.descriptors import (
    ConvGeometry,
    ConvolutionDescriptor,
    FilterDescriptor,
    TensorDescriptor,
    output_dims,
)
from repro.cudnn.enums import Algo, ConvType
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.cudnn.kernels.common import DTYPE
from repro.cudnn.perfmodel import PerfResult
from repro.cudnn.status import Status
from repro.cudnn.workspace import is_supported, workspace_size
from repro.errors import BadParamError, NotSupportedError, WorkspaceTooSmallError


class AlgoPreference(enum.Enum):
    """``cudnnConvolutionFwdPreference_t`` and friends."""

    NO_WORKSPACE = "no_workspace"
    PREFER_FASTEST = "prefer_fastest"
    SPECIFY_WORKSPACE_LIMIT = "specify_workspace_limit"


def make_geometry(
    conv_type: ConvType,
    x_desc: TensorDescriptor,
    w_desc: FilterDescriptor,
    conv_desc: ConvolutionDescriptor,
    y_desc: TensorDescriptor | None = None,
) -> ConvGeometry:
    """Build (and cross-validate) the canonical geometry of one kernel."""
    g = ConvGeometry.from_descriptors(conv_type, x_desc, w_desc, conv_desc)
    if y_desc is not None:
        expected = output_dims(x_desc, w_desc, conv_desc)
        if y_desc != expected:
            raise BadParamError(
                Status.BAD_PARAM,
                f"output descriptor {y_desc.shape} does not match computed "
                f"{expected.shape}",
            )
    return g


# ---------------------------------------------------------------------------
# Algorithm selection
# ---------------------------------------------------------------------------


def find_algorithms(handle: CudnnHandle, g: ConvGeometry) -> list[PerfResult]:
    """``cudnnFindConvolution*Algorithm``: every algorithm, fastest first.

    On real hardware this *executes* each algorithm; here the performance
    model answers, with a fresh sample index so jittered models behave like
    repeated measurements.
    """
    if getattr(handle, "UCUDNN_INTERPOSE", False):
        return handle.find_algorithms(g)
    return handle.perf.find_all(g, sample=handle.next_sample())


def find_algorithms_batched(
    handle: CudnnHandle, g: ConvGeometry, sizes: list[int]
) -> list[list[PerfResult]]:
    """:func:`find_algorithms` for many micro-batch sizes of one geometry.

    Bit-identical to ``[find_algorithms(handle, g.with_batch(n)) for n in
    sizes]`` but answered in a single vectorized pass of the performance
    model when the model is jitter-free.  One sample index is drawn per size
    (in order) regardless of the path taken, so the handle's sample counter
    advances exactly as the per-size loop would have advanced it.  Every
    size must be a positive integer, as on the per-size path: a
    non-positive, non-integral or ``bool`` size raises
    :class:`BadParamError`.
    """
    if getattr(handle, "UCUDNN_INTERPOSE", False):
        return [find_algorithms(handle, g.with_batch(n)) for n in sizes]
    samples = [handle.next_sample() for _ in sizes]
    if handle.perf.jitter != 0.0:
        return [
            handle.perf.find_all(g.with_batch(n), sample=s)
            for n, s in zip(sizes, samples)
        ]
    return handle.perf.find_all_batched(g, sizes)


def get_algorithm(
    handle: CudnnHandle,
    g: ConvGeometry,
    preference: AlgoPreference = AlgoPreference.SPECIFY_WORKSPACE_LIMIT,
    memory_limit: int | None = None,
) -> Algo:
    """``cudnnGetConvolution*Algorithm``: pick one algorithm by policy."""
    if getattr(handle, "UCUDNN_INTERPOSE", False):
        return handle.get_algorithm(g, preference, memory_limit)
    if preference == AlgoPreference.NO_WORKSPACE:
        memory_limit = 0
    elif preference == AlgoPreference.PREFER_FASTEST:
        memory_limit = None
    elif memory_limit is None:
        raise BadParamError(
            Status.BAD_PARAM,
            "SPECIFY_WORKSPACE_LIMIT requires a memory_limit",
        )
    best = handle.perf.fastest(g, workspace_limit=memory_limit)
    if best is None:
        raise NotSupportedError(
            Status.NOT_SUPPORTED, f"no algorithm fits limit {memory_limit} for {g}"
        )
    if memory_limit is not None and telemetry.enabled():
        # The Fig. 1 cliff: Get silently "resorts to slower algorithms"
        # when the fastest misses the limit.  Only checked when telemetry
        # is on -- the comparison needs a second perf-model query.
        unlimited = handle.perf.fastest(g)
        if unlimited is not None and unlimited.algo != best.algo:
            telemetry.count("cudnn.fallbacks",
                            help="Get calls that fell back to a slower "
                                 "algorithm under a workspace limit")
            telemetry.event(
                "cudnn.fallback", kernel=g.cache_key(),
                best=unlimited.algo.name, chosen=best.algo.name,
                limit=memory_limit,
            )
    return best.algo


def get_workspace_size(handle: CudnnHandle, g: ConvGeometry, algo: Algo) -> int:
    """``cudnnGetConvolution*WorkspaceSize`` for one algorithm."""
    if getattr(handle, "UCUDNN_INTERPOSE", False):
        return handle.get_workspace_size(g, algo)
    if not is_supported(g, algo):
        raise NotSupportedError(Status.NOT_SUPPORTED, f"{algo!r} unsupported for {g}")
    return workspace_size(g, algo)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _execute(
    handle: CudnnHandle,
    g: ConvGeometry,
    algo: Algo,
    provided_workspace: int,
    numeric,
) -> np.ndarray | None:
    """Common path: support check, workspace check, clock, numerics."""
    from repro.cudnn.enums import BwdDataAlgo, BwdFilterAlgo, FwdAlgo

    if not isinstance(algo, (FwdAlgo, BwdDataAlgo, BwdFilterAlgo)):
        # The classic interposition mistake: a mu-cuDNN virtual algorithm
        # handed to a *plain* cuDNN handle.  Fail with a diagnosis instead
        # of a confusing enum conversion error.
        raise BadParamError(
            Status.BAD_PARAM,
            f"unknown algorithm {algo!r} -- if this is a mu-cuDNN virtual "
            "algorithm, pass the UcudnnHandle that issued it",
        )
    if not is_supported(g, algo):
        raise NotSupportedError(Status.NOT_SUPPORTED, f"{algo!r} unsupported for {g}")
    required = workspace_size(g, algo)
    if provided_workspace < required:
        raise WorkspaceTooSmallError(
            Status.BAD_PARAM, required=required, provided=provided_workspace,
            message=f"{algo!r} on {g}",
        )
    handle.execute_kernel(g, algo, handle.perf.time(g, algo))
    if handle.mode == ExecMode.TIMING:
        return None
    return numeric()


def _blend(alpha: float, value: np.ndarray, beta: float, out: np.ndarray | None):
    """cuDNN output blending: ``out = alpha * value + beta * out``."""
    value = value.astype(DTYPE, copy=False)
    if alpha != 1.0:
        value = value * DTYPE(alpha)
    if out is None:
        if beta != 0.0:
            raise BadParamError(
                Status.BAD_PARAM, "beta != 0 requires an existing output tensor"
            )
        return value
    if beta == 0.0:
        out[...] = value
    else:
        out *= DTYPE(beta)
        out += value
    return out


def convolution_forward(
    handle: CudnnHandle,
    x_desc: TensorDescriptor,
    x: np.ndarray | None,
    w_desc: FilterDescriptor,
    w: np.ndarray | None,
    conv_desc: ConvolutionDescriptor,
    algo: Algo,
    workspace: int,
    y_desc: TensorDescriptor,
    y: np.ndarray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> np.ndarray | None:
    """``cudnnConvolutionForward``: y = alpha * conv(x, w) + beta * y."""
    if getattr(handle, "UCUDNN_INTERPOSE", False):
        return handle.convolution_forward(
            x_desc, x, w_desc, w, conv_desc, algo, workspace, y_desc, y,
            alpha=alpha, beta=beta,
        )
    g = make_geometry(ConvType.FORWARD, x_desc, w_desc, conv_desc, y_desc)
    return _execute(
        handle, g, algo, workspace,
        lambda: _blend(alpha, kernels.forward(g, x, w, algo), beta, y),
    )


def convolution_backward_data(
    handle: CudnnHandle,
    w_desc: FilterDescriptor,
    w: np.ndarray | None,
    dy_desc: TensorDescriptor,
    dy: np.ndarray | None,
    conv_desc: ConvolutionDescriptor,
    algo: Algo,
    workspace: int,
    dx_desc: TensorDescriptor,
    dx: np.ndarray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> np.ndarray | None:
    """``cudnnConvolutionBackwardData``: dx = alpha * bwd(dy, w) + beta * dx."""
    if getattr(handle, "UCUDNN_INTERPOSE", False):
        return handle.convolution_backward_data(
            w_desc, w, dy_desc, dy, conv_desc, algo, workspace, dx_desc, dx,
            alpha=alpha, beta=beta,
        )
    g = make_geometry(ConvType.BACKWARD_DATA, dx_desc, w_desc, conv_desc, dy_desc)
    return _execute(
        handle, g, algo, workspace,
        lambda: _blend(alpha, kernels.backward_data(g, dy, w, algo), beta, dx),
    )


def convolution_backward_filter(
    handle: CudnnHandle,
    x_desc: TensorDescriptor,
    x: np.ndarray | None,
    dy_desc: TensorDescriptor,
    dy: np.ndarray | None,
    conv_desc: ConvolutionDescriptor,
    algo: Algo,
    workspace: int,
    dw_desc: FilterDescriptor,
    dw: np.ndarray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> np.ndarray | None:
    """``cudnnConvolutionBackwardFilter``: dw = alpha * bwd(x, dy) + beta * dw.

    ``beta = 1`` is the gradient-accumulation mode (cuDNN "output scale")
    that makes micro-batched BackwardFilter semantics-preserving.
    """
    if getattr(handle, "UCUDNN_INTERPOSE", False):
        return handle.convolution_backward_filter(
            x_desc, x, dy_desc, dy, conv_desc, algo, workspace, dw_desc, dw,
            alpha=alpha, beta=beta,
        )
    g = make_geometry(ConvType.BACKWARD_FILTER, x_desc, dw_desc, conv_desc, dy_desc)
    return _execute(
        handle, g, algo, workspace,
        lambda: _blend(alpha, kernels.backward_filter(g, x, dy, algo), beta, dw),
    )
