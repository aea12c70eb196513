"""Reference copy of the simulated cuDNN's scalar performance model.

The support rules, workspace formulas and time model below are copied
from ``repro.cudnn.workspace`` and ``repro.cudnn.perfmodel`` as they stood
before those modules began deriving a geometry's shapes once, with each
expression kept as it was: every derived quantity is rebuilt from the
geometry's fields on each call
(``_x_desc``/``_w_desc``/``_y_desc`` construct and validate fresh
descriptors, and ``family_to_algo`` scans the enumeration).  Tests compare
the production model against :class:`ReferenceModel` element by element
with ``==``, so a change made to both production paths cannot pass by
agreeing with itself.
"""

from __future__ import annotations

import math
import zlib

from repro.cudnn.descriptors import (
    ConvGeometry,
    ConvolutionDescriptor,
    FilterDescriptor,
    TensorDescriptor,
    output_dims,
)
from repro.cudnn.device import GpuSpec
from repro.cudnn.enums import Algo, AlgoFamily, ConvType, algos_for, family_of
from repro.cudnn.perfmodel import PerfResult
from repro.cudnn.status import Status
from repro.errors import NotSupportedError
from repro.units import COMPLEX_SIZE, FLOAT_SIZE

WINOGRAD_M = 2
FFT_TILE = 32
TRANSFORM_CHUNKS = 2

_BASE_EFFICIENCY = {
    AlgoFamily.IMPLICIT_GEMM: 0.30,
    AlgoFamily.IMPLICIT_PRECOMP_GEMM: 0.55,
    AlgoFamily.GEMM: 0.46,
    AlgoFamily.FFT: 0.42,
    AlgoFamily.FFT_TILING: 0.40,
    AlgoFamily.WINOGRAD: 0.55,
    AlgoFamily.WINOGRAD_NONFUSED: 0.66,
}

_KERNELS_PER_CALL = {
    AlgoFamily.IMPLICIT_GEMM: 1,
    AlgoFamily.IMPLICIT_PRECOMP_GEMM: 1,
    AlgoFamily.GEMM: 2,
    AlgoFamily.FFT: 4,
    AlgoFamily.FFT_TILING: 4,
    AlgoFamily.WINOGRAD: 1,
    AlgoFamily.WINOGRAD_NONFUSED: 4,
}

_OP_MULT = {
    ConvType.FORWARD: 1.0,
    ConvType.BACKWARD_DATA: 1.06,
    ConvType.BACKWARD_FILTER: 1.16,
}

_CMAC_FLOPS = 8.0
_FFT_C = 5.0


# -- descriptors, rebuilt on every call ---------------------------------------


def _x_desc(g: ConvGeometry) -> TensorDescriptor:
    return TensorDescriptor(g.n, g.c, g.h, g.w)


def _w_desc(g: ConvGeometry) -> FilterDescriptor:
    return FilterDescriptor(g.k, g.c // g.groups, g.r, g.s)


def _conv_desc(g: ConvGeometry) -> ConvolutionDescriptor:
    return ConvolutionDescriptor(
        g.pad_h, g.pad_w, g.stride_h, g.stride_w,
        g.dilation_h, g.dilation_w, g.mode, g.groups,
    )


def _y_desc(g: ConvGeometry) -> TensorDescriptor:
    return output_dims(_x_desc(g), _w_desc(g), _conv_desc(g))


def _flops(g: ConvGeometry) -> int:
    y = _y_desc(g)
    return 2 * (g.n * g.k * y.h * y.w * (g.c // g.groups) * g.r * g.s)


def _group_geometry(g: ConvGeometry) -> ConvGeometry:
    if g.groups == 1:
        return g
    import dataclasses

    return dataclasses.replace(g, c=g.c // g.groups, k=g.k // g.groups, groups=1)


# -- workspace.py -------------------------------------------------------------


def next_fast_len(n: int) -> int:
    if n <= 1:
        return 1
    best = 1 << (n - 1).bit_length()
    f7 = 1
    while f7 < best:
        f5 = f7
        while f5 < best:
            f3 = f5
            while f3 < best:
                f2 = f3
                while f2 < n:
                    f2 *= 2
                if f2 < best:
                    best = f2
                f3 *= 3
            f5 *= 5
        f7 *= 7
    return best


def fft_dims(g: ConvGeometry) -> tuple[int, int]:
    return (
        next_fast_len(g.h + 2 * g.pad_h + g.r - 1),
        next_fast_len(g.w + 2 * g.pad_w + g.s - 1),
    )


def fft_tiles_per_image(g: ConvGeometry) -> int:
    step_h = max(1, FFT_TILE - (g.r - 1))
    step_w = max(1, FFT_TILE - (g.s - 1))
    span_h = g.h + 2 * g.pad_h
    span_w = g.w + 2 * g.pad_w
    tiles_h = max(1, -(-max(0, span_h - (g.r - 1)) // step_h))
    tiles_w = max(1, -(-max(0, span_w - (g.s - 1)) // step_w))
    return tiles_h * tiles_w


def winograd_tiles(g: ConvGeometry) -> int:
    y = _y_desc(g)
    return (-(-y.h // WINOGRAD_M)) * (-(-y.w // WINOGRAD_M))


def _unit_stride(g: ConvGeometry) -> bool:
    return (
        g.stride_h == 1
        and g.stride_w == 1
        and g.dilation_h == 1
        and g.dilation_w == 1
        and g.pad_h < g.r
        and g.pad_w < g.s
    )


def _fft_supported(g: ConvGeometry) -> bool:
    if not _unit_stride(g):
        return False
    hf, wf = fft_dims(g)
    if hf > 256 or wf > 256:
        return False
    return g.r <= g.h + 2 * g.pad_h and g.s <= g.w + 2 * g.pad_w


def _fft_tiling_supported(g: ConvGeometry) -> bool:
    if not _unit_stride(g):
        return False
    return g.r < FFT_TILE and g.s < FFT_TILE


def _winograd_supported(g: ConvGeometry) -> bool:
    return _unit_stride(g) and g.r == 3 and g.s == 3


def is_supported(g: ConvGeometry, algo: Algo) -> bool:
    if g.groups > 1:
        return is_supported(_group_geometry(g), algo)
    family = family_of(g.conv_type, algo)
    if family == AlgoFamily.DIRECT:
        return False
    if family in (AlgoFamily.IMPLICIT_GEMM, AlgoFamily.IMPLICIT_PRECOMP_GEMM, AlgoFamily.GEMM):
        return True
    if family == AlgoFamily.FFT:
        return _fft_supported(g)
    if family == AlgoFamily.FFT_TILING:
        return _fft_tiling_supported(g)
    if family in (AlgoFamily.WINOGRAD, AlgoFamily.WINOGRAD_NONFUSED):
        return _winograd_supported(g)
    raise AssertionError(f"unhandled family {family}")


def workspace_size(g: ConvGeometry, algo: Algo) -> int:
    if g.groups > 1:
        return workspace_size(_group_geometry(g), algo)
    family = family_of(g.conv_type, algo)
    if family in (AlgoFamily.IMPLICIT_GEMM, AlgoFamily.DIRECT, AlgoFamily.WINOGRAD):
        return 0
    if family == AlgoFamily.IMPLICIT_PRECOMP_GEMM:
        y = _y_desc(g)
        return FLOAT_SIZE * y.h * y.w + 64 * g.r * g.s
    if family == AlgoFamily.GEMM:
        y = _y_desc(g)
        return FLOAT_SIZE * g.n * g.c * g.r * g.s * y.h * y.w
    if family == AlgoFamily.FFT:
        hf, wf = fft_dims(g)
        planes = g.n * g.c + g.n * g.k + g.c * g.k
        return COMPLEX_SIZE * hf * (wf // 2 + 1) * planes // TRANSFORM_CHUNKS
    if family == AlgoFamily.FFT_TILING:
        tiles = fft_tiles_per_image(g)
        plane = COMPLEX_SIZE * FFT_TILE * (FFT_TILE // 2 + 1)
        return plane * (g.c * g.k + g.n * tiles * (g.c + g.k)) // TRANSFORM_CHUNKS
    if family == AlgoFamily.WINOGRAD_NONFUSED:
        tiles = winograd_tiles(g)
        t = WINOGRAD_M + g.r - 1
        plane = FLOAT_SIZE * t * t
        return plane * (g.c * g.k + g.n * tiles * (g.c + g.k)) // TRANSFORM_CHUNKS
    raise AssertionError(f"unhandled family {family}")


def family_to_algo(conv_type: ConvType, family: AlgoFamily) -> Algo:
    for algo in algos_for(conv_type):
        if family_of(conv_type, algo) == family:
            return algo
    raise KeyError(f"{family} has no algorithm for {conv_type}")


# -- perfmodel.py -------------------------------------------------------------


def _fft_plane_flops(hf: int, wf: int) -> float:
    return _FFT_C * hf * wf * max(1.0, math.log2(hf * wf))


class ReferenceModel:
    """The scalar ``PerfModel`` API, answered by the formulas above."""

    def __init__(self, spec: GpuSpec, jitter: float = 0.0) -> None:
        self.spec = spec
        self.jitter = float(jitter)

    def time(self, g: ConvGeometry, algo: Algo, sample: int = 0) -> float:
        if not is_supported(g, algo):
            raise NotSupportedError(
                Status.NOT_SUPPORTED, f"{algo!r} does not support {g}"
            )
        base = self._time_supported(g, algo)
        if self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * self._noise(g, algo, sample))

    def query(self, g: ConvGeometry, algo: Algo, sample: int = 0) -> PerfResult:
        if not is_supported(g, algo):
            return PerfResult(algo, Status.NOT_SUPPORTED, math.inf, 0)
        return PerfResult(
            algo, Status.SUCCESS, self.time(g, algo, sample=sample),
            workspace_size(g, algo),
        )

    def find_all(self, g: ConvGeometry, sample: int = 0) -> list[PerfResult]:
        results = [self.query(g, a, sample=sample) for a in algos_for(g.conv_type)]
        return sorted(results, key=lambda r: (r.time, int(r.algo)))

    def find_all_per_size(
        self, g: ConvGeometry, sizes: list[int]
    ) -> list[list[PerfResult]]:
        """What ``find_all_batched`` must return: one Find per size."""
        return [self.find_all(g.with_batch(n)) for n in sizes]

    def _noise(self, g: ConvGeometry, algo: Algo, sample: int) -> float:
        key = f"{g.cache_key()}|{int(algo)}|{sample}".encode()
        return (zlib.crc32(key) / 0xFFFFFFFF) * 2.0 - 1.0

    def _occupancy(self, g: ConvGeometry) -> float:
        y = _y_desc(g)
        par = g.n * y.h * y.w * -(-g.k // 32)
        kappa = self.spec.sm_count * 384.0
        return par / (par + kappa)

    def _wave_quantization(self, g: ConvGeometry) -> float:
        y = _y_desc(g)
        blocks = max(1, -(-(g.n * y.h * y.w) // 256)) * max(1, -(-g.k // 64))
        waves = blocks / self.spec.sm_count
        return 1.0 + 0.15 * (math.ceil(waves) / waves - 1.0)

    def _io_bytes(self, g: ConvGeometry, family: AlgoFamily) -> float:
        y = _y_desc(g)
        io = FLOAT_SIZE * (_x_desc(g).count + y.count + _w_desc(g).count)
        if g.conv_type == ConvType.BACKWARD_FILTER:
            io += FLOAT_SIZE * _w_desc(g).count
        if family in (
            AlgoFamily.GEMM,
            AlgoFamily.FFT,
            AlgoFamily.FFT_TILING,
            AlgoFamily.WINOGRAD_NONFUSED,
        ):
            io += 2.0 * workspace_size(g, family_to_algo(g.conv_type, family))
        return io

    def _effective_flops(self, g: ConvGeometry, family: AlgoFamily) -> float:
        direct = float(_flops(g))
        if family in (
            AlgoFamily.IMPLICIT_GEMM,
            AlgoFamily.IMPLICIT_PRECOMP_GEMM,
            AlgoFamily.GEMM,
            AlgoFamily.DIRECT,
        ):
            return direct
        if family == AlgoFamily.FFT:
            hf, wf = fft_dims(g)
            plane = _fft_plane_flops(hf, wf)
            transforms = plane * (g.n * g.c + g.n * g.k + g.c * g.k)
            pointwise = _CMAC_FLOPS * hf * (wf // 2 + 1) * g.n * g.k * g.c
            return transforms + pointwise
        if family == AlgoFamily.FFT_TILING:
            tiles = fft_tiles_per_image(g)
            plane = _fft_plane_flops(FFT_TILE, FFT_TILE)
            transforms = plane * (g.c * g.k + g.n * tiles * (g.c + g.k))
            pointwise = (
                _CMAC_FLOPS * FFT_TILE * (FFT_TILE // 2 + 1) * g.n * tiles * g.k * g.c
            )
            return transforms + pointwise
        if family in (AlgoFamily.WINOGRAD, AlgoFamily.WINOGRAD_NONFUSED):
            t = WINOGRAD_M + g.r - 1
            reduction = (g.r * g.s * WINOGRAD_M * WINOGRAD_M) / float(t * t)
            tiles = winograd_tiles(g)
            transform_cost = 4.0 * t * t * (g.n * tiles * (g.c + g.k) + g.c * g.k)
            if family == AlgoFamily.WINOGRAD:
                transform_cost *= 0.5
            return direct / reduction + transform_cost
        raise AssertionError(f"unhandled family {family}")

    def _time_supported(self, g: ConvGeometry, algo: Algo) -> float:
        if g.groups > 1:
            return g.groups * self._time_supported(_group_geometry(g), algo)
        family = family_of(g.conv_type, algo)
        spec = self.spec
        eff = _BASE_EFFICIENCY[family] * self._occupancy(g)
        if family in (AlgoFamily.FFT, AlgoFamily.FFT_TILING):
            eff *= spec.fft_throughput_scale
        elif family in (AlgoFamily.WINOGRAD, AlgoFamily.WINOGRAD_NONFUSED):
            eff *= spec.winograd_throughput_scale
        flops = self._effective_flops(g, family)
        t_compute = flops / (spec.peak_sp_flops * eff)
        t_compute *= self._wave_quantization(g)
        t_memory = self._io_bytes(g, family) / spec.mem_bandwidth
        overhead = spec.launch_overhead * _KERNELS_PER_CALL[family]
        return _OP_MULT[g.conv_type] * (overhead + max(t_compute, t_memory))
