"""Deterministic analytic performance model for the simulated cuDNN.

This replaces the wall-clock measurements that ``cudnnFind*Algorithm``
performs on a real GPU.  It captures, per algorithm family, the effects the
paper's optimizer exploits:

* **Arithmetic asymptotics** -- FFT convolution replaces the ``2*R*S`` MACs
  per output point with transform cost plus a complex pointwise product, so
  it wins for large filters (AlexNet conv2's 5x5).  Winograd F(2x2, 3x3)
  performs 2.25x fewer multiplications for 3x3 filters.
* **Efficiency ceilings** -- implicit GEMM streams redundantly and sustains a
  low fraction of peak; precomputed-index GEMM and the transform-based
  algorithms do much better.
* **Occupancy** -- small micro-batches cannot fill the SMs, so per-sample
  throughput degrades as N shrinks.  This term is what bounds how finely the
  WR optimizer wants to divide a mini-batch.
* **Wave quantization** -- the number of thread-block "waves" is an integer;
  partially-filled trailing waves waste cycles.  This makes the time
  landscape mildly non-smooth in N, which is why the paper's ``all`` policy
  can find odd micro-batch sizes (e.g. 60 in Fig. 5) that ``powerOfTwo``
  misses.
* **Launch overhead** -- a fixed per-kernel cost; FFT-family algorithms issue
  several kernels per convolution.
* **Memory-bandwidth bound** -- each algorithm moves at least its I/O
  footprint, plus staged workspace traffic for the materializing algorithms.

The model is a pure function of (GPU spec, geometry, algorithm): repeated
queries return identical times, so every experiment is reproducible.  An
optional multiplicative jitter (deterministic, hash-seeded) is available to
exercise the benchmarking machinery's robustness against noisy measurements.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

import repro.telemetry as telemetry
from repro.cudnn.descriptors import ConvGeometry, TensorDescriptor, _positive
from repro.cudnn.device import GpuSpec
from repro.cudnn.enums import Algo, AlgoFamily, ConvType, algos_for, family_of
from repro.cudnn.status import Status
from repro.cudnn.workspace import (
    FFT_TILE,
    TRANSFORM_CHUNKS,
    WINOGRAD_M,
    fft_dims,
    fft_tiles_per_image,
    is_supported,
    winograd_tiles,
    workspace_size,
    workspace_size_batch,
)
from repro.errors import BadParamError, NotSupportedError
from repro.units import FLOAT_SIZE

#: Sustained fraction of peak FLOP/s per algorithm family.
_BASE_EFFICIENCY = {
    AlgoFamily.IMPLICIT_GEMM: 0.30,
    AlgoFamily.IMPLICIT_PRECOMP_GEMM: 0.55,
    AlgoFamily.GEMM: 0.46,
    AlgoFamily.FFT: 0.42,
    AlgoFamily.FFT_TILING: 0.40,
    AlgoFamily.WINOGRAD: 0.55,
    AlgoFamily.WINOGRAD_NONFUSED: 0.66,
}

#: Kernel launches issued per convolution call.
_KERNELS_PER_CALL = {
    AlgoFamily.IMPLICIT_GEMM: 1,
    AlgoFamily.IMPLICIT_PRECOMP_GEMM: 1,
    AlgoFamily.GEMM: 2,  # im2col + GEMM
    AlgoFamily.FFT: 4,  # 3 transforms + pointwise
    AlgoFamily.FFT_TILING: 4,
    AlgoFamily.WINOGRAD: 1,
    AlgoFamily.WINOGRAD_NONFUSED: 4,
}

#: Extra time multiplier per operation type (backward-filter pays for the
#: gradient reduction across the batch; backward-data for the scatter).
_OP_MULT = {
    ConvType.FORWARD: 1.0,
    ConvType.BACKWARD_DATA: 1.06,
    ConvType.BACKWARD_FILTER: 1.16,
}

#: Real FLOPs of a complex multiply-accumulate.
_CMAC_FLOPS = 8.0
#: FLOPs of a radix FFT of length L is ~`_FFT_C * L * log2 L` per plane.
_FFT_C = 5.0


@dataclass(frozen=True, slots=True)
class PerfResult:
    """One row of a ``cudnnFind*Algorithm`` result table.

    Mirrors ``cudnnConvolutionFwdAlgoPerf_t``: the algorithm, its status for
    this geometry, the (modeled) execution time in seconds, and the required
    workspace in bytes.  Rows are stored as :class:`BenchBlock` columns and
    become objects only at the API boundary.
    """

    algo: Algo
    status: Status
    time: float
    workspace: int

    @property
    def ok(self) -> bool:
        return self.status == Status.SUCCESS


#: ``conv_type -> {algorithm id: algorithm}``, to turn int8 ids back into rows.
_ALGO_BY_ID = {ct: {int(a): a for a in algos_for(ct)} for ct in ConvType}


def _size_array(sizes: Iterable[int]) -> np.ndarray:
    """Batch sizes as int64; a size past int64 (never stored) becomes -1."""
    sizes = list(sizes)
    try:
        return np.array(sizes, dtype=np.int64)
    except OverflowError:
        return np.array([n if abs(n) <= _INT64_MAX else -1 for n in sizes],
                        dtype=np.int64)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Row offsets ``[0, c0, c0 + c1, ...]`` of per-size row counts."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class BenchBlock:
    """Find's rows for one kernel at several batch sizes, as flat columns.

    ``sizes[i]`` owns rows ``offsets[i]:offsets[i + 1]`` of the columns
    ``algos`` (int8 algorithm ids), ``times`` (float64 seconds) and
    ``workspaces`` (int64 bytes), in Find's order: fastest first.  The
    columns hold successful rows only; ``unsupported`` names the
    algorithms Find reports NOT_SUPPORTED at every size (support does not
    depend on N).  A block is one set of arrays however many sizes it
    holds -- no array or Python object per size -- and is never changed
    in place: every derived block is new.

    Iterating a block yields the Find table of each size in turn: its
    successful :class:`PerfResult` rows, then the unsupported ones.  Rows
    become objects only there and in :meth:`rows` / :meth:`results`.
    """

    __slots__ = ("conv_type", "sizes", "offsets", "algos", "times",
                 "workspaces", "unsupported")

    def __init__(self, conv_type: ConvType, sizes: np.ndarray,
                 offsets: np.ndarray, algos: np.ndarray, times: np.ndarray,
                 workspaces: np.ndarray, unsupported: tuple = ()) -> None:
        self.conv_type = conv_type
        self.sizes = sizes
        self.offsets = offsets
        self.algos = algos
        self.times = times
        self.workspaces = workspaces
        self.unsupported = unsupported

    @classmethod
    def pack(cls, conv_type: ConvType, sizes: Iterable[int],
             tables: Iterable[Iterable[PerfResult]]) -> "BenchBlock":
        """A block of per-size row lists; failed rows name ``unsupported``."""
        tables = [list(table) for table in tables]
        rows = [r for table in tables for r in table if r.ok]
        return cls.from_lists(
            conv_type, sizes, [sum(r.ok for r in table) for table in tables],
            [int(r.algo) for r in rows], [r.time for r in rows],
            [r.workspace for r in rows],
            tuple(dict.fromkeys(r.algo for table in tables for r in table
                                if not r.ok)))

    @classmethod
    def from_lists(cls, conv_type: ConvType, sizes: Iterable[int],
                   counts: list[int], algos: list[int], times: list[float],
                   workspaces: list[int], unsupported: tuple = ()
                   ) -> "BenchBlock":
        """A block of plain lists: ``counts[i]`` rows belong to ``sizes[i]``."""
        return cls(conv_type, _size_array(sizes),
                   _offsets(np.array(counts, dtype=np.int64)),
                   np.array(algos, dtype=np.int8),
                   np.array(times, dtype=np.float64),
                   np.array(workspaces, dtype=np.int64), unsupported)

    @classmethod
    def concat(cls, conv_type: ConvType,
               blocks: "list[BenchBlock]") -> "BenchBlock":
        """The blocks' sizes one after another (successful rows only)."""
        def join(column: str) -> np.ndarray:
            return np.concatenate([getattr(block, column) for block in blocks])

        return cls(conv_type, join("sizes"),
                   _offsets(np.concatenate([np.diff(b.offsets) for b in blocks])),
                   join("algos"), join("times"), join("workspaces"))

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self) -> Iterator[list[PerfResult]]:
        return iter(self._tables([
            PerfResult(algo, Status.NOT_SUPPORTED, math.inf, 0)
            for algo in self.unsupported
        ]))

    def row_values(
        self, rows: "slice | np.ndarray"
    ) -> Iterator[tuple[Algo, float, int]]:
        """``(algorithm, time, workspace)`` of the given rows, as Python values."""
        members = _ALGO_BY_ID[self.conv_type]
        return ((members[a], t, w) for a, t, w in zip(
            self.algos[rows].tolist(), self.times[rows].tolist(),
            self.workspaces[rows].tolist()))

    def rows(self, i: int) -> list[PerfResult]:
        """The successful rows of ``sizes[i]``, in block order."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return [PerfResult(a, Status.SUCCESS, t, w)
                for a, t, w in self.row_values(slice(lo, hi))]

    def results(self) -> dict[int, list[PerfResult]]:
        """``size -> successful rows`` of every size, in block order."""
        return dict(zip(self.sizes.tolist(), self._tables([])))

    def _tables(self, tail: list[PerfResult]) -> list[list[PerfResult]]:
        """Every size's successful rows followed by ``tail``."""
        rows = [PerfResult(a, Status.SUCCESS, t, w)
                for a, t, w in self.row_values(slice(None))]
        bounds = self.offsets.tolist()
        return [rows[lo:hi] + tail for lo, hi in zip(bounds, bounds[1:])]

    def index(self, sizes: Iterable[int]) -> np.ndarray:
        """Position of each of ``sizes`` in :attr:`sizes` (which must
        ascend, as they do in caches and tables); -1 where absent."""
        wanted = _size_array(sizes)
        if not len(self.sizes):
            return np.full(len(wanted), -1, dtype=np.int64)
        at = np.searchsorted(self.sizes, wanted)
        at[at == len(self.sizes)] = 0
        return np.where(self.sizes[at] == wanted, at, -1)

    def take(self, index: "Iterable[int] | np.ndarray") -> "BenchBlock":
        """The sizes at positions ``index``, in that order."""
        index = np.asarray(index, dtype=np.int64)
        starts = self.offsets[index]
        counts = self.offsets[index + 1] - starts
        offsets = _offsets(counts)
        # Row r of the result is row (r - offsets[seg]) of segment seg.
        seg = np.repeat(np.arange(len(index)), counts)
        rows = starts[seg] + np.arange(offsets[-1]) - offsets[seg]
        return BenchBlock(self.conv_type, self.sizes[index], offsets,
                          self.algos[rows], self.times[rows],
                          self.workspaces[rows])

    def keep_rows(self, keep: np.ndarray) -> "BenchBlock":
        """Only the rows where ``keep`` holds; every size stays."""
        return BenchBlock(self.conv_type, self.sizes,
                          _offsets(keep)[self.offsets], self.algos[keep],
                          self.times[keep], self.workspaces[keep])

    def ascending(self) -> "BenchBlock":
        """The successful rows, sizes ascending: what a cache or table keeps.

        Shares this block's arrays when its sizes already ascend.
        """
        if np.any(self.sizes[1:] <= self.sizes[:-1]):
            return self.take(np.argsort(self.sizes, kind="stable"))
        if self.unsupported:
            return BenchBlock(self.conv_type, self.sizes, self.offsets,
                              self.algos, self.times, self.workspaces)
        return self

    def fastest_rows(self, workspace_limit: int | None) -> np.ndarray:
        """Per size, its first fastest row within the limit (-1: none fits).

        The paper's ``T1`` at every size at once: a minimum over the rows
        the limit admits, ties to the earliest row (``argmin`` keeps the
        first), as a first strict minimum scan takes them.
        """
        admit = (np.ones(len(self.times), dtype=bool) if workspace_limit is None
                 else self.workspaces <= workspace_limit)
        times = np.where(admit, self.times, np.inf)
        counts = np.diff(self.offsets)
        width = int(counts.max()) if len(counts) else 0
        if not len(times):
            return np.full(len(counts), -1, dtype=np.int64)
        if len(times) == len(counts) * width:  # every size has `width` rows
            grid = times.reshape(len(counts), width)
        else:
            grid = np.full((len(counts), width), np.inf)
            grid[np.arange(width) < counts[:, None]] = times
        column = grid.argmin(axis=1)
        rows = np.where(column < counts, self.offsets[:-1] + column, -1)
        return np.where(admit[rows], rows, -1)  # rows[-1] is any row: -1 stays


def _fft_plane_flops(hf: int, wf: int) -> float:
    """Transform cost of one (hf x wf) real plane."""
    return _FFT_C * hf * wf * max(1.0, math.log2(hf * wf))


#: Every count the model derives must stay within this, because the batched
#: Find evaluates them in int64.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_counts(g: ConvGeometry, workspace: int = 0) -> None:
    """Raise :class:`BadParamError` if a count derived for ``g`` leaves int64.

    ``g`` is a one-group geometry, as every model term is, and
    ``workspace`` the largest workspace of its supported algorithms.  Each
    integer the batched Find computes is at most one of three counts: the
    FLOP count, the bytes of x, y and twice w, or that workspace times
    ``TRANSFORM_CHUNKS`` (the product before the split).  All three grow
    with N, so checking a call's largest size checks every size in it.
    Both Find paths call this, so a batch size too large for the model
    fails the same way on either path, whatever the layer.
    """
    y = g.y_desc
    y_count = g.n * g.k * y.h * y.w
    w_count = g.k * g.c * g.r * g.s
    largest = max(
        2 * y_count * g.c * g.r * g.s,  # the FLOP count
        FLOAT_SIZE * (g.n * g.c * g.h * g.w + y_count + 2 * w_count),
        TRANSFORM_CHUNKS * workspace,
    )
    if largest > _INT64_MAX:
        raise BadParamError(
            Status.BAD_PARAM,
            f"batch size {g.n} is too large for {g}: a derived count "
            f"reaches {largest}, past the int64 range",
        )


def check_batch_size(g: ConvGeometry) -> None:
    """Raise :class:`BadParamError` if ``g.n`` is too large for the model.

    The int64 bound :meth:`PerfModel.find_all_batched` applies to its
    largest size, callable before any per-size work: a caller about to list
    every size ``1..N`` (the ``all`` policy) refuses an out-of-range ``N``
    first.
    """
    sub = g.group_geometry()
    _check_counts(sub, max(
        workspace_size(sub, algo)
        for algo in algos_for(g.conv_type) if is_supported(sub, algo)
    ))


class PerfModel:
    """Analytic timing model bound to one :class:`GpuSpec`.

    Parameters
    ----------
    spec:
        Hardware description.
    jitter:
        Relative amplitude of deterministic pseudo-measurement noise.  At the
        default ``0.0`` the model is exactly reproducible; the benchmarking
        robustness tests use small positive values.
    """

    def __init__(self, spec: GpuSpec, jitter: float = 0.0) -> None:
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.spec = spec
        self.jitter = float(jitter)

    # -- public API ---------------------------------------------------------

    def time(self, g: ConvGeometry, algo: Algo, sample: int = 0) -> float:
        """Modeled execution time in seconds.

        Raises :class:`NotSupportedError` for unsupported (geometry, algo)
        pairs, as executing them on real cuDNN would.
        """
        if not is_supported(g, algo):
            raise NotSupportedError(
                Status.NOT_SUPPORTED, f"{algo!r} does not support {g}"
            )
        return self._sampled_time(g, algo, sample)

    def query(self, g: ConvGeometry, algo: Algo, sample: int = 0) -> PerfResult:
        """Non-raising variant: unsupported pairs get NOT_SUPPORTED status."""
        if not is_supported(g, algo):
            return PerfResult(algo, Status.NOT_SUPPORTED, math.inf, 0)
        return PerfResult(
            algo,
            Status.SUCCESS,
            self._sampled_time(g, algo, sample),
            workspace_size(g, algo),
        )

    def find_all(self, g: ConvGeometry, sample: int = 0) -> list[PerfResult]:
        """All algorithms for ``g``, fastest first -- ``cudnnFind*Algorithm``.

        Unsupported algorithms appear at the end with infinite time, matching
        cuDNN's behaviour of returning every enumerated algorithm with a
        per-entry status.  A batch size whose derived counts leave int64
        raises :class:`BadParamError`, as on :meth:`find_all_batched`.
        """
        sub = g.group_geometry()
        # FLOPs and tensor bytes bound every number the time model converts
        # to float; the rows then carry the exact workspaces to check.
        _check_counts(sub)
        results = [self.query(g, a, sample=sample) for a in algos_for(g.conv_type)]
        _check_counts(sub, max(r.workspace for r in results))
        return sorted(results, key=lambda r: (r.time, int(r.algo)))

    def find_all_batched(self, g: ConvGeometry, sizes: list[int]) -> BenchBlock:
        """:meth:`find_all` for every batch size at once, one numpy pass.

        Returns a :class:`BenchBlock` whose item ``i`` equals
        ``self.find_all(g.with_batch(sizes[i]))``, times and workspaces
        bit-identical to the per-size path: algorithm support and every
        transform dimension are independent of N, and each model term is
        evaluated with the exact same IEEE expression tree per element
        (N-independent subexpressions hoisted to scalars, the rest
        vectorized in the scalar path's association order).

        The per-group sub-geometry and its output shape are derived once per
        call; one ``np.lexsort`` over (time, algorithm) orders every size's
        rows, which stay columns: no row object is built.

        Every size must be a positive integer (``bool`` and non-integral
        values included), as :meth:`ConvGeometry.with_batch` requires on
        the per-size path, and small enough that the layer's derived counts
        fit int64, as :meth:`find_all` requires; otherwise
        :class:`BadParamError` is raised before any row is computed.  Only
        valid for the jitter-free model -- noisy samples are keyed per query
        and must go through :meth:`find_all`.
        """
        if self.jitter != 0.0:
            raise NotSupportedError(
                Status.NOT_SUPPORTED,
                "find_all_batched requires a jitter-free model",
            )
        with telemetry.span(
            "perfmodel.batched_find", kernel=g.cache_key(), sizes=len(sizes)
        ) as tspan:
            checked = [_positive("batch size", n) for n in sizes]
            # Support, workspace and time all compose G groups from one
            # group's sub-geometry, and none depends on N.
            sub = g.group_geometry()
            algos = algos_for(g.conv_type)
            if checked:
                check_batch_size(sub.with_batch(max(checked)))
            ns = np.array(checked, dtype=np.int64)
            y = sub.y_desc
            supported = [algo for algo in algos if is_supported(sub, algo)]
            times = np.empty((len(supported), len(ns)))
            wss = np.empty((len(supported), len(ns)), dtype=np.int64)
            for j, algo in enumerate(supported):
                wss[j] = workspace_size_batch(sub, ns, algo)
                col = self._time_supported_batch(sub, y, algo, ns, wss[j])
                if g.groups > 1:
                    # cuDNN's group loop, as in the scalar _time_supported.
                    col = g.groups * col
                times[j] = col
            ids = np.array([int(a) for a in supported], dtype=np.int8)
            order = np.lexsort(
                (np.broadcast_to(ids[:, None], times.shape), times), axis=0)
            tspan.set("supported_algos", len(supported))
            telemetry.count("perfmodel.batched_finds",
                            help="vectorized multi-size Find invocations")
            telemetry.count("perfmodel.batched_sizes", len(sizes),
                            help="micro-batch sizes served by batched Finds")
        return BenchBlock(
            g.conv_type, ns, np.arange(len(ns) + 1) * len(supported),
            ids[order].T.ravel(),
            np.take_along_axis(times, order, axis=0).T.ravel(),
            np.take_along_axis(wss, order, axis=0).T.ravel(),
            tuple(algo for algo in algos if algo not in supported),
        )

    def fastest(
        self, g: ConvGeometry, workspace_limit: int | None = None, sample: int = 0
    ) -> PerfResult | None:
        """Fastest supported algorithm within ``workspace_limit`` bytes.

        ``None`` when nothing fits (cannot happen for limits >= 0 since
        implicit GEMM needs zero workspace, but kept total for safety).
        """
        for result in self.find_all(g, sample=sample):
            if not result.ok:
                continue
            if workspace_limit is None or result.workspace <= workspace_limit:
                return result
        return None

    # -- model internals ------------------------------------------------------

    def _sampled_time(self, g: ConvGeometry, algo: Algo, sample: int) -> float:
        """Time of a supported pair, with the model's jitter if any."""
        base = self._time_supported(g, algo)
        if self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * self._noise(g, algo, sample))

    def _noise(self, g: ConvGeometry, algo: Algo, sample: int) -> float:
        """Deterministic uniform noise in [-1, 1] keyed by the query."""
        key = f"{g.cache_key()}|{int(algo)}|{sample}".encode()
        return (zlib.crc32(key) / 0xFFFFFFFF) * 2.0 - 1.0

    def _occupancy(self, g: ConvGeometry) -> float:
        """Fraction of the machine a kernel at this geometry can fill."""
        y = g.y_desc
        par = g.n * y.h * y.w * -(-g.k // 32)
        kappa = self.spec.sm_count * 384.0
        return par / (par + kappa)

    def _wave_quantization(self, g: ConvGeometry) -> float:
        """Penalty factor >= 1 from partially filled trailing waves."""
        y = g.y_desc
        blocks = max(1, -(-(g.n * y.h * y.w) // 256)) * max(1, -(-g.k // 64))
        waves = blocks / self.spec.sm_count
        return 1.0 + 0.15 * (math.ceil(waves) / waves - 1.0)

    def _io_bytes(self, g: ConvGeometry, family: AlgoFamily) -> float:
        y = g.y_desc
        # x_desc.count and w_desc.count, without building the descriptors.
        w_count = g.k * (g.c // g.groups) * g.r * g.s
        io = FLOAT_SIZE * (g.n * g.c * g.h * g.w + y.count + w_count)
        if g.conv_type == ConvType.BACKWARD_FILTER:
            io += FLOAT_SIZE * w_count  # read-modify-write of dw
        if family in (
            AlgoFamily.GEMM,
            AlgoFamily.FFT,
            AlgoFamily.FFT_TILING,
            AlgoFamily.WINOGRAD_NONFUSED,
        ):
            # Materializing algorithms stream their workspace out and back.
            io += 2.0 * workspace_size(g, family_to_algo(g.conv_type, family))
        return io

    def _effective_flops(self, g: ConvGeometry, family: AlgoFamily) -> float:
        """FLOPs the algorithm actually executes for geometry ``g``."""
        direct = float(g.flops)
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
                transform_cost *= 0.5  # fused transforms overlap the GEMM
            return direct / reduction + transform_cost
        raise AssertionError(f"unhandled family {family}")

    def _time_supported(self, g: ConvGeometry, algo: Algo) -> float:
        if g.groups > 1:
            # cuDNN (pre-7.3) executes grouped convolutions as a loop of
            # per-group kernels; time composes accordingly.
            return g.groups * self._time_supported(g.group_geometry(), algo)
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

    # -- vectorized internals (bit-identical to the scalar path over N) -------
    #
    # Every helper below evaluates, for an int64 array ``ns`` of batch sizes,
    # exactly ``[scalar(g.with_batch(n)) for n in ns]`` for a one-group
    # geometry ``g`` whose output descriptor is ``y``.  Integer terms are
    # exact in any association order; float terms keep the scalar path's
    # left-to-right order with N-independent prefixes hoisted (hoisting a
    # prefix does not change the expression tree, only when it is computed).

    def _occupancy_batch(
        self, g: ConvGeometry, y: TensorDescriptor, ns: np.ndarray
    ) -> np.ndarray:
        par = ns * (y.h * y.w * -(-g.k // 32))
        kappa = self.spec.sm_count * 384.0
        return par / (par + kappa)

    def _wave_quantization_batch(
        self, g: ConvGeometry, y: TensorDescriptor, ns: np.ndarray
    ) -> np.ndarray:
        blocks = np.maximum(1, -(-(ns * (y.h * y.w)) // 256)) * max(1, -(-g.k // 64))
        waves = blocks / self.spec.sm_count
        return 1.0 + 0.15 * (np.ceil(waves) / waves - 1.0)

    def _io_bytes_batch(
        self, g: ConvGeometry, y: TensorDescriptor, family: AlgoFamily,
        ns: np.ndarray, wss: np.ndarray,
    ) -> np.ndarray:
        w_count = g.k * g.c * g.r * g.s
        counts = ns * (g.c * g.h * g.w) + ns * (y.c * y.h * y.w) + w_count
        io = FLOAT_SIZE * counts
        if g.conv_type == ConvType.BACKWARD_FILTER:
            io = io + FLOAT_SIZE * w_count
        if family in (
            AlgoFamily.GEMM,
            AlgoFamily.FFT,
            AlgoFamily.FFT_TILING,
            AlgoFamily.WINOGRAD_NONFUSED,
        ):
            # Each family has exactly one algorithm per operation type, so
            # the family's workspace is this algorithm's ``wss``.
            io = io + 2.0 * wss
        return io

    def _effective_flops_batch(
        self, g: ConvGeometry, y: TensorDescriptor, family: AlgoFamily,
        ns: np.ndarray,
    ) -> np.ndarray:
        # flops = 2 * N * K * H' * W' * C * R * S -- linear in N.
        direct = (ns * (2 * g.k * y.h * y.w * g.c * g.r * g.s)).astype(np.float64)
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
            transforms = plane * (ns * (g.c + g.k) + g.c * g.k)
            pointwise = _CMAC_FLOPS * hf * (wf // 2 + 1) * ns * g.k * g.c
            return transforms + pointwise
        if family == AlgoFamily.FFT_TILING:
            tiles = fft_tiles_per_image(g)
            plane = _fft_plane_flops(FFT_TILE, FFT_TILE)
            transforms = plane * (g.c * g.k + ns * (tiles * (g.c + g.k)))
            pointwise = (
                _CMAC_FLOPS * FFT_TILE * (FFT_TILE // 2 + 1) * ns * tiles * g.k * g.c
            )
            return transforms + pointwise
        if family in (AlgoFamily.WINOGRAD, AlgoFamily.WINOGRAD_NONFUSED):
            t = WINOGRAD_M + g.r - 1
            reduction = (g.r * g.s * WINOGRAD_M * WINOGRAD_M) / float(t * t)
            tiles = winograd_tiles(g)
            transform_cost = 4.0 * t * t * (ns * (tiles * (g.c + g.k)) + g.c * g.k)
            if family == AlgoFamily.WINOGRAD:
                transform_cost = transform_cost * 0.5
            return direct / reduction + transform_cost
        raise AssertionError(f"unhandled family {family}")

    def _time_supported_batch(
        self, g: ConvGeometry, y: TensorDescriptor, algo: Algo, ns: np.ndarray,
        wss: np.ndarray,
    ) -> np.ndarray:
        """Times of a one-group geometry; ``wss`` is ``algo``'s workspace."""
        family = family_of(g.conv_type, algo)
        spec = self.spec
        eff = _BASE_EFFICIENCY[family] * self._occupancy_batch(g, y, ns)
        if family in (AlgoFamily.FFT, AlgoFamily.FFT_TILING):
            eff *= spec.fft_throughput_scale
        elif family in (AlgoFamily.WINOGRAD, AlgoFamily.WINOGRAD_NONFUSED):
            eff *= spec.winograd_throughput_scale
        flops = self._effective_flops_batch(g, y, family, ns)
        t_compute = flops / (spec.peak_sp_flops * eff)
        t_compute *= self._wave_quantization_batch(g, y, ns)
        t_memory = self._io_bytes_batch(g, y, family, ns, wss) / spec.mem_bandwidth
        overhead = spec.launch_overhead * _KERNELS_PER_CALL[family]
        return _OP_MULT[g.conv_type] * (overhead + np.maximum(t_compute, t_memory))


#: ``(conv_type, family) -> algorithm``; iterating in reverse leaves the
#: first match in enumeration order.
_FAMILY_ALGO: dict[tuple[ConvType, AlgoFamily], Algo] = {
    (conv_type, family_of(conv_type, algo)): algo
    for conv_type in ConvType
    for algo in reversed(algos_for(conv_type))
}


def family_to_algo(conv_type: ConvType, family: AlgoFamily) -> Algo:
    """Inverse of :func:`repro.cudnn.enums.family_of` (first match)."""
    try:
        return _FAMILY_ALGO[conv_type, family]
    except KeyError:
        raise KeyError(f"{family} has no algorithm for {conv_type}") from None
