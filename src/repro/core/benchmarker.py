"""Step 1 of the WR/WD pipeline: micro-batch benchmarking.

For every candidate micro-batch size the policy admits, every convolution
algorithm is "executed" through ``cudnnFindConvolution*Algorithm`` (here: the
performance model) and the resulting (time, workspace) table is recorded.
This is the expensive step the paper's ``powerOfTwo`` policy exists to tame
(34.16 s for ``all`` vs 3.82 s for ``powerOfTwo`` on AlexNet/P100), so the
benchmark *cost* -- the simulated device time spent measuring -- is tracked
explicitly, and results are memoized through an optional
:class:`~repro.core.cache.BenchmarkCache`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

import repro.telemetry as telemetry
from repro.core.config import MicroConfig
from repro.core.policies import BatchSizePolicy, candidate_sizes
from repro.cudnn.api import find_algorithms, find_algorithms_batched
from repro.cudnn.enums import (
    Algo,
    AlgoFamily,
    ConvType,
    algos_for,
    family_of,
    is_deterministic,
)
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.handle import CudnnHandle
from repro.cudnn.perfmodel import BenchBlock, PerfResult, check_batch_size
from repro.telemetry.locks import blocking

if TYPE_CHECKING:
    from repro.core.cache import BenchmarkCache


@dataclass
class KernelBenchmark:
    """Benchmark table of one convolution kernel.

    Attributes
    ----------
    geometry:
        The kernel at its full mini-batch size.
    policy:
        Batch-size policy that selected the measured sizes.
    block:
        The measured rows as one :class:`~repro.cudnn.perfmodel.BenchBlock`:
        successful algorithms only, fastest first, sizes ascending,
        *unfiltered* by any workspace limit -- limits are applied by the
        optimizers so one table serves many limits.  ``None`` until the
        first query packs it from an edited :attr:`results`.
    benchmark_time:
        Simulated device seconds spent producing the table (each supported
        algorithm runs once per measured size, as ``cudnnFind*`` does).
    """

    geometry: ConvGeometry
    policy: BatchSizePolicy
    block: BenchBlock | None = None
    benchmark_time: float = 0.0
    _results: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Query memo, keyed on :meth:`t1_bucket` (and the size, for
    #: :meth:`micro_options`).  Limits that admit the same rows share a
    #: bucket, so limit sweeps stop rescanning.
    _query_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.block is None:
            self._results = {}

    @property
    def results(self) -> dict[int, list[PerfResult]]:
        """``micro_batch -> [PerfResult ...]``: the block's rows as objects.

        A view built on first access, for the callers that want row
        objects (Pareto provenance, experiments, tests); queries read the
        block.  After editing it in place, call
        :meth:`invalidate_query_cache`, which re-packs the block from it.
        """
        if self._results is None:
            self._results = self.columns().results()
        return self._results

    def columns(self) -> BenchBlock:
        """The block every query reads (packed from :attr:`results` if due)."""
        if self.block is None:
            rows = self._results
            self.block = BenchBlock.pack(
                self.geometry.conv_type, sorted(rows),
                [rows[size] for size in sorted(rows)]).ascending()
        return self.block

    @property
    def sizes(self) -> list[int]:
        """Measured micro-batch sizes, ascending."""
        return self.columns().sizes.tolist()

    def invalidate_query_cache(self) -> None:
        """Drop memoized queries after editing :attr:`results` in place."""
        self._query_cache.clear()
        if self._results is not None:
            self.block = None

    def workspace_step_union(self) -> list[int]:
        """Distinct result workspaces over all measured sizes, ascending.

        These are the WR breakpoints: two limits between consecutive union
        steps admit the same result rows at *every* size, hence identical
        ``T1`` tables and identical WR answers (:mod:`repro.core.sweep`
        buckets limits by exactly this grid).
        """
        key = ("step_union",)
        union = self._query_cache.get(key)
        if union is None:
            union = sorted(set(self.columns().workspaces.tolist()))
            self._query_cache[key] = union
        return union

    def t1_bucket(self, workspace_limit: int | None) -> int | None:
        """Memoization bucket of a limit for whole-table (``T1``) queries.

        The bucket counts how many distinct workspace steps the limit
        admits: limits in the same bucket admit the *same rows* at every
        size, hence identical answers to every query (``T1`` tables and
        per-size option fronts alike).  ``None`` (no limit) is its own
        bucket.
        """
        if workspace_limit is None:
            return None
        return bisect.bisect_right(self.workspace_step_union(), workspace_limit)

    def t1_rows(self, workspace_limit: int | None) -> np.ndarray:
        """Per measured size, the block row of its ``T1`` entry (-1: none).

        The masked per-size minimum of
        :meth:`~repro.cudnn.perfmodel.BenchBlock.fastest_rows`, memoized
        per :meth:`t1_bucket`.  Shared: treat it as read-only.
        """
        key = ("t1_rows", self.t1_bucket(workspace_limit))
        rows = self._query_cache.get(key)
        if rows is None:
            rows = self.columns().fastest_rows(workspace_limit)
            self._query_cache[key] = rows
        return rows

    def t1_micros(self, workspace_limit: int | None) -> dict[int, MicroConfig]:
        """``size -> T1 entry`` for every size where something fits, ascending."""
        block = self.columns()
        rows = self.t1_rows(workspace_limit)
        fits = rows >= 0
        return {
            size: MicroConfig(size, algo, time, workspace)
            for size, (algo, time, workspace) in zip(
                block.sizes[fits].tolist(), block.row_values(rows[fits]))
        }

    def micro_options(
        self, micro_batch: int, workspace_limit: int | None = None
    ) -> list[MicroConfig]:
        """Pareto-undominated micro-configurations at one size.

        Among algorithms at a fixed micro-batch size, any algorithm that is
        both slower and hungrier than another can never appear in an optimal
        configuration, so it is dropped here (first-level pruning; the
        configuration-level pruning of section III-C1 happens in
        :mod:`repro.core.pareto`).
        """
        key = ("options", micro_batch, self.t1_bucket(workspace_limit))
        cached = self._query_cache.get(key)
        if cached is None:
            cached = self._compute_micro_options(micro_batch, workspace_limit)
            self._query_cache[key] = cached
        return list(cached)

    def _compute_micro_options(
        self, micro_batch: int, workspace_limit: int | None
    ) -> list[MicroConfig]:
        options: list[MicroConfig] = []
        block = self.columns()
        i = int(block.index([micro_batch])[0])
        if i < 0:
            return options
        rows = slice(int(block.offsets[i]), int(block.offsets[i + 1]))
        for algo, time, workspace in block.row_values(rows):
            if workspace_limit is not None and workspace > workspace_limit:
                continue
            if any(o.time <= time and o.workspace <= workspace for o in options):
                continue  # dominated
            options = [
                o for o in options
                if not (time <= o.time and workspace <= o.workspace)
            ]
            options.append(MicroConfig(micro_batch, algo, time, workspace))
        return options

    def restricted(self, families: Iterable[AlgoFamily]) -> "KernelBenchmark":
        """Copy of this table keeping only the given algorithm families.

        Used by the related-work comparisons: ZNNi's micro-batching applies
        only to FFT convolution, so restricting the table to the FFT family
        turns the WR optimizer into a faithful ZNNi-style baseline -- "the
        paper generalizes the schema so that micro-batching can be applied
        to any convolution algorithm" is then a measurable delta.
        """
        families = set(families)
        return KernelBenchmark(
            geometry=self.geometry,
            policy=self.policy,
            block=_keep_algos(self.columns(), lambda conv_type, algo:
                              family_of(conv_type, algo) in families),
            benchmark_time=self.benchmark_time,
        )

    def fastest_micro(
        self, micro_batch: int, workspace_limit: int | None = None
    ) -> MicroConfig | None:
        """The paper's ``T1``: fastest micro-configuration within the limit."""
        block = self.columns()
        i = int(block.index([micro_batch])[0])
        row = -1 if i < 0 else int(self.t1_rows(workspace_limit)[i])
        if row < 0:
            return None
        ((algo, time, workspace),) = block.row_values(np.array([row]))
        return MicroConfig(micro_batch, algo, time, workspace)


def _keep_algos(
    block: BenchBlock, keep: Callable[[ConvType, Algo], bool]
) -> BenchBlock:
    """``block`` without the rows of algorithms ``keep`` rejects."""
    kept = [int(a) for a in algos_for(block.conv_type)
            if keep(block.conv_type, a)]
    return block.keep_rows(np.isin(block.algos, kept))


def _aggregate_samples(runs: list[list[PerfResult]]) -> list[PerfResult]:
    """Median per-algorithm time over repeated Find invocations.

    Robust benchmarking for noisy measurements: a single sample of a jittery
    kernel can invert the ranking of close algorithms; the per-algorithm
    median is the standard remedy (and what careful users of cudnnFind do).
    """
    by_algo: dict = {}
    for run in runs:
        for r in run:
            by_algo.setdefault(r.algo, []).append(r)
    out = []
    for algo, results in by_algo.items():
        times = sorted(r.time for r in results)
        median = times[len(times) // 2]
        out.append(PerfResult(algo, results[0].status, median, results[0].workspace))
    out.sort(key=lambda r: r.time)
    return out


def benchmark_kernel(
    handle: CudnnHandle,
    geometry: ConvGeometry,
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
    cache: "BenchmarkCache | None" = None,
    samples: int = 1,
    deterministic_only: bool = False,
) -> KernelBenchmark:
    """Benchmark every (candidate micro-batch size, algorithm) pair.

    ``cache`` is an optional :class:`repro.core.cache.BenchmarkCache`; hits
    contribute zero benchmark time (the whole point of the paper's file DB:
    skip recomputation for replicated layer shapes, e.g. ResNet's repeated
    blocks).

    ``samples > 1`` repeats each Find invocation and keeps the per-algorithm
    median time -- pointless on the deterministic model, essential when the
    handle carries measurement jitter (see the noise-robustness ablation).
    Every sample's cost is charged to ``benchmark_time``.

    ``deterministic_only`` drops cuDNN's atomics-based algorithms (the
    backward ``ALGO_0``s), honoring a framework's reproducibility switch.
    The filter is applied after cache retrieval and before caching occurs on
    the unfiltered table, so a single cache serves both settings.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    blocking("solver.benchmark_kernel")
    gpu_name = handle.gpu.spec.name
    benchmark_time = 0.0
    with telemetry.span(
        "benchmark.kernel", kernel=geometry.cache_key(), policy=policy.value
    ) as kspan:
        if policy is BatchSizePolicy.ALL:
            # ``all`` lists every size 1..N: refuse an N past the model's
            # int64 bound before building that list.
            check_batch_size(geometry)
        sizes = candidate_sizes(policy, geometry.n)
        cached, pending = (
            cache.get_block(gpu_name, geometry, sizes)
            if cache is not None else (None, sizes)
        )
        blocks = [cached] if cached is not None else []
        if pending:
            found, unit_times = _find(handle, geometry, pending, samples)
            # One benchmark unit per size: every algorithm at that size, as
            # a single cudnnFind* invocation measures them.
            for unit_time in unit_times:
                benchmark_time += unit_time
            if telemetry.enabled():
                for size, algorithms, unit_time in zip(
                    pending, np.diff(found.offsets).tolist(), unit_times
                ):
                    with telemetry.span("benchmark.find", size=size) as unit:
                        unit.set("algorithms", algorithms)
                        unit.set("device_seconds", unit_time)
                    telemetry.count("benchmark.units",
                                    help="cudnnFind benchmark units evaluated")
                    telemetry.count(
                        "benchmark.device_seconds", unit_time,
                        help="simulated device seconds spent benchmarking")
                    telemetry.observe(
                        "benchmark.unit_seconds", unit_time,
                        help="simulated device seconds per benchmark unit")
            if cache is not None:
                cache.put_block(gpu_name, geometry, found)
            blocks.append(found)
        block = (blocks[0] if len(blocks) == 1 else
                 BenchBlock.concat(geometry.conv_type, blocks)).ascending()
        if deterministic_only:
            block = _keep_algos(block, is_deterministic)
        kspan.set("sizes", len(block))
        kspan.set("benchmark_seconds", benchmark_time)
    return KernelBenchmark(geometry=geometry, policy=policy, block=block,
                           benchmark_time=benchmark_time)


def _find(
    handle: CudnnHandle, geometry: ConvGeometry, sizes: list[int],
    samples: int,
) -> tuple[BenchBlock, list[float]]:
    """Find's rows at ``sizes`` and each size's device seconds.

    Single-sample misses answer in one vectorized pass of the performance
    model (bit-identical to per-size Find calls); ``samples > 1`` runs
    Find per size and sample and keeps the median rows.
    """
    if samples == 1:
        found = find_algorithms_batched(handle, geometry, sizes)
        times, bounds = found.times.tolist(), found.offsets.tolist()
        return found, [sum(times[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    tables = []
    unit_times = []
    for size in sizes:
        g = geometry.with_batch(size)
        unit_time = 0.0
        runs = []
        for _ in range(samples):
            run = [r for r in find_algorithms(handle, g) if r.ok]
            # cudnnFind executes each supported algorithm once per sample.
            unit_time += sum(r.time for r in run)
            runs.append(run)
        tables.append(_aggregate_samples(runs))
        unit_times.append(unit_time)
    return BenchBlock.pack(geometry.conv_type, sizes, tables), unit_times
