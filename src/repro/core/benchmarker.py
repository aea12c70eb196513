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
from typing import TYPE_CHECKING, Iterable

import repro.telemetry as telemetry
from repro.core.config import MicroConfig
from repro.core.policies import BatchSizePolicy, candidate_sizes
from repro.cudnn.api import find_algorithms, find_algorithms_batched
from repro.cudnn.enums import AlgoFamily, is_deterministic
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.handle import CudnnHandle
from repro.cudnn.perfmodel import PerfResult, check_batch_size
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
    results:
        ``micro_batch -> [PerfResult ...]`` (successful algorithms only,
        fastest first, *unfiltered* by any workspace limit -- limits are
        applied by the optimizers so one table serves many limits).
    benchmark_time:
        Simulated device seconds spent producing the table (each supported
        algorithm runs once per measured size, as ``cudnnFind*`` does).
    """

    geometry: ConvGeometry
    policy: BatchSizePolicy
    results: dict[int, list[PerfResult]] = field(default_factory=dict)
    benchmark_time: float = 0.0
    #: Query memo.  :meth:`fastest_micro` / :meth:`micro_options` key on
    #: (kind, size, limit bucket); the WR ``T1`` table keys on
    #: :meth:`t1_bucket` and scans each size's rows directly.  Limits that
    #: admit the same rows share a bucket, so limit sweeps stop rescanning.
    _query_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def sizes(self) -> list[int]:
        """Measured micro-batch sizes, ascending."""
        return sorted(self.results)

    def invalidate_query_cache(self) -> None:
        """Drop memoized queries after mutating :attr:`results` in place."""
        self._query_cache.clear()

    def workspace_steps(self, micro_batch: int) -> list[int]:
        """Distinct result workspace sizes at one micro-batch, ascending.

        These are the only limit values at which any workspace-limited query
        at this size can change its answer (``T1`` and the per-size option
        front are step functions of the limit with exactly these steps).
        """
        key = ("steps", micro_batch)
        steps = self._query_cache.get(key)
        if steps is None:
            steps = sorted({r.workspace for r in self.results.get(micro_batch, ())})
            self._query_cache[key] = steps
        return steps

    def workspace_step_union(self) -> list[int]:
        """Union of :meth:`workspace_steps` over all measured sizes, ascending.

        These are the WR breakpoints: two limits between consecutive union
        steps admit the same result rows at *every* size, hence identical
        ``T1`` tables and identical WR answers (:mod:`repro.core.sweep`
        buckets limits by exactly this grid).
        """
        key = ("step_union",)
        union = self._query_cache.get(key)
        if union is None:
            union = sorted({r.workspace for rows in self.results.values()
                            for r in rows})
            self._query_cache[key] = union
        return union

    def t1_bucket(self, workspace_limit: int | None) -> int | None:
        """Memoization bucket of a limit for whole-table (``T1``) queries.

        Like :meth:`limit_bucket` but over the union of every size's steps:
        limits in the same bucket produce identical ``T1`` tables.  ``None``
        (no limit) is its own bucket.
        """
        if workspace_limit is None:
            return None
        return bisect.bisect_right(self.workspace_step_union(), workspace_limit)

    def limit_bucket(self, micro_batch: int, workspace_limit: int | None) -> int | None:
        """Memoization bucket of a limit at one size.

        The bucket counts how many distinct workspace steps the limit admits;
        limits in the same bucket admit the *same rows* of the result table,
        hence identical answers to every query.  ``None`` (no limit) is its
        own bucket.
        """
        if workspace_limit is None:
            return None
        return bisect.bisect_right(self.workspace_steps(micro_batch), workspace_limit)

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
        key = ("options", micro_batch, self.limit_bucket(micro_batch, workspace_limit))
        cached = self._query_cache.get(key)
        if cached is None:
            cached = self._compute_micro_options(micro_batch, workspace_limit)
            self._query_cache[key] = cached
        return list(cached)

    def _compute_micro_options(
        self, micro_batch: int, workspace_limit: int | None
    ) -> list[MicroConfig]:
        options: list[MicroConfig] = []
        for res in self.results.get(micro_batch, ()):
            if workspace_limit is not None and res.workspace > workspace_limit:
                continue
            dominated = any(
                o.time <= res.time and o.workspace <= res.workspace for o in options
            )
            if dominated:
                continue
            options = [
                o
                for o in options
                if not (res.time <= o.time and res.workspace <= o.workspace)
            ]
            options.append(
                MicroConfig(micro_batch, res.algo, res.time, res.workspace)
            )
        return options

    def restricted(self, families: Iterable[AlgoFamily]) -> "KernelBenchmark":
        """Copy of this table keeping only the given algorithm families.

        Used by the related-work comparisons: ZNNi's micro-batching applies
        only to FFT convolution, so restricting the table to the FFT family
        turns the WR optimizer into a faithful ZNNi-style baseline -- "the
        paper generalizes the schema so that micro-batching can be applied
        to any convolution algorithm" is then a measurable delta.
        """
        from repro.cudnn.enums import family_of  # local: avoid import cycle

        families = set(families)
        out = KernelBenchmark(
            geometry=self.geometry,
            policy=self.policy,
            benchmark_time=self.benchmark_time,
        )
        for size, results in self.results.items():
            out.results[size] = [
                r for r in results
                if family_of(self.geometry.conv_type, r.algo) in families
            ]
        return out

    _MISS = object()  # memo sentinel: fastest_micro legitimately caches None

    def fastest_micro(
        self, micro_batch: int, workspace_limit: int | None = None
    ) -> MicroConfig | None:
        """The paper's ``T1``: fastest micro-configuration within the limit."""
        key = ("fastest", micro_batch, self.limit_bucket(micro_batch, workspace_limit))
        cached = self._query_cache.get(key, self._MISS)
        if cached is self._MISS:
            cached = self._compute_fastest_micro(micro_batch, workspace_limit)
            self._query_cache[key] = cached
        return cached

    def _compute_fastest_micro(
        self, micro_batch: int, workspace_limit: int | None
    ) -> MicroConfig | None:
        # First strict minimum; refreshed or imported rows may be unsorted.
        best: PerfResult | None = None
        for res in self.results.get(micro_batch, ()):
            if workspace_limit is not None and res.workspace > workspace_limit:
                continue
            if best is None or res.time < best.time:
                best = res
        if best is None:
            return None
        return MicroConfig(micro_batch, best.algo, best.time, best.workspace)


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
    bench = KernelBenchmark(geometry=geometry, policy=policy)
    gpu_name = handle.gpu.spec.name
    with telemetry.span(
        "benchmark.kernel", kernel=geometry.cache_key(), policy=policy.value
    ) as kspan:
        if policy is BatchSizePolicy.ALL:
            # ``all`` lists every size 1..N: refuse an N past the model's
            # int64 bound before building that list.
            check_batch_size(geometry)
        sizes = candidate_sizes(policy, geometry.n)
        found_map: dict[int, list[PerfResult]] = {}
        pending: list[int] = []
        cached_rows: list[list[PerfResult] | None] = (
            cache.get_benchmarks(gpu_name, geometry, sizes)
            if cache is not None else [None] * len(sizes)
        )
        for size, cached in zip(sizes, cached_rows):
            if cached is not None:
                found_map[size] = cached
            else:
                pending.append(size)

        if pending and samples == 1:
            # Single-sample misses answer in one vectorized pass of the
            # performance model (bit-identical to per-size Find calls).
            all_results = find_algorithms_batched(handle, geometry, pending)
        else:
            all_results = None

        for idx, size in enumerate(pending):
            # One benchmark unit: every algorithm at one micro-batch size,
            # as a single cudnnFind* invocation measures them.
            with telemetry.span("benchmark.find", size=size) as unit:
                if all_results is not None:
                    run = [r for r in all_results[idx] if r.ok]
                    unit_time = sum(r.time for r in run)
                    found = run
                else:
                    g = geometry.with_batch(size)
                    unit_time = 0.0
                    runs = []
                    for _ in range(samples):
                        run = [r for r in find_algorithms(handle, g) if r.ok]
                        # cudnnFind executes each supported algorithm once
                        # per sample.
                        unit_time += sum(r.time for r in run)
                        runs.append(run)
                    found = runs[0] if samples == 1 else _aggregate_samples(runs)
                bench.benchmark_time += unit_time
                unit.set("algorithms", len(found))
                unit.set("device_seconds", unit_time)
            if telemetry.enabled():
                telemetry.count(
                    "benchmark.units", help="cudnnFind benchmark units evaluated"
                )
                telemetry.count(
                    "benchmark.device_seconds", unit_time,
                    help="simulated device seconds spent benchmarking",
                )
                telemetry.observe(
                    "benchmark.unit_seconds", unit_time,
                    help="simulated device seconds per benchmark unit",
                )
            found_map[size] = found
        if cache is not None and pending:
            cache.put_benchmarks(gpu_name, geometry,
                                 {size: found_map[size] for size in pending})

        for size in sizes:
            found = found_map[size]
            if deterministic_only:
                found = [
                    r for r in found if is_deterministic(geometry.conv_type, r.algo)
                ]
            bench.results[size] = found
        kspan.set("sizes", len(bench.results))
        kspan.set("benchmark_seconds", bench.benchmark_time)
    return bench
