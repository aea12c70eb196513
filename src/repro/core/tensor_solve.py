"""Tensorized network-wide WR solves and incremental re-optimization.

The per-kernel WR solver (:mod:`repro.core.wr`) spends its time in a Python
inner loop: the coin-change DP iterates ``batch x sizes`` candidate cells
per kernel.  That loop is data parallel across kernels (the paper's key
independence property -- one kernel's optimum never depends on another's),
so this module re-expresses it as one numpy tensor pass -- the same trick
:func:`repro.cudnn.api.find_algorithms_batched` used for the benchmarking
find path.

**Bit-identity, not approximation.**  The tensor pass performs the *same*
float64 additions in the *same* association order as the serial loop and
breaks ties by the *same* deterministic rule, so results are equal as
Python objects, not merely numerically close: the serial DP scans
``t1.items()`` in ascending-size order and keeps the first strict minimum;
the tensor DP lays sizes out ascending per row and uses ``np.argmin``
(first occurrence of the minimum) -- the same winner.  Each candidate is
one binary add ``times[i-m] + T1(m)`` on both sides.  Backtracing replays
:func:`repro.core.wr._rebuild` exactly, reusing the very
:class:`~repro.core.config.MicroConfig` objects of the memoized ``T1``
table.

Padding convention: per-kernel ``T1`` tables of different lengths are
packed into ``(kernels, max_sizes)`` tensors with size ``0`` / time ``inf``
padding; a mask (``sizes > 0``) keeps padding out of every argmin.

**Incremental re-optimization.**  :class:`DeltaSolver` caches per-kernel WR
breakpoints and per-bucket answers, keyed on ``(gpu, kernel geometry,
policy)`` and guarded by a fingerprint of the benchmark rows.  When one
kernel's geometry, limit, or bench row changes, only the affected kernels
are re-solved (one tensor pass over the misses) and recombined with the
cached rest -- correct because WR kernels are independent and WR answers
are constant between breakpoints.  Correctness is proven by equality
against the serial solvers (:mod:`tests.test_tensor_solve`), never
re-derived.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

import repro.observability as observability
import repro.telemetry as telemetry
from repro.core.benchmarker import KernelBenchmark
from repro.core.config import Configuration, MicroConfig
from repro.core.delta import DeltaStats, geometry_family
from repro.core.wr import _record_wr_provenance, t1_table
from repro.errors import OptimizationError


# ---------------------------------------------------------------------------
# Tensorized WR
# ---------------------------------------------------------------------------


def _wr_tensors(
    benches: "list[KernelBenchmark]", workspace_limit: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Pack the kernels' ``T1`` entries into padded ``(K, S)`` tensors.

    Row order follows ``benches``.  Each row lists the kernel's measured
    sizes where something fits the limit, ascending, with their ``T1``
    times, read straight from the block columns at the rows of the
    memoized per-size minimum
    (:meth:`~repro.core.benchmarker.KernelBenchmark.t1_rows`) -- the order
    the serial DP's first-strict-minimum tie-break depends on, and the
    order of :func:`~repro.core.wr.t1_table`.  Padding cells carry size
    ``0`` and time ``inf``.
    """
    picks = []
    for bench in benches:
        block = bench.columns()
        rows = bench.t1_rows(workspace_limit)
        fits = rows >= 0
        picks.append((block.sizes[fits], block.times[rows[fits]]))
    width = max(len(picked) for picked, _ in picks)
    sizes = np.zeros((len(picks), width), dtype=np.int64)
    times = np.full((len(picks), width), np.inf)
    for row, (picked, picked_times) in enumerate(picks):
        sizes[row, :len(picked)] = picked
        times[row, :len(picked)] = picked_times
    return sizes, times


def _tensor_wr_dp(
    sizes: np.ndarray, t1_times: np.ndarray, max_batch: int
) -> "tuple[np.ndarray, np.ndarray]":
    """One vectorized coin-change DP stage per batch row, all kernels at once.

    Returns ``times`` (``(K, max_batch + 1)`` float64, ``inf`` = not
    composable) and ``choice`` (``(K, max_batch + 1)`` int64 column index of
    the last summand into the kernel's ``T1`` table, ``-1`` = none) --
    cell-for-cell equal to :func:`repro.core.wr._wr_dp` run per kernel.
    """
    kernels = sizes.shape[0]
    # Stage-major: ``table[pad + i]`` holds T(i) of every kernel.  The
    # ``pad`` inf rows on top are what a size above ``i`` reads, so its
    # candidate comes out inf through the add alone, as do padding columns
    # (time inf).  A padding cell's back-reference is row ``i`` itself
    # (size 0), which is still inf when stage ``i`` reads it: stages write
    # their row only after the gather.
    pad = int(sizes.max())
    table = np.full((pad + max_batch + 1, kernels), np.inf, dtype=np.float64)
    table[pad] = 0.0
    choice = np.full((max_batch + 1, kernels), -1, dtype=np.int64)
    flat = table.reshape(-1)
    back = (pad - sizes) * kernels + np.arange(kernels)[:, None]
    index = np.empty_like(back)
    cand = np.empty_like(t1_times)
    for i in range(1, max_batch + 1):
        np.add(back, i * kernels, out=index)
        flat.take(index, out=cand)
        # One binary add per candidate, exactly the serial
        # ``times[i - size] + micro.time`` (same operands, same order).
        np.add(cand, t1_times, out=cand)
        cand.argmin(axis=1, out=choice[i])  # first minimum = strict "<"
        cand.min(axis=1, out=table[pad + i])
    times = table[pad:].T
    choice = choice.T
    choice[~np.isfinite(times)] = -1
    return times, choice


def _backtrace(
    choice_row: np.ndarray, micros: "list[MicroConfig]", batch: int
) -> Configuration:
    """Replay :func:`repro.core.wr._rebuild` along one kernel's choice path."""
    chosen: list[MicroConfig] = []
    remaining = batch
    while remaining > 0:
        micro = micros[int(choice_row[remaining])]
        chosen.append(micro)
        remaining -= micro.micro_batch
    chosen.sort(key=lambda m: -m.micro_batch)
    return Configuration(tuple(chosen))


def solve_network_wr_outcomes(
    benches: "Mapping[str, KernelBenchmark]", workspace_limit: int
) -> "tuple[dict[str, Configuration], dict[str, OptimizationError]]":
    """Network-wide WR solve with per-kernel outcomes, one tensor pass.

    Returns ``(configurations, errors)`` keyed by kernel name; every kernel
    lands in exactly one of the two.  Errors are the same
    :class:`~repro.errors.OptimizationError` the serial solver raises
    (infeasible-limit errors are the memoized instances of
    :func:`~repro.core.wr.t1_table`; not-composable errors carry the
    serial message verbatim).  Sweep backends and the
    :class:`DeltaSolver` build on this; :func:`solve_network_wr` is the
    raise-on-first-error wrapper matching the serial network optimizer.
    """
    configurations: dict[str, Configuration] = {}
    errors: dict[str, OptimizationError] = {}
    if not benches:
        return configurations, errors
    feasible: list[tuple[str, KernelBenchmark, dict[int, MicroConfig]]] = []
    for name, bench in benches.items():
        try:
            t1 = t1_table(bench, workspace_limit)
        except OptimizationError as exc:
            errors[name] = exc
        else:
            feasible.append((name, bench, t1))
    if not feasible:
        return configurations, errors
    with telemetry.span(
        "solve.tensor.wr", kernels=len(benches),
        workspace_limit=workspace_limit,
    ) as tspan:
        sizes, t1_times = _wr_tensors(
            [bench for _, bench, _ in feasible], workspace_limit)
        micros = [list(t1.values()) for _, _, t1 in feasible]
        batches = [bench.geometry.n for _, bench, _ in feasible]
        max_batch = max(batches)
        times, choice = _tensor_wr_dp(sizes, t1_times, max_batch)
        if telemetry.enabled():
            telemetry.count("solver.tensor_passes",
                            help="network-wide tensorized WR DP passes")
            telemetry.count("wr.dp_rows", sum(batches),
                            help="WR dynamic-program rows solved")
        rec = observability.recorder()
        for row, (name, bench, t1) in enumerate(feasible):
            batch = bench.geometry.n
            if not math.isfinite(times[row, batch]):
                errors[name] = OptimizationError(
                    f"mini-batch {batch} is not composable from measured "
                    f"sizes {sorted(t1)} (policy {bench.policy.value})"
                )
                continue
            config = _backtrace(choice[row], micros[row], batch)
            if telemetry.enabled() or rec:
                unconstrained = bench.fastest_micro(batch)
                constrained = t1.get(batch)
                fallback = unconstrained is not None and (
                    constrained is None
                    or constrained.algo != unconstrained.algo
                )
                if fallback and telemetry.enabled():
                    telemetry.count(
                        "fallback.events",
                        help="kernels whose unconstrained-fastest algorithm "
                             "exceeds the workspace limit")
                if rec:
                    _record_wr_provenance(
                        rec, bench, workspace_limit, t1,
                        [float(t) for t in times[row]],
                        [micros[row][int(c)] if c >= 0 else None
                         for c in choice[row]],
                        config, unconstrained, constrained, name,
                    )
            configurations[name] = config
        tspan.set("max_batch", max_batch)
        tspan.set("infeasible", len(errors))
    return configurations, errors


def solve_network_wr(
    benches: "Mapping[str, KernelBenchmark]", workspace_limit: int
) -> "dict[str, Configuration]":
    """WR-optimize every kernel of a network in one tensor pass.

    Bit-identical to calling
    :func:`~repro.core.wr.optimize_from_benchmark` per kernel: same
    configurations, and on failure the same error for the *first* failing
    kernel in input order (whether infeasible-limit or not-composable),
    exactly as the serial network loop would raise it.
    """
    configurations, errors = solve_network_wr_outcomes(benches, workspace_limit)
    if errors:
        for name in benches:
            if name in errors:
                raise errors[name]
    return {name: configurations[name] for name in benches}


# ---------------------------------------------------------------------------
# Incremental re-optimization
# ---------------------------------------------------------------------------


def bench_fingerprint(bench: KernelBenchmark) -> tuple:
    """Value identity of a benchmark table (rows, order, and sizes).

    The bytes of the block's columns.  Two benches with equal fingerprints
    produce identical WR/WD answers under every limit, so cached
    per-bucket solutions keyed by it stay exact; any row edit (time,
    workspace, algorithm set, or size set) changes the fingerprint and
    invalidates the cache entry.
    """
    block = bench.columns()
    return tuple(column.tobytes() for column in (
        block.sizes, block.offsets, block.algos, block.times,
        block.workspaces))


@dataclass
class _WRDeltaEntry:
    """Cached WR state of one ``(gpu, geometry, policy)`` kernel."""

    fingerprint: tuple
    #: The kernel's WR breakpoints (union workspace steps): answers are
    #: constant between consecutive entries, so one bucket index keys them.
    breakpoints: "list[int]"
    configurations: "dict[int, Configuration]" = field(default_factory=dict)
    errors: "dict[int, OptimizationError]" = field(default_factory=dict)


class DeltaSolver:
    """Incremental network WR solver: re-solve only what changed.

    Caches, per ``(gpu, kernel geometry, policy)``: WR breakpoints and
    per-breakpoint-bucket configurations/errors.  A benchmark-row
    fingerprint guards every entry, so a mutated kernel re-solves while
    untouched kernels recombine from the cache -- exact because WR kernels
    are independent and WR answers are constant within a breakpoint bucket
    (:mod:`repro.core.sweep` proves the same invariance for sweeps).

    Thread-safe: all cache and counter state is mutated under one internal
    lock; one solve runs at a time (callers such as
    :class:`~repro.service.PlanService` already serialize device work).
    """

    def __init__(self, gpu: str = "p100-sxm2") -> None:
        self.gpu = gpu
        self.stats = DeltaStats()
        #: Owning lock for every mutable mapping and for ``stats``; solves
        #: read *and* write cache entries, so they hold it end to end.
        self._lock = threading.Lock()
        self._wr: dict[tuple[str, str, str], _WRDeltaEntry] = {}

    def _key(self, bench: KernelBenchmark) -> "tuple[str, str, str]":
        return (self.gpu, bench.geometry.cache_key(), bench.policy.value)

    def _wr_entry(self, bench: KernelBenchmark) -> _WRDeltaEntry:
        """The kernel's WR cache entry, replaced if its bench rows changed.

        Must be called under ``self._lock``.
        """
        key = self._key(bench)
        fingerprint = bench_fingerprint(bench)
        entry = self._wr.get(key)
        if entry is None or entry.fingerprint != fingerprint:
            if entry is not None:
                self.stats.invalidations += 1
                if telemetry.enabled():
                    telemetry.count(
                        "solver.delta_invalidations",
                        help="delta-cache entries dropped on bench change")
            entry = _WRDeltaEntry(
                fingerprint=fingerprint,
                breakpoints=bench.workspace_step_union(),
            )
            self._wr[key] = entry  # reprolint: disable=THR001 -- caller holds self._lock (documented precondition)
        return entry

    def solve_network(
        self, benches: "Mapping[str, KernelBenchmark]", workspace_limit: int
    ) -> "dict[str, Configuration]":
        """WR-solve a network, reusing every cached per-kernel answer.

        Bit-identical to :func:`solve_network_wr` (hence to the serial
        per-kernel path): cached buckets return the identical
        configurations and raise the identical errors; only kernels whose
        ``(bucket, fingerprint)`` is unseen are solved -- all of them in
        one tensor pass -- and their answers cached for next time.
        """
        with self._lock:
            return self._solve_network_locked(benches, workspace_limit)

    def _solve_network_locked(
        self, benches: "Mapping[str, KernelBenchmark]", workspace_limit: int
    ) -> "dict[str, Configuration]":
        if not benches:
            return {}
        outcomes: dict[str, Configuration | OptimizationError] = {}
        # Distinct misses; duplicates share one solve.  The dedup key
        # includes the fingerprint so same-geometry benches carrying
        # *different* rows in one call (mid-mutation) never coalesce onto
        # each other's answers.
        misses: dict[tuple, tuple[str, KernelBenchmark,
                                  _WRDeltaEntry, int]] = {}
        owners: dict[tuple, list[str]] = {}
        reused = 0
        for name, bench in benches.items():
            entry = self._wr_entry(bench)
            key = self._key(bench) + (entry.fingerprint,)
            bucket = bisect.bisect_right(entry.breakpoints, workspace_limit)
            cached_config = entry.configurations.get(bucket)
            if cached_config is not None:
                outcomes[name] = cached_config
                reused += 1
            elif bucket in entry.errors:
                outcomes[name] = entry.errors[bucket]
                reused += 1
            elif key in misses:
                owners[key].append(name)
            else:
                misses[key] = (name, bench, entry, bucket)
                owners[key] = [name]
        if misses:
            miss_benches = {
                name: bench for name, bench, _, _ in misses.values()
            }
            configs, errors = solve_network_wr_outcomes(
                miss_benches, workspace_limit
            )
            for key, (name, _, entry, bucket) in misses.items():
                solved: Configuration | OptimizationError
                if name in configs:
                    solved = configs[name]
                    entry.configurations[bucket] = solved
                else:
                    solved = errors[name]
                    entry.errors[bucket] = solved
                for owner in owners[key]:
                    outcomes[owner] = solved
        self.stats.kernels_solved += len(misses)
        self.stats.kernels_reused += reused
        if not misses:
            self.stats.full_solves_avoided += 1
            if telemetry.enabled():
                telemetry.count("solver.full_solves_avoided",
                                help="network solves answered entirely from "
                                     "the delta cache")
        elif reused:
            self.stats.delta_solves += 1
            if telemetry.enabled():
                telemetry.count("solver.delta_solves",
                                help="network solves that re-solved only "
                                     "changed kernels")
        else:
            self.stats.full_solves += 1
            if telemetry.enabled():
                telemetry.count("solver.full_solves",
                                help="network solves with no reusable "
                                     "delta-cache entry")
        for name in benches:
            outcome = outcomes[name]
            if isinstance(outcome, OptimizationError):
                raise outcome
        return {
            name: outcome
            for name, outcome in outcomes.items()
            if isinstance(outcome, Configuration)
        }

    def invalidate_family(
        self, family: str, policy: "str | None" = None
    ) -> int:
        """Drop cached entries of one kernel family (all batch sizes).

        ``family`` is a :func:`geometry_family` key;  ``policy`` optionally
        restricts the drop.  Returns the number of entries dropped; the next
        solve delta-solves exactly those kernels.
        """
        dropped = 0
        with self._lock:
            for key in list(self._wr):
                if geometry_family(key[1]) != family:
                    continue
                if policy is not None and key[2] != policy:
                    continue
                del self._wr[key]
                dropped += 1
            self.stats.invalidations += dropped
        if dropped and telemetry.enabled():
            telemetry.count("solver.delta_invalidations", dropped,
                            help="delta-cache entries dropped on bench change")
        return dropped


__all__ = [
    "DeltaSolver",
    "DeltaStats",
    "bench_fingerprint",
    "geometry_family",
    "solve_network_wr",
    "solve_network_wr_outcomes",
]
