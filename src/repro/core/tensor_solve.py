"""Tensorized network-wide solves and incremental re-optimization.

The per-kernel solvers (:mod:`repro.core.wr`, :mod:`repro.core.mckp`) spend
their time in Python inner loops: the WR coin-change DP iterates
``batch x sizes`` candidate cells per kernel, and the MCKP front merge
iterates ``front x group`` candidates per group.  Both loops are data
parallel across kernels (WR: the paper's key independence property -- one
kernel's optimum never depends on another's) and across candidates (MCKP:
one front merge is a sort + prefix scan), so this module re-expresses them
as numpy tensor passes -- the same trick
:func:`repro.cudnn.api.find_algorithms_batched` used for the benchmarking
find path.

**Bit-identity, not approximation.**  The tensor passes perform the *same*
float64 additions in the *same* association order as the serial loops and
break ties by the *same* deterministic rules, so results are equal as
Python objects, not merely numerically close:

* WR: the serial DP scans ``t1.items()`` in ascending-size order and keeps
  the first strict minimum; the tensor DP lays sizes out ascending per row
  and uses ``np.argmin`` (first occurrence of the minimum) -- the same
  winner.  Each candidate is one binary add ``times[i-m] + T1(m)`` on both
  sides.  Backtracing replays :func:`repro.core.wr._rebuild` exactly,
  reusing the very :class:`~repro.core.config.MicroConfig` objects of the
  memoized ``T1`` table.
* MCKP: the serial front sorts candidates by ``(weight, cost)`` with
  Python's stable sort and keeps strict cost minima in a forward scan; the
  tensor front generates candidates in the same (front-major, group-minor)
  order, sorts with the stable ``np.lexsort((cost, weight))``, and computes
  the same keep-mask with ``np.minimum.accumulate``.  Selection backtracks
  through per-stage parent indices instead of carrying tuples.

Padding convention: per-kernel ``T1`` tables of different lengths are
packed into ``(kernels, max_sizes)`` tensors with size ``0`` / time ``inf``
padding; a mask (``sizes > 0``) keeps padding out of every argmin.

**Incremental re-optimization.**  :class:`DeltaSolver` caches per-kernel WR
breakpoints and per-bucket answers plus WD desirable fronts and ILP
warm-start bases, keyed on ``(gpu, kernel geometry, policy)`` and guarded
by a fingerprint of the benchmark rows.  When one kernel's geometry,
limit, or bench row changes, only the affected kernels are re-solved (one
tensor pass over the misses) and recombined with the cached rest --
correct because WR kernels are independent and WR answers are constant
between breakpoints.  Correctness is proven by equality against the serial
solvers (:mod:`tests.test_tensor_solve`), never re-derived.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

import repro.observability as observability
import repro.telemetry as telemetry
from repro.core.benchmarker import KernelBenchmark
from repro.core.config import Configuration, MicroConfig
from repro.core.mckp import MCKPItem, MCKPSolution
from repro.core.pareto import desirable_set
from repro.core.wd import WDKernel, symmetry_class_key
from repro.core.wr import _record_wr_provenance, t1_table
from repro.errors import OptimizationError, SolverError
from repro.telemetry.clock import Clock


# ---------------------------------------------------------------------------
# Tensorized WR
# ---------------------------------------------------------------------------


def _wr_tensors(
    t1s: "list[dict[int, MicroConfig]]",
) -> "tuple[np.ndarray, np.ndarray, list[list[MicroConfig]]]":
    """Pack per-kernel ``T1`` tables into padded ``(K, S)`` tensors.

    Row order follows ``t1s``; column order is ascending micro-batch size
    (the tables iterate in insertion order, which
    :func:`~repro.core.wr.t1_table` builds ascending) -- the order the
    serial DP's first-strict-minimum tie-break depends on.  Padding cells
    carry size ``0`` and time ``inf``.
    """
    width = max(len(t1) for t1 in t1s)
    size_rows: list[list[int]] = []
    time_rows: list[list[float]] = []
    micros: list[list[MicroConfig]] = []
    for t1 in t1s:
        fill = width - len(t1)
        micros.append(list(t1.values()))
        size_rows.append([*t1, *[0] * fill])
        time_rows.append([micro.time for micro in t1.values()] + [np.inf] * fill)
    sizes = np.array(size_rows, dtype=np.int64)
    times = np.array(time_rows, dtype=np.float64)
    return sizes, times, micros


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
        sizes, t1_times, micros = _wr_tensors([t1 for _, _, t1 in feasible])
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
# Tensorized MCKP
# ---------------------------------------------------------------------------


def solve_mckp_tensor(
    groups: "list[list[MCKPItem]]",
    capacity: int,
    max_front: int,
    clock: Clock,
) -> MCKPSolution:
    """Vectorized Pareto-front merge, bit-identical to the serial MCKP.

    Candidate generation, stable ``(weight, cost)`` ordering, the strict
    cost-minimum keep scan, overflow/infeasibility errors, and the final
    first-minimum pick all mirror :func:`repro.core.mckp._solve_mckp`
    (see the module docstring for the equivalences).  Selection payloads
    are replaced by per-stage parent/item index arrays and recovered by a
    backward walk.  ``clock`` is injected by the dispatching wrapper so
    ``solve_time`` accounting matches the serial path's source.
    """
    start = clock.now()
    if not groups:
        raise SolverError("MCKP needs at least one group")
    for gi, group in enumerate(groups):
        if not group:
            raise SolverError(f"MCKP group {gi} is empty")

    front_cost = np.zeros(1, dtype=np.float64)
    front_weight = np.zeros(1, dtype=np.int64)
    parents: list[np.ndarray] = []
    picks: list[np.ndarray] = []
    peak = 1
    for group in groups:
        gcost = np.array([item.cost for item in group], dtype=np.float64)
        gweight = np.array([item.weight for item in group], dtype=np.int64)
        gindex = np.array([item.index for item in group], dtype=np.int64)
        n = len(group)
        # Front-major, group-minor C-order ravel = the serial generation
        # order, which the stable sort's tie-breaking depends on.
        cand_cost = (front_cost[:, None] + gcost[None, :]).ravel()
        cand_weight = (front_weight[:, None] + gweight[None, :]).ravel()
        admitted = np.flatnonzero(cand_weight <= capacity)
        if admitted.size == 0:
            raise SolverError(
                f"no item combination fits capacity {capacity} "
                f"(infeasible after {len(front_cost)}-point front)"
            )
        cost = cand_cost[admitted]
        weight = cand_weight[admitted]
        parent = admitted // n
        pick = gindex[admitted % n]
        order = np.lexsort((cost, weight))  # stable; primary weight, then cost
        cost = cost[order]
        weight = weight[order]
        keep = np.empty(len(cost), dtype=bool)
        keep[0] = bool(cost[0] < np.inf)
        if len(cost) > 1:
            running = np.minimum.accumulate(cost)
            keep[1:] = cost[1:] < running[:-1]  # strict < over the prefix min
        front_cost = cost[keep]
        front_weight = weight[keep]
        kept = order[keep]
        parents.append(parent[kept])
        picks.append(pick[kept])
        peak = max(peak, len(front_cost))
        if len(front_cost) > max_front:
            raise SolverError(
                f"MCKP front exploded to {len(front_cost)} points; "
                "use the branch-and-bound ILP solver instead"
            )

    best = int(np.argmin(front_cost))  # first minimum = serial min()
    selection: list[int] = []
    pos = best
    for stage in range(len(groups) - 1, -1, -1):
        selection.append(int(picks[stage][pos]))
        pos = int(parents[stage][pos])
    selection.reverse()
    return MCKPSolution(
        selection=selection,
        cost=float(front_cost[best]),
        weight=int(front_weight[best]),
        solve_time=clock.now() - start,
        front_peak=peak,
    )


# ---------------------------------------------------------------------------
# Incremental re-optimization
# ---------------------------------------------------------------------------


_BATCH_COMPONENT = re.compile(r"n\d+")


def geometry_family(cache_key: str) -> str:
    """A geometry cache key with its mini-batch component wildcarded.

    Benchmark rows are stored per *micro*-batch geometry
    (``forward:n8c64...``) while plans are keyed by the *mini*-batch
    geometry (``forward:n32c64...``); both belong to one kernel family.
    Invalidation (bench rows changed at any size) must therefore match on
    the batch-normalized key, which this helper produces
    (``forward:n*c64...``).
    """
    return _BATCH_COMPONENT.sub("n*", cache_key, count=1)


def bench_fingerprint(bench: KernelBenchmark) -> tuple:
    """Value identity of a benchmark table (rows, order, and sizes).

    Two benches with equal fingerprints produce identical WR/WD answers
    under every limit, so cached per-bucket solutions keyed by it stay
    exact; any row edit (time, workspace, algorithm set, or size set)
    changes the fingerprint and invalidates the cache entry.
    """
    return tuple(
        (
            size,
            tuple(
                (int(r.algo), r.time, r.workspace)
                for r in bench.results[size]
            ),
        )
        for size in bench.sizes
    )


@dataclass
class DeltaStats:
    """Monotonic counters of one :class:`DeltaSolver` (read freely)."""

    #: ``solve_network`` calls answered entirely from cached buckets.
    full_solves_avoided: int = 0
    #: Calls that re-solved a strict subset and recombined with the cache.
    delta_solves: int = 0
    #: Calls that had to solve every kernel (cold start or total change).
    full_solves: int = 0
    kernels_solved: int = 0
    kernels_reused: int = 0
    #: Cache entries dropped because a fingerprint or an explicit
    #: invalidation said the underlying bench rows changed.
    invalidations: int = 0
    #: WD solves that reused a cached ILP warm-start basis.
    wd_warm_reuses: int = 0

    def as_dict(self) -> "dict[str, int]":
        return {
            "full_solves_avoided": self.full_solves_avoided,
            "delta_solves": self.delta_solves,
            "full_solves": self.full_solves,
            "kernels_solved": self.kernels_solved,
            "kernels_reused": self.kernels_reused,
            "invalidations": self.invalidations,
            "wd_warm_reuses": self.wd_warm_reuses,
        }


@dataclass
class _WRDeltaEntry:
    """Cached WR state of one ``(gpu, geometry, policy)`` kernel."""

    fingerprint: tuple
    #: The kernel's WR breakpoints (union workspace steps): answers are
    #: constant between consecutive entries, so one bucket index keys them.
    breakpoints: "list[int]"
    configurations: "dict[int, Configuration]" = field(default_factory=dict)
    errors: "dict[int, OptimizationError]" = field(default_factory=dict)


@dataclass
class _WDDeltaEntry:
    """Cached WD state of one ``(gpu, geometry, policy)`` kernel."""

    fingerprint: tuple
    #: Full (limit-free) desirable front; per-limit fronts are prefixes.
    front: "list[Configuration]"


class DeltaSolver:
    """Incremental network solver: re-solve only what changed.

    Caches, per ``(gpu, kernel geometry, policy)``: WR breakpoints and
    per-breakpoint-bucket configurations/errors, WD desirable fronts, and
    (per network shape and limit) ILP warm-start bases.  A benchmark-row
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
        self._wd: dict[tuple[str, str, str], _WDDeltaEntry] = {}
        #: Merged symmetry-class fronts keyed by (class key, multiplicity,
        #: prefix cut, prefix signature) -- signature-guarded so a mutated
        #: front can never serve stale multisets.
        self._merged: dict[tuple, list] = {}
        #: Last optimal per-class counts per (network signature): the ILP
        #: warm-start basis for re-solves of the same network shape.
        self._wd_warm: dict[tuple, tuple[int, list]] = {}

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
        restricts the drop.  Warm-start bases are cleared wholesale (they
        aggregate over the whole network).  Returns the number of entries
        dropped; the next solve delta-solves exactly those kernels.
        """
        dropped = 0
        with self._lock:
            for store in (self._wr, self._wd):
                for key in list(store):
                    if geometry_family(key[1]) != family:
                        continue
                    if policy is not None and key[2] != policy:
                        continue
                    del store[key]
                    dropped += 1
            if dropped:
                self.stats.invalidations += dropped
                self._wd_warm.clear()
        if dropped and telemetry.enabled():
            telemetry.count("solver.delta_invalidations", dropped,
                            help="delta-cache entries dropped on bench change")
        return dropped

    # -- WD: cached fronts + ILP warm-start bases ---------------------------

    def _wd_front(self, bench: KernelBenchmark) -> "list[Configuration]":
        """The kernel's full desirable front, recomputed on bench change.

        Must be called under ``self._lock``.
        """
        key = self._key(bench)
        fingerprint = bench_fingerprint(bench)
        entry = self._wd.get(key)
        if entry is None or entry.fingerprint != fingerprint:
            if entry is not None:
                self.stats.invalidations += 1
            front = desirable_set(bench, workspace_limit=None)
            self._wd[key] = _WDDeltaEntry(  # reprolint: disable=THR001 -- caller holds self._lock (documented precondition)
                fingerprint=fingerprint, front=front)
            self.stats.kernels_solved += 1
        else:
            front = entry.front
            self.stats.kernels_reused += 1
        return front

    def solve_network_wd(
        self,
        benches: "Mapping[str, KernelBenchmark]",
        total_workspace: int,
        solver: str = "ilp",
    ) -> "dict[str, Configuration]":
        """WD-solve a network, reusing cached fronts and warm-start bases.

        Assignments equal :func:`repro.core.sweep.sweep_wd` at the same
        limit (both run the symmetry-aggregated solve and the canonical
        disaggregation).  Desirable fronts, merged class fronts, and the
        previous optimum of the same network shape (the ILP warm-start
        basis) are cached; the pick-one combine itself always runs -- WD
        couples kernels through the shared pool, so only its *inputs*
        delta, not the final solve.
        """
        from repro.core.sweep import (  # local: sweep imports this module
            _merged_front,
            _solve_aggregated,
            truncate_front,
        )

        with self._lock:
            kernels = [
                WDKernel(key=name, geometry=bench.geometry, benchmark=bench,
                         desirable=self._wd_front(bench))
                for name, bench in benches.items()
            ]
            classes: dict[tuple, list[WDKernel]] = {}
            for kernel in kernels:
                classes.setdefault(symmetry_class_key(kernel), []).append(kernel)
            class_list = list(classes.values())
            class_keys = list(classes.keys())
            fronts = [members[0].desirable for members in class_list]
            cuts = [
                bisect.bisect_right([c.workspace for c in front],
                                    total_workspace)
                for front in fronts
            ]
            for members, cut in zip(class_list, cuts):
                if cut == 0:
                    truncate_front(members[0], total_workspace)  # raises
            items_per_class = []
            for class_key, members, front, cut in zip(
                class_keys, class_list, fronts, cuts
            ):
                signature = tuple(
                    (c.time, c.workspace) for c in front[:cut]
                )
                memo_key = (class_key, len(members), cut, signature)
                items = self._merged.get(memo_key)
                if items is None:
                    items = _merged_front(front[:cut], len(members))
                    self._merged[memo_key] = items
                items_per_class.append(items)
            network_signature = tuple(
                (class_key, len(members))
                for class_key, members in zip(class_keys, class_list)
            )
            warm = self._wd_warm.get(network_signature)
            prev_choice = None
            if warm is not None and warm[0] <= total_workspace:
                # Feasible by monotonicity: the basis fit a smaller (or
                # equal) pool; _solve_aggregated drops it gracefully if a
                # mutated front no longer contains the multisets.
                prev_choice = warm[1]
            chosen, _solution, _num_vars, warm_used = _solve_aggregated(
                class_list, fronts, items_per_class, total_workspace,
                solver, prev_choice,
            )
            if warm_used:
                self.stats.wd_warm_reuses += 1
            self._wd_warm[network_signature] = (total_workspace, chosen)
            assignments: dict[str, Configuration] = {}
            for members, front, counts in zip(class_list, fronts, chosen):
                picked: list[Configuration] = []
                for j, count in enumerate(counts):
                    picked.extend([front[j]] * count)
                # Ascending-workspace order over members in input order is
                # the canonical symmetric form (same loop as sweep_wd).
                for kernel, config in zip(members, picked):
                    assignments[kernel.key] = config
        return assignments


__all__ = [
    "DeltaSolver",
    "DeltaStats",
    "bench_fingerprint",
    "geometry_family",
    "solve_mckp_tensor",
    "solve_network_wr",
    "solve_network_wr_outcomes",
]
