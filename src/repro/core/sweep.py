"""Cross-limit sweep solvers: O(breakpoints) instead of O(limits).

The paper's evaluation (Figs. 9, 12, 13, 14 and the ablations) sweeps the
same kernels over many workspace limits.  Re-running the per-limit solvers
at every limit repeats almost all of the work, because both optimizers are
*step functions* of the limit:

* **WR** -- the DP input is the ``T1`` table, and each ``T1(m)`` only
  changes when the limit crosses one of the finitely many distinct result
  workspace sizes measured at size ``m``.  Two limits between consecutive
  *breakpoints* (the union of those workspace sizes over all sizes) admit
  exactly the same result rows, hence build identical ``T1`` tables and
  identical DP outputs.  :func:`sweep_wr` therefore buckets the requested
  limits by breakpoint interval and runs :func:`~repro.core.wr.
  optimize_from_benchmark` once per non-empty interval -- bit-identical
  answers, ``O(breakpoints)`` DP solves.

* **WD** -- a kernel's desirable set under a limit is the full
  (limit-independent) Pareto front truncated to ``workspace <= limit``:
  dominance in (time, workspace) does not depend on the limit, and the
  front is sorted by ascending workspace, so truncation is a *prefix*.
  :func:`sweep_wd` computes each front once and slices per limit.  It then
  solves the *symmetry-reduced* ILP: kernels with identical geometry
  (ResNet's replicated blocks -- 159 kernels but only ~60 distinct) are
  interchangeable in any solution, and naive per-copy branch-and-bound
  re-proves optimality across every permutation of them.  Each class of
  ``r`` interchangeable kernels becomes *one* pick-one group whose items
  are the Pareto front of ``r``-fold sums of the class front (annotated
  with multiplicity counts, so "2 copies run cheap, 1 runs fast" stays
  expressible); the solved counts are disaggregated back to per-kernel
  assignments in canonical order.  The aggregated instance goes to the
  production MCKP solver, or with ``solver="ilp"`` to branch-and-bound;
  limits are solved ascending, so each ILP is warm-started with the
  previous limit's optimum (feasible at every larger limit), and the warm
  incumbent additionally enables root reduced-cost variable fixing inside
  the solver (``ilp.fixed_vars``).

Exactness: sweeps never approximate.  ``sweep_wr`` runs the very same DP on
the very same ``T1`` tables.  For WD, a dominated class multiset can always
be swapped for its dominator without raising cost or workspace (section
III-C1's theorem lifted to symmetry classes), so the aggregated optimum
equals the per-copy optimum; warm starts only ever *replace* the incumbent
on strict objective improvement.  Per-kernel assignments match the
per-limit solvers exactly because both sides emit the same canonical form
(:func:`~repro.core.wd.canonicalize_symmetric`).  Property-based tests
assert exact equality against the per-limit solvers, including infeasible
limits.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import repro.observability as observability
import repro.telemetry as telemetry
from repro.core.benchmarker import KernelBenchmark, benchmark_kernel
from repro.core.config import Configuration
from repro.core.optimizer import (
    KernelPlan,
    NetworkPlan,
    prepare_wd_kernels,
    wd_network_plan,
)
from repro.core.pareto import desirable_set
from repro.core.policies import BatchSizePolicy
from repro.core.tensor_solve import solve_network_wr_outcomes
from repro.core.wd import WDKernel, WDResult, solve_groups, symmetry_class_key
from repro.core.wr import optimize_from_benchmark
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.handle import CudnnHandle
from repro.errors import InfeasibleError, OptimizationError, SolverError
from repro.telemetry.clock import Clock, WallClock

if TYPE_CHECKING:
    from repro.core.cache import BenchmarkCache

#: Injected time source for ``solve_time`` diagnostics (never in results);
#: swap for a ManualClock to make solver reports byte-reproducible.
_CLOCK: Clock = WallClock()


# ---------------------------------------------------------------------------
# WR sweep
# ---------------------------------------------------------------------------


def wr_breakpoints(benchmark: KernelBenchmark) -> list[int]:
    """All limits at which this kernel's WR answer can change, ascending.

    The union over measured sizes of the distinct result workspace values:
    crossing one admits at least one new table row somewhere; between two
    consecutive values every per-size admissible set -- hence every
    ``T1(m)`` and the whole DP -- is constant.
    """
    return list(benchmark.workspace_step_union())


@dataclass
class WRSweep:
    """Per-limit WR results of one kernel over a limit grid.

    Infeasible limits are recorded in :attr:`errors` (the same
    :class:`~repro.errors.OptimizationError` the per-limit solver raises);
    :meth:`configuration` re-raises it for API parity.
    """

    benchmark: KernelBenchmark
    limits: tuple[int, ...]
    configurations: dict[int, Configuration]
    errors: dict[int, OptimizationError]
    breakpoints: list[int]
    #: DP executions actually performed (== number of occupied intervals).
    dp_solves: int

    @property
    def dp_solves_saved(self) -> int:
        return len(set(self.limits)) - self.dp_solves

    def configuration(self, limit: int) -> Configuration:
        if limit in self.errors:
            raise self.errors[limit]
        return self.configurations[limit]


def sweep_wr(benchmark: KernelBenchmark, limits: Iterable[int]) -> WRSweep:
    """WR-optimize one kernel under every limit in ``limits``.

    Bit-identical to calling :func:`~repro.core.wr.optimize_from_benchmark`
    per limit, at the cost of one DP per *occupied breakpoint interval*.
    (Error messages for infeasible limits quote the interval's
    representative limit; the error type and cause are identical.)
    """
    limits = tuple(int(m) for m in limits)
    rec = observability.recorder()
    pid = -1
    if rec:
        # Opened before the interval loop so each representative DP's own
        # "wr" pass (with its chosen event) nests under this sweep pass.
        pid = rec.begin_pass(
            "sweep.wr", kernel=benchmark.geometry.cache_key(),
            policy=benchmark.policy.value, limits=len(limits),
        )
    with telemetry.span(
        "sweep.wr", kernel=benchmark.geometry.cache_key(),
        policy=benchmark.policy.value, limits=len(limits),
    ) as tspan:
        points = wr_breakpoints(benchmark)
        buckets: dict[int, list[int]] = {}
        for limit in limits:
            buckets.setdefault(bisect.bisect_right(points, limit), []).append(limit)
        configurations: dict[int, Configuration] = {}
        errors: dict[int, OptimizationError] = {}
        for bucket_limits in buckets.values():
            try:
                config = optimize_from_benchmark(benchmark, bucket_limits[0])
            except OptimizationError as exc:
                for limit in bucket_limits:
                    errors[limit] = exc
            else:
                for limit in bucket_limits:
                    configurations[limit] = config
        dp_solves = len(buckets)
        saved = len(set(limits)) - dp_solves
        tspan.set("breakpoints", len(points))
        tspan.set("dp_solves", dp_solves)
        telemetry.count("sweep.breakpoints", len(points),
                        help="distinct WR breakpoints across swept kernels")
        telemetry.count("sweep.intervals_solved", dp_solves,
                        help="occupied breakpoint intervals actually solved")
        telemetry.count("sweep.dp_solves_saved", saved,
                        help="per-limit WR DP executions avoided by interval "
                             "bucketing")
    if rec:
        key = benchmark.geometry.cache_key()
        for interval in sorted(buckets):
            bucket_limits = buckets[interval]
            rec.record(
                "sweep.interval", kernel=key,
                interval=interval,
                representative_limit=bucket_limits[0],
                covered_limits=sorted(bucket_limits),
                feasible=bucket_limits[0] not in errors,
            )
        rec.end_pass(
            pid, kernel=key, breakpoints=len(points), dp_solves=dp_solves,
            dp_solves_saved=saved,
        )
    return WRSweep(
        benchmark=benchmark,
        limits=limits,
        configurations=configurations,
        errors=errors,
        breakpoints=points,
        dp_solves=dp_solves,
    )


@dataclass
class WRNetworkSweep:
    """WR network plans for every limit of a sweep."""

    limits: tuple[int, ...]
    plans: dict[int, NetworkPlan]
    errors: dict[int, OptimizationError]
    sweeps: dict[str, WRSweep] = field(repr=False, default_factory=dict)
    dp_solves: int = 0
    dp_solves_saved: int = 0

    def plan(self, limit: int) -> NetworkPlan:
        if limit in self.errors:
            raise self.errors[limit]
        return self.plans[limit]


def _tensor_shared_sweeps(
    benches: "dict[str, KernelBenchmark]", limits: "tuple[int, ...]"
) -> "dict[str, WRSweep]":
    """Network-wide tensor sweeps, one per distinct geometry.

    Instead of one Python DP per (kernel, occupied interval), limits are
    bucketed on the *network union* of every kernel's breakpoints (a
    superset of each kernel's own grid, so every per-kernel answer is still
    constant within a bucket) and each occupied bucket is answered by one
    tensorized network solve (:func:`~repro.core.tensor_solve.
    solve_network_wr_outcomes`).  Configurations and error types equal the
    serial sweep's; infeasible-limit messages quote the *network* bucket's
    representative limit (same caveat the serial sweep documents for its
    per-kernel representatives).  ``dp_solves`` of the returned sweeps
    counts the tensor passes covering the kernel.
    """
    distinct: dict[str, KernelBenchmark] = {}
    for bench in benches.values():
        distinct.setdefault(bench.geometry.cache_key(), bench)
    union: set[int] = set()
    for bench in distinct.values():
        union.update(bench.workspace_step_union())
    points = sorted(union)
    buckets: dict[int, list[int]] = {}
    for limit in limits:
        buckets.setdefault(bisect.bisect_right(points, limit), []).append(limit)
    configurations: dict[str, dict[int, Configuration]] = {
        key: {} for key in distinct
    }
    errors: dict[str, dict[int, OptimizationError]] = {
        key: {} for key in distinct
    }
    with telemetry.span(
        "sweep.wr.tensor", kernels=len(distinct), limits=len(limits),
        buckets=len(buckets),
    ):
        for bucket_limits in buckets.values():
            configs, errs = solve_network_wr_outcomes(
                distinct, bucket_limits[0]
            )
            for key in distinct:
                if key in errs:
                    for limit in bucket_limits:
                        errors[key][limit] = errs[key]
                else:
                    for limit in bucket_limits:
                        configurations[key][limit] = configs[key]
        if telemetry.enabled():
            telemetry.count("sweep.intervals_solved", len(buckets),
                            help="occupied breakpoint intervals actually "
                                 "solved")
            telemetry.count(
                "sweep.dp_solves_saved",
                len(distinct) * (len(set(limits)) - len(buckets)),
                help="per-limit WR DP executions avoided by interval "
                     "bucketing")
    return {
        key: WRSweep(
            benchmark=bench,
            limits=limits,
            configurations=configurations[key],
            errors=errors[key],
            breakpoints=wr_breakpoints(bench),
            dp_solves=len(buckets),
        )
        for key, bench in distinct.items()
    }


def sweep_network_wr(
    handle: CudnnHandle,
    geometries: dict[str, ConvGeometry],
    limits: Iterable[int],
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
    cache: BenchmarkCache | None = None,
    backend: str = "serial",
) -> WRNetworkSweep:
    """Per-limit :func:`~repro.core.optimizer.optimize_network_wr`, swept.

    Each kernel is benchmarked once and swept once; plans are assembled per
    limit from the shared sweeps.  Kernels with identical geometry (ResNet's
    replicated blocks) have identical benchmark tables, so they share one
    sweep -- the same deduplication the paper's benchmark cache performs one
    layer down.  A limit where any kernel is infeasible lands in ``errors``
    (the per-limit path would raise on its first infeasible kernel).

    ``backend="serial"`` (default, the BENCH_sweep baseline) runs one
    Python DP per occupied interval per distinct kernel; ``"tensor"``
    answers each occupied *network-union* interval with one tensorized
    network solve (see :func:`_tensor_shared_sweeps`) -- identical plans
    and error types, and what BENCH_tensor measures.  Unlike
    :func:`~repro.core.optimizer.optimize_network_wr`, which always solves
    in one tensor pass, the sweep keeps both backends: the BENCH_sweep
    gate ``wr.sweep_dp_solves`` counts the serial sweep's per-kernel DP
    solves, and BENCH_tensor compares the two.
    """
    if backend not in ("serial", "tensor"):
        raise SolverError(
            f"unknown WR sweep backend {backend!r}; use 'serial' or 'tensor'"
        )
    limits = tuple(int(m) for m in limits)
    benches = {
        name: benchmark_kernel(handle, g, policy, cache=cache)
        for name, g in geometries.items()
    }
    shared: dict[str, WRSweep] = {}
    sweeps: dict[str, WRSweep] = {}
    if backend == "tensor":
        shared = _tensor_shared_sweeps(benches, limits)
        for name, bench in benches.items():
            sweeps[name] = shared[bench.geometry.cache_key()]
    else:
        for name, bench in benches.items():
            dedup_key = bench.geometry.cache_key()
            if dedup_key not in shared:
                shared[dedup_key] = sweep_wr(bench, limits)
            sweeps[name] = shared[dedup_key]
    plans: dict[int, NetworkPlan] = {}
    errors: dict[int, OptimizationError] = {}
    benchmark_time = sum(b.benchmark_time for b in benches.values())
    #: Replicated geometries have identical benchmark tables, so their
    #: undivided baseline at a limit is identical too -- look it up once
    #: per (distinct kernel, limit) instead of once per copy.
    undivided_times: dict[tuple[str, int], float] = {}
    for limit in limits:
        plan = NetworkPlan(scheme="wr", policy=policy,
                           benchmark_time=benchmark_time)
        for name, g in geometries.items():
            sweep = sweeps[name]
            if limit in sweep.errors:
                errors[limit] = sweep.errors[limit]
                break
            undivided_key = (g.cache_key(), limit)
            undivided_time = undivided_times.get(undivided_key)
            if undivided_time is None:
                undivided = benches[name].fastest_micro(g.n, limit)
                undivided_time = undivided.time if undivided else math.inf
                undivided_times[undivided_key] = undivided_time
            plan.kernels.append(
                KernelPlan(
                    name=name,
                    geometry=g,
                    configuration=sweep.configurations[limit],
                    undivided_time=undivided_time,
                )
            )
        else:
            plans[limit] = plan
    per_limit_solves = len(geometries) * len(set(limits))
    dp_solves = sum(s.dp_solves for s in shared.values())
    return WRNetworkSweep(
        limits=limits,
        plans=plans,
        errors=errors,
        sweeps=sweeps,
        dp_solves=dp_solves,
        dp_solves_saved=per_limit_solves - dp_solves,
    )


# ---------------------------------------------------------------------------
# WD sweep
# ---------------------------------------------------------------------------


def truncate_front(kernel: WDKernel, limit: int) -> WDKernel:
    """The kernel with its front truncated to ``workspace <= limit``.

    Equals ``desirable_set(kernel.benchmark, workspace_limit=limit)``
    exactly: dominance does not depend on the limit and the front is sorted
    by ascending workspace, so the per-limit front is a prefix of the full
    one.  When the prefix is empty the limit is infeasible for this kernel;
    the per-limit DP is consulted so its exact error is raised.
    """
    cut = bisect.bisect_right([c.workspace for c in kernel.desirable], limit)
    if cut == 0:
        # Re-derive the per-limit error (no-fit vs not-composable) from the
        # same code path the per-limit optimizer uses.
        desirable_set(kernel.benchmark, workspace_limit=limit)
        raise OptimizationError(  # pragma: no cover - defensive
            f"no desirable configuration fits {limit} bytes for "
            f"{kernel.geometry} yet the per-limit front is non-empty"
        )
    return WDKernel(
        key=kernel.key,
        geometry=kernel.geometry,
        benchmark=kernel.benchmark,
        desirable=kernel.desirable[:cut],
    )


def _merged_front(front: list[Configuration], multiplicity: int) -> list:
    """Pareto front of ``multiplicity``-fold sums of ``front``, with counts.

    Items are ``(counts, time, workspace)``: take ``counts[j]`` copies of
    ``front[j]`` with ``sum(counts) == multiplicity``; time and workspace
    are the summed totals (each copy owns its slice of the pooled
    workspace, so workspaces *add* here, unlike WR's per-kernel max).
    Only Pareto optima in (workspace, time) survive each fold: a dominated
    multiset inside a pick-one group under a single capacity row can always
    be swapped for its dominator, so no optimal solution is lost.  Ties are
    broken deterministically (smallest counts vector).
    """
    size = len(front)
    current: dict[tuple[int, ...], tuple[float, int]] = {(0,) * size: (0.0, 0)}
    for _ in range(multiplicity):
        grown: dict[tuple[int, ...], tuple[float, int]] = {}
        for counts, (total_time, total_ws) in current.items():
            for j, config in enumerate(front):
                key = counts[:j] + (counts[j] + 1,) + counts[j + 1:]
                cand = (total_time + config.time, total_ws + config.workspace)
                old = grown.get(key)
                if old is None or cand < old:
                    grown[key] = cand
        ranked = sorted(grown.items(), key=lambda kv: (kv[1][1], kv[1][0], kv[0]))
        current = {}
        best_time = math.inf
        for counts, (total_time, total_ws) in ranked:
            if total_time < best_time:
                current[counts] = (total_time, total_ws)
                best_time = total_time
    return [
        (counts, total_time, total_ws)
        for counts, (total_time, total_ws) in sorted(
            current.items(), key=lambda kv: (kv[1][1], kv[1][0])
        )
    ]


def _aggregated_warm(
    items_per_class: list[list[tuple[tuple[int, ...], float, int]]],
    prev_choice: list[tuple[int, ...]] | None,
) -> list[int] | None:
    """Per-class picks of the previous limit's class multisets, or None.

    The previous counts are padded with zeros to the current (longer)
    prefix length; a multiset that got Pareto-dominated once the larger
    limit admitted new configurations simply yields no warm start.
    """
    if prev_choice is None:
        return None
    picks = []
    for items, counts in zip(items_per_class, prev_choice):
        padded = counts + (0,) * (len(items[0][0]) - len(counts))
        for var, (item_counts, _, _) in enumerate(items):
            if item_counts == padded:
                picks.append(var)
                break
        else:
            return None
    return picks


@dataclass
class WDSweep:
    """Per-limit WD results over a limit grid."""

    kernels: list[WDKernel] = field(repr=False, default_factory=list)
    limits: tuple[int, ...] = ()
    results: dict[int, WDResult] = field(default_factory=dict)
    errors: dict[int, Exception] = field(default_factory=dict)
    #: Total branch-and-bound nodes over all solves of the sweep -- the
    #: symmetry-reduced instances need orders of magnitude fewer than the
    #: per-copy per-limit baseline.
    ilp_nodes: int = 0
    #: ILP solves that received a warm start (all but the first feasible
    #: limit; ``ilp.warm_start_hits`` telemetry counts how many tightened
    #: the incumbent, ``ilp.fixed_vars`` the variables they eliminated).
    warm_started_solves: int = 0

    def result(self, limit: int) -> WDResult:
        if limit in self.errors:
            raise self.errors[limit]
        return self.results[limit]


def sweep_wd(
    kernels: list[WDKernel],
    limits: Iterable[int],
    solver: str = "mckp",
) -> WDSweep:
    """WD-solve prepared kernels under every pooled limit in ``limits``.

    ``kernels`` must carry *full* fronts
    (:func:`~repro.core.optimizer.prepare_wd_kernels` without a limit).
    Fronts are truncated per limit by prefix; interchangeable kernels are
    aggregated into multiplicity-annotated classes (see the module
    docstring) so neither solver pays for permutation symmetry; limits are
    solved in ascending order so each ``solver="ilp"`` solve can be
    warm-started from the previous optimum, which stays feasible as the
    pool grows.  Assignments are identical to the per-limit
    :func:`~repro.core.optimizer.optimize_network_wd` (both emit the
    canonical symmetric form).  ``results[limit].num_variables`` counts
    the aggregated ILP's variables, which is at most the per-copy count.
    """
    limits = tuple(int(m) for m in limits)
    sweep = WDSweep(kernels=kernels, limits=limits)
    classes: dict[tuple, list[WDKernel]] = {}
    for kernel in kernels:
        classes.setdefault(symmetry_class_key(kernel), []).append(kernel)
    class_list = list(classes.values())
    fronts = [members[0].desirable for members in class_list]
    class_workspaces = [[c.workspace for c in front] for front in fronts]
    merged_memo: list[dict[int, list]] = [{} for _ in class_list]
    benchmark_time = sum(k.benchmark.benchmark_time for k in kernels)
    rec = observability.recorder()
    pid = -1
    if rec:
        # Opened before the limit loop so each aggregated ILP's solver.ilp
        # event nests under this sweep pass.
        pid = rec.begin_pass(
            "sweep.wd", solver=solver, kernels=len(kernels),
            classes=len(class_list), limits=len(limits),
        )
    with telemetry.span(
        "sweep.wd", solver=solver, kernels=len(kernels),
        classes=len(class_list), limits=len(limits),
    ) as tspan:
        prev_choice = None
        for limit in sorted(set(limits)):
            start = _CLOCK.now()
            cuts = [bisect.bisect_right(ws, limit) for ws in class_workspaces]
            if any(cut == 0 for cut in cuts):
                try:
                    for members, cut in zip(class_list, cuts):
                        if cut == 0:
                            truncate_front(members[0], limit)
                except OptimizationError as exc:
                    sweep.errors[limit] = exc
                    prev_choice = None
                    continue
            items_per_class = []
            for ci, (members, cut) in enumerate(zip(class_list, cuts)):
                items = merged_memo[ci].get(cut)
                if items is None:
                    items = _merged_front(fronts[ci][:cut], len(members))
                    merged_memo[ci][cut] = items
                items_per_class.append(items)
            try:
                with telemetry.span(
                    "sweep.wd.limit", limit=limit, solver=solver
                ) as lspan:
                    warm = (_aggregated_warm(items_per_class, prev_choice)
                            if solver == "ilp" else None)
                    warm_used = warm is not None
                    picks, solution = solve_groups(
                        [[(t, w) for _, t, w in items]
                         for items in items_per_class],
                        limit, solver, warm_picks=warm,
                    )
                    chosen = [items[pick][0] for items, pick
                              in zip(items_per_class, picks)]
                    num_variables = sum(len(items)
                                        for items in items_per_class)
                    lspan.set("variables", num_variables)
                    lspan.set("warm_start", warm_used)
            except (InfeasibleError, SolverError) as exc:
                sweep.errors[limit] = exc
                prev_choice = None
                continue
            if telemetry.enabled():
                telemetry.count("sweep.wd.solves",
                                help="per-limit WD solves performed by sweeps")
            if rec:
                rec.record(
                    "sweep.warm_start", limit=limit, warm_start=warm_used,
                    variables=num_variables,
                )
            assignments: dict[str, Configuration] = {}
            for members, front, counts in zip(class_list, fronts, chosen):
                configs: list[Configuration] = []
                for j, count in enumerate(counts):
                    configs.extend([front[j]] * count)
                # Ascending-workspace order over members in input order is
                # exactly the canonical form canonicalize_symmetric emits.
                for kernel, config in zip(members, configs):
                    assignments[kernel.key] = config
            result = WDResult(
                assignments=assignments,
                total_workspace_limit=limit,
                kernels=[truncate_front(k, limit) for k in kernels],
                num_variables=num_variables,
                solver=solver,
                solve_time=_CLOCK.now() - start,
                ilp=solution,
                benchmark_time=benchmark_time,
            )
            if len(result.assignments) != len(kernels):
                raise SolverError("WD sweep failed to assign every kernel")
            if result.total_workspace > limit:
                sweep.errors[limit] = InfeasibleError(
                    f"WD solution uses {result.total_workspace} bytes > "
                    f"limit {limit}"
                )
                prev_choice = None
                continue
            sweep.results[limit] = result
            if rec:
                for key in sorted(assignments):
                    rec.record(
                        "chosen", kernel=key, limit=limit,
                        **observability.configuration_detail(assignments[key]),
                    )
            if solution is not None:
                sweep.ilp_nodes += solution.nodes_explored
                if warm_used:
                    sweep.warm_started_solves += 1
            prev_choice = chosen
        tspan.set("ilp_nodes", sweep.ilp_nodes)
        tspan.set("solved", len(sweep.results))
    if rec:
        rec.end_pass(
            pid, solver=solver, solved=len(sweep.results),
            errors=len(sweep.errors), ilp_nodes=sweep.ilp_nodes,
            warm_started_solves=sweep.warm_started_solves,
        )
    return sweep


def sweep_network_wd(
    handle: CudnnHandle,
    geometries: dict[str, ConvGeometry],
    limits: Iterable[int],
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
    solver: str = "mckp",
    cache: BenchmarkCache | None = None,
) -> tuple[WDSweep, dict[int, NetworkPlan]]:
    """Per-limit :func:`~repro.core.optimizer.optimize_network_wd`, swept.

    Returns the raw :class:`WDSweep` plus assembled per-limit network plans
    (same :class:`~repro.core.optimizer.NetworkPlan` shape the harness
    consumes for the non-swept path).
    """
    kernels = prepare_wd_kernels(handle, geometries, policy, cache=cache)
    sweep = sweep_wd(kernels, limits, solver=solver)
    plans = {
        limit: wd_network_plan(policy, kernels, result)
        for limit, result in sweep.results.items()
    }
    return sweep, plans
