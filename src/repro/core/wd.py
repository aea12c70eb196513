"""WD (Workspace Division) optimization -- the paper's section III-C.

One workspace pool of ``M_total`` bytes serves the whole network; WD decides
how to divide it among kernels by choosing one configuration per kernel:

    minimize   sum_i  time(i, c_i)
    subject to sum_i  workspace(i, c_i) <= M_total

i.e. the 0-1 ILP of Equations 1-4, with one binary per (kernel,
configuration) pair, one pick-exactly-one equality row per kernel, and the
single pooled-workspace inequality row.  Candidate configurations per kernel
are pruned to the kernel's *desirable set* (Pareto front) first -- the
section III-C1 theorem guarantees this drops no optimal solution, and it is
what makes the ILP practical (hundreds of binaries rather than exponential).

The production solver is the Pareto-merge MCKP (:mod:`repro.core.mckp`):
exact for the same dominance reason the pruning is.  The branch-and-bound
ILP (:mod:`repro.core.ilp`, the GLPK stand-in) is the independent exact
solver behind an explicit ``solver="ilp"``; the section IV-D ILP statistics
and the sweep benchmarks use it, and tests assert the two agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

import repro.observability as observability
import repro.telemetry as telemetry
from repro.core.benchmarker import KernelBenchmark
from repro.core.config import Configuration
from repro.core.ilp import ILPSolution, ZeroOneProblem, solve_branch_and_bound
from repro.core.mckp import MCKPItem, solve_mckp
from repro.cudnn.descriptors import ConvGeometry
from repro.errors import InfeasibleError, SolverError
from repro.telemetry.clock import Clock, WallClock
from repro.units import MIB

#: Injected time source for ``solve_time`` diagnostics (never in results);
#: swap for a ManualClock to make solver reports byte-reproducible.
_CLOCK: Clock = WallClock()


@dataclass
class WDKernel:
    """One kernel entering the WD optimization."""

    key: str
    geometry: ConvGeometry
    benchmark: KernelBenchmark
    desirable: list[Configuration]


@dataclass
class WDResult:
    """Outcome of a WD optimization over a set of kernels."""

    assignments: dict[str, Configuration]
    total_workspace_limit: int
    kernels: list[WDKernel] = field(repr=False, default_factory=list)
    #: Number of 0-1 variables after Pareto pruning (paper: 562 for
    #: ResNet-50 at 5088 MiB).
    num_variables: int = 0
    solver: str = "mckp"
    solve_time: float = 0.0
    ilp: ILPSolution | None = None
    benchmark_time: float = 0.0

    @property
    def total_time(self) -> float:
        return sum(c.time for c in self.assignments.values())

    @property
    def total_workspace(self) -> int:
        return sum(c.workspace for c in self.assignments.values())


def solve_groups(
    groups: list[list[tuple[float, int]]],
    capacity: int,
    solver: str = "mckp",
    warm_picks: list[int] | None = None,
) -> tuple[list[int], ILPSolution | None]:
    """Pick one ``(time, workspace)`` item per group (Equations 1-4).

    Least total time with the picked workspaces summing to at most
    ``capacity`` bytes.  Returns each group's picked item index, plus the
    branch-and-bound solution for ``solver="ilp"`` (``warm_picks`` seeds
    its incumbent) or ``None`` for the MCKP merge.  An infeasible instance
    raises :class:`~repro.errors.InfeasibleError`.
    """
    if solver == "mckp":
        try:
            sol = solve_mckp([
                [MCKPItem(cost=t, weight=w, index=i)
                 for i, (t, w) in enumerate(items)]
                for items in groups
            ], capacity)
        except SolverError as exc:
            raise InfeasibleError(str(exc)) from exc
        return list(sol.selection), None
    if solver != "ilp":
        raise SolverError(f"unknown WD solver {solver!r}; use 'ilp' or 'mckp'")
    owner = [gi for gi, items in enumerate(groups) for _ in items]
    offsets = [0, *itertools.accumulate(len(items) for items in groups[:-1])]
    a_eq = np.zeros((len(groups), len(owner)))
    a_eq[owner, np.arange(len(owner))] = 1.0
    problem = ZeroOneProblem(
        costs=np.asarray([t for items in groups for t, _ in items]),
        # Bytes scaled to MiB for LP conditioning; callers re-check the
        # picked workspace in exact bytes.
        a_ub=np.asarray([[w / MIB for items in groups for _, w in items]]),
        b_ub=np.asarray([capacity / MIB]),
        a_eq=a_eq,
        b_eq=np.ones(len(groups)),
    )
    warm = None
    if warm_picks is not None:
        warm = np.zeros(len(owner))
        warm[[o + pick for o, pick in zip(offsets, warm_picks)]] = 1.0
    solution = solve_branch_and_bound(problem, warm_start=warm)
    picks = {owner[v]: v - offsets[owner[v]] for v in solution.selected()}
    if len(picks) != len(groups):
        raise SolverError("WD solver failed to assign every kernel")
    return [picks[gi] for gi in range(len(groups))], solution


def symmetry_class_key(kernel: WDKernel) -> tuple:
    """Identity under which two WD kernels are interchangeable.

    Kernels with the same geometry (ResNet's replicated blocks) have the
    same benchmark table; together with an identical desirable set their
    configurations can be permuted in any solution without changing cost or
    workspace.
    """
    return (kernel.geometry.cache_key(), tuple(kernel.desirable))


def canonicalize_symmetric(
    kernels: list[WDKernel], assignments: dict[str, Configuration]
) -> dict[str, Configuration]:
    """Permute assignments within symmetry classes into canonical order.

    Interchangeable kernels make the WD optimum a multiset choice: *which*
    copy gets *which* configuration is arbitrary, and branch-and-bound
    search order would otherwise leak into the output.  Within each class
    the chosen configurations are redistributed to the member kernels (in
    input order) sorted by ascending workspace -- total time and workspace
    are untouched, and both the per-limit solvers and the sweep solver
    (:mod:`repro.core.sweep`, which solves the symmetry-reduced aggregated
    ILP) produce the same canonical form.
    """
    classes: dict[tuple, list[str]] = {}
    for kernel in kernels:
        classes.setdefault(symmetry_class_key(kernel), []).append(kernel.key)
    for keys in classes.values():
        if len(keys) < 2:
            continue
        chosen = sorted(
            (assignments[k] for k in keys),
            key=lambda c: (c.workspace, c.time),
        )
        for key, config in zip(keys, chosen):
            assignments[key] = config
    return assignments


def solve_from_kernels(
    kernels: list[WDKernel],
    total_workspace: int,
    solver: str = "mckp",
) -> WDResult:
    """Run the WD assignment over prepared kernels (benchmarks + fronts).

    ``solver`` is ``"mckp"`` (production) or ``"ilp"`` (branch-and-bound);
    both are exact and return the same canonical assignment.
    """
    rec = observability.recorder()
    pid = -1
    if rec:
        # Opened before the solve so the nested solver.ilp / solver.mckp
        # provenance events attach to this WD pass.
        pid = rec.begin_pass(
            "wd", kernels=len(kernels), solver=solver,
            total_workspace=total_workspace,
        )
    with telemetry.span(
        "optimize.wd", solver=solver, kernels=len(kernels),
        total_workspace=total_workspace,
    ) as tspan:
        result = _solve_from_kernels(kernels, total_workspace, solver)
        tspan.set("variables", result.num_variables)
        tspan.set("time", result.total_time)
        tspan.set("workspace", result.total_workspace)
        # Equations 1-4: one pick-exactly-one row per kernel plus the single
        # pooled-workspace inequality row.
        telemetry.gauge("wd.ilp.variables", result.num_variables,
                        help="0-1 variables after Pareto pruning")
        telemetry.gauge("wd.ilp.rows", len(kernels) + 1,
                        help="WD constraint rows (kernels + workspace pool)")
        telemetry.count("wd.solves", help="WD optimizations performed")
    if rec:
        for kernel in kernels:
            config = result.assignments[kernel.key]
            rec.record(
                "chosen", kernel=kernel.key,
                front_index=kernel.desirable.index(config),
                front_size=len(kernel.desirable),
                total_workspace=total_workspace,
                **observability.configuration_detail(config),
            )
        rec.end_pass(
            pid, solver=solver, variables=result.num_variables,
            time=result.total_time, workspace=result.total_workspace,
        )
    return result


def _solve_from_kernels(
    kernels: list[WDKernel], total_workspace: int, solver: str
) -> WDResult:
    start = _CLOCK.now()
    for kernel in kernels:
        if not kernel.desirable:
            raise InfeasibleError(
                f"kernel {kernel.key} has no feasible configuration under "
                f"{total_workspace} bytes"
            )
    picks, ilp = solve_groups(
        [[(c.time, c.workspace) for c in k.desirable] for k in kernels],
        total_workspace, solver,
    )
    assignments = {
        kernel.key: kernel.desirable[pick]
        for kernel, pick in zip(kernels, picks)
    }
    canonicalize_symmetric(kernels, assignments)
    result = WDResult(
        assignments=assignments,
        total_workspace_limit=total_workspace,
        kernels=kernels,
        num_variables=sum(len(k.desirable) for k in kernels),
        solver=solver,
        solve_time=_CLOCK.now() - start,
        ilp=ilp,
        benchmark_time=sum(k.benchmark.benchmark_time for k in kernels),
    )
    if result.total_workspace > total_workspace:
        raise InfeasibleError(
            f"WD solution uses {result.total_workspace} bytes > "
            f"limit {total_workspace}"
        )
    return result
