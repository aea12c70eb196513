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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

import repro.observability as observability
import repro.telemetry as telemetry
from repro.core.benchmarker import KernelBenchmark, benchmark_kernel
from repro.core.config import Configuration
from repro.core.ilp import ILPSolution, ZeroOneProblem, solve_branch_and_bound
from repro.core.mckp import MCKPItem, solve_mckp
from repro.core.pareto import desirable_set
from repro.core.policies import BatchSizePolicy
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.handle import CudnnHandle
from repro.errors import InfeasibleError, SolverError
from repro.telemetry.clock import Clock, WallClock
from repro.units import MIB

if TYPE_CHECKING:
    from repro.core.cache import BenchmarkCache

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


def _build_problem(kernels: list[WDKernel], total_workspace: int):
    """Flatten (kernel, configuration) pairs into ILP arrays."""
    costs: list[float] = []
    weights: list[float] = []
    owner: list[int] = []
    configs: list[Configuration] = []
    for ki, kernel in enumerate(kernels):
        if not kernel.desirable:
            raise InfeasibleError(
                f"kernel {kernel.key} has no feasible configuration under "
                f"{total_workspace} bytes"
            )
        for config in kernel.desirable:
            costs.append(config.time)
            # Scale bytes to MiB for LP conditioning; exactness is preserved
            # because feasibility is re-checked in exact byte arithmetic below.
            weights.append(config.workspace / MIB)
            owner.append(ki)
            configs.append(config)
    n = len(costs)
    a_eq = np.zeros((len(kernels), n))
    for var, ki in enumerate(owner):
        a_eq[ki, var] = 1.0
    problem = ZeroOneProblem(
        costs=np.asarray(costs),
        a_ub=np.asarray(weights)[None, :],
        b_ub=np.asarray([total_workspace / MIB]),
        a_eq=a_eq,
        b_eq=np.ones(len(kernels)),
    )
    return problem, owner, configs


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
    if solver == "ilp":
        problem, owner, configs = _build_problem(kernels, total_workspace)
        solution = solve_branch_and_bound(problem)
        assignments: dict[str, Configuration] = {}
        for var in solution.selected():
            assignments[kernels[owner[var]].key] = configs[var]
        ilp = solution
        num_vars = problem.num_variables
    elif solver == "mckp":
        groups = [
            [
                MCKPItem(cost=c.time, weight=c.workspace, index=ci)
                for ci, c in enumerate(kernel.desirable)
            ]
            for kernel in kernels
        ]
        try:
            sol = solve_mckp(groups, total_workspace)
        except SolverError as exc:
            raise InfeasibleError(str(exc)) from exc
        assignments = {
            kernel.key: kernel.desirable[choice]
            for kernel, choice in zip(kernels, sol.selection)
        }
        ilp = None
        num_vars = sum(len(k.desirable) for k in kernels)
    else:
        raise SolverError(f"unknown WD solver {solver!r}; use 'ilp' or 'mckp'")

    canonicalize_symmetric(kernels, assignments)
    result = WDResult(
        assignments=assignments,
        total_workspace_limit=total_workspace,
        kernels=kernels,
        num_variables=num_vars,
        solver=solver,
        solve_time=_CLOCK.now() - start,
        ilp=ilp,
        benchmark_time=sum(k.benchmark.benchmark_time for k in kernels),
    )
    if len(result.assignments) != len(kernels):
        raise SolverError("WD solver failed to assign every kernel")
    if result.total_workspace > total_workspace:
        raise InfeasibleError(
            f"WD solution uses {result.total_workspace} bytes > "
            f"limit {total_workspace}"
        )
    return result


def optimize(
    handle: CudnnHandle,
    geometries: dict[str, ConvGeometry],
    total_workspace: int,
    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO,
    solver: str = "mckp",
    cache: BenchmarkCache | None = None,
    max_front: int | None = None,
) -> WDResult:
    """Benchmark, prune and solve WD for a whole network.

    ``geometries`` maps a stable kernel key (e.g. ``"conv2:Forward"``) to its
    geometry at the full mini-batch size.
    """
    kernels: list[WDKernel] = []
    for key, geometry in geometries.items():
        bench = benchmark_kernel(handle, geometry, policy, cache=cache)
        front = desirable_set(bench, workspace_limit=total_workspace,
                              max_front=max_front, kernel=key)
        kernels.append(
            WDKernel(key=key, geometry=geometry, benchmark=bench, desirable=front)
        )
    return solve_from_kernels(kernels, total_workspace, solver=solver)
