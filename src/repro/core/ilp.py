"""A from-scratch 0-1 Integer Linear Program solver.

The paper solves WD with GLPK; offline we provide our own exact solver:
branch-and-bound with best-first node selection, branching on the one
fractional item of each node's LP optimum, and a greedy swap pass to seed
the incumbent.

Problems are stated in the general form::

    minimize    c . x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                x in {0, 1}^n

but the branch-and-bound solves only the WD formulation (Equation 1-4), a
multiple-choice knapsack (MCKP): one "pick exactly one configuration"
equality row per kernel and a single inequality row (the shared workspace
pool) with non-negative weights.  Any other shape raises
:class:`~repro.errors.SolverError`.

Node bounds come from the MCKP LP relaxation, computed combinatorially via
the classic convex-hull / greedy-upgrade relaxation (Sinha & Zoltners): per
group, only the lower-left convex hull of (weight, cost) points can appear
in an LP optimum; starting from each group's min-weight hull point, hull
arcs are taken in decreasing cost-per-byte efficiency until the capacity is
spent, the last arc possibly fractionally.  This bound costs microseconds
instead of a simplex solve, which is what lets the pure-Python
branch-and-bound prove optimality on ResNet-50-sized WD instances in
milliseconds -- the performance class the paper observes with GLPK (5.46 ms
for 562 binaries) -- with numpy as the only dependency.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

import repro.observability as observability
import repro.telemetry as telemetry
from repro.errors import SolverError
from repro.telemetry.clock import Clock, WallClock

#: Injected time source for ``solve_time`` diagnostics (never in results);
#: swap for a ManualClock to make solver reports byte-reproducible.
_CLOCK: Clock = WallClock()

#: Integrality tolerance: LP values this close to 0/1 count as integral.
_INT_TOL = 1e-6
#: Constraint-feasibility tolerance for candidate integral solutions.
_FEAS_TOL = 1e-6


@dataclass(frozen=True)
class ZeroOneProblem:
    """A 0-1 ILP instance (all arrays are dense numpy)."""

    costs: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        n = self.num_variables
        if n == 0:
            raise SolverError("problem has no variables")
        for name in ("a_ub", "a_eq"):
            mat = getattr(self, name)
            if mat is not None and mat.shape[1] != n:
                raise SolverError(f"{name} has {mat.shape[1]} columns, expected {n}")
        if (self.a_ub is None) != (self.b_ub is None):
            raise SolverError("a_ub and b_ub must be provided together")
        if (self.a_eq is None) != (self.b_eq is None):
            raise SolverError("a_eq and b_eq must be provided together")

    @property
    def num_variables(self) -> int:
        return int(np.asarray(self.costs).shape[0])

    def is_feasible(self, x: np.ndarray) -> bool:
        if self.a_ub is not None and np.any(self.a_ub @ x > self.b_ub + _FEAS_TOL):
            return False
        if self.a_eq is not None and np.any(
            np.abs(self.a_eq @ x - self.b_eq) > _FEAS_TOL
        ):
            return False
        return True

    def objective(self, x: np.ndarray) -> float:
        return float(self.costs @ x)


@dataclass
class ILPSolution:
    """Result of an ILP solve."""

    x: np.ndarray
    objective: float
    optimal: bool
    nodes_explored: int = 0
    lp_calls: int = 0
    solve_time: float = 0.0
    num_variables: int = 0
    #: Variables eliminated by root reduced-cost fixing against a warm
    #: incumbent (:func:`_reduced_cost_fix`); 0 on cold solves.
    fixed_variables: int = 0

    def selected(self) -> list[int]:
        """Indices of variables set to 1."""
        return [int(i) for i in np.flatnonzero(self.x > 0.5)]


@dataclass(frozen=True)
class _MckpShape:
    """Recognized multiple-choice-knapsack structure of a 0-1 ILP."""

    groups: list[np.ndarray]  # variable indices per pick-exactly-one group
    weights: np.ndarray
    capacity: float


def _detect_mckp(problem: ZeroOneProblem) -> _MckpShape | None:
    """Return the MCKP structure if the instance has the WD shape."""
    if problem.a_eq is None or problem.a_ub is None or problem.a_ub.shape[0] != 1:
        return None
    a_eq = problem.a_eq
    if not np.all((a_eq == 0) | (a_eq == 1)) or not np.all(problem.b_eq == 1):
        return None
    if not np.all(a_eq.sum(axis=0) == 1):  # every var in exactly one group
        return None
    if np.any(problem.a_ub[0] < 0):
        return None  # hull relaxation assumes non-negative weights
    return _MckpShape(
        groups=[np.flatnonzero(a_eq[row]) for row in range(a_eq.shape[0])],
        weights=problem.a_ub[0],
        capacity=float(problem.b_ub[0]),
    )


def _group_hull(costs, weights, variables) -> list[int]:
    """Lower-left convex hull of a group's (weight, cost) points.

    Only hull vertices can carry weight in an LP optimum of the MCKP
    relaxation; returned ordered by increasing weight / decreasing cost.
    """
    order = sorted(variables, key=lambda v: (weights[v], costs[v]))
    # Staircase: strictly decreasing cost as weight increases.
    stairs: list[int] = []
    for v in order:
        if not stairs or costs[v] < costs[stairs[-1]] - 1e-15:
            stairs.append(v)
    # Convexify: efficiencies (cost drop per unit weight) must decrease.
    hull: list[int] = []
    for v in stairs:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            eff_ab = (costs[a] - costs[b]) / max(weights[b] - weights[a], 1e-30)
            eff_bv = (costs[b] - costs[v]) / max(weights[v] - weights[b], 1e-30)
            if eff_bv >= eff_ab - 1e-15:
                hull.pop()
            else:
                break
        hull.append(v)
    return hull


class _MckpRelaxation:
    """Incremental MCKP LP bounds for branch-and-bound nodes.

    Root hulls, per-group base points, and the globally sorted arc list are
    computed once; a node is described by its path of variable fixings, so
    only the touched ("dirty") groups are re-hulled, and the greedy upgrade
    scan merges the static clean-arc stream with the few dirty arcs.  The
    scan stops as soon as the capacity is spent, so tight instances -- the
    expensive case for a simplex LP -- are the *cheap* case here.
    """

    def __init__(self, problem: ZeroOneProblem, shape: _MckpShape):
        self.problem = problem
        self.shape = shape
        costs, weights = problem.costs, shape.weights
        self.var_group = np.empty(problem.num_variables, dtype=np.int64)
        for gi, group in enumerate(shape.groups):
            self.var_group[group] = gi
        self.root_hulls = [
            _group_hull(costs, weights, [int(v) for v in group])
            for group in shape.groups
        ]
        self.base_c = np.array([costs[h[0]] for h in self.root_hulls])
        self.base_w = np.array([weights[h[0]] for h in self.root_hulls])
        self.total_base_cost = float(self.base_c.sum())
        self.total_base_weight = float(self.base_w.sum())
        self.root_arcs = self._arcs_of(
            range(len(shape.groups)), self.root_hulls
        )

    def _arcs_of(self, group_ids, hulls):
        costs, weights = self.problem.costs, self.shape.weights
        arcs = []
        for gi in group_ids:
            hull = hulls[gi] if isinstance(hulls, list) else hulls[gi]
            for pos in range(1, len(hull)):
                a, b = hull[pos - 1], hull[pos]
                dw = weights[b] - weights[a]
                dc = costs[a] - costs[b]
                arcs.append((dc / max(dw, 1e-30), gi, pos, dw, dc))
        arcs.sort(key=lambda t: -t[0])
        return arcs

    def bound(self, fixed: tuple):
        """LP bound for the node whose decisions are ``fixed``.

        ``fixed`` is a tuple of (var, value) pairs.  Returns
        ``(bound, choice_or_None, branch_var_or_None)`` as
        the solver's ``evaluate`` contract requires.
        """
        problem, shape = self.problem, self.shape
        costs, weights = problem.costs, shape.weights
        excluded: dict[int, set] = {}
        forced: dict[int, int] = {}
        for var, value in fixed:
            gi = int(self.var_group[var])
            if value == 0.0:
                excluded.setdefault(gi, set()).add(var)
            else:
                if gi in forced and forced[gi] != var:
                    return math.inf, None, None
                forced[gi] = var
        dirty = set(excluded) | set(forced)

        dirty_hulls: dict[int, list[int]] = {}
        base_cost = self.total_base_cost
        base_weight = self.total_base_weight
        for gi in dirty:
            if gi in forced:
                var = forced[gi]
                if var in excluded.get(gi, ()):
                    return math.inf, None, None
                hull = [var]
            else:
                admissible = [
                    int(v) for v in shape.groups[gi]
                    if int(v) not in excluded.get(gi, ())
                ]
                if not admissible:
                    return math.inf, None, None
                hull = _group_hull(costs, weights, admissible)
            dirty_hulls[gi] = hull
            base_cost += costs[hull[0]] - self.base_c[gi]
            base_weight += weights[hull[0]] - self.base_w[gi]

        remaining = shape.capacity - base_weight
        if remaining < -_FEAS_TOL:
            return math.inf, None, None

        dirty_arcs = self._arcs_of(sorted(dirty_hulls), dirty_hulls) \
            if dirty_hulls else []

        # Merge the static clean-arc stream with the dirty arcs, both sorted
        # by decreasing efficiency; stop once the capacity is spent.
        position: dict[int, int] = {}
        bound = base_cost
        branch_var = None
        ri, di = 0, 0
        root_arcs = self.root_arcs
        while True:
            # Advance past clean arcs belonging to dirty groups.
            while ri < len(root_arcs) and root_arcs[ri][1] in dirty:
                ri += 1
            if ri < len(root_arcs) and (
                di >= len(dirty_arcs) or root_arcs[ri][0] >= dirty_arcs[di][0]
            ):
                arc = root_arcs[ri]
                ri += 1
            elif di < len(dirty_arcs):
                arc = dirty_arcs[di]
                di += 1
            else:
                break
            eff, gi, pos, dw, dc = arc
            if dw <= remaining + 1e-12:
                remaining -= dw
                bound -= dc
                position[gi] = pos
            else:
                frac = max(0.0, remaining / dw)
                bound -= frac * dc
                if frac > _INT_TOL:
                    hull = dirty_hulls.get(gi, self.root_hulls[gi])
                    branch_var = hull[pos]
                break
        if branch_var is not None:
            return bound, None, branch_var
        choice = []
        for gi in range(len(shape.groups)):
            hull = dirty_hulls.get(gi, self.root_hulls[gi])
            choice.append(hull[position.get(gi, 0)])
        return bound, choice, None


def _greedy_incumbent(problem: ZeroOneProblem,
                      shape: _MckpShape) -> np.ndarray | None:
    """Heuristic feasible point for a WD-shaped instance.

    Start from the min-weight item per group (most likely to be feasible),
    then greedily apply the single swap with the best cost reduction that
    stays feasible, until no swap helps.  Returns ``None`` when no feasible
    start is found -- the branch-and-bound works regardless, just with less
    pruning.
    """
    weights = shape.weights
    capacity = shape.capacity
    groups = shape.groups

    choice = [int(g[np.argmin(weights[g])]) for g in groups]
    if sum(weights[c] for c in choice) > capacity + _FEAS_TOL:
        return None
    improved = True
    while improved:
        improved = False
        used = sum(weights[c] for c in choice)
        best_gain, best_swap = 1e-12, None
        for gi, group in enumerate(groups):
            cur = choice[gi]
            for var in group:
                if var == cur:
                    continue
                if used - weights[cur] + weights[var] > capacity + _FEAS_TOL:
                    continue
                gain = problem.costs[cur] - problem.costs[var]
                if gain > best_gain:
                    best_gain, best_swap = gain, (gi, int(var))
        if best_swap is not None:
            choice[best_swap[0]] = best_swap[1]
            improved = True
    x = np.zeros(problem.num_variables)
    x[choice] = 1.0
    return x if problem.is_feasible(x) else None


class _Incumbent:
    """Best integral feasible solution found so far."""

    def __init__(self, problem: ZeroOneProblem):
        self.problem = problem
        self.x: np.ndarray | None = None
        self.objective = math.inf

    def consider(self, x: np.ndarray) -> None:
        xr = np.round(x)
        if self.problem.is_feasible(xr):
            obj = self.problem.objective(xr)
            if obj < self.objective - 1e-12:
                self.objective = obj
                self.x = xr

    def consider_choice(self, choice: list[int]) -> None:
        x = np.zeros(self.problem.num_variables)
        x[choice] = 1.0
        self.consider(x)


def _seed_warm_start(incumbent: _Incumbent, warm_start: np.ndarray | None) -> None:
    """Feed a caller-provided feasible point into the incumbent.

    Counted separately from the greedy seed: a warm start that survives as
    the initial cutoff is what lets limit sweeps prune most of the tree.
    """
    if warm_start is None:
        return
    telemetry.count("ilp.warm_starts", help="warm-start vectors offered")
    before = incumbent.objective
    incumbent.consider(np.asarray(warm_start, dtype=float))
    if incumbent.objective < before - 1e-12:
        telemetry.count("ilp.warm_start_hits",
                        help="warm starts that tightened the initial incumbent")


def _reduced_cost_fix(problem: ZeroOneProblem, shape: _MckpShape,
                      relax: _MckpRelaxation, cutoff: float):
    """Root-level reduced-cost variable fixing under a known cutoff.

    For every item, the forced-in relaxation bound ``bound((item, 1))`` is a
    lower bound on any solution containing that item; when it cannot strictly
    beat ``cutoff`` the item is removed from its group.  Only solutions with
    objective ``>= cutoff - tol`` are discarded, so with ``cutoff`` set to a
    feasible incumbent's objective the optimum below the cutoff is preserved
    exactly.  Removing items shrinks the group hulls, which *raises* every
    node bound and collapses most of the optimality-proof tree -- this is how
    a warm start actually saves branch-and-bound nodes (an incumbent alone
    cannot prune nodes whose bounds sit strictly below the optimum).

    Iterates to a fixpoint (tighter hulls can expose further removals).
    Returns ``(shape, relax, removed, bound_calls, emptied)``; ``emptied``
    means some group lost every item, i.e. nothing can strictly beat the
    cutoff and the incumbent is already optimal.
    """
    removed = 0
    bound_calls = 0
    while True:
        removed_this_pass = 0
        kept_groups: list[np.ndarray] = []
        for group in shape.groups:
            kept = []
            for v in group:
                bound, _, _ = relax.bound(((int(v), 1.0),))
                bound_calls += 1
                if bound < cutoff - 1e-12:
                    kept.append(int(v))
                else:
                    removed_this_pass += 1
            if not kept:
                return shape, relax, removed + removed_this_pass, \
                    bound_calls, True
            kept_groups.append(np.asarray(kept, dtype=np.int64))
        removed += removed_this_pass
        if removed_this_pass == 0:
            return shape, relax, removed, bound_calls, False
        shape = _MckpShape(groups=kept_groups, weights=shape.weights,
                           capacity=shape.capacity)
        relax = _MckpRelaxation(problem, shape)


def _solve_bnb_mckp(problem: ZeroOneProblem, shape: _MckpShape,
                    max_nodes: int, start: float,
                    warm_start: np.ndarray | None = None) -> ILPSolution:
    """Branch-and-bound with the incremental combinatorial MCKP bound."""
    relax = _MckpRelaxation(problem, shape)
    incumbent = _Incumbent(problem)
    greedy = _greedy_incumbent(problem, shape)
    if greedy is not None:
        incumbent.consider(greedy)
    _seed_warm_start(incumbent, warm_start)

    lp_calls = 1
    fixed_vars = 0
    if warm_start is not None and incumbent.x is not None:
        # Warm-started solves (limit sweeps) pay a linear number of root
        # bound evaluations to fix variables against the incumbent cutoff;
        # cold solves keep the seed behaviour bit-for-bit.
        shape, relax, fixed_vars, bound_calls, emptied = _reduced_cost_fix(
            problem, shape, relax, incumbent.objective
        )
        lp_calls += bound_calls
        if fixed_vars:
            telemetry.count("ilp.fixed_vars", fixed_vars,
                            help="variables fixed to 0 by reduced-cost "
                                 "bounds against the warm incumbent")
        if emptied:
            # No assignment can strictly beat the incumbent: it is optimal.
            return ILPSolution(
                x=incumbent.x,
                objective=incumbent.objective,
                optimal=True,
                nodes_explored=0,
                lp_calls=lp_calls,
                solve_time=_CLOCK.now() - start,
                num_variables=problem.num_variables,
                fixed_variables=fixed_vars,
            )
    nodes = 0
    bound, choice, branch_var = relax.bound(())
    if math.isinf(bound):
        raise SolverError("ILP is infeasible (LP relaxation has no solution)")
    seq = itertools.count()
    heap: list[tuple] = []  # (bound, seq, fixed decisions, branch var)
    if choice is not None:
        incumbent.consider_choice(choice)
    else:
        heap.append((bound, next(seq), (), branch_var))

    while heap:
        bound, _, fixed, branch_var = heapq.heappop(heap)
        if bound >= incumbent.objective - 1e-12:
            continue
        nodes += 1
        if nodes > max_nodes:
            raise SolverError(f"branch-and-bound exceeded {max_nodes} nodes")
        for value in (1.0, 0.0):
            child_fixed = fixed + ((branch_var, value),)
            child_bound, child_choice, child_branch = relax.bound(child_fixed)
            lp_calls += 1
            if math.isinf(child_bound):
                continue
            if child_choice is not None:
                incumbent.consider_choice(child_choice)
            elif child_bound < incumbent.objective - 1e-12:
                heapq.heappush(
                    heap, (child_bound, next(seq), child_fixed, child_branch)
                )

    if incumbent.x is None:
        raise SolverError("ILP has no integral feasible solution")
    return ILPSolution(
        x=incumbent.x,
        objective=incumbent.objective,
        optimal=True,
        nodes_explored=nodes,
        lp_calls=lp_calls,
        solve_time=_CLOCK.now() - start,
        num_variables=problem.num_variables,
        fixed_variables=fixed_vars,
    )


def solve_branch_and_bound(
    problem: ZeroOneProblem,
    max_nodes: int = 200_000,
    warm_start: np.ndarray | None = None,
) -> ILPSolution:
    """Exact best-first branch-and-bound over the MCKP relaxation.

    ``problem`` must have the WD shape (see the module docstring); any other
    shape raises :class:`SolverError` naming the shape required.

    ``warm_start`` is an optional 0-1 vector seeding the incumbent (after
    the greedy seed, replacing it only on strict improvement -- preserving
    the cold solve's deterministic tie-breaking).  Beyond the usual cutoff
    pruning, a warm incumbent enables root reduced-cost variable fixing on
    MCKP-shaped instances (see :func:`_reduced_cost_fix`), which is how
    limit sweeps (:mod:`repro.core.sweep`) shrink the tree itself.
    """
    start = _CLOCK.now()
    shape = _detect_mckp(problem)
    if shape is None:
        raise SolverError(
            "branch-and-bound needs the WD (multiple-choice knapsack) shape: "
            "0/1 equality rows with right-hand side 1 covering every variable "
            "exactly once, and one inequality row with non-negative weights"
        )
    with telemetry.span(
        "ilp.solve",
        variables=problem.num_variables,
        relaxation="mckp",
        warm_start=warm_start is not None,
    ) as tspan:
        solution = _solve_bnb_mckp(problem, shape, max_nodes, start,
                                   warm_start=warm_start)
        tspan.set("objective", solution.objective)
        tspan.set("nodes", solution.nodes_explored)
        telemetry.count("ilp.nodes_explored", solution.nodes_explored,
                        help="branch-and-bound nodes expanded")
        telemetry.count("ilp.lp_calls", solution.lp_calls,
                        help="LP relaxation bounds computed")
    rec = observability.recorder()
    if rec:
        if solution.fixed_variables:
            rec.record(
                "candidate.fixed.reduced_cost",
                variables=solution.fixed_variables,
                cutoff=solution.objective,
            )
        rec.record(
            "solver.ilp",
            variables=problem.num_variables,
            relaxation="mckp",
            warm_start=warm_start is not None,
            objective=solution.objective,
            nodes_explored=solution.nodes_explored,
            lp_calls=solution.lp_calls,
            fixed_variables=solution.fixed_variables,
            optimal=solution.optimal,
        )
    return solution

