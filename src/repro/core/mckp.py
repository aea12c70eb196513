"""Exact Multiple-Choice Knapsack solver by Pareto-front merging.

WD's ILP (Equations 1-4) is a Multiple-Choice Knapsack Problem: one item
(configuration) must be chosen per group (kernel), weights (workspaces) add,
and total weight is capped.  This module solves it exactly by merging group
fronts:

    front(G1 x G2) = pareto( { (t1+t2, w1+w2) } )

applied left-to-right over all groups; the optimum under any cap ``W`` is
the cheapest merged point with weight <= W.  Pruning dominated partial
combinations is safe for the same monotone-composition reason as in
:mod:`repro.core.pareto` (both aggregates are sums here): the paper's
section III-C1 dominance argument, lifted from one kernel's configurations
to partial sums across kernels.  This is WD's production solver; the
branch-and-bound ILP (:mod:`repro.core.ilp`, the GLPK stand-in) stays as
the independent exact solver behind ``solver="ilp"``.  Worst-case front
size is the product of group sizes, but after per-group Pareto pruning real
networks stay small (hundreds of points for ResNet-50).

Each merge is one numpy pass: candidates are generated front-major,
group-minor, ordered by the stable ``np.lexsort((cost, weight))``, and the
strict prefix-minimum scan (``np.minimum.accumulate``) keeps the front.
Selections are recovered by walking per-stage parent and item indices
backwards.  The float64 additions are the same, in the same order, as the
plain Python loop the tests keep as this pass's oracle.

**Tie rule.**  The answer is the selection of least total cost (time);
among equal costs, the one of least total weight (workspace).  Selections
that tie exactly on both are ordered backwards through the groups: least
weight over the groups before the last, then the earliest item (list
position) of the last group, then least weight over the groups before the
second-to-last, then the earliest item of that group, and so on to the
first group's earliest item.  This follows from the merge: at each stage
candidates of equal (cost, weight) keep their generation order, which is
parent front point (ascending weight) first and item position second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.observability as observability
import repro.telemetry as telemetry
from repro.errors import SolverError
from repro.telemetry.clock import Clock, WallClock

#: Injected time source for ``solve_time`` diagnostics (never in results);
#: swap for a ManualClock to make solver reports byte-reproducible.
_CLOCK: Clock = WallClock()


@dataclass(frozen=True)
class MCKPItem:
    """One choice: (cost=time, weight=workspace, payload index)."""

    cost: float
    weight: int
    index: int


@dataclass
class MCKPSolution:
    """Chosen item index per group, plus totals."""

    selection: list[int]
    cost: float
    weight: int
    solve_time: float
    front_peak: int  # largest intermediate front (complexity diagnostics)


def solve_mckp(
    groups: list[list[MCKPItem]],
    capacity: int,
    max_front: int = 2_000_000,
) -> MCKPSolution:
    """Pick one item per group minimizing cost with total weight <= capacity.

    Ties follow the module's tie rule.  Raises
    :class:`~repro.errors.SolverError` for no groups, an empty group, a
    capacity no combination fits, or a merged front above ``max_front``
    points.
    """
    with telemetry.span(
        "mckp.solve", groups=len(groups), capacity=capacity
    ) as tspan:
        solution = _merge(groups, capacity, max_front)
        tspan.set("front_peak", solution.front_peak)
        tspan.set("cost", solution.cost)
    rec = observability.recorder()
    if rec:
        rec.record(
            "solver.mckp",
            groups=len(groups),
            items=sum(len(g) for g in groups),
            capacity=capacity,
            front_peak=solution.front_peak,
            cost=solution.cost,
            weight=solution.weight,
        )
    return solution


def _merge(
    groups: list[list[MCKPItem]],
    capacity: int,
    max_front: int,
) -> MCKPSolution:
    start = _CLOCK.now()
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
        # Front-major, group-minor C-order ravel: the generation order the
        # stable sort keeps among exact ties (the tie rule).
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

    best = int(np.argmin(front_cost))  # first minimum: least weight
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
        solve_time=_CLOCK.now() - start,
        front_peak=peak,
    )
