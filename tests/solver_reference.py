"""Reference solvers kept as test oracles.

* :func:`solve_mckp_serial` is the plain Python Pareto-front merge that
  :func:`repro.core.mckp.solve_mckp` vectorizes.  It performs the same
  float64 additions in the same order, sorts candidates with Python's
  stable sort on ``(weight, cost)`` and keeps strict cost minima in a
  forward scan, so the production solver must equal it exactly: same
  selections, costs, weights, ``front_peak`` and error messages.
* :func:`solve_exhaustive` enumerates every 0-1 assignment of a
  :class:`~repro.core.ilp.ZeroOneProblem` (any shape, ``n <= 24``), the
  oracle of the branch-and-bound ILP solver.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.ilp import ILPSolution, ZeroOneProblem
from repro.core.mckp import MCKPItem, MCKPSolution
from repro.errors import SolverError


def _front(points: list[tuple[float, int, tuple[int, ...]]]):
    """Pareto front over (cost, weight) pairs, keeping selection payloads."""
    points.sort(key=lambda p: (p[1], p[0]))
    out = []
    best_cost = float("inf")
    for cost, weight, sel in points:
        if cost < best_cost:
            out.append((cost, weight, sel))
            best_cost = cost
    return out


def solve_mckp_serial(
    groups: list[list[MCKPItem]],
    capacity: int,
    max_front: int = 2_000_000,
) -> MCKPSolution:
    """One item per group, least cost under ``capacity``: the serial merge."""
    if not groups:
        raise SolverError("MCKP needs at least one group")
    for gi, group in enumerate(groups):
        if not group:
            raise SolverError(f"MCKP group {gi} is empty")

    merged: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, ())]
    peak = 1
    for group in groups:
        candidates = [
            (cost + item.cost, weight + item.weight, sel + (item.index,))
            for cost, weight, sel in merged
            for item in group
            if weight + item.weight <= capacity  # early capacity pruning
        ]
        if not candidates:
            raise SolverError(
                f"no item combination fits capacity {capacity} "
                f"(infeasible after {len(merged)}-point front)"
            )
        merged = _front(candidates)
        peak = max(peak, len(merged))
        if len(merged) > max_front:
            raise SolverError(
                f"MCKP front exploded to {len(merged)} points; "
                "use the branch-and-bound ILP solver instead"
            )

    best = min(merged, key=lambda p: p[0])
    return MCKPSolution(
        selection=list(best[2]),
        cost=best[0],
        weight=best[1],
        solve_time=0.0,
        front_peak=peak,
    )


def solve_exhaustive(problem: ZeroOneProblem) -> ILPSolution:
    """Enumerate all 2^n assignments (n <= 24)."""
    n = problem.num_variables
    if n > 24:
        raise SolverError(f"exhaustive solve refused for n={n} > 24")
    best_x = None
    best_obj = math.inf
    for bits in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        if problem.is_feasible(x):
            obj = problem.objective(x)
            if obj < best_obj:
                best_obj = obj
                best_x = x
    if best_x is None:
        raise SolverError("ILP has no integral feasible solution")
    return ILPSolution(
        x=best_x,
        objective=best_obj,
        optimal=True,
        solve_time=0.0,
        num_variables=n,
    )
