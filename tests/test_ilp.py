"""Tests for the from-scratch 0-1 ILP solver (the GLPK stand-in)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ilp import (
    ZeroOneProblem,
    solve_branch_and_bound,
)
from repro.errors import SolverError
from tests.solver_reference import solve_exhaustive


def knapsack(costs, weights, capacity, groups=None):
    """Build a WD-shaped instance: minimize cost, sum(weights) <= capacity,
    optionally exactly-one-per-group equality rows."""
    costs = np.asarray(costs, dtype=float)
    weights = np.asarray(weights, dtype=float)[None, :]
    a_eq = b_eq = None
    if groups is not None:
        num_groups = max(groups) + 1
        a_eq = np.zeros((num_groups, len(costs)))
        for var, grp in enumerate(groups):
            a_eq[grp, var] = 1.0
        b_eq = np.ones(num_groups)
    return ZeroOneProblem(costs=costs, a_ub=weights,
                          b_ub=np.asarray([float(capacity)]),
                          a_eq=a_eq, b_eq=b_eq)


class TestProblemValidation:
    def test_empty_rejected(self):
        with pytest.raises(SolverError):
            ZeroOneProblem(costs=np.zeros(0))

    def test_mismatched_columns(self):
        with pytest.raises(SolverError):
            ZeroOneProblem(costs=np.zeros(3), a_ub=np.zeros((1, 2)),
                           b_ub=np.zeros(1))

    def test_ub_pair_required(self):
        with pytest.raises(SolverError):
            ZeroOneProblem(costs=np.zeros(2), a_ub=np.zeros((1, 2)))

    def test_feasibility_check(self):
        p = knapsack([1, 1], [3, 4], 5)
        assert p.is_feasible(np.array([1.0, 0.0]))
        assert not p.is_feasible(np.array([1.0, 1.0]))


class TestBranchAndBound:
    def test_simple_mckp(self):
        # Two groups; pick one per group; capacity forces the mix.
        p = knapsack(costs=[5, 1, 4, 1], weights=[0, 10, 0, 10], capacity=10,
                     groups=[0, 0, 1, 1])
        sol = solve_branch_and_bound(p)
        # Best unconstrained would be (1, 1) with weight 20 > 10; optimum
        # takes the cheap item in one group only: cost 5 + 1 or 1 + 4 -> 5.
        assert sol.objective == pytest.approx(5.0)
        assert sol.optimal
        assert len(sol.selected()) == 2

    def test_infeasible(self):
        p = knapsack(costs=[1, 1], weights=[10, 10], capacity=5,
                     groups=[0, 1])
        with pytest.raises(SolverError):
            solve_branch_and_bound(p)

    def test_stats_populated(self):
        p = knapsack([1, 2, 3], [1, 1, 1], 3, groups=[0, 1, 2])
        sol = solve_branch_and_bound(p)
        assert sol.lp_calls >= 1
        assert sol.solve_time >= 0.0
        assert sol.num_variables == 3

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_exhaustive_random_mckp(self, data):
        num_groups = data.draw(st.integers(1, 4))
        sizes = [data.draw(st.integers(1, 3)) for _ in range(num_groups)]
        groups, costs, weights = [], [], []
        for grp, size in enumerate(sizes):
            for _ in range(size):
                groups.append(grp)
                costs.append(data.draw(st.floats(0.1, 10.0)))
                weights.append(data.draw(st.integers(0, 20)))
        capacity = data.draw(st.integers(0, 40))
        p = knapsack(costs, weights, capacity, groups)
        try:
            exact = solve_exhaustive(p)
        except SolverError:
            with pytest.raises(SolverError):
                solve_branch_and_bound(p)
            return
        bnb = solve_branch_and_bound(p)
        assert bnb.objective == pytest.approx(exact.objective)
        assert p.is_feasible(bnb.x)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_pure_knapsack_without_groups(self, data):
        """Selection problems without equality rows (subset-min with a
        knapsack constraint and negative costs to make selection attractive)
        are not WD-shaped: branch-and-bound refuses them, and the exhaustive
        solver still solves them."""
        n = data.draw(st.integers(1, 8))
        costs = [data.draw(st.floats(-5.0, 5.0)) for _ in range(n)]
        weights = [data.draw(st.integers(0, 10)) for _ in range(n)]
        capacity = data.draw(st.integers(0, 30))
        p = knapsack(costs, weights, capacity)
        with pytest.raises(SolverError, match="multiple-choice knapsack"):
            solve_branch_and_bound(p)
        exact = solve_exhaustive(p)  # all-zeros is always feasible
        best = min(
            sum(costs[i] for i in subset)
            for size in range(n + 1)
            for subset in itertools.combinations(range(n), size)
            if sum(weights[i] for i in subset) <= capacity
        )
        assert p.is_feasible(exact.x)
        assert exact.objective == pytest.approx(best)

    @pytest.mark.parametrize("shape", [
        "two inequality rows", "no inequality row", "negative weight",
        "variable in two groups", "group right-hand side 2",
    ])
    def test_non_wd_shapes_rejected(self, shape):
        p = knapsack(costs=[3, 1, 2, 1], weights=[0, 4, 0, 4], capacity=4,
                     groups=[0, 0, 1, 1])
        a_ub, b_ub, a_eq, b_eq = p.a_ub, p.b_ub, p.a_eq, p.b_eq
        if shape == "two inequality rows":
            a_ub, b_ub = np.vstack([a_ub, a_ub]), np.concatenate([b_ub, b_ub])
        elif shape == "no inequality row":
            a_ub = b_ub = None
        elif shape == "negative weight":
            a_ub = a_ub.copy()
            a_ub[0, 0] = -1.0
        elif shape == "variable in two groups":
            a_eq = a_eq.copy()
            a_eq[1, 0] = 1.0
        else:
            b_eq = np.array([1.0, 2.0])
        other = ZeroOneProblem(costs=p.costs, a_ub=a_ub, b_ub=b_ub,
                               a_eq=a_eq, b_eq=b_eq)
        with pytest.raises(SolverError, match="multiple-choice knapsack"):
            solve_branch_and_bound(other)


class TestExhaustive:
    def test_refuses_large(self):
        with pytest.raises(SolverError):
            solve_exhaustive(ZeroOneProblem(costs=np.zeros(30)))

    def test_small_exact(self):
        p = knapsack([3, 2, 1], [1, 1, 1], 1, groups=[0, 0, 0])
        sol = solve_exhaustive(p)
        assert sol.objective == pytest.approx(1.0)
        assert sol.selected() == [2]
