"""Tests for the Pareto-merge MCKP solver."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ilp import ZeroOneProblem, solve_branch_and_bound
from repro.core.mckp import MCKPItem, solve_mckp
from repro.errors import SolverError


def brute_force(groups, capacity):
    best = math.inf
    best_sel = None
    for combo in itertools.product(*[range(len(g)) for g in groups]):
        weight = sum(groups[gi][ci].weight for gi, ci in enumerate(combo))
        if weight <= capacity:
            cost = sum(groups[gi][ci].cost for gi, ci in enumerate(combo))
            if cost < best:
                best, best_sel = cost, combo
    return best, best_sel


def make_groups(spec):
    return [
        [MCKPItem(cost=c, weight=w, index=i) for i, (c, w) in enumerate(group)]
        for group in spec
    ]


class TestSolveMCKP:
    def test_simple(self):
        groups = make_groups([[(5.0, 0), (1.0, 10)], [(4.0, 0), (1.0, 10)]])
        sol = solve_mckp(groups, capacity=10)
        assert sol.cost == pytest.approx(5.0)  # one cheap item fits
        assert sol.weight <= 10
        assert len(sol.selection) == 2

    def test_selection_indices_are_original(self):
        groups = make_groups([[(2.0, 0), (1.0, 5)]])
        sol = solve_mckp(groups, capacity=5)
        assert sol.selection == [1]

    def test_infeasible(self):
        groups = make_groups([[(1.0, 10)], [(1.0, 10)]])
        with pytest.raises(SolverError):
            solve_mckp(groups, capacity=15)

    def test_empty_group_rejected(self):
        with pytest.raises(SolverError):
            solve_mckp([[]], capacity=10)

    def test_no_groups_rejected(self):
        with pytest.raises(SolverError):
            solve_mckp([], capacity=10)

    def test_front_peak_reported(self):
        groups = make_groups([[(3.0, 0), (2.0, 1), (1.0, 2)]] * 3)
        sol = solve_mckp(groups, capacity=6)
        assert sol.front_peak >= 1
        assert sol.cost == pytest.approx(3.0)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        num_groups = data.draw(st.integers(1, 4))
        spec = [
            [(data.draw(st.floats(0.1, 10.0)), data.draw(st.integers(0, 15)))
             for _ in range(data.draw(st.integers(1, 4)))]
            for _ in range(num_groups)
        ]
        capacity = data.draw(st.integers(0, 40))
        groups = make_groups(spec)
        expected, _ = brute_force(groups, capacity)
        if math.isinf(expected):
            with pytest.raises(SolverError):
                solve_mckp(groups, capacity)
            return
        sol = solve_mckp(groups, capacity)
        assert sol.cost == pytest.approx(expected)
        assert sol.weight <= capacity
        # The reported selection reproduces the reported totals.
        assert sum(groups[g][c].cost for g, c in enumerate(sol.selection)) == \
            pytest.approx(sol.cost)
        assert sum(groups[g][c].weight for g, c in enumerate(sol.selection)) == \
            sol.weight


def tie_rule_key(groups, combo):
    """The tie rule of :mod:`repro.core.mckp` as a sort key.

    Least cost, then least weight; exact ties go backwards through the
    groups: least weight before the last group, then the earliest item of
    the last group, then least weight before the second-to-last group, then
    its earliest item, ... and last the first group's earliest item.
    """
    prefix = list(itertools.accumulate(
        groups[g][j].weight for g, j in enumerate(combo)))
    key = [sum(groups[g][j].cost for g, j in enumerate(combo)), prefix[-1]]
    for g in range(len(combo) - 1, 0, -1):
        key += [prefix[g - 1], combo[g]]
    return key + [combo[0]]


def as_zero_one(groups, capacity):
    """The same instance in the WD 0-1 ILP form branch-and-bound solves."""
    items = [(g, item) for g, group in enumerate(groups) for item in group]
    a_eq = np.zeros((len(groups), len(items)))
    for var, (g, _) in enumerate(items):
        a_eq[g, var] = 1.0
    return ZeroOneProblem(
        costs=np.array([item.cost for _, item in items]),
        a_ub=np.array([[float(item.weight) for _, item in items]]),
        b_ub=np.array([float(capacity)]),
        a_eq=a_eq,
        b_eq=np.ones(len(groups)),
    )


#: Few distinct small-integer costs and weights: exact float sums, and
#: equal-cost and equal-weight items (and whole selections) are common.
tie_groups = st.lists(
    st.lists(st.tuples(st.sampled_from([1.0, 2.0, 3.0]), st.integers(0, 3)),
             min_size=1, max_size=4),
    min_size=1, max_size=4,
)


class TestTieRule:
    def test_equal_items_take_the_earliest(self):
        groups = make_groups([[(2.0, 1), (2.0, 1)], [(1.0, 0), (1.0, 0)]])
        assert solve_mckp(groups, capacity=5).selection == [0, 0]

    def test_equal_totals_take_the_least_weight(self):
        groups = make_groups([[(1.0, 3), (1.0, 1)], [(1.0, 2)]])
        sol = solve_mckp(groups, capacity=5)
        assert (sol.selection, sol.cost, sol.weight) == ([1, 0], 2.0, 3)

    def test_exact_ties_prefer_least_weight_before_the_last_group(self):
        """(1, 1) beats (0, 0): both cost 1 and weigh 1, but (1, 1) carries
        no weight out of the first group."""
        groups = make_groups([[(0.0, 1), (1.0, 0)], [(1.0, 0), (0.0, 1)]])
        assert solve_mckp(groups, capacity=1).selection == [1, 1]

    @settings(max_examples=200, deadline=None)
    @given(raw=tie_groups, capacity=st.integers(0, 12))
    def test_matches_brute_force_tie_rule(self, raw, capacity):
        groups = make_groups(raw)
        feasible = [
            combo
            for combo in itertools.product(*[range(len(g)) for g in groups])
            if sum(groups[g][j].weight for g, j in enumerate(combo))
            <= capacity
        ]
        if not feasible:
            with pytest.raises(SolverError):
                solve_mckp(groups, capacity)
            with pytest.raises(SolverError):
                solve_branch_and_bound(as_zero_one(groups, capacity))
            return
        best = min(feasible, key=lambda combo: tie_rule_key(groups, combo))
        expected = tie_rule_key(groups, best)
        sol = solve_mckp(groups, capacity)
        assert sol.selection == list(best)
        assert (sol.cost, sol.weight) == (expected[0], expected[1])
        bnb = solve_branch_and_bound(as_zero_one(groups, capacity))
        assert bnb.objective == sol.cost
