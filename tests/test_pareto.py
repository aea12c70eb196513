"""Tests for desirable configuration sets (paper section III-C1).

Includes an empirical check of the paper's pruning theorem: removing
non-Pareto configurations never changes the WD ILP optimum.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.benchmarker import benchmark_kernel
from repro.core.pareto import (
    assert_valid_front,
    configuration_front,
    desirable_set,
    pareto_front,
)
from repro.core.policies import BatchSizePolicy
from repro.core.wr import optimize_from_benchmark
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import ConvType
from repro.errors import OptimizationError
from repro.units import MIB
from tests.test_benchmarker import synth_benchmark

CONV2 = ConvGeometry(ConvType.FORWARD, 256, 64, 27, 27, 192, 5, 5, 2, 2)


class TestParetoFront:
    def test_basic(self):
        pts = [(1.0, 10), (2.0, 5), (3.0, 1), (2.5, 8), (0.5, 20)]
        front = pareto_front(pts, lambda p: p[0], lambda p: p[1])
        assert front == [(3.0, 1), (2.0, 5), (1.0, 10), (0.5, 20)]

    def test_duplicates_collapse(self):
        pts = [(1.0, 10), (1.0, 10), (1.0, 10)]
        assert len(pareto_front(pts, lambda p: p[0], lambda p: p[1])) == 1

    def test_equal_ws_keeps_fastest(self):
        pts = [(2.0, 10), (1.0, 10)]
        assert pareto_front(pts, lambda p: p[0], lambda p: p[1]) == [(1.0, 10)]

    @given(st.lists(st.tuples(st.floats(0.01, 100), st.integers(0, 1000)),
                    min_size=1, max_size=50))
    def test_front_properties(self, pts):
        front = pareto_front(pts, lambda p: p[0], lambda p: p[1])
        # 1. No front member dominates another.
        for a, b in itertools.combinations(front, 2):
            assert not (a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1]))
            assert not (b[0] <= a[0] and b[1] <= a[1] and (b[0] < a[0] or b[1] < a[1]))
        # 2. Every input point is weakly dominated by some front member.
        for p in pts:
            assert any(f[0] <= p[0] and f[1] <= p[1] for f in front)
        # 3. Sorted by workspace ascending, time strictly descending.
        wss = [f[1] for f in front]
        times = [f[0] for f in front]
        assert wss == sorted(wss)
        assert times == sorted(times, reverse=True)


def brute_force_desirable(table: dict[int, list[tuple[float, int]]], n: int,
                          limit: int) -> set[tuple[Fraction, int]]:
    """Exhaustive (time, workspace) Pareto points over all partitions of n
    with all per-part algorithm choices (exponential: tiny n only).

    Times are summed exactly, as fractions: a float sum depends on the
    order of its terms, so near-ties (0.1 + 0.1 + 0.1 against 0.15 + 0.15)
    would otherwise decide membership by rounding.
    """
    options = {
        s: [(Fraction(t), ws) for t, ws in entries if ws <= limit]
        for s, entries in table.items()
    }
    options = {s: o for s, o in options.items() if o}
    points: set[tuple[Fraction, int]] = set()

    def rec(remaining: int, t_acc: Fraction, ws_acc: int, min_size: int):
        if remaining == 0:
            points.add((t_acc, ws_acc))
            return
        for size, opts in options.items():
            if size > remaining or size < min_size:
                continue
            for t, ws in opts:
                rec(remaining - size, t_acc + t, max(ws_acc, ws), size)

    rec(n, Fraction(0), 0, 1)
    front = pareto_front(sorted(points), lambda p: p[0], lambda p: p[1])
    return set(front)


@st.composite
def size_tables(draw):
    """A mini-batch ``n`` and a benchmark table over a few sizes <= n."""
    n = draw(st.integers(1, 6))
    sizes = sorted(set(draw(
        st.lists(st.integers(1, n), min_size=1, max_size=3))) | {1})
    table = {
        s: [(draw(st.floats(0.01, 10.0)), draw(st.integers(0, 50)))
            for _ in range(draw(st.integers(1, 3)))]
        for s in sizes
    }
    return n, table


class TestDesirableSet:
    @settings(max_examples=30, deadline=None)
    @given(case=size_tables())
    # 0.15 + 0.15 < 0.1 + 0.1 + 0.1 exactly: both points are on the front.
    @example(case=(6, {1: [(1.0, 0)], 2: [(0.1, 0)], 3: [(0.15, 1)]}))
    def test_matches_exhaustive_front(self, case):
        n, table = case
        limit = 50
        bench = synth_benchmark(n, table)
        front = desirable_set(bench, workspace_limit=limit)
        got = set()
        for c in front:
            exact = sum((Fraction(m.time) for m in c.micros), Fraction(0))
            assert math.isclose(c.time, exact, rel_tol=1e-12)
            got.add((exact, c.workspace))
        expected = brute_force_desirable(table, n, limit)
        assert got == expected

    def test_wr_optimum_on_front(self, timing_handle):
        """Paper: WR(B) is an element of the desirable set."""
        bench = benchmark_kernel(timing_handle, CONV2, BatchSizePolicy.POWER_OF_TWO)
        for limit in (8 * MIB, 64 * MIB, 120 * MIB):
            front = desirable_set(bench, workspace_limit=limit)
            wr = optimize_from_benchmark(bench, limit)
            feasible = [c for c in front if c.workspace <= limit]
            assert min(c.time for c in feasible) == pytest.approx(wr.time)

    def test_front_is_valid_and_sorted(self, timing_handle):
        bench = benchmark_kernel(timing_handle, CONV2, BatchSizePolicy.POWER_OF_TWO)
        front = desirable_set(bench, workspace_limit=120 * MIB)
        assert_valid_front(front)
        wss = [c.workspace for c in front]
        assert wss == sorted(wss)
        assert all(c.batch == 256 for c in front)
        assert all(c.workspace <= 120 * MIB for c in front)

    def test_front_size_modest(self, timing_handle):
        """Paper: at most ~68 desirable configurations per AlexNet kernel."""
        bench = benchmark_kernel(timing_handle, CONV2, BatchSizePolicy.ALL)
        front = desirable_set(bench, workspace_limit=120 * MIB)
        assert 2 <= len(front) <= 100

    def test_max_front_cap_keeps_fastest(self, timing_handle):
        bench = benchmark_kernel(timing_handle, CONV2, BatchSizePolicy.POWER_OF_TWO)
        full = desirable_set(bench, workspace_limit=120 * MIB)
        capped = desirable_set(bench, workspace_limit=120 * MIB, max_front=3)
        assert len(capped) <= 3
        assert capped[-1].time == pytest.approx(full[-1].time)

    def test_infeasible_raises(self):
        bench = synth_benchmark(4, {4: [(1.0, 100)]})
        with pytest.raises(OptimizationError):
            desirable_set(bench, workspace_limit=10)

    def test_uncomposable_raises(self):
        bench = synth_benchmark(5, {2: [(1.0, 0)]})
        with pytest.raises(OptimizationError):
            desirable_set(bench, workspace_limit=100)


class TestPruningTheoremEmpirically:
    """Section III-C1's proof: the ILP optimum over pruned (desirable) sets
    equals the optimum over ALL configurations."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_ilp_optimum_preserved(self, data):
        n = data.draw(st.integers(2, 5))
        num_kernels = data.draw(st.integers(1, 3))
        tables = []
        for _ in range(num_kernels):
            table = {
                s: [(data.draw(st.floats(0.1, 5.0)), data.draw(st.integers(0, 20)))
                    for _ in range(2)]
                for s in (1, 2)
            }
            tables.append(table)
        capacity = data.draw(st.integers(5, 40))

        def all_points(table):
            pts = set()

            def rec(remaining, t, ws, min_size):
                if remaining == 0:
                    pts.add((round(t, 9), ws))
                    return
                for size, opts in table.items():
                    if size > remaining or size < min_size:
                        continue
                    for tt, ww in opts:
                        rec(remaining - size, t + tt, max(ws, ww), size)

            rec(n, 0.0, 0, 1)
            return sorted(pts)

        def mckp_best(point_sets):
            best = math.inf
            for combo in itertools.product(*point_sets):
                if sum(p[1] for p in combo) <= capacity:
                    best = min(best, sum(p[0] for p in combo))
            return best

        full_sets = [all_points(t) for t in tables]
        pruned_sets = []
        for table in tables:
            bench = synth_benchmark(n, table)
            try:
                front = desirable_set(bench, workspace_limit=capacity)
            except OptimizationError:
                return  # infeasible kernel: nothing to compare
            pruned_sets.append([(round(c.time, 9), c.workspace) for c in front])

        full_best = mckp_best(full_sets)
        pruned_best = mckp_best(pruned_sets)
        if math.isinf(full_best):
            assert math.isinf(pruned_best)
        else:
            assert pruned_best == pytest.approx(full_best)
