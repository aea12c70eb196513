"""Property tests: the tensorized solvers are bit-identical to the serial ones.

The tensor backends (:mod:`repro.core.tensor_solve`) exist purely for
speed; their contract is *equality*, not approximation: same
configurations, same totals, same error types with the same messages, for
every input the serial solvers accept -- including empty networks,
single-kernel networks, and all-infeasible limits.  The
:class:`~repro.core.tensor_solve.DeltaSolver` additionally promises that
any sequence of solves and single-kernel mutations yields the answers a
from-scratch serial solve would, while provably skipping the untouched
kernels.  The vectorized MCKP merge of :mod:`repro.core.mckp` is held to
the serial merge of :mod:`tests.solver_reference` the same way.  These
tests pit every backend against its reference on hypothesis-generated
workloads.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.benchmarker import benchmark_kernel
from repro.core.mckp import MCKPItem, solve_mckp
from repro.core.optimizer import optimize_network_wr
from repro.core.policies import BatchSizePolicy
from repro.core.sweep import sweep_network_wr
from repro.core.tensor_solve import (
    DeltaSolver,
    bench_fingerprint,
    geometry_family,
    solve_network_wr,
    solve_network_wr_outcomes,
)
from repro.core.wr import optimize_from_benchmark
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.errors import OptimizationError, SolverError
from repro.units import MIB
from tests.conftest import make_geometry
from tests.solver_reference import solve_mckp_serial
from tests.test_optimizer_properties import model_geometry

SETTINGS = dict(max_examples=10, deadline=None)

#: Limits spanning infeasible (-1), the zero-workspace boundary,
#: byte-granular small values, and generous caps.
limit_values = st.one_of(
    st.just(-1), st.integers(0, 4096), st.integers(0, 512 * MIB)
)


@pytest.fixture(scope="module")
def handle():
    return CudnnHandle(mode=ExecMode.TIMING)


def network_of(handle, geometries, policy=BatchSizePolicy.POWER_OF_TWO):
    """``name -> KernelBenchmark`` for a list of geometries."""
    return {
        f"k{i}": benchmark_kernel(handle, g, policy)
        for i, g in enumerate(geometries)
    }


def serial_outcomes(benches, limit):
    """The per-kernel reference: config or error, kernel by kernel."""
    configs, errors = {}, {}
    for name, bench in benches.items():
        try:
            configs[name] = optimize_from_benchmark(bench, limit)
        except OptimizationError as exc:
            errors[name] = exc
    return configs, errors


def assert_same_outcomes(benches, limit):
    """Tensor outcomes == serial outcomes, configs and errors both."""
    expected_configs, expected_errors = serial_outcomes(benches, limit)
    configs, errors = solve_network_wr_outcomes(benches, limit)
    assert configs == expected_configs
    assert set(errors) == set(expected_errors)
    for name, exc in errors.items():
        assert type(exc) is type(expected_errors[name])
        assert str(exc) == str(expected_errors[name])


class TestTensorWR:
    @settings(**SETTINGS)
    @given(gs=st.lists(model_geometry(), min_size=1, max_size=4),
           data=st.data())
    def test_matches_serial_per_kernel(self, handle, gs, data):
        benches = network_of(handle, gs)
        assert_same_outcomes(benches, data.draw(limit_values))

    def test_empty_network(self):
        assert solve_network_wr({}, 64 * MIB) == {}
        assert solve_network_wr_outcomes({}, 64 * MIB) == ({}, {})

    @settings(**SETTINGS)
    @given(g=model_geometry(), data=st.data())
    def test_single_kernel(self, handle, g, data):
        benches = network_of(handle, [g])
        assert_same_outcomes(benches, data.draw(limit_values))

    @settings(**SETTINGS)
    @given(gs=st.lists(model_geometry(), min_size=1, max_size=3))
    def test_all_infeasible_raises_first_error(self, handle, gs):
        """Negative limit: every kernel infeasible; the raise-on-error
        wrapper must surface the *first* kernel's error, like the serial
        network loop."""
        benches = network_of(handle, gs)
        first = next(iter(benches.values()))
        with pytest.raises(OptimizationError) as expected:
            optimize_from_benchmark(first, -1)
        with pytest.raises(OptimizationError) as actual:
            solve_network_wr(benches, -1)
        assert str(actual.value) == str(expected.value)

    @settings(**SETTINGS)
    @given(gs=st.lists(model_geometry(), min_size=1, max_size=3),
           data=st.data())
    def test_network_optimizer_matches_per_kernel(self, handle, gs, data):
        """``optimize_network_wr`` solves in one tensor pass; its plan must
        equal one serial DP per kernel, and on failure it raises the first
        failing kernel's serial error."""
        geometries = {f"k{i}": g for i, g in enumerate(gs)}
        limit = data.draw(st.integers(0, 512 * MIB))
        benches = network_of(handle, gs)
        configs, errors = serial_outcomes(benches, limit)
        if errors:
            with pytest.raises(OptimizationError) as raised:
                optimize_network_wr(handle, geometries, limit)
            first = next(name for name in benches if name in errors)
            assert str(raised.value) == str(errors[first])
            return
        plan = optimize_network_wr(handle, geometries, limit)
        expected = []
        for name, g in geometries.items():
            undivided = benches[name].fastest_micro(g.n, limit)
            expected.append((name, configs[name],
                             undivided.time if undivided else math.inf))
        assert [(k.name, k.configuration, k.undivided_time)
                for k in plan.kernels] == expected
        assert plan.total_time == sum(c.time for _, c, _ in expected)

    @settings(**SETTINGS)
    @given(gs=st.lists(model_geometry(), min_size=1, max_size=3),
           limits=st.lists(limit_values, min_size=1, max_size=5))
    def test_network_sweep_backends_identical(self, handle, gs, limits):
        geometries = {f"k{i}": g for i, g in enumerate(gs)}
        serial = sweep_network_wr(handle, geometries, limits)
        tensor = sweep_network_wr(handle, geometries, limits,
                                  backend="tensor")
        for limit in limits:
            serial_err = serial.errors.get(limit)
            tensor_err = tensor.errors.get(limit)
            assert (serial_err is None) == (tensor_err is None)
            if serial_err is not None:
                assert type(tensor_err) is type(serial_err)
                continue
            a, b = serial.plan(limit), tensor.plan(limit)
            assert [(k.name, k.configuration) for k in a.kernels] == [
                (k.name, k.configuration) for k in b.kernels
            ]

    def test_unknown_backends_rejected(self, handle):
        g = make_geometry()
        with pytest.raises(SolverError):
            sweep_network_wr(handle, {"k": g}, [MIB], backend="simd")


#: Random MCKP instances: a few groups of items with small weights so both
#: feasible and infeasible capacities are reachable.
mckp_groups = st.lists(
    st.lists(
        st.tuples(st.floats(0.1, 100.0, allow_nan=False),
                  st.integers(0, 50)),
        min_size=1, max_size=5,
    ),
    min_size=1, max_size=5,
)


class TestTensorMCKP:
    @settings(max_examples=50, deadline=None)
    @given(raw=mckp_groups, capacity=st.integers(0, 120),
           max_front=st.sampled_from([2, 4, 2_000_000]))
    def test_matches_serial_exactly(self, raw, capacity, max_front):
        groups = [
            [MCKPItem(cost=c, weight=w, index=i)
             for i, (c, w) in enumerate(items)]
            for items in raw
        ]
        try:
            serial = solve_mckp_serial(groups, capacity, max_front=max_front)
        except SolverError as exc:
            with pytest.raises(SolverError) as raised:
                solve_mckp(groups, capacity, max_front=max_front)
            assert str(raised.value) == str(exc)
            return
        tensor = solve_mckp(groups, capacity, max_front=max_front)
        assert tensor.selection == serial.selection
        assert tensor.cost == serial.cost
        assert tensor.weight == serial.weight
        assert tensor.front_peak == serial.front_peak

    def test_error_messages_pinned(self):
        with pytest.raises(SolverError, match="at least one group"):
            solve_mckp([], 10)
        with pytest.raises(SolverError, match="group 1 is empty"):
            solve_mckp([[MCKPItem(1.0, 1, 0)], []], 10)
        with pytest.raises(SolverError, match="no item combination fits"):
            solve_mckp([[MCKPItem(1.0, 5, 0)]], 3)


def mutate(bench, factor):
    """Scale every measured time of one kernel in place (a 'driver update')."""
    for size, rows in bench.results.items():
        bench.results[size] = [
            dataclasses.replace(r, time=r.time * factor) for r in rows
        ]
    bench.invalidate_query_cache()


class TestDeltaSolver:
    @settings(**SETTINGS)
    @given(gs=st.lists(model_geometry(), min_size=2, max_size=4),
           data=st.data())
    def test_repeat_solve_avoids_full_solves(self, handle, gs, data):
        benches = network_of(handle, gs)
        limit = data.draw(st.integers(0, 512 * MIB))
        delta = DeltaSolver()
        expected_configs, expected_errors = serial_outcomes(benches, limit)

        def check():
            if expected_errors:
                first = next(n for n in benches if n in expected_errors)
                with pytest.raises(OptimizationError) as raised:
                    delta.solve_network(benches, limit)
                assert str(raised.value) == str(expected_errors[first])
            else:
                assert delta.solve_network(benches, limit) == expected_configs

        check()
        before = delta.stats.full_solves_avoided
        check()
        assert delta.stats.full_solves_avoided == before + 1
        assert delta.stats.kernels_solved == len(
            {b.geometry.cache_key() for b in benches.values()}
        )

    @settings(**SETTINGS)
    @given(gs=st.lists(model_geometry(), min_size=2, max_size=4,
                       unique_by=lambda g: g.cache_key()),
           data=st.data())
    def test_single_kernel_mutation_is_delta_solved(self, handle, gs, data):
        limit = data.draw(st.integers(0, 512 * MIB))
        benches = network_of(handle, gs)
        delta = DeltaSolver()
        try:
            delta.solve_network(benches, limit)
        except OptimizationError:
            return  # infeasible networks have nothing to delta-solve
        victim = data.draw(st.sampled_from(sorted(benches)))
        mutate(benches[victim], 1.5)
        solved_before = delta.stats.kernels_solved
        result = delta.solve_network(benches, limit)
        assert result == serial_outcomes(benches, limit)[0]
        # Exactly the mutated kernel was re-solved; the rest came from cache.
        assert delta.stats.kernels_solved == solved_before + 1
        assert delta.stats.delta_solves >= 1
        assert delta.stats.full_solves == 1

    def test_invalidate_family_drops_and_resolves(self, handle):
        g = make_geometry()
        benches = network_of(handle, [g])
        delta = DeltaSolver()
        delta.solve_network(benches, 64 * MIB)
        family = geometry_family(g.cache_key())
        assert delta.invalidate_family(family) >= 1
        assert delta.invalidate_family(family) == 0  # already gone
        solved_before = delta.stats.kernels_solved
        delta.solve_network(benches, 64 * MIB)
        assert delta.stats.kernels_solved == solved_before + 1

    def test_fingerprint_tracks_rows(self, handle):
        bench = benchmark_kernel(handle, make_geometry(),
                                 BatchSizePolicy.POWER_OF_TWO)
        before = bench_fingerprint(bench)
        assert bench_fingerprint(bench) == before
        mutate(bench, 2.0)
        assert bench_fingerprint(bench) != before

    def test_geometry_family_strips_batch(self):
        assert geometry_family("forward:n32c64h27w27k16r3") == (
            "forward:n*c64h27w27k16r3"
        )
