"""Tests for the WD optimizer (paper section III-C / IV-D)."""

import pytest

from repro.core import optimize_network_wd, optimize_network_wr
from repro.core.policies import BatchSizePolicy
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import ConvType
from repro.errors import SolverError
from repro.units import MIB
from tests.conftest import make_geometry

CONV2 = ConvGeometry(ConvType.FORWARD, 256, 64, 27, 27, 192, 5, 5, 2, 2)


def wd_optimize(*args, **kwargs):
    """The WD result of one network optimization."""
    return optimize_network_wd(*args, **kwargs).wd


@pytest.fixture
def conv2_kernels():
    """AlexNet conv2's three kernels -- the paper's 120 MiB WD example."""
    return {f"conv2:{ct.value}": CONV2.with_type(ct) for ct in ConvType}


class TestWDBasics:
    def test_respects_total_limit(self, timing_handle, conv2_kernels):
        result = wd_optimize(timing_handle, conv2_kernels, 120 * MIB,
                             BatchSizePolicy.POWER_OF_TWO)
        assert result.total_workspace <= 120 * MIB
        assert set(result.assignments) == set(conv2_kernels)
        for key, config in result.assignments.items():
            assert config.batch == 256

    def test_solvers_agree(self, timing_handle, conv2_kernels):
        """The B&B ILP and the Pareto-merge MCKP are independent exact
        solvers; they must find the same objective."""
        for limit in (24 * MIB, 120 * MIB, 960 * MIB):
            ilp = wd_optimize(timing_handle, conv2_kernels, limit,
                              BatchSizePolicy.POWER_OF_TWO, solver="ilp")
            mckp = wd_optimize(timing_handle, conv2_kernels, limit,
                               BatchSizePolicy.POWER_OF_TWO, solver="mckp")
            assert ilp.total_time == pytest.approx(mckp.total_time)

    def test_more_workspace_never_slower(self, timing_handle, conv2_kernels):
        times = []
        for limit_mib in (1, 24, 120, 480, 960):
            r = wd_optimize(timing_handle, conv2_kernels, limit_mib * MIB,
                            BatchSizePolicy.POWER_OF_TWO)
            times.append(r.total_time)
        assert times == sorted(times, reverse=True)

    def test_unknown_solver(self, timing_handle, conv2_kernels):
        with pytest.raises(SolverError):
            wd_optimize(timing_handle, conv2_kernels, 120 * MIB,
                        BatchSizePolicy.POWER_OF_TWO, solver="magic")

    def test_num_variables_reported(self, timing_handle, conv2_kernels):
        r = wd_optimize(timing_handle, conv2_kernels, 120 * MIB,
                        BatchSizePolicy.POWER_OF_TWO)
        assert r.num_variables == sum(len(k.desirable) for k in r.kernels)
        assert r.solver == "mckp" and r.ilp is None
        assert r.solve_time > 0


class TestWDvsWR:
    def test_wd_at_least_as_good_at_equal_total(self, timing_handle):
        """The paper's Fig. 13 claim: WD with an m*K pooled budget beats (or
        ties) WR with m per kernel, because WD can shift budget to the
        layers that profit."""
        geoms = {f"conv2:{ct.value}": CONV2.with_type(ct) for ct in ConvType}
        per_kernel = 8 * MIB
        total = per_kernel * len(geoms)
        wr_plan = optimize_network_wr(timing_handle, geoms, per_kernel,
                                      BatchSizePolicy.POWER_OF_TWO)
        wd_plan = optimize_network_wd(timing_handle, geoms, total,
                                      BatchSizePolicy.POWER_OF_TWO)
        assert wd_plan.total_time <= wr_plan.total_time + 1e-12

    def test_wd_shifts_budget_to_profitable_kernels(self, timing_handle):
        """Mix a heavy 5x5 kernel with cheap 3x3 kernels (which have free
        Winograd): WD should give (nearly) all the pool to the 5x5."""
        geoms = {
            "heavy": CONV2,
            "light1": make_geometry(n=256, c=32, k=32, h=13, w=13, r=3, s=3, pad=1),
            "light2": make_geometry(n=256, c=16, k=16, h=13, w=13, r=3, s=3, pad=1),
        }
        plan = optimize_network_wd(timing_handle, geoms, 64 * MIB,
                                   BatchSizePolicy.POWER_OF_TWO)
        by_name = plan.by_name()
        heavy_ws = by_name["heavy"].configuration.workspace
        total_ws = plan.total_workspace
        assert heavy_ws / max(1, total_ws) > 0.9

    def test_wd_never_wastes_budget_without_gain(self, timing_handle):
        """WD picks the cheapest configuration among equal-time options, so
        zero-benefit kernels keep (near) zero workspace."""
        geoms = {
            "light": make_geometry(n=64, c=8, k=8, h=13, w=13, r=3, s=3, pad=1),
        }
        plan = optimize_network_wd(timing_handle, geoms, 512 * MIB,
                                   BatchSizePolicy.POWER_OF_TWO)
        config = plan.kernels[0].configuration
        # The optimum must be on the Pareto front: no cheaper-equal-time
        # config may exist.
        front = plan.wd.kernels[0].desirable
        same_time = [c for c in front if c.time <= config.time + 1e-15]
        assert config.workspace == min(c.workspace for c in same_time)


class TestInfeasibility:
    def test_zero_capacity_is_feasible(self, timing_handle, conv2_kernels):
        """Implicit GEMM needs no workspace, so capacity 0 still solves."""
        r = wd_optimize(timing_handle, conv2_kernels, 0,
                        BatchSizePolicy.POWER_OF_TWO)
        assert r.total_workspace == 0

    def test_assignment_completeness_enforced(self, timing_handle, conv2_kernels):
        r = wd_optimize(timing_handle, conv2_kernels, 120 * MIB,
                        BatchSizePolicy.POWER_OF_TWO)
        assert len(r.assignments) == len(conv2_kernels)
