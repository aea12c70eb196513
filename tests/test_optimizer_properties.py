"""Cross-cutting property tests on the optimizers (hypothesis-driven).

Monotonicity and consistency laws that must hold for every workload the
perf model can produce, not just the paper's layers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.benchmarker import benchmark_kernel
from repro.core.pareto import desirable_set
from repro.core.policies import BatchSizePolicy, candidate_sizes
from repro.core.wr import optimize_from_benchmark
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import ConvType
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.units import MIB

SETTINGS = dict(max_examples=15, deadline=None)


@st.composite
def model_geometry(draw):
    """Geometries in the perf model's realistic operating range."""
    r = draw(st.sampled_from([1, 3, 5, 7]))
    stride = draw(st.sampled_from([1, 1, 1, 2]))  # mostly unit stride
    return ConvGeometry(
        conv_type=draw(st.sampled_from(list(ConvType))),
        n=draw(st.sampled_from([8, 16, 32, 64])),
        c=draw(st.sampled_from([3, 16, 64, 128])),
        h=27, w=27,
        k=draw(st.sampled_from([16, 64, 192])),
        r=r, s=r,
        pad_h=r // 2, pad_w=r // 2,
        stride_h=stride, stride_w=stride,
    )


@pytest.fixture(scope="module")
def handle():
    return CudnnHandle(mode=ExecMode.TIMING)


class TestWRProperties:
    @settings(**SETTINGS)
    @given(g=model_geometry(), data=st.data())
    def test_monotone_in_workspace_limit(self, handle, g, data):
        """More workspace never makes WR slower."""
        bench = benchmark_kernel(handle, g, BatchSizePolicy.POWER_OF_TWO)
        limits = sorted(data.draw(st.lists(
            st.integers(0, 512 * MIB), min_size=2, max_size=4)))
        times = [optimize_from_benchmark(bench, lim).time for lim in limits]
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier + 1e-15

    @settings(**SETTINGS)
    @given(g=model_geometry(), limit_mib=st.sampled_from([0, 1, 8, 64, 512]))
    def test_never_worse_than_undivided(self, handle, g, limit_mib):
        bench = benchmark_kernel(handle, g, BatchSizePolicy.POWER_OF_TWO)
        config = optimize_from_benchmark(bench, limit_mib * MIB)
        undiv = bench.fastest_micro(g.n, limit_mib * MIB)
        assert config.time <= undiv.time + 1e-15
        assert config.workspace <= limit_mib * MIB
        assert config.batch == g.n

    @settings(**SETTINGS)
    @given(g=model_geometry())
    def test_policy_refinement(self, handle, g):
        """all <= powerOfTwo <= undivided (finer candidate sets only help)."""
        limit = 32 * MIB
        times = {}
        for policy in BatchSizePolicy:
            bench = benchmark_kernel(handle, g, policy)
            times[policy] = optimize_from_benchmark(bench, limit).time
        assert times[BatchSizePolicy.ALL] <= \
            times[BatchSizePolicy.POWER_OF_TWO] + 1e-15
        assert times[BatchSizePolicy.POWER_OF_TWO] <= \
            times[BatchSizePolicy.UNDIVIDED] + 1e-15


class TestDesirableSetProperties:
    @settings(**SETTINGS)
    @given(g=model_geometry())
    def test_front_envelope_contains_wr_at_every_limit(self, handle, g):
        """For any limit, the best feasible front point equals WR's optimum
        -- the front is the complete answer to all limits at once."""
        bench = benchmark_kernel(handle, g, BatchSizePolicy.POWER_OF_TWO)
        front = desirable_set(bench, workspace_limit=512 * MIB)
        for limit in (0, 1 * MIB, 16 * MIB, 512 * MIB):
            feasible = [c for c in front if c.workspace <= limit]
            if not feasible:
                continue
            wr = optimize_from_benchmark(bench, limit)
            assert min(c.time for c in feasible) == pytest.approx(wr.time)

    @settings(**SETTINGS)
    @given(g=model_geometry())
    def test_front_grows_with_limit(self, handle, g):
        """Raising the cap never removes points below it."""
        bench = benchmark_kernel(handle, g, BatchSizePolicy.POWER_OF_TWO)
        small = desirable_set(bench, workspace_limit=8 * MIB)
        large = desirable_set(bench, workspace_limit=512 * MIB)
        small_pts = {(round(c.time, 12), c.workspace) for c in small}
        large_pts = {(round(c.time, 12), c.workspace) for c in large}
        # Every small-front point is either in the large front or dominated
        # by a large-front point that the small cap excluded.
        for t, w in small_pts:
            assert (t, w) in large_pts or any(
                lt <= t and lw <= w for lt, lw in large_pts
            )


class TestCandidateSizeLaws:
    @given(batch=st.integers(1, 2048))
    def test_power_of_two_is_subset_of_all(self, batch):
        p2 = set(candidate_sizes(BatchSizePolicy.POWER_OF_TWO, batch))
        al = set(candidate_sizes(BatchSizePolicy.ALL, batch))
        un = set(candidate_sizes(BatchSizePolicy.UNDIVIDED, batch))
        assert un <= p2 <= al
