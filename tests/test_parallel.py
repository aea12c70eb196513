"""Tests for the parallel micro-configuration evaluation (section III-D)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.benchmarker import benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.policies import BatchSizePolicy
from repro.cudnn.device import Node
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.parallel.evaluator import benchmark_kernels_parallel
from repro.parallel.scheduler import schedule_lpt, schedule_round_robin
from tests.conftest import make_geometry


class TestSchedulers:
    @given(durations=st.lists(st.floats(0.001, 10.0), min_size=1, max_size=40),
           workers=st.integers(1, 8))
    @settings(max_examples=50)
    def test_lpt_bounds(self, durations, workers):
        sched = schedule_lpt(durations, workers)
        total = sum(durations)
        longest = max(durations)
        # Every unit assigned exactly once.
        assigned = sorted(u for worker in sched.assignments for u in worker)
        assert assigned == list(range(len(durations)))
        # Makespan sanity: between the trivial lower bounds and LPT's 4/3 bound.
        lower = max(total / workers, longest)
        assert sched.makespan >= lower - 1e-9
        assert sched.makespan <= (4 / 3) * lower + longest  # generous envelope
        # Loads recompute correctly.
        for w, units in enumerate(sched.assignments):
            assert sched.loads[w] == pytest.approx(
                sum(durations[u] for u in units)
            )

    def test_lpt_beats_round_robin_on_skewed_loads(self):
        """The benchmark-unit distribution is skewed (large micro-batches
        cost far more); LPT handles that, naive striping does not."""
        durations = [8.0, 7.0, 1.0, 1.0, 1.0, 1.0]
        lpt = schedule_lpt(durations, 2)
        rr = schedule_round_robin(durations, 2)
        assert lpt.makespan == pytest.approx(10.0)
        assert rr.makespan == pytest.approx(10.0)
        durations = [8.0, 1.0, 8.0, 1.0]  # striping lands both 8s on worker 0
        assert schedule_lpt(durations, 2).makespan == pytest.approx(9.0)
        assert schedule_round_robin(durations, 2).makespan == pytest.approx(16.0)

    def test_single_worker_is_serial(self):
        sched = schedule_lpt([1.0, 2.0, 3.0], 1)
        assert sched.makespan == pytest.approx(6.0)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            schedule_lpt([1.0], 0)

    def test_empty_task_list_is_a_valid_schedule(self):
        sched = schedule_lpt([], 3)
        assert sched.assignments == [[], [], []]
        assert sched.makespan == 0.0
        assert schedule_lpt([], 0).assignments == []
        assert schedule_round_robin([], 0).makespan == 0.0

    @given(durations=st.lists(st.floats(0.001, 10.0), min_size=1, max_size=20),
           workers=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_determinism_and_permutation_invariance(self, durations, workers,
                                                    seed):
        """Equal inputs give equal schedules, and permuting the input
        permutes the assignment consistently: worker *loads* (the quantity
        placement is about) are a function of the duration multiset alone."""
        import random

        assert schedule_lpt(durations, workers) == \
            schedule_lpt(durations, workers)
        shuffled = list(durations)
        random.Random(seed).shuffle(shuffled)
        a = schedule_lpt(durations, workers)
        b = schedule_lpt(shuffled, workers)
        assert sorted(a.loads) == pytest.approx(sorted(b.loads))
        assert a.makespan == pytest.approx(b.makespan)

    def test_ties_break_by_task_and_worker_index(self):
        """Four identical tasks on two idle workers: ascending task ids
        alternate over ascending worker ids -- heap insertion accidents
        never decide placement."""
        sched = schedule_lpt([2.0, 2.0, 2.0, 2.0], 2)
        assert sched.assignments == [[0, 2], [1, 3]]

    def test_golden_skewed_schedule(self):
        """The documented LPT trace for one skewed load (cluster-steal
        shape: two expensive cold solves among cheap warm ones)."""
        sched = schedule_lpt([8.0, 1.0, 8.0, 1.0, 1.0], 3)
        assert sched.assignments == [[0], [2], [1, 3, 4]]
        assert sched.loads == pytest.approx([8.0, 8.0, 3.0])
        assert sched.makespan == pytest.approx(8.0)

    def test_initial_loads_seed_the_workers(self):
        """Pre-committed load steers placement (the cluster scheduler seeds
        thieves with their retained groups) and is included in ``loads``."""
        sched = schedule_lpt([4.0, 1.0], 2, initial_loads=[5.0, 0.0])
        assert sched.assignments == [[], [0, 1]]
        assert sched.loads == pytest.approx([5.0, 5.0])

    def test_initial_loads_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="initial_loads"):
            schedule_lpt([1.0], 2, initial_loads=[0.0])


class TestParallelEvaluator:
    def geometries(self):
        return {
            "a": make_geometry(n=16, c=8, k=8, h=13, w=13),
            "b": make_geometry(n=16, c=16, k=16, h=9, w=9),
            "c": make_geometry(n=16, c=4, k=32, h=27, w=27, r=5, s=5, pad=2),
        }

    def test_results_identical_to_serial(self):
        """Homogeneous GPUs: parallel evaluation changes only the cost."""
        geoms = self.geometries()
        node = Node("p100-sxm2", num_gpus=4)
        par = benchmark_kernels_parallel(node, geoms, BatchSizePolicy.POWER_OF_TWO)
        serial_handle = CudnnHandle(mode=ExecMode.TIMING)
        for key, g in geoms.items():
            serial = benchmark_kernel(serial_handle, g, BatchSizePolicy.POWER_OF_TWO)
            assert par.benchmarks[key].sizes == serial.sizes
            for size in serial.sizes:
                assert [r.time for r in par.benchmarks[key].results[size]] == \
                    [r.time for r in serial.results[size]]

    def test_speedup_with_four_gpus(self):
        """Parallel makespan approaches serial / num_gpus for many units."""
        geoms = self.geometries()
        node1 = Node("p100-sxm2", num_gpus=1)
        node4 = Node("p100-sxm2", num_gpus=4)
        serial = benchmark_kernels_parallel(node1, geoms, BatchSizePolicy.ALL)
        par = benchmark_kernels_parallel(node4, geoms, BatchSizePolicy.ALL)
        assert serial.parallel_time == pytest.approx(serial.serial_time)
        assert par.serial_time == pytest.approx(serial.serial_time)
        assert 2.0 < par.speedup <= 4.0 + 1e-9

    def test_gpu_clocks_charged(self):
        node = Node("p100-sxm2", num_gpus=2)
        benchmark_kernels_parallel(node, self.geometries(),
                                   BatchSizePolicy.POWER_OF_TWO)
        assert all(g.clock > 0 for g in node.gpus)

    def test_cache_hits_not_scheduled(self):
        geoms = self.geometries()
        cache = BenchmarkCache()
        node = Node("p100-sxm2", num_gpus=2)
        first = benchmark_kernels_parallel(node, geoms,
                                           BatchSizePolicy.POWER_OF_TWO, cache=cache)
        assert first.parallel_time > 0
        second = benchmark_kernels_parallel(Node("p100-sxm2", 2), geoms,
                                            BatchSizePolicy.POWER_OF_TWO, cache=cache)
        assert second.parallel_time == 0.0
        assert second.benchmarks.keys() == first.benchmarks.keys()
        for key in geoms:
            assert second.benchmarks[key].sizes == first.benchmarks[key].sizes
