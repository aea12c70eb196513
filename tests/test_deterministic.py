"""Tests for the deterministic-algorithms mode."""

import numpy as np
import pytest

from repro.core.benchmarker import benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.handle import UcudnnHandle
from repro.core.options import ENV_DETERMINISTIC, Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn import api
from repro.cudnn.descriptors import (
    ConvolutionDescriptor,
    FilterDescriptor,
    TensorDescriptor,
)
from repro.cudnn.enums import (
    BwdDataAlgo,
    BwdFilterAlgo,
    ConvType,
    FwdAlgo,
    is_deterministic,
)
from repro.units import MIB
from tests.conftest import make_geometry


class TestPredicate:
    def test_forward_all_deterministic(self):
        assert all(is_deterministic(ConvType.FORWARD, a) for a in FwdAlgo)

    def test_atomics_algorithms_flagged(self):
        assert not is_deterministic(ConvType.BACKWARD_DATA, BwdDataAlgo.ALGO_0)
        assert not is_deterministic(ConvType.BACKWARD_FILTER, BwdFilterAlgo.ALGO_0)
        assert is_deterministic(ConvType.BACKWARD_DATA, BwdDataAlgo.ALGO_1)
        assert is_deterministic(ConvType.BACKWARD_FILTER, BwdFilterAlgo.ALGO_1)


class TestBenchmarkerFilter:
    def test_filter_removes_atomics_entries(self, timing_handle):
        g = make_geometry(n=8).with_type(ConvType.BACKWARD_FILTER)
        plain = benchmark_kernel(timing_handle, g, BatchSizePolicy.UNDIVIDED)
        det = benchmark_kernel(timing_handle, g, BatchSizePolicy.UNDIVIDED,
                               deterministic_only=True)
        plain_algos = {r.algo for r in plain.results[8]}
        det_algos = {r.algo for r in det.results[8]}
        assert BwdFilterAlgo.ALGO_0 in plain_algos
        assert BwdFilterAlgo.ALGO_0 not in det_algos
        assert det_algos < plain_algos

    def test_shared_cache_serves_both_settings(self, timing_handle):
        g = make_geometry(n=8).with_type(ConvType.BACKWARD_DATA)
        cache = BenchmarkCache()
        benchmark_kernel(timing_handle, g, BatchSizePolicy.UNDIVIDED, cache=cache)
        det = benchmark_kernel(timing_handle, g, BatchSizePolicy.UNDIVIDED,
                               cache=cache, deterministic_only=True)
        assert det.benchmark_time == 0.0  # cache hit
        assert all(is_deterministic(ConvType.BACKWARD_DATA, r.algo)
                   for r in det.results[8])


class TestHandleIntegration:
    def _run_backward(self, handle, rng):
        xd = TensorDescriptor(16, 4, 10, 10)
        wd = FilterDescriptor(8, 4, 3, 3)
        cd = ConvolutionDescriptor(1, 1)
        g = api.make_geometry(ConvType.FORWARD, xd, wd, cd)
        x = rng.standard_normal(xd.shape).astype(np.float32)
        w = rng.standard_normal(wd.shape).astype(np.float32)
        dy = rng.standard_normal(g.y_desc.shape).astype(np.float32)
        for ct in ConvType:
            api.get_algorithm(handle, api.make_geometry(ct, xd, wd, cd),
                              api.AlgoPreference.SPECIFY_WORKSPACE_LIMIT, 1 * MIB)
        api.convolution_backward_data(
            handle, wd, w, g.y_desc, dy, cd, None, 0, xd
        )
        api.convolution_backward_filter(
            handle, xd, x, g.y_desc, dy, cd, None, 0, wd
        )
        return handle.configurations()

    def test_configurations_avoid_atomics(self, rng):
        handle = UcudnnHandle(options=Options(
            policy=BatchSizePolicy.POWER_OF_TWO, deterministic=True,
            workspace_limit=1 * MIB,
        ))
        configs = self._run_backward(handle, rng)
        for g, config in configs.items():
            for micro in config:
                assert is_deterministic(g.conv_type, micro.algo), (g, micro)

    def test_cache_keys_distinguish_modes(self, rng, tmp_path):
        """A config optimized without the flag must not leak into a
        deterministic handle via the shared file DB."""
        db = str(tmp_path / "db.json")
        plain = UcudnnHandle(options=Options(
            policy=BatchSizePolicy.POWER_OF_TWO, workspace_limit=1 * MIB,
            benchmark_db=db))
        self._run_backward(plain, np.random.default_rng(0))
        plain.cache.save()
        det = UcudnnHandle(options=Options(
            policy=BatchSizePolicy.POWER_OF_TWO, workspace_limit=1 * MIB,
            benchmark_db=db, deterministic=True))
        configs = self._run_backward(det, np.random.default_rng(0))
        for g, config in configs.items():
            for micro in config:
                assert is_deterministic(g.conv_type, micro.algo)


class TestEnv:
    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("0", False), ("", False), ("no", False),
    ])
    def test_env_parsing(self, value, expected):
        assert Options.from_env({ENV_DETERMINISTIC: value}).deterministic is expected
