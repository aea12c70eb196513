"""Tests for the transparent UcudnnHandle interposition (section III-D/E)."""

import numpy as np
import pytest

from repro.core.handle import (
    UcudnnHandle,
    UcudnnHandle_t,
    VirtualAlgo,
    raise_if_virtual,
)
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn import api
from repro.cudnn.descriptors import (
    ConvolutionDescriptor,
    FilterDescriptor,
    TensorDescriptor,
)
from repro.cudnn.enums import ConvType
from repro.cudnn.handle import CudnnHandle
from repro.errors import UcudnnError
from repro.units import MIB
from tests.conftest import assert_close


def framework_pass(handle, rng, n=16):
    """Framework-style code: Get algorithms at setup, run all three ops."""
    xd = TensorDescriptor(n, 6, 11, 11)
    wd = FilterDescriptor(10, 6, 3, 3)
    cd = ConvolutionDescriptor(1, 1)
    g = api.make_geometry(ConvType.FORWARD, xd, wd, cd)
    x = rng.standard_normal(xd.shape).astype(np.float32)
    w = rng.standard_normal(wd.shape).astype(np.float32)
    dy = rng.standard_normal(g.y_desc.shape).astype(np.float32)

    algos, sizes = {}, {}
    for ct in ConvType:
        gk = api.make_geometry(ct, xd, wd, cd)
        algos[ct] = api.get_algorithm(
            handle, gk, api.AlgoPreference.SPECIFY_WORKSPACE_LIMIT, 1 * MIB
        )
        sizes[ct] = api.get_workspace_size(handle, gk, algos[ct])

    y = api.convolution_forward(handle, xd, x, wd, w, cd,
                                algos[ConvType.FORWARD],
                                sizes[ConvType.FORWARD], g.y_desc)
    dw = api.convolution_backward_filter(handle, xd, x, g.y_desc, dy, cd,
                                         algos[ConvType.BACKWARD_FILTER],
                                         sizes[ConvType.BACKWARD_FILTER], wd)
    dx = api.convolution_backward_data(handle, wd, w, g.y_desc, dy, cd,
                                       algos[ConvType.BACKWARD_DATA],
                                       sizes[ConvType.BACKWARD_DATA], xd)
    return y, dw, dx


class TestTransparency:
    def test_numerics_identical_to_plain_cudnn(self):
        """The whole point: swapping the handle changes nothing numerically."""
        ref = framework_pass(CudnnHandle(), np.random.default_rng(5))
        uc = framework_pass(
            UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                                         workspace_limit=256 * 1024)),
            np.random.default_rng(5),
        )
        for a, b, name in zip(ref, uc, ("y", "dw", "dx")):
            assert_close(b, a, tol=2e-3, context=name)

    def test_wd_mode_numerics_identical(self):
        ref = framework_pass(CudnnHandle(), np.random.default_rng(6))
        handle = UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                                              total_workspace=1 * MIB))
        uc = framework_pass(handle, np.random.default_rng(6))
        for a, b in zip(ref, uc):
            assert_close(b, a, tol=2e-3)
        assert handle.wd_result is not None
        assert handle.wd_result.total_workspace <= 1 * MIB

    def test_virtual_algorithm_and_zero_workspace(self):
        """Section III-D: the wrapper returns a virtual algorithm ID and
        zero required workspace, so frameworks allocate nothing."""
        handle = UcudnnHandle()
        g = api.make_geometry(
            ConvType.FORWARD,
            TensorDescriptor(8, 4, 10, 10),
            FilterDescriptor(8, 4, 3, 3),
            ConvolutionDescriptor(1, 1),
        )
        algo = api.get_algorithm(handle, g,
                                 api.AlgoPreference.SPECIFY_WORKSPACE_LIMIT,
                                 64 * MIB)
        assert isinstance(algo, VirtualAlgo)
        assert api.get_workspace_size(handle, g, algo) == 0
        assert int(algo) == -1

    def test_find_algorithms_interposed(self):
        handle = UcudnnHandle()
        g = api.make_geometry(
            ConvType.FORWARD,
            TensorDescriptor(8, 4, 10, 10),
            FilterDescriptor(8, 4, 3, 3),
            ConvolutionDescriptor(1, 1),
        )
        results = api.find_algorithms(handle, g)
        assert len(results) == 1
        assert isinstance(results[0].algo, VirtualAlgo)
        assert results[0].workspace == 0

    def test_cast_operator_delegates(self):
        """The paper's cast to cudnnHandle_t: unknown attributes resolve to
        the wrapped handle."""
        handle = UcudnnHandle()
        assert handle.gpu is handle.inner.gpu
        assert handle.mode == handle.inner.mode
        assert handle.elapsed == 0.0

    def test_type_alias(self):
        assert UcudnnHandle_t is UcudnnHandle


class TestWorkspaceOwnership:
    def test_workspace_respects_framework_limit(self, rng):
        handle = UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO))
        framework_pass(handle, rng)
        for g, config in handle.configurations().items():
            assert config.workspace <= 1 * MIB  # the limit passed by Get

    def test_options_limit_when_framework_passes_none(self, rng):
        """The TF case (section IV-B2): no limit through the API, so
        mu-cuDNN falls back to its own configured limit."""
        handle = UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                                              workspace_limit=64 * 1024))
        xd = TensorDescriptor(8, 4, 10, 10)
        wd = FilterDescriptor(8, 4, 3, 3)
        cd = ConvolutionDescriptor(1, 1)
        g = api.make_geometry(ConvType.FORWARD, xd, wd, cd)
        api.get_algorithm(handle, g, api.AlgoPreference.PREFER_FASTEST, None)
        x = rng.standard_normal(xd.shape).astype(np.float32)
        w = rng.standard_normal(wd.shape).astype(np.float32)
        api.convolution_forward(handle, xd, x, wd, w, cd, VirtualAlgo(ConvType.FORWARD),
                                0, g.y_desc)
        config = handle.configurations()[g]
        assert config.workspace <= 64 * 1024

    def test_memory_accounting(self, rng):
        handle = UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO))
        framework_pass(handle, rng)
        tags = handle.gpu.memory.live_by_tag()
        assert tags.get("workspace", 0) == handle.total_workspace_bytes()
        handle.release_workspaces()
        assert handle.gpu.memory.live_by_tag().get("workspace", 0) == 0

    def test_transient_workspace_frees_after_use(self, rng):
        handle = UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO),
                              transient_workspace=True)
        framework_pass(handle, rng)
        assert handle.gpu.memory.live_by_tag().get("workspace", 0) == 0
        # But the peak shows the transient allocations happened.
        assert handle.gpu.memory.peak > 0


class TestCachingAndCost:
    def test_configuration_cached_across_repeats(self, rng):
        handle = UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO))
        framework_pass(handle, rng)
        cost_first = handle.benchmark_time
        assert cost_first > 0
        framework_pass(handle, rng)  # same geometries again
        assert handle.benchmark_time == cost_first  # nothing re-benchmarked

    def test_shared_file_cache(self, rng, tmp_path):
        db = tmp_path / "db.json"
        h1 = UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                                          benchmark_db=str(db)))
        framework_pass(h1, rng)
        h1.cache.save()
        h2 = UcudnnHandle(options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                                          benchmark_db=str(db)))
        framework_pass(h2, np.random.default_rng(9))
        assert h2.benchmark_time == 0.0  # everything served from the file DB

    def test_freeze_ignores_new_registrations(self):
        handle = UcudnnHandle()
        g = api.make_geometry(
            ConvType.FORWARD,
            TensorDescriptor(8, 4, 10, 10),
            FilterDescriptor(8, 4, 3, 3),
            ConvolutionDescriptor(1, 1),
        )
        handle.freeze()
        api.get_algorithm(handle, g, api.AlgoPreference.PREFER_FASTEST)
        assert g not in handle._limits


class TestGuards:
    def test_raise_if_virtual(self):
        with pytest.raises(UcudnnError):
            raise_if_virtual(VirtualAlgo(ConvType.FORWARD))
        raise_if_virtual("anything-else")  # no-op
