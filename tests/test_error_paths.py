"""Negative-path tests: clear failures instead of confusing ones."""

import numpy as np
import pytest

from repro.core.handle import UcudnnHandle, VirtualAlgo
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn import api
from repro.cudnn.descriptors import (
    ConvolutionDescriptor,
    FilterDescriptor,
    TensorDescriptor,
)
from repro.cudnn.enums import ConvType, FwdAlgo
from repro.cudnn.handle import CudnnHandle
from repro.errors import BadParamError
from repro.units import MIB


@pytest.fixture
def descs():
    return (TensorDescriptor(4, 3, 8, 8), FilterDescriptor(5, 3, 3, 3),
            ConvolutionDescriptor(1, 1))


class TestVirtualAlgoLeak:
    def test_plain_handle_diagnoses_virtual_algo(self, descs, rng):
        """A UcudnnHandle's virtual algorithm on a plain handle must fail
        with a message pointing at the interposition mistake."""
        xd, wd, cd = descs
        g = api.make_geometry(ConvType.FORWARD, xd, wd, cd)
        x = rng.standard_normal(xd.shape).astype(np.float32)
        w = rng.standard_normal(wd.shape).astype(np.float32)
        with pytest.raises(BadParamError, match="virtual"):
            api.convolution_forward(CudnnHandle(), xd, x, wd, w, cd,
                                    VirtualAlgo(ConvType.FORWARD), 0, g.y_desc)

    def test_garbage_algo_rejected(self, descs, rng):
        xd, wd, cd = descs
        g = api.make_geometry(ConvType.FORWARD, xd, wd, cd)
        x = rng.standard_normal(xd.shape).astype(np.float32)
        w = rng.standard_normal(wd.shape).astype(np.float32)
        with pytest.raises(BadParamError):
            api.convolution_forward(CudnnHandle(), xd, x, wd, w, cd,
                                    "fastest-please", 0, g.y_desc)


class TestShapeMismatches:
    def test_wrong_op_algo_enum(self, descs, rng):
        """Passing a forward algorithm to backward-data fails cleanly."""
        xd, wd, cd = descs
        g = api.make_geometry(ConvType.FORWARD, xd, wd, cd)
        dy = rng.standard_normal(g.y_desc.shape).astype(np.float32)
        w = rng.standard_normal(wd.shape).astype(np.float32)
        # FwdAlgo.GEMM's value (2) is BwdDataAlgo.FFT -- enums coerce, so
        # the call is legal cuDNN-wise; what must NOT happen is silent
        # wrong numerics.  The dispatcher resolves by value, like cuDNN.
        out = api.convolution_backward_data(CudnnHandle(), wd, w, g.y_desc,
                                            dy, cd, FwdAlgo.GEMM,
                                            10**9, xd)
        assert out.shape == xd.shape

    def test_operand_shape_mismatch(self, descs, rng):
        xd, wd, cd = descs
        g = api.make_geometry(ConvType.FORWARD, xd, wd, cd)
        bad_x = rng.standard_normal((4, 3, 9, 9)).astype(np.float32)
        w = rng.standard_normal(wd.shape).astype(np.float32)
        with pytest.raises(BadParamError):
            api.convolution_forward(CudnnHandle(), xd, bad_x, wd, w, cd,
                                    FwdAlgo.IMPLICIT_GEMM, 0, g.y_desc)


class TestHandleMisuse:
    def test_ucudnn_without_registration_still_works(self, descs, rng):
        """Calling convolution without ever calling Get first: mu-cuDNN
        registers lazily rather than failing (robustness beyond Caffe's
        calling convention)."""
        xd, wd, cd = descs
        g = api.make_geometry(ConvType.FORWARD, xd, wd, cd)
        handle = UcudnnHandle(options=Options(
            policy=BatchSizePolicy.POWER_OF_TWO, workspace_limit=1 * MIB))
        x = rng.standard_normal(xd.shape).astype(np.float32)
        w = rng.standard_normal(wd.shape).astype(np.float32)
        y = api.convolution_forward(handle, xd, x, wd, w, cd,
                                    VirtualAlgo(ConvType.FORWARD), 0, g.y_desc)
        assert y.shape == g.y_desc.shape

    def test_wd_lazy_kernel_triggers_resolve(self, descs, rng):
        """WD mode with a never-registered kernel re-solves instead of
        crashing (section III-E's calling-convention assumption, relaxed)."""
        xd, wd, cd = descs
        g = api.make_geometry(ConvType.FORWARD, xd, wd, cd)
        handle = UcudnnHandle(options=Options(
            policy=BatchSizePolicy.POWER_OF_TWO, total_workspace=1 * MIB))
        x = rng.standard_normal(xd.shape).astype(np.float32)
        w = rng.standard_normal(wd.shape).astype(np.float32)
        api.convolution_forward(handle, xd, x, wd, w, cd,
                                VirtualAlgo(ConvType.FORWARD), 0, g.y_desc)
        assert handle.wd_result is not None
        # A second, different kernel arrives late: WD re-solves over both.
        xd2 = TensorDescriptor(4, 3, 12, 12)
        g2 = api.make_geometry(ConvType.FORWARD, xd2, wd, cd)
        x2 = rng.standard_normal(xd2.shape).astype(np.float32)
        api.convolution_forward(handle, xd2, x2, wd, w, cd,
                                VirtualAlgo(ConvType.FORWARD), 0, g2.y_desc)
        assert len(handle.configurations()) == 2
        assert handle.wd_result.total_workspace <= 1 * MIB
