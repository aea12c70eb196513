"""Tests for cuDNN descriptor types and geometry derivations."""

import copy
import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cudnn.descriptors import (
    ConvGeometry,
    ConvolutionDescriptor,
    FilterDescriptor,
    TensorDescriptor,
    output_dims,
)
from repro.cudnn.enums import ConvType
from repro.errors import BadParamError
from tests.conftest import make_geometry


class TestTensorDescriptor:
    def test_shape_and_sizes(self):
        t = TensorDescriptor(2, 3, 5, 7)
        assert t.shape == (2, 3, 5, 7)
        assert t.count == 210
        assert t.size_bytes == 840

    def test_with_batch(self):
        t = TensorDescriptor(8, 3, 5, 7).with_batch(2)
        assert t.shape == (2, 3, 5, 7)

    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1)])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(BadParamError):
            TensorDescriptor(*bad)


class TestFilterDescriptor:
    def test_sizes(self):
        f = FilterDescriptor(4, 3, 3, 3)
        assert f.count == 108
        assert f.size_bytes == 432

    def test_rejects_zero(self):
        with pytest.raises(BadParamError):
            FilterDescriptor(0, 3, 3, 3)


class TestConvolutionDescriptor:
    def test_defaults(self):
        c = ConvolutionDescriptor()
        assert (c.pad_h, c.stride_h, c.dilation_h) == (0, 1, 1)

    def test_rejects_negative_pad(self):
        with pytest.raises(BadParamError):
            ConvolutionDescriptor(pad_h=-1)

    def test_rejects_zero_stride(self):
        with pytest.raises(BadParamError):
            ConvolutionDescriptor(stride_h=0)


class TestOutputDims:
    def test_alexnet_conv1(self):
        # 227x227, 11x11 stride 4: (227 - 11) / 4 + 1 = 55.
        y = output_dims(
            TensorDescriptor(256, 3, 227, 227),
            FilterDescriptor(64, 3, 11, 11),
            ConvolutionDescriptor(stride_h=4, stride_w=4),
        )
        assert y.shape == (256, 64, 55, 55)

    def test_same_padding(self):
        y = output_dims(
            TensorDescriptor(1, 8, 13, 13),
            FilterDescriptor(8, 8, 3, 3),
            ConvolutionDescriptor(pad_h=1, pad_w=1),
        )
        assert (y.h, y.w) == (13, 13)

    def test_dilation(self):
        # Effective kernel 5 with dilation 2 on 3x3.
        y = output_dims(
            TensorDescriptor(1, 1, 9, 9),
            FilterDescriptor(1, 1, 3, 3),
            ConvolutionDescriptor(dilation_h=2, dilation_w=2),
        )
        assert (y.h, y.w) == (5, 5)

    def test_channel_mismatch(self):
        with pytest.raises(BadParamError):
            output_dims(
                TensorDescriptor(1, 3, 8, 8),
                FilterDescriptor(4, 5, 3, 3),
                ConvolutionDescriptor(),
            )

    def test_empty_output(self):
        with pytest.raises(BadParamError):
            output_dims(
                TensorDescriptor(1, 1, 2, 2),
                FilterDescriptor(1, 1, 5, 5),
                ConvolutionDescriptor(),
            )


class TestConvGeometry:
    def test_macs_match_loop_nest(self):
        g = make_geometry(n=2, c=3, h=6, w=6, k=4, r=3, s=3, pad=1)
        # N * K * H' * W' * C * R * S (Algorithm 1's seven loops).
        assert g.macs == 2 * 4 * 6 * 6 * 3 * 3 * 3
        assert g.flops == 2 * g.macs

    def test_macs_equal_across_op_types(self):
        g = make_geometry()
        for ct in ConvType:
            assert g.with_type(ct).macs == g.macs

    def test_with_batch_identity(self):
        g = make_geometry(n=8)
        assert g.with_batch(8) is g
        assert g.with_batch(2).n == 2
        assert g.with_batch(2).with_batch(8) == g

    def test_cache_key_distinguishes_geometry(self):
        a = make_geometry(n=8)
        keys = {
            a.cache_key(),
            a.with_batch(4).cache_key(),
            a.with_type(ConvType.BACKWARD_DATA).cache_key(),
            make_geometry(n=8, pad=0).cache_key(),
        }
        assert len(keys) == 4

    def test_roundtrip_descriptors(self):
        g = make_geometry(n=3, c=2, h=9, w=7, k=4, r=3, s=3, pad=1, stride=2)
        rebuilt = ConvGeometry.from_descriptors(
            g.conv_type, g.x_desc, g.w_desc, g.conv_desc
        )
        assert rebuilt == g

    def test_rejects_negative_pad(self):
        with pytest.raises(BadParamError):
            make_geometry(pad=-1)

    def test_hashable(self):
        assert len({make_geometry(), make_geometry()}) == 1


class TestIntegerFields:
    """Fields are integers: ``n=2.5`` or ``c=3.0`` would otherwise be kept
    raw and give second cache keys (``n2.5``, ``c3.0``) for one shape."""

    @pytest.mark.parametrize("field", ["n", "c", "h", "k", "r", "pad_h",
                                       "stride_w", "dilation_h", "groups"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "3", None])
    def test_geometry_rejects_non_integers(self, field, value):
        fields = dataclasses.asdict(make_geometry())
        fields[field] = value
        with pytest.raises(BadParamError):
            ConvGeometry(**fields)

    @pytest.mark.parametrize("make", [
        lambda v: TensorDescriptor(v, 3, 5, 7),
        lambda v: FilterDescriptor(4, v, 3, 3),
        lambda v: ConvolutionDescriptor(pad_w=v),
        lambda v: ConvolutionDescriptor(groups=v),
    ])
    @pytest.mark.parametrize("value", [2.5, 1.0, True])
    def test_descriptors_reject_non_integers(self, make, value):
        with pytest.raises(BadParamError):
            make(value)

    def test_numpy_integers_still_pass(self):
        g = make_geometry(n=np.int64(8), c=np.int32(3))
        assert g == make_geometry(n=8, c=3)
        assert g.cache_key() == make_geometry(n=8, c=3).cache_key()
        assert TensorDescriptor(np.int64(2), 3, 5, 7).count == 210


class TestOutputMemo:
    """``y_desc`` is derived once per instance and never leaks into the
    geometry's identity, its copies or its pickles."""

    def test_identity_unchanged_by_memo(self):
        fresh, memoized = make_geometry(stride=2), make_geometry(stride=2)
        y = memoized.y_desc
        assert memoized.y_desc is y  # derived once
        assert memoized == fresh and hash(memoized) == hash(fresh)
        assert repr(memoized) == repr(fresh)
        assert memoized.cache_key() == fresh.cache_key()
        assert pickle.dumps(memoized) == pickle.dumps(fresh)

    def test_copies_never_carry_a_stale_shape(self):
        g = make_geometry(n=8, h=9, w=9, pad=0)
        y = g.y_desc
        for other in (pickle.loads(pickle.dumps(g)), copy.copy(g),
                      copy.deepcopy(g)):
            assert other == g and "_y_desc" not in vars(other)
            assert other.y_desc == y
        reshaped = {
            "replace": dataclasses.replace(g, h=13, pad_h=1),
            "with_batch": g.with_batch(2),
            "with_type": g.with_type(ConvType.BACKWARD_FILTER),
            "group_geometry": dataclasses.replace(g, c=6, k=10,
                                                  groups=2).group_geometry(),
        }
        for how, other in reshaped.items():
            expected = output_dims(
                TensorDescriptor(other.n, other.c, other.h, other.w),
                FilterDescriptor(other.k, other.c // other.groups,
                                 other.r, other.s),
                other.conv_desc,
            )
            assert other.y_desc == expected, how
        assert g.with_batch(2).y_desc.n == 2
        assert dataclasses.replace(g, h=13, pad_h=1).y_desc.h == 13

    def test_failure_is_never_memoized(self):
        g = make_geometry(h=2, w=2, r=5, s=5, pad=0)  # constructs: empty output
        for _ in range(3):
            with pytest.raises(BadParamError, match="empty"):
                _ = g.y_desc
        assert "_y_desc" not in vars(g)

    def test_concurrent_first_reads_agree_and_take_no_lock(self):
        """No lock is created or taken (``functools.cached_property`` would
        take a class-wide one that the lock analyzer and sanitizer cannot
        see); racing first reads still agree."""
        lock_types = (type(threading.Lock()), type(threading.RLock()))
        geometries = [make_geometry(n=n, stride=2) for n in range(1, 65)]
        barrier = threading.Barrier(2)
        seen: list[list] = [[], []]
        locks: list = []

        def watch(frame, event, arg):
            if event == "c_call" and (
                isinstance(getattr(arg, "__self__", None), lock_types)
                or getattr(arg, "__name__", "") in ("allocate_lock", "RLock")
            ):
                locks.append(arg)

        def read(slot: int) -> None:
            barrier.wait(timeout=10)
            sys.setprofile(watch)
            try:
                seen[slot] = [g.y_desc for g in geometries]
            finally:
                sys.setprofile(None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen[0] == seen[1] == [
            output_dims(g.x_desc, g.w_desc, g.conv_desc) for g in geometries
        ]
        assert locks == []


@given(
    n=st.integers(1, 16), c=st.integers(1, 8), hw=st.integers(3, 20),
    k=st.integers(1, 8), r=st.integers(1, 3), stride=st.integers(1, 3),
)
def test_output_dims_nonempty_and_consistent(n, c, hw, k, r, stride):
    """Property: y_desc agrees with output_dims and is always positive."""
    g = ConvGeometry(ConvType.FORWARD, n, c, hw, hw, k, r, r,
                     pad_h=r // 2, pad_w=r // 2, stride_h=stride, stride_w=stride)
    y = g.y_desc
    assert y.n == n and y.c == k
    assert y.h >= 1 and y.w >= 1
    expected_h = (hw + 2 * (r // 2) - r) // stride + 1
    assert y.h == expected_h
