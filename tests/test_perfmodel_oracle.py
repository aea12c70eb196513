"""The production performance model against an independent reference.

``tests/perfmodel_reference.py`` keeps the scalar formulas as they were
before the model derived each geometry's shapes once.  Both production
Find paths -- the per-size ``find_all`` that frameworks' Get calls reach
and the one-pass ``find_all_batched`` that the solver uses -- must return
exactly (``==``) what the reference returns, for every operation type,
algorithm and GPU.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.benchmarker import benchmark_kernel
from repro.core.policies import BatchSizePolicy, candidate_sizes
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.device import K80, P100_SXM2, V100_SXM2, Gpu
from repro.cudnn.enums import ConvType, algos_for
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.cudnn.perfmodel import PerfModel
from repro.cudnn.workspace import is_supported, workspace_size
from repro.errors import BadParamError, NotSupportedError
from tests import perfmodel_reference as ref

SPECS = (K80, P100_SXM2, V100_SXM2)


@st.composite
def oracle_geometry(draw):
    """Grouped, strided, dilated, over-padded and FFT-oversized layers."""
    groups = draw(st.sampled_from([1, 1, 2, 3]))
    r = draw(st.sampled_from([1, 3, 5, 7]))
    s = draw(st.sampled_from([r, r, 1, 3]))
    dilation = draw(st.sampled_from([1, 1, 2]))
    g = ConvGeometry(
        conv_type=ConvType.FORWARD,
        n=draw(st.integers(1, 24)),
        c=groups * draw(st.sampled_from([1, 3, 16, 48])),
        h=draw(st.sampled_from([5, 13, 28, 300])),
        w=draw(st.sampled_from([5, 13, 28, 300])),
        k=groups * draw(st.sampled_from([1, 16, 40])),
        r=r, s=s,
        pad_h=draw(st.integers(0, r + 1)), pad_w=draw(st.integers(0, s + 1)),
        stride_h=draw(st.sampled_from([1, 1, 2, 3])),
        stride_w=draw(st.sampled_from([1, 1, 2])),
        dilation_h=dilation, dilation_w=dilation,
        groups=groups,
    )
    assume((g.r - 1) * g.dilation_h + 1 <= g.h + 2 * g.pad_h)
    assume((g.s - 1) * g.dilation_w + 1 <= g.w + 2 * g.pad_w)
    return g


def _geometry(**fields) -> ConvGeometry:
    base = dict(conv_type=ConvType.FORWARD, n=12, c=16, h=13, w=13, k=32,
                r=3, s=3, pad_h=1, pad_w=1)
    base.update(fields)
    return ConvGeometry(**base)


@settings(max_examples=25, deadline=None)
@given(g=oracle_geometry())
@example(g=_geometry(c=32, groups=2))
@example(g=_geometry(stride_h=2, stride_w=2))
@example(g=_geometry(dilation_h=2, dilation_w=2))
@example(g=_geometry(pad_h=3, pad_w=4))  # pad >= filter: no transforms
@example(g=_geometry(h=300, w=280, n=3))  # FFT transform size > 256
@example(g=_geometry(r=5, s=5, pad_h=2, pad_w=2, n=9))
def test_production_model_equals_reference(g):
    sizes = candidate_sizes(BatchSizePolicy.ALL, g.n)
    for spec in SPECS:
        model = PerfModel(spec)
        oracle = ref.ReferenceModel(spec)
        handle = CudnnHandle(gpu=Gpu(spec), mode=ExecMode.TIMING)
        for conv_type in ConvType:
            gt = g.with_type(conv_type)
            for algo in algos_for(conv_type):
                assert is_supported(gt, algo) == ref.is_supported(gt, algo)
                assert workspace_size(gt, algo) == ref.workspace_size(gt, algo)
                assert model.query(gt, algo) == oracle.query(gt, algo)
                if ref.is_supported(gt, algo):
                    assert model.time(gt, algo) == oracle.time(gt, algo)
                else:
                    with pytest.raises(NotSupportedError):
                        model.time(gt, algo)
            assert model.find_all(gt) == oracle.find_all(gt)
            expected = oracle.find_all_per_size(gt, sizes)
            assert list(model.find_all_batched(gt, sizes)) == expected
            # Unsorted, repeated sizes are answered in the order asked.
            odd = sizes[::-2] + sizes[:2]
            assert list(model.find_all_batched(gt, odd)) == \
                oracle.find_all_per_size(gt, odd)
            # benchmark_kernel charges every supported row, in Find order.
            total = 0.0
            for rows in expected:
                total += sum(r.time for r in rows if r.ok)
            bench = benchmark_kernel(handle, gt, BatchSizePolicy.ALL)
            assert bench.benchmark_time == total


def _largest_batch(model: PerfModel, g: ConvGeometry) -> int:
    """Largest batch size ``find_all`` accepts for ``g`` (by bisection)."""
    lo, hi = 1, 2**70
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            model.find_all(g.with_batch(mid))
            lo = mid
        except BadParamError:
            hi = mid - 1
    return lo


@settings(max_examples=15, deadline=None)
@given(g=oracle_geometry())
@example(g=_geometry(c=1, k=1, h=1, w=1, r=1, s=1, pad_h=0, pad_w=0))
@example(g=_geometry(c=512, k=512, h=56, w=56))
@example(g=_geometry(c=64, groups=4, h=300, w=280))
def test_batch_size_bound_is_exact(g):
    """Up to the largest batch size the model accepts, the batched path's
    int64 arithmetic equals the reference's exact integers; one past it,
    both paths raise BadParamError."""
    model = PerfModel(P100_SXM2)
    oracle = ref.ReferenceModel(P100_SXM2)
    for conv_type in ConvType:
        gt = g.with_type(conv_type)
        n = _largest_batch(model, gt)
        assert list(model.find_all_batched(gt, [n, 1])) == \
            oracle.find_all_per_size(gt, [n, 1])
        with pytest.raises(BadParamError):
            model.find_all_batched(gt, [1, n + 1])
        with pytest.raises(BadParamError):
            model.find_all(gt.with_batch(n + 1))


@settings(max_examples=10, deadline=None)
@given(g=oracle_geometry(), sample=st.integers(0, 5))
def test_jittered_model_equals_reference(g, sample):
    for spec in SPECS:
        model = PerfModel(spec, jitter=0.1)
        oracle = ref.ReferenceModel(spec, jitter=0.1)
        for conv_type in ConvType:
            gt = g.with_type(conv_type)
            assert model.find_all(gt, sample=sample) == \
                oracle.find_all(gt, sample=sample)
