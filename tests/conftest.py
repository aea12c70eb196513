"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.device import Gpu
from repro.cudnn.enums import ConvType
from repro.cudnn.handle import CudnnHandle, ExecMode

# A failing example is printed as a reproduction blob
# (``@reproduce_failure``), so a failure that does not recur can still be
# replayed.  Everything else is the active profile's (Hypothesis's ``ci``
# profile when ``CI`` is set, else ``default``): example counts, deadlines
# and health checks do not change.
settings.register_profile("repro", settings(), print_blob=True)
settings.load_profile("repro")

#: ``(field, value)`` of one micro-configuration that no stored plan may
#: hold: a bool micro-batch or time, and a fractional, bool or infinite
#: workspace (``1e400`` in JSON).  Every decoder of stored plans refuses them.
BAD_MICRO_FIELDS = [
    ("micro_batch", True), ("workspace", 1.5), ("workspace", True),
    ("workspace", float("inf")), ("time", True),
]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def handle() -> CudnnHandle:
    """Numeric-mode handle on a P100 (the paper's primary GPU)."""
    return CudnnHandle(gpu=Gpu.create("p100-sxm2"), mode=ExecMode.NUMERIC)


@pytest.fixture
def timing_handle() -> CudnnHandle:
    return CudnnHandle(gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING)


def make_geometry(conv_type=ConvType.FORWARD, n=4, c=3, h=8, w=8, k=5, r=3, s=3,
                  pad=1, stride=1, dilation=1) -> ConvGeometry:
    """Compact geometry constructor for tests."""
    return ConvGeometry(
        conv_type=conv_type, n=n, c=c, h=h, w=w, k=k, r=r, s=s,
        pad_h=pad, pad_w=pad, stride_h=stride, stride_w=stride,
        dilation_h=dilation, dilation_w=dilation,
    )


def random_operands(rng: np.random.Generator, g: ConvGeometry):
    """(x, w, dy) FP32 operands matching a geometry."""
    x = rng.standard_normal(g.x_desc.shape).astype(np.float32)
    w = rng.standard_normal(g.w_desc.shape).astype(np.float32)
    dy = rng.standard_normal(g.y_desc.shape).astype(np.float32)
    return x, w, dy


def assert_close(actual, expected, tol=2e-3, context=""):
    """Relative max-error assertion tuned for FP32 kernel comparisons."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, (
        f"{context}: shape {actual.shape} != {expected.shape}"
    )
    scale = max(float(np.abs(expected).max()), 1e-9)
    err = float(np.abs(actual - expected).max()) / scale
    assert err < tol, f"{context}: relative error {err:.3e} >= {tol}"


#: Any JSON value, including what Python's JSON reads for ``1e400`` and
#: ``NaN``, bools, huge integers and nested containers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**64)
    | st.sampled_from([-1, 0, 1, 1.5, float("inf"), float("-inf"),
                       float("nan")])
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


def _paths(node, path=()):
    """The path of ``node`` and of every value inside it."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, (*path, index))


@st.composite
def mutated(draw, document):
    """``document`` with one to three values, at any path (the whole
    document included), replaced by any JSON value or removed."""
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(document))))
        value = draw(JSON_VALUES)
        if not path:
            document = value
            continue
        parent = document
        for step in path[:-1]:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return document
