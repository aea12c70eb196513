"""Tests for MicroConfig / Configuration (the paper's section III-A types)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.config import EMPTY, Configuration, MicroConfig
from repro.cudnn.enums import BwdFilterAlgo, ConvType, FwdAlgo
from repro.errors import CacheError
from tests.conftest import BAD_MICRO_FIELDS


def mc(batch=32, algo=FwdAlgo.FFT, time=1.0, ws=100):
    return MicroConfig(batch, algo, time, ws)


class TestMicroConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MicroConfig(0, FwdAlgo.FFT, 1.0, 0)
        with pytest.raises(ValueError):
            MicroConfig(1, FwdAlgo.FFT, -1.0, 0)
        with pytest.raises(ValueError):
            MicroConfig(1, FwdAlgo.FFT, math.inf, 0)
        with pytest.raises(ValueError):
            MicroConfig(1, FwdAlgo.FFT, 1.0, -1)

    def test_frozen_and_hashable(self):
        assert len({mc(), mc()}) == 1


class TestConfiguration:
    def test_paper_aggregates(self):
        """Time sums (sequential micro-batches); workspace maxes (one shared
        slot per kernel)."""
        c = Configuration((mc(64, time=1.0, ws=50), mc(64, time=2.0, ws=80),
                           mc(128, time=3.0, ws=10)))
        assert c.batch == 256
        assert c.time == pytest.approx(6.0)
        assert c.workspace == 80
        assert c.num_micro_batches == 3
        assert not c.is_undivided

    def test_empty(self):
        assert EMPTY.batch == 0
        assert EMPTY.time == 0.0
        assert EMPTY.workspace == 0

    def test_concat_operator(self):
        """The paper's ⊕: [a] ⊕ [b] == [a, b]."""
        a, b = mc(64), mc(128, time=2.0)
        c = Configuration((a,)) + Configuration((b,))
        assert c.micros == (a, b)
        d = Configuration((a,)) + b
        assert d.micros == (a, b)
        assert (EMPTY + a).micros == (a,)

    def test_dominates(self):
        fast_small = Configuration((mc(time=1.0, ws=10),))
        slow_big = Configuration((mc(time=2.0, ws=20),))
        tie = Configuration((mc(time=1.0, ws=10),))
        assert fast_small.dominates(slow_big)
        assert not slow_big.dominates(fast_small)
        assert not fast_small.dominates(tie)  # weak dominance needs a strict edge

    def test_canonical_order_insensitive(self):
        a, b = mc(64, time=1.0), mc(128, time=2.0)
        assert Configuration((a, b)).canonical() == Configuration((b, a)).canonical()

    def test_iteration_and_len(self):
        c = Configuration((mc(), mc()))
        assert len(c) == 2
        assert all(isinstance(m, MicroConfig) for m in c)

    @pytest.mark.parametrize("conv_type,algo", [
        (ConvType.FORWARD, FwdAlgo.FFT_TILING),
        (ConvType.BACKWARD_FILTER, BwdFilterAlgo.WINOGRAD_NONFUSED),
    ])
    def test_serde_roundtrip(self, conv_type, algo):
        c = Configuration((MicroConfig(64, algo, 1.5, 1024),
                           MicroConfig(192, algo, 2.5, 2048)))
        back = Configuration.from_dict(c.to_dict(conv_type))
        assert back == c
        assert isinstance(back.micros[0].algo, type(algo))

    @pytest.mark.parametrize("field, value", BAD_MICRO_FIELDS)
    def test_from_dict_refuses_what_no_plan_holds(self, field, value):
        data = Configuration((mc(),)).to_dict(ConvType.FORWARD)
        data["micros"][0][field] = value
        with pytest.raises(CacheError, match=field):
            Configuration.from_dict(data)


sizes = st.lists(st.integers(1, 64), min_size=1, max_size=6)


@given(sizes=sizes, times=st.lists(st.floats(0.001, 10), min_size=6, max_size=6),
       wss=st.lists(st.integers(0, 10**9), min_size=6, max_size=6))
def test_aggregate_properties(sizes, times, wss):
    micros = tuple(
        MicroConfig(s, FwdAlgo.FFT, times[i % 6], wss[i % 6])
        for i, s in enumerate(sizes)
    )
    c = Configuration(micros)
    assert c.batch == sum(sizes)
    assert c.time == pytest.approx(sum(m.time for m in micros))
    assert c.workspace == max(m.workspace for m in micros)
    # Concatenation is associative over the aggregates.
    left = (Configuration(micros[:2]) + Configuration(micros[2:]))
    assert left.time == pytest.approx(c.time)
    assert left.workspace == c.workspace
