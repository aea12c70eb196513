"""Tests for the analytic performance model."""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.device import K80, P100_SXM2, V100_SXM2
from repro.cudnn.enums import ConvType, FwdAlgo, algos_for
from repro.cudnn.perfmodel import PerfModel, PerfResult, family_to_algo
from repro.cudnn.status import Status
from repro.errors import NotSupportedError
from repro.units import MIB
from tests.conftest import make_geometry

CONV2 = ConvGeometry(ConvType.FORWARD, 256, 64, 27, 27, 192, 5, 5, 2, 2)


@pytest.fixture
def pm():
    return PerfModel(P100_SXM2)


class TestDeterminism:
    def test_time_is_pure(self, pm):
        g = make_geometry()
        assert pm.time(g, FwdAlgo.WINOGRAD) == pm.time(g, FwdAlgo.WINOGRAD)

    def test_find_all_stable(self, pm):
        a = pm.find_all(CONV2)
        b = pm.find_all(CONV2)
        assert [(r.algo, r.time) for r in a] == [(r.algo, r.time) for r in b]

    def test_jitter_zero_by_default(self):
        g = make_geometry()
        assert PerfModel(P100_SXM2).time(g, FwdAlgo.WINOGRAD) == \
            PerfModel(P100_SXM2, jitter=0.0).time(g, FwdAlgo.WINOGRAD)

    def test_jitter_bounded_and_deterministic(self):
        g = make_geometry()
        noisy = PerfModel(P100_SXM2, jitter=0.1)
        base = PerfModel(P100_SXM2).time(g, FwdAlgo.WINOGRAD)
        t1 = noisy.time(g, FwdAlgo.WINOGRAD, sample=1)
        t2 = noisy.time(g, FwdAlgo.WINOGRAD, sample=2)
        assert t1 == noisy.time(g, FwdAlgo.WINOGRAD, sample=1)
        assert abs(t1 / base - 1.0) <= 0.1 + 1e-12
        assert t1 != t2  # different samples differ (almost surely)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            PerfModel(P100_SXM2, jitter=-0.1)


class TestPaperShapes:
    def test_fft_beats_gemm_on_conv2(self, pm):
        """The 5x5 layer is the FFT showcase (Fig. 1/9)."""
        t_fft = pm.time(CONV2, FwdAlgo.FFT)
        t_gemm = pm.time(CONV2, FwdAlgo.IMPLICIT_PRECOMP_GEMM)
        assert 2.0 < t_gemm / t_fft < 10.0

    def test_winograd_wins_3x3(self, pm):
        """AlexNet conv3-5 territory: Winograd should top 3x3 layers."""
        g = ConvGeometry(ConvType.FORWARD, 256, 192, 13, 13, 384, 3, 3, 1, 1)
        best = pm.find_all(g)[0]
        assert best.algo in (FwdAlgo.WINOGRAD, FwdAlgo.WINOGRAD_NONFUSED)

    def test_stride4_layer_gets_gemm_only(self, pm):
        conv1 = ConvGeometry(ConvType.FORWARD, 256, 3, 227, 227, 64, 11, 11,
                             0, 0, 4, 4)
        ok = [r.algo for r in pm.find_all(conv1) if r.ok]
        assert set(ok) <= {FwdAlgo.IMPLICIT_GEMM, FwdAlgo.IMPLICIT_PRECOMP_GEMM,
                           FwdAlgo.GEMM}

    def test_per_sample_time_improves_with_batch(self, pm):
        """Occupancy: small micro-batches are less efficient per sample --
        the force that bounds how finely WR divides."""
        t1 = pm.time(CONV2.with_batch(1), FwdAlgo.IMPLICIT_PRECOMP_GEMM)
        t256 = pm.time(CONV2, FwdAlgo.IMPLICIT_PRECOMP_GEMM)
        assert t1 > t256 / 256

    def test_faster_gpus_are_faster(self):
        g = CONV2
        times = [
            PerfModel(spec).time(g, FwdAlgo.IMPLICIT_PRECOMP_GEMM)
            for spec in (K80, P100_SXM2, V100_SXM2)
        ]
        assert times[0] > times[1] > times[2]

    def test_backward_filter_costs_more_than_forward(self, pm):
        from repro.cudnn.enums import BwdFilterAlgo

        f = pm.time(CONV2, FwdAlgo.IMPLICIT_PRECOMP_GEMM)
        bf = pm.time(CONV2.with_type(ConvType.BACKWARD_FILTER), BwdFilterAlgo.ALGO_1)
        assert bf > f


class TestQueries:
    def test_unsupported_raises(self, pm):
        with pytest.raises(NotSupportedError):
            pm.time(make_geometry(), FwdAlgo.DIRECT)

    def test_query_reports_status(self, pm):
        r = pm.query(make_geometry(), FwdAlgo.DIRECT)
        assert not r.ok and math.isinf(r.time)

    def test_find_all_sorted_and_complete(self, pm):
        results = pm.find_all(CONV2)
        assert len(results) == len(algos_for(ConvType.FORWARD))
        times = [r.time for r in results]
        assert times == sorted(times)

    def test_fastest_respects_limit(self, pm):
        unlimited = pm.fastest(CONV2)
        capped = pm.fastest(CONV2, workspace_limit=64 * MIB)
        assert unlimited.workspace > 64 * MIB
        assert capped.workspace <= 64 * MIB
        assert capped.time >= unlimited.time

    def test_fastest_zero_limit_always_exists(self, pm):
        r = pm.fastest(CONV2, workspace_limit=0)
        assert r is not None and r.workspace == 0

    def test_minus_one_byte_cliff(self, pm):
        """The Fig. 1 mechanism: one byte under the best requirement forces a
        strictly slower algorithm."""
        best = pm.fastest(CONV2)
        fallback = pm.fastest(CONV2, workspace_limit=best.workspace - 1)
        assert fallback.time > best.time


class TestPerfResultContract:
    """A Find row is a small immutable value: slotted, equal and hashed by
    its fields, and exactly as copyable and picklable as a plain dataclass."""

    ROW = PerfResult(FwdAlgo.FFT, Status.SUCCESS, 0.001, 1024)

    def test_slotted_and_frozen(self):
        assert not hasattr(self.ROW, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.ROW.time = 0.5
        with pytest.raises((AttributeError, TypeError)):
            self.ROW.extra = 1

    def test_equality_hash_and_repr(self):
        fields = (FwdAlgo.FFT, Status.SUCCESS, 0.001, 1024)
        assert self.ROW == PerfResult(*fields)
        assert self.ROW != PerfResult(FwdAlgo.FFT, Status.SUCCESS, 0.001, 1025)
        assert self.ROW != fields  # a row is not a tuple
        assert hash(self.ROW) == hash(fields)
        assert repr(self.ROW) == (
            "PerfResult(algo=<FwdAlgo.FFT: 4>, status=<Status.SUCCESS: 0>, "
            "time=0.001, workspace=1024)"
        )
        with pytest.raises(TypeError):
            self.ROW < self.ROW  # noqa: B015 -- rows are unordered

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)),
        copy.copy,
        copy.deepcopy,
        lambda r: dataclasses.replace(r),
    ], ids=["pickle", "copy", "deepcopy", "replace"])
    def test_round_trips(self, clone):
        twin = clone(self.ROW)
        assert type(twin) is PerfResult
        assert twin == self.ROW and hash(twin) == hash(self.ROW)
        assert dataclasses.asdict(twin) == {
            "algo": FwdAlgo.FFT, "status": Status.SUCCESS,
            "time": 0.001, "workspace": 1024,
        }


@given(n=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256]))
def test_times_positive_and_finite_across_batches(n):
    pm = PerfModel(P100_SXM2)
    g = CONV2.with_batch(n)
    for r in pm.find_all(g):
        if r.ok:
            assert 0 < r.time < 10.0  # sane range for one kernel


def test_family_to_algo_roundtrip():
    from repro.cudnn.enums import family_of
    for ct in ConvType:
        for algo in algos_for(ct):
            fam = family_of(ct, algo)
            assert family_of(ct, family_to_algo(ct, fam)) == fam
