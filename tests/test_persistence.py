"""Tests for the persistent plan store (``src/repro/persistence``).

Covers the ISSUE's acceptance criteria directly: snapshots are
byte-deterministic regardless of store history, all three merge policies
behave as documented (with conflict reports), warm-start is GPU-isolated
and answers previously-seen requests with **zero** solver invocations
(spy-counted), and damaged or wrong-version files surface as taxonomy
errors rather than tracebacks.
"""

import errno
import json
import os

import pytest
from hypothesis import given, settings

from repro.core.cache import BenchmarkCache
from repro.core.config import Configuration, MicroConfig
from repro.cudnn.enums import FwdAlgo
from repro.cudnn.perfmodel import PerfResult
from repro.cudnn.status import Status
from repro.errors import (
    MergeConflictError,
    PersistenceError,
    SnapshotCorruptError,
    SnapshotVersionError,
)
from repro.persistence.snapshot import from_json
from repro.persistence import (
    MERGE_POLICIES,
    PersistentPlanStore,
    SNAPSHOT_KIND,
    SNAPSHOT_SCHEMA_VERSION,
    canonical_gpu,
    load_snapshot,
    merge_snapshots,
    plans_of,
    save_snapshot,
    snapshot_service,
    snapshot_store,
    to_json,
    validate_snapshot,
    warm_start,
)
from repro.service import PlanKey, PlanRequest, PlanService, PlanStore
from repro.telemetry.clock import ManualClock
from repro.units import MIB
from tests.conftest import BAD_MICRO_FIELDS, make_geometry, mutated

GPU = "p100-sxm2"


def fake_config(micro: int = 4, time: float = 0.001) -> Configuration:
    return Configuration((MicroConfig(micro, FwdAlgo.IMPLICIT_GEMM, time, 0),))


def make_key(i: int, gpu: str = GPU) -> PlanKey:
    return PlanKey(gpu=gpu, kernel=f"k{i}", policy="powerOfTwo",
                   workspace_limit=MIB)


def filled_store(order, clock=None):
    """A store holding plans for the given key indices, in that order."""
    store = PlanStore(clock=clock or ManualClock())
    for i in order:
        store.put(make_key(i), fake_config(micro=2 ** (i % 4)))
    return store


def make_doc(order=(0, 1, 2), clock=None, bench=None):
    return snapshot_store(filled_store(order, clock), GPU, bench_cache=bench)


class TestByteDeterminism:
    def test_same_contents_serialize_identically(self):
        # Insertion order is history, not content; the bytes must not see it.
        a = to_json(make_doc(order=(0, 1, 2, 3)))
        b = to_json(make_doc(order=(3, 1, 0, 2)))
        assert a == b

    def test_access_history_does_not_change_bytes(self):
        store = filled_store((0, 1, 2))
        before = to_json(snapshot_store(store, GPU))
        store.get(make_key(2))  # LRU reorder
        store.get(make_key(0))
        assert to_json(snapshot_store(store, GPU)) == before

    def test_save_twice_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_snapshot(a, make_doc())
        save_snapshot(b, make_doc())
        assert a.read_bytes() == b.read_bytes()

    def test_serialization_ends_with_newline(self):
        assert to_json(make_doc()).endswith("}\n")


class TestRoundtrip:
    def test_plans_survive_save_load(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(path, make_doc(order=(0, 1)))
        loaded = load_snapshot(path)
        got = list(plans_of(loaded))
        assert [key for key, _, _ in got] == [make_key(0), make_key(1)]
        assert got[0][1] == fake_config(micro=1)

    def test_bench_sections_survive(self, tmp_path):
        bench = BenchmarkCache()
        bench.put_benchmark(GPU, make_geometry(), [
            PerfResult(FwdAlgo.FFT, Status.SUCCESS, 0.001, 1024),
        ])
        path = tmp_path / "snap.json"
        save_snapshot(path, make_doc(bench=bench))
        assert load_snapshot(path)["bench"]["benchmarks"]

    def test_stored_at_is_preserved(self, tmp_path):
        clock = ManualClock(start=7.5)
        path = tmp_path / "snap.json"
        save_snapshot(path, make_doc(order=(0,), clock=clock))
        (_, _, stored_at), = plans_of(load_snapshot(path))
        assert stored_at == 7.5


class TestValidation:
    def test_empty_file_is_corrupt(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("")
        with pytest.raises(SnapshotCorruptError, match="empty"):
            load_snapshot(path)

    def test_truncated_file_is_corrupt(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(path, make_doc())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(SnapshotCorruptError, match="not valid JSON"):
            load_snapshot(path)

    def test_non_utf8_file_is_corrupt(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_bytes(b'{"kind": "\xff\xfe"}')
        with pytest.raises(SnapshotCorruptError, match="not valid JSON"):
            load_snapshot(path)
        with pytest.raises(SnapshotCorruptError, match="not valid JSON"):
            from_json(path.read_bytes())

    def test_deeply_nested_document_is_corrupt(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("[" * 100_000)
        with pytest.raises(SnapshotCorruptError, match="not valid JSON"):
            load_snapshot(path)
        with pytest.raises(SnapshotCorruptError, match="not valid JSON"):
            from_json("[" * 100_000)

    def test_missing_file_is_persistence_error(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read"):
            load_snapshot(tmp_path / "never-written.json")

    def test_wrong_kind_is_rejected(self):
        doc = make_doc()
        doc["kind"] = "something-else"
        with pytest.raises(SnapshotCorruptError, match="not a plan snapshot"):
            validate_snapshot(doc)

    def test_future_schema_version_is_version_error(self):
        doc = make_doc()
        doc["schema_version"] = SNAPSHOT_SCHEMA_VERSION + 1
        with pytest.raises(SnapshotVersionError, match="not readable"):
            validate_snapshot(doc)

    def test_non_object_document_is_corrupt(self):
        with pytest.raises(SnapshotCorruptError, match="expected a JSON object"):
            validate_snapshot([1, 2, 3])

    def test_damaged_plan_entry_names_its_key(self):
        doc = make_doc(order=(0,))
        name = next(iter(doc["plans"]))
        doc["plans"][name]["configuration"] = {"micros": "garbage"}
        with pytest.raises(SnapshotCorruptError, match="k0"):
            validate_snapshot(doc)

    def test_damaged_key_fields_are_corrupt(self):
        doc = make_doc(order=(0,))
        name = next(iter(doc["plans"]))
        doc["plans"][name]["key"]["workspace_limit"] = "lots"
        with pytest.raises(SnapshotCorruptError, match="workspace_limit"):
            validate_snapshot(doc)

    @pytest.mark.parametrize("field, value, match", [
        ("micro_batch", 15, "sum to 31"),
        ("micro_batch", 1.5, "integers"),
        ("workspace", 2 ** 40, "exceeds"),
    ])
    def test_plan_that_does_not_answer_its_key_is_corrupt(
            self, field, value, match):
        """A stored plan is checked against its key: a warm start would
        serve it as a store hit."""
        key = PlanKey(gpu=GPU, kernel=make_geometry(n=32).cache_key(),
                      policy="powerOfTwo", workspace_limit=64 * MIB)
        store = PlanStore(clock=ManualClock())
        store.put(key, Configuration((
            MicroConfig(16, FwdAlgo.IMPLICIT_GEMM, 0.001, 0),
            MicroConfig(16, FwdAlgo.IMPLICIT_GEMM, 0.001, MIB),
        )))
        doc = snapshot_store(store, GPU)
        validate_snapshot(doc)
        entry = doc["plans"][str(key)]
        entry["configuration"]["micros"][0][field] = value
        with pytest.raises(SnapshotCorruptError, match=match):
            validate_snapshot(doc)

    @pytest.mark.parametrize("text", ["0.0", "NaN", "1e400", "-1e400"])
    def test_a_restored_plan_is_never_served_past_its_ttl(
            self, tmp_path, text):
        """``now - stored_at > ttl_s`` is never true for a NaN or infinite
        ``stored_at``, so such a plan would be served forever: the load
        refuses every non-finite one, and a finite one expires."""
        doc = make_doc(order=(0,))
        (entry,) = doc["plans"].values()
        entry["stored_at"] = 123456.5
        path = tmp_path / "snap.json"
        path.write_text(to_json(doc).replace("123456.5", text))
        clock = ManualClock()
        if text != "0.0":
            with pytest.raises(SnapshotCorruptError, match="stored_at"):
                PersistentPlanStore(path, GPU, ttl_s=10, clock=clock)
            return
        store = PersistentPlanStore(path, GPU, ttl_s=10, clock=clock)
        assert store.get(make_key(0)) == fake_config(micro=1)
        clock.advance(1e6)
        assert store.get(make_key(0)) is None

    @staticmethod
    def wd_doc():
        """A one-plan snapshot of a WD key: no limit comparison runs on it."""
        key = PlanKey(gpu=GPU, kernel=make_geometry(n=32).cache_key(),
                      policy="powerOfTwo", workspace_limit=64 * MIB,
                      scheme="wd")
        store = PlanStore(clock=ManualClock())
        store.put(key, Configuration((
            MicroConfig(32, FwdAlgo.IMPLICIT_GEMM, 0.001, 123457),)))
        return snapshot_store(store, GPU), str(key)

    @pytest.mark.parametrize("value", [-5, True])
    def test_wd_key_limit_must_be_a_non_negative_integer(self, value):
        doc, name = self.wd_doc()
        doc["plans"][name]["key"]["workspace_limit"] = value
        with pytest.raises(SnapshotCorruptError, match="workspace_limit"):
            validate_snapshot(doc)

    def test_infinite_wd_micro_workspace_is_corrupt(self):
        """``1e400`` would load as ``inf`` and save back as ``Infinity``."""
        doc, _ = self.wd_doc()
        with pytest.raises(SnapshotCorruptError, match="workspace"):
            from_json(to_json(doc).replace("123457", "1e400"))

    @pytest.mark.parametrize("field, value", BAD_MICRO_FIELDS)
    def test_bool_float_and_infinite_micro_fields_are_corrupt(
            self, field, value):
        doc = make_doc(order=(0,))
        (entry,) = doc["plans"].values()
        entry["configuration"]["micros"][0][field] = value
        with pytest.raises(SnapshotCorruptError, match=field):
            validate_snapshot(doc)

    def test_damaged_bench_section_is_corrupt(self):
        doc = make_doc()
        doc["bench"] = {"benchmarks": [], "configurations": {}}
        with pytest.raises(SnapshotCorruptError, match="bench"):
            validate_snapshot(doc)

    def test_save_validates_before_writing(self, tmp_path):
        path = tmp_path / "snap.json"
        with pytest.raises(SnapshotCorruptError):
            save_snapshot(path, {"kind": "nope"})
        assert not path.exists()


def _fuzz_snapshot() -> dict:
    """A snapshot with a WR and a WD plan of real kernels and bench rows."""
    store = PlanStore(clock=ManualClock(start=5.0))
    kernel = make_geometry(n=4).cache_key()
    store.put(PlanKey(gpu=GPU, kernel=kernel, policy="powerOfTwo",
                      workspace_limit=MIB), Configuration((
        MicroConfig(2, FwdAlgo.IMPLICIT_GEMM, 0.001, 0),
        MicroConfig(2, FwdAlgo.FFT, 0.002, MIB))))
    store.put(PlanKey(gpu=GPU, kernel=kernel, policy="all",
                      workspace_limit=8 * MIB, scheme="wd"),
              fake_config(micro=4))
    bench = BenchmarkCache()
    bench.put_benchmark(GPU, make_geometry(), [
        PerfResult(FwdAlgo.FFT, Status.SUCCESS, 0.001, 1024)])
    return snapshot_store(store, GPU, bench_cache=bench, meta={"host": "a"})


class TestSnapshotFuzz:
    """Any document gives a snapshot whose plans restore and re-save as
    they are, or a snapshot taxonomy error."""

    @settings(max_examples=300, deadline=None)
    @given(document=mutated(_fuzz_snapshot()))
    def test_any_document_loads_or_raises_a_snapshot_error(self, document):
        try:
            loaded = from_json(json.dumps(document))
        except (SnapshotCorruptError, SnapshotVersionError):
            return
        json.dumps(loaded["plans"], allow_nan=False)  # every number is finite
        store = PlanStore(clock=ManualClock())
        for key, configuration, stored_at in plans_of(loaded):
            store.restore(key, configuration, stored_at)
        again = snapshot_store(store, loaded["gpu"])
        assert set(plans_of(from_json(to_json(again)))) == set(
            plans_of(loaded))


class TestAtomicSave:
    def test_no_temp_file_litter(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(path, make_doc())
        save_snapshot(path, make_doc(order=(0, 1, 2, 3)))
        assert os.listdir(tmp_path) == ["snap.json"]

    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "snap.json"
        assert save_snapshot(path, make_doc()) == path
        assert path.exists()


class _TornFile:
    """A file whose write stops halfway with a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "injected: no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


#: Each step of the atomic write, in order; only a failure after the
#: rename (the directory fsync) leaves the new state behind.
WRITE_STEPS = ("write", "fsync", "replace", "dir-fsync")


def fail_step(monkeypatch, step):
    """Make one step of the next atomic write raise ``OSError``."""
    if step == "write":
        real_fdopen = os.fdopen
        monkeypatch.setattr(
            os, "fdopen", lambda fd, mode: _TornFile(real_fdopen(fd, mode)))
    elif step == "replace":
        def replace(src, dst):
            raise OSError(errno.EXDEV, "injected: cross-device link")
        monkeypatch.setattr(os, "replace", replace)
    else:
        real_fsync = os.fsync
        calls = []

        def fsync(fd):
            calls.append(fd)
            if len(calls) == (1 if step == "fsync" else 2):
                raise OSError(errno.EIO, "injected: I/O error")
            real_fsync(fd)
        monkeypatch.setattr(os, "fsync", fsync)


class TestAtomicWriteFaults:
    """Both on-disk writers (plan snapshots and the benchmark DB) share one
    atomic writer: a failure at any step leaves the old or the new state
    readable and no temp file behind."""

    @pytest.mark.parametrize("step", WRITE_STEPS)
    def test_snapshot_save(self, tmp_path, monkeypatch, step):
        path = tmp_path / "snap.json"
        old, new = make_doc(), make_doc(order=(0, 1, 2, 3))
        save_snapshot(path, old)
        with monkeypatch.context() as patched:
            fail_step(patched, step)
            with pytest.raises(OSError):
                save_snapshot(path, new)
        expected = new if step == "dir-fsync" else old
        assert to_json(load_snapshot(path)) == to_json(expected)
        assert os.listdir(tmp_path) == ["snap.json"]

    @pytest.mark.parametrize("step", WRITE_STEPS)
    def test_benchmark_db_save(self, tmp_path, monkeypatch, step):
        path = tmp_path / "bench.json"
        cache = BenchmarkCache(path)
        row = [PerfResult(FwdAlgo.IMPLICIT_GEMM, Status.SUCCESS, 0.002, 0)]
        cache.put_benchmark(GPU, make_geometry(), row)
        cache.save()
        old = BenchmarkCache(path).export_payload()
        cache.put_benchmark(GPU, make_geometry(n=2), row)
        with monkeypatch.context() as patched:
            fail_step(patched, step)
            with pytest.raises(OSError):
                cache.save()
        reloaded = BenchmarkCache(path).export_payload()
        assert reloaded == (cache.export_payload() if step == "dir-fsync"
                            else old)
        assert os.listdir(tmp_path) == ["bench.json"]
        # The failed save left the cache dirty, so the next one writes.
        cache.save()
        assert BenchmarkCache(path).export_payload() == cache.export_payload()


class TestMergePolicies:
    """All three conflict policies, satellite-tested as documented."""

    def conflicting_pair(self):
        """Two documents answering key k0 differently (k1/k2 disjoint)."""
        local_store = PlanStore(clock=ManualClock(start=10.0))
        local_store.put(make_key(0), fake_config(micro=2))
        local_store.put(make_key(1), fake_config())
        incoming_store = PlanStore(clock=ManualClock(start=20.0))
        incoming_store.put(make_key(0), fake_config(micro=8))  # conflict
        incoming_store.put(make_key(2), fake_config())
        return (snapshot_store(local_store, GPU),
                snapshot_store(incoming_store, GPU))

    def config_of(self, doc, key):
        for got_key, configuration, _ in plans_of(doc):
            if got_key == key:
                return configuration
        raise AssertionError(f"{key} not in document")

    def test_policy_list_is_stable(self):
        assert MERGE_POLICIES == ("keep-local", "keep-newer", "error")

    def test_unknown_policy_is_rejected(self):
        local, incoming = self.conflicting_pair()
        with pytest.raises(MergeConflictError, match="unknown merge policy"):
            merge_snapshots(local, incoming, policy="keep-theirs")

    def test_keep_local_keeps_the_local_plan(self):
        local, incoming = self.conflicting_pair()
        merged, report = merge_snapshots(local, incoming, policy="keep-local")
        assert self.config_of(merged, make_key(0)) == fake_config(micro=2)
        assert report.conflicts == [str(make_key(0))]
        assert report.plans_added == 1          # k2
        assert report.plans_kept_local == 1     # k0

    def test_keep_newer_takes_the_younger_entry(self):
        local, incoming = self.conflicting_pair()  # incoming stored later
        merged, report = merge_snapshots(local, incoming, policy="keep-newer")
        assert self.config_of(merged, make_key(0)) == fake_config(micro=8)
        assert report.plans_replaced == 1
        assert report.conflicts == [str(make_key(0))]

    def test_keep_newer_tie_keeps_local(self):
        local, incoming = self.conflicting_pair()
        name = str(make_key(0))
        incoming["plans"][name]["stored_at"] = local["plans"][name]["stored_at"]
        merged, report = merge_snapshots(local, incoming, policy="keep-newer")
        assert self.config_of(merged, make_key(0)) == fake_config(micro=2)
        assert report.plans_replaced == 0

    def test_error_policy_raises_and_names_the_key(self):
        local, incoming = self.conflicting_pair()
        with pytest.raises(MergeConflictError, match="k0"):
            merge_snapshots(local, incoming, policy="error")

    def test_error_policy_accepts_disjoint_documents(self):
        merged, report = merge_snapshots(
            make_doc(order=(0, 1)), make_doc(order=(2, 3)), policy="error"
        )
        assert report.plans_added == 2
        assert len(merged["plans"]) == 4

    def test_agreement_is_not_a_conflict(self):
        merged, report = merge_snapshots(
            make_doc(order=(0, 1)), make_doc(order=(0, 1)), policy="error"
        )
        assert report.conflicts == []
        assert report.plans_kept_local == 2

    def test_inputs_are_not_mutated(self):
        local, incoming = self.conflicting_pair()
        before = to_json(local)
        merge_snapshots(local, incoming, policy="keep-newer")
        assert to_json(local) == before

    def test_merged_document_is_valid_and_deterministic(self):
        local, incoming = self.conflicting_pair()
        merged, _ = merge_snapshots(local, incoming)
        validate_snapshot(merged)
        again, _ = merge_snapshots(local, incoming)
        assert to_json(merged) == to_json(again)

    def test_bench_conflicts_keep_local_and_are_counted(self):
        a = BenchmarkCache()
        a.put_benchmark(GPU, make_geometry(), [
            PerfResult(FwdAlgo.FFT, Status.SUCCESS, 0.001, 64),
        ])
        b = BenchmarkCache()
        b.put_benchmark(GPU, make_geometry(), [
            PerfResult(FwdAlgo.GEMM, Status.SUCCESS, 0.002, 64),
        ])
        b.put_benchmark(GPU, make_geometry(c=7), [
            PerfResult(FwdAlgo.GEMM, Status.SUCCESS, 0.002, 64),
        ])
        merged, report = merge_snapshots(make_doc(bench=a), make_doc(bench=b))
        assert report.bench_conflicts == 1
        assert report.bench_added == 1
        local_rows = make_doc(bench=a)["bench"]["benchmarks"]
        for name, rows in local_rows.items():
            assert merged["bench"]["benchmarks"][name] == rows

    def test_bench_conflict_raises_under_error_policy(self):
        a = BenchmarkCache()
        a.put_benchmark(GPU, make_geometry(), [
            PerfResult(FwdAlgo.FFT, Status.SUCCESS, 0.001, 64),
        ])
        b = BenchmarkCache()
        b.put_benchmark(GPU, make_geometry(), [
            PerfResult(FwdAlgo.GEMM, Status.SUCCESS, 0.002, 64),
        ])
        with pytest.raises(MergeConflictError, match="bench"):
            merge_snapshots(make_doc(bench=a), make_doc(bench=b),
                            policy="error")


class TestWarmStart:
    GEOMETRIES = {"a": make_geometry(c=3), "b": make_geometry(c=7)}

    def solved_snapshot(self):
        """Solve some requests on a spy service, return (doc, answers)."""
        with PlanService(GPU, clock=ManualClock(),
                         solve_fn=lambda r: (fake_config(), 0.1)) as service:
            answers = {
                k: service.request(PlanRequest(
                    kernel=k, geometry=g, workspace_limit=MIB))
                for k, g in self.GEOMETRIES.items()
            }
            return snapshot_service(service), answers

    def test_warm_service_answers_with_zero_solver_invocations(self):
        doc, cold = self.solved_snapshot()
        solves = []

        def spy(request):
            solves.append(request.kernel)
            return fake_config(), 0.1

        with PlanService(GPU, clock=ManualClock(), solve_fn=spy) as warm:
            assert warm_start(warm, doc) == 2
            for kernel, cold_answer in cold.items():
                got = warm.request(PlanRequest(
                    kernel=kernel, geometry=self.GEOMETRIES[kernel],
                    workspace_limit=MIB))
                assert got.configuration == cold_answer.configuration
                assert got.source == "cached"
        assert solves == []                     # the acceptance criterion
        assert warm.stats.solver_invocations == 0

    def test_foreign_gpu_plans_are_skipped(self):
        store = PlanStore(clock=ManualClock())
        store.put(make_key(0), fake_config())
        store.put(make_key(1, gpu="v100-sxm2"), fake_config())
        doc = snapshot_store(store, GPU)
        with PlanService(GPU, clock=ManualClock(),
                         solve_fn=lambda r: (fake_config(), 0.1)) as service:
            assert warm_start(service, doc) == 1
            assert make_key(0) in service.store
            assert make_key(1, gpu="v100-sxm2") not in service.store

    def test_foreign_gpu_bench_rows_are_filtered(self):
        bench = BenchmarkCache()
        bench.put_benchmark("v100-sxm2", make_geometry(), [
            PerfResult(FwdAlgo.FFT, Status.SUCCESS, 0.001, 64),
        ])
        doc = snapshot_store(PlanStore(clock=ManualClock()), GPU,
                             bench_cache=bench)
        with PlanService(GPU, clock=ManualClock(),
                         solve_fn=lambda r: (fake_config(), 0.1)) as service:
            warm_start(service, doc)
            assert service.bench_cache.get_benchmark(
                "v100-sxm2", make_geometry()) is None

    def test_warm_start_rejects_damaged_documents(self):
        with PlanService(GPU, clock=ManualClock(),
                         solve_fn=lambda r: (fake_config(), 0.1)) as service:
            with pytest.raises(SnapshotCorruptError):
                warm_start(service, {"kind": "nope"})


class TestCanonicalGpu:
    def test_aliases_resolve(self):
        assert canonical_gpu("P100") == "p100-sxm2"
        assert canonical_gpu("p100-sxm2") == "p100-sxm2"

    def test_unknown_names_pass_through(self):
        assert canonical_gpu("synthetic-test-gpu") == "synthetic-test-gpu"


class TestPersistentPlanStore:
    def test_write_through_on_every_put(self, tmp_path):
        path = tmp_path / "snap.json"
        store = PersistentPlanStore(path, gpu=GPU, clock=ManualClock())
        store.put(make_key(0), fake_config())
        assert path.exists()
        (key, configuration, _), = plans_of(load_snapshot(path))
        assert key == make_key(0)
        assert configuration == fake_config()

    def test_warm_loads_at_construction(self, tmp_path):
        path = tmp_path / "snap.json"
        first = PersistentPlanStore(path, gpu=GPU, clock=ManualClock())
        first.put(make_key(0), fake_config())
        first.put(make_key(1), fake_config(micro=8))
        second = PersistentPlanStore(path, gpu=GPU, clock=ManualClock())
        assert second.loaded_plans == 2
        assert second.get(make_key(1)) == fake_config(micro=8)

    def test_warm_load_is_gpu_filtered(self, tmp_path):
        path = tmp_path / "snap.json"
        store = PlanStore(clock=ManualClock())
        store.put(make_key(0), fake_config())
        store.put(make_key(1, gpu="v100-sxm2"), fake_config())
        save_snapshot(path, snapshot_store(store, GPU))
        reloaded = PersistentPlanStore(path, gpu=GPU, clock=ManualClock())
        assert reloaded.loaded_plans == 1
        assert make_key(1, gpu="v100-sxm2") not in reloaded

    def test_bench_cache_round_trips(self, tmp_path):
        path = tmp_path / "snap.json"
        bench = BenchmarkCache()
        bench.put_benchmark(GPU, make_geometry(), [
            PerfResult(FwdAlgo.FFT, Status.SUCCESS, 0.001, 64),
        ])
        first = PersistentPlanStore(path, gpu=GPU, clock=ManualClock(),
                                    bench_cache=bench)
        first.put(make_key(0), fake_config())
        fresh_bench = BenchmarkCache()
        second = PersistentPlanStore(path, gpu=GPU, clock=ManualClock(),
                                     bench_cache=fresh_bench)
        assert second.loaded_bench_rows == 1
        assert fresh_bench.get_benchmark(GPU, make_geometry()) is not None

    def test_sync_every_batches_writes(self, tmp_path):
        path = tmp_path / "snap.json"
        store = PersistentPlanStore(path, gpu=GPU, clock=ManualClock(),
                                    sync_every=3)
        store.put(make_key(0), fake_config())
        store.put(make_key(1), fake_config())
        assert not path.exists()
        store.put(make_key(2), fake_config())
        assert path.exists()
        assert len(list(plans_of(load_snapshot(path)))) == 3

    def test_save_flushes_pending_puts(self, tmp_path):
        path = tmp_path / "snap.json"
        store = PersistentPlanStore(path, gpu=GPU, clock=ManualClock(),
                                    sync_every=100)
        store.put(make_key(0), fake_config())
        assert not path.exists()
        assert store.save() == path
        assert len(list(plans_of(load_snapshot(path)))) == 1

    def test_invalid_sync_every_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sync_every"):
            PersistentPlanStore(tmp_path / "s.json", gpu=GPU, sync_every=0)

    def test_corrupt_file_refuses_to_construct(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("{broken")
        with pytest.raises(SnapshotCorruptError):
            PersistentPlanStore(path, gpu=GPU)

    def test_resave_after_reload_is_byte_identical(self, tmp_path):
        path = tmp_path / "snap.json"
        first = PersistentPlanStore(path, gpu=GPU, clock=ManualClock())
        first.put(make_key(0), fake_config())
        first.put(make_key(1), fake_config(micro=8))
        before = path.read_bytes()
        second = PersistentPlanStore(path, gpu=GPU, clock=ManualClock())
        second.save()
        assert path.read_bytes() == before

    def test_service_write_through_end_to_end(self, tmp_path):
        path = tmp_path / "snap.json"
        store = PersistentPlanStore(path, gpu=GPU, clock=ManualClock())
        with PlanService(GPU, clock=ManualClock(), store=store,
                         solve_fn=lambda r: (fake_config(), 0.1)) as service:
            service.request(PlanRequest(kernel="a", geometry=make_geometry(),
                                        workspace_limit=MIB))
        assert len(list(plans_of(load_snapshot(path)))) == 1


class TestSnapshotDocumentShape:
    """Pin the schema constants the on-disk format contract depends on."""

    def test_kind_and_version(self):
        doc = make_doc()
        assert doc["kind"] == SNAPSHOT_KIND == "repro.plan-snapshot"
        assert doc["schema_version"] == SNAPSHOT_SCHEMA_VERSION == 1

    def test_document_is_pure_json(self, tmp_path):
        text = to_json(make_doc())
        assert json.loads(text)  # round-trips through the stdlib
