"""Tests for the benchmark / configuration cache (paper section III-D)."""

import gc
import json
import pathlib
import tempfile
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import BenchmarkCache, _bench_key_template
from repro.core.config import Configuration, MicroConfig
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import ALGOS_FOR, ConvolutionMode, ConvType, FwdAlgo
from repro.cudnn.perfmodel import PerfResult
from repro.cudnn.status import Status
from repro.errors import CacheError
from tests.conftest import make_geometry


def _bench_key(gpu_name, geometry):
    """The file DB key of one kernel at one micro-batch size."""
    return f"{gpu_name}|{geometry.cache_key()}"


def _entry_key(entry):
    """The key a recency entry stands for: a size's file DB key, or a
    configuration key."""
    kind, key = entry
    if kind == "bench":
        head, tail, size = key
        return f"{head}{size}{tail}"
    return key


def sample_results():
    return [
        PerfResult(FwdAlgo.FFT, Status.SUCCESS, 0.001, 1024),
        PerfResult(FwdAlgo.IMPLICIT_GEMM, Status.SUCCESS, 0.002, 0),
    ]


def sample_config():
    return Configuration((
        MicroConfig(64, FwdAlgo.FFT, 0.5, 2048),
        MicroConfig(64, FwdAlgo.FFT_TILING, 0.6, 1024),
    ))


class TestInMemory:
    def test_benchmark_roundtrip(self):
        cache = BenchmarkCache()
        g = make_geometry()
        assert cache.get_benchmark("p100-sxm2", g) is None
        cache.put_benchmark("p100-sxm2", g, sample_results())
        got = cache.get_benchmark("p100-sxm2", g)
        assert [r.algo for r in got] == [FwdAlgo.FFT, FwdAlgo.IMPLICIT_GEMM]

    def test_keys_include_gpu_and_geometry(self):
        cache = BenchmarkCache()
        g = make_geometry()
        cache.put_benchmark("p100-sxm2", g, sample_results())
        assert cache.get_benchmark("k80", g) is None
        assert cache.get_benchmark("p100-sxm2", g.with_batch(2)) is None

    def test_hit_miss_counters(self):
        cache = BenchmarkCache()
        g = make_geometry()
        cache.get_benchmark("p100-sxm2", g)
        cache.put_benchmark("p100-sxm2", g, sample_results())
        cache.get_benchmark("p100-sxm2", g)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_counters_split_benchmark_vs_configuration(self):
        cache = BenchmarkCache()
        g = make_geometry()
        cache.get_benchmark("p100-sxm2", g)  # bench miss
        cache.put_benchmark("p100-sxm2", g, sample_results())
        cache.get_benchmark("p100-sxm2", g)  # bench hit
        key = cache.config_key("p100-sxm2", g, "all", 100, "wr")
        cache.get_configuration(key)  # config miss
        cache.get_configuration(key)  # config miss
        cache.put_configuration(key, ConvType.FORWARD, sample_config())
        cache.get_configuration(key)  # config hit
        assert (cache.bench_hits, cache.bench_misses) == (1, 1)
        assert (cache.config_hits, cache.config_misses) == (1, 2)
        # The aggregate view stays available for existing callers.
        assert cache.hits == 2
        assert cache.misses == 3

    def test_configuration_roundtrip(self):
        cache = BenchmarkCache()
        key = cache.config_key("p100-sxm2", make_geometry(), "powerOfTwo",
                               64 * 2**20, "wr")
        assert cache.get_configuration(key) is None
        cache.put_configuration(key, ConvType.FORWARD, sample_config())
        assert cache.get_configuration(key) == sample_config()

    def test_config_key_distinguishes_parameters(self):
        cache = BenchmarkCache()
        g = make_geometry()
        keys = {
            cache.config_key("p100-sxm2", g, "powerOfTwo", 100, "wr"),
            cache.config_key("p100-sxm2", g, "all", 100, "wr"),
            cache.config_key("p100-sxm2", g, "powerOfTwo", 200, "wr"),
            cache.config_key("p100-sxm2", g, "powerOfTwo", 100, "wd"),
            cache.config_key("k80", g, "powerOfTwo", 100, "wr"),
        }
        assert len(keys) == 5


class TestFileDB:
    def test_save_load_roundtrip(self, tmp_path):
        """The paper's file DB: offline benchmarking + sharing over NFS."""
        path = tmp_path / "bench.json"
        cache = BenchmarkCache(path)
        g = make_geometry()
        cache.put_benchmark("p100-sxm2", g, sample_results())
        key = cache.config_key("p100-sxm2", g, "all", 10, "wr")
        cache.put_configuration(key, ConvType.FORWARD, sample_config())
        cache.save()

        fresh = BenchmarkCache(path)  # loads eagerly
        got = fresh.get_benchmark("p100-sxm2", g)
        assert [(r.algo, r.time, r.workspace) for r in got] == \
            [(r.algo, r.time, r.workspace) for r in sample_results()]
        assert fresh.get_configuration(key) == sample_config()

    def test_save_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "bench.json"
        cache = BenchmarkCache(path)
        cache.put_benchmark("k80", make_geometry(), sample_results())
        cache.save()
        cache.put_benchmark("k80", make_geometry(n=2), sample_results())
        cache.save()
        # Only the final file remains; no temp litter.
        assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]

    def test_corrupt_file_raises_cache_error(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        with pytest.raises(CacheError):
            BenchmarkCache(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(CacheError):
            BenchmarkCache(path)

    def test_save_without_path_is_noop(self):
        BenchmarkCache().save()  # must not raise

    def test_load_without_path_raises(self):
        with pytest.raises(CacheError):
            BenchmarkCache().load()

    def test_clean_save_skips_rewrite(self, tmp_path):
        """Unchanged state must not rewrite the file (frameworks call save
        every training step; after warm-up the DB is multi-megabyte and
        static)."""
        path = tmp_path / "bench.json"
        cache = BenchmarkCache(path)
        cache.put_benchmark("k80", make_geometry(), sample_results())
        assert cache.dirty
        cache.save()
        assert not cache.dirty
        before = path.stat().st_mtime_ns
        cache.save()  # clean: must not touch the file
        assert path.stat().st_mtime_ns == before

        cache.put_benchmark("k80", make_geometry(n=2), sample_results())
        assert cache.dirty
        cache.save()
        assert BenchmarkCache(path).get_benchmark(
            "k80", make_geometry(n=2)) is not None

    def test_load_clears_dirty(self, tmp_path):
        path = tmp_path / "bench.json"
        cache = BenchmarkCache(path)
        cache.put_benchmark("k80", make_geometry(), sample_results())
        cache.save()
        fresh = BenchmarkCache(path)
        assert not fresh.dirty
        key = fresh.config_key("k80", make_geometry(), "all", 1, "wr")
        fresh.put_configuration(key, ConvType.FORWARD, sample_config())
        assert fresh.dirty

    def test_len_counts_entries(self, tmp_path):
        cache = BenchmarkCache()
        assert len(cache) == 0
        cache.put_benchmark("k80", make_geometry(), sample_results())
        key = cache.config_key("k80", make_geometry(), "all", 1, "wr")
        cache.put_configuration(key, ConvType.FORWARD, sample_config())
        assert len(cache) == 2


class TestFileDBCorruption:
    """Damaged cache files raise CacheError, never raw tracebacks.

    A shared file DB (the paper's NFS deployment) sees torn writes,
    truncation, and stale copies; each must surface as "the cache is
    damaged" rather than a KeyError/IndexError from half-parsed data.
    """

    def test_empty_file_raises_cache_error(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("")
        with pytest.raises(CacheError, match="empty"):
            BenchmarkCache(path)

    def test_truncated_file_raises_cache_error(self, tmp_path):
        path = tmp_path / "bench.json"
        cache = BenchmarkCache(path)
        cache.put_benchmark("k80", make_geometry(), sample_results())
        cache.save()
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        with pytest.raises(CacheError, match="truncated or corrupt"):
            BenchmarkCache(path)

    def test_non_object_payload_raises_cache_error(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CacheError):
            BenchmarkCache(path)

    def test_structurally_damaged_rows_name_the_key(self, tmp_path):
        # Valid JSON, right version, but a benchmark row missing fields.
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "version": 1,
            "benchmarks": {"k80|Forward:n1": [{"algo": 0}]},
            "configurations": {},
        }))
        with pytest.raises(CacheError, match="k80"):
            BenchmarkCache(path)

    def test_damaged_configuration_section_raises(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "version": 1,
            "benchmarks": {},
            "configurations": {"k80|Forward:n1|all|10|wr": {"micros": "no"}},
        }))
        with pytest.raises(CacheError):
            BenchmarkCache(path)

    def test_wrong_container_types_raise(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "version": 1, "benchmarks": [], "configurations": {},
        }))
        with pytest.raises(CacheError):
            BenchmarkCache(path)


class TestPayloadImportExport:
    """export_payload/import_payload back the persistence snapshots."""

    def filled(self):
        cache = BenchmarkCache()
        cache.put_benchmark("k80", make_geometry(), sample_results())
        key = cache.config_key("k80", make_geometry(), "all", 10, "wr")
        cache.put_configuration(key, ConvType.FORWARD, sample_config())
        return cache, key

    def test_roundtrip(self):
        cache, key = self.filled()
        payload = cache.export_payload()
        fresh = BenchmarkCache()
        assert fresh.import_payload(payload) == 2
        assert fresh.get_configuration(key) == sample_config()
        got = fresh.get_benchmark("k80", make_geometry())
        assert [r.algo for r in got] == [r.algo for r in sample_results()]

    def test_import_keeps_local_entries(self):
        cache, key = self.filled()
        payload = cache.export_payload()
        # The local cache already has a *different* configuration under the
        # same key; import must not replace it (keep-local).
        local = BenchmarkCache()
        mine = Configuration((MicroConfig(64, FwdAlgo.GEMM, 0.1, 0),))
        local.put_configuration(key, ConvType.FORWARD, mine)
        assert local.import_payload(payload) == 1  # only the bench row
        assert local.get_configuration(key) == mine

    def test_import_filters_by_gpu(self):
        cache, _ = self.filled()
        payload = cache.export_payload()
        fresh = BenchmarkCache()
        assert fresh.import_payload(payload, only_gpu="v100-sxm2") == 0
        assert fresh.import_payload(payload, only_gpu="k80") == 2

    def test_import_rejects_malformed_payload(self):
        with pytest.raises(CacheError):
            BenchmarkCache().import_payload({"benchmarks": "nope"})


class TestCapacity:
    """Optional LRU bound on the in-memory cache (default: unlimited)."""

    def test_unbounded_by_default(self):
        cache = BenchmarkCache()
        for n in range(1, 20):
            cache.put_benchmark("k80", make_geometry(n=n), sample_results())
        assert len(cache) == 19
        assert cache.evictions == 0

    def test_lru_eviction_across_both_stores(self):
        cache = BenchmarkCache(capacity=2)
        cache.put_benchmark("k80", make_geometry(n=2), sample_results())
        key = cache.config_key("k80", make_geometry(), "all", 1, "wr")
        cache.put_configuration(key, ConvType.FORWARD, sample_config())
        # Touch the benchmark entry so the configuration is the LRU one.
        assert cache.get_benchmark("k80", make_geometry(n=2)) is not None
        cache.put_benchmark("k80", make_geometry(n=4), sample_results())
        assert cache.evictions == 1
        assert cache.get_configuration(key) is None  # evicted
        assert cache.get_benchmark("k80", make_geometry(n=2)) is not None
        assert cache.get_benchmark("k80", make_geometry(n=4)) is not None
        assert len(cache) == 2

    def test_lookups_refresh_recency(self):
        cache = BenchmarkCache(capacity=2)
        cache.put_benchmark("k80", make_geometry(n=2), sample_results())
        cache.put_benchmark("k80", make_geometry(n=4), sample_results())
        assert cache.get_benchmark("k80", make_geometry(n=2)) is not None
        cache.put_benchmark("k80", make_geometry(n=8), sample_results())
        # n=4 was least recently used; n=2 survived its refresh.
        assert cache.get_benchmark("k80", make_geometry(n=4)) is None
        assert cache.get_benchmark("k80", make_geometry(n=2)) is not None

    def test_capacity_applies_on_load(self, tmp_path):
        path = tmp_path / "bench.json"
        full = BenchmarkCache(path)
        for n in (2, 4, 8):
            full.put_benchmark("k80", make_geometry(n=n), sample_results())
        full.save()
        bounded = BenchmarkCache(path, capacity=2)
        assert len(bounded) == 2
        assert bounded.evictions == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BenchmarkCache(capacity=0)


class TestRowStore:
    """Unbounded caches keep no recency; stored rows are immutable tuples."""

    GPU = "k80"

    def _exercise(self, cache):
        g = make_geometry(n=4)
        cache.put_benchmark(self.GPU, g, sample_results())
        cache.put_benchmarks(self.GPU, g, {1: sample_results(),
                                           2: _ROW_VARIANTS[2]})
        cache.get_benchmark(self.GPU, g)
        cache.get_benchmarks(self.GPU, g, [1, 2, 3])
        key = cache.config_key(self.GPU, g, "all", 1, "wr")
        cache.put_configuration(key, ConvType.FORWARD, sample_config())
        cache.get_configuration(key)

    def test_unbounded_cache_keeps_no_recency(self, tmp_path):
        cache = BenchmarkCache(tmp_path / "bench.json")
        self._exercise(cache)
        assert not cache._recency
        cache.save()
        cache.load()
        assert not cache._recency
        other = BenchmarkCache()
        assert other.import_payload(cache.export_payload()) == len(cache)
        assert not other._recency
        self._exercise(other)
        assert not other._recency

    def test_bounded_cache_orders_every_entry(self, tmp_path):
        cache = BenchmarkCache(tmp_path / "bench.json", capacity=10)
        self._exercise(cache)
        assert len(cache._recency) == len(cache) == 4
        cache.save()
        assert len(BenchmarkCache(tmp_path / "bench.json",
                                  capacity=10)._recency) == 4

    def test_capacity_is_read_only(self):
        cache = BenchmarkCache(capacity=3)
        assert cache.capacity == 3
        with pytest.raises(AttributeError):
            cache.capacity = None
        assert BenchmarkCache().capacity is None

    def test_stored_rows_are_one_block_and_lookups_fresh_lists(self):
        cache = BenchmarkCache()
        g = make_geometry()
        cache.put_benchmark(self.GPU, g, sample_results())
        cache.put_benchmarks(self.GPU, g, {2: _ROW_VARIANTS[2],
                                           1: sample_results()})
        (block,) = cache._blocks.values()
        assert block.sizes.tolist() == [1, 2, 4]
        assert block.offsets.tolist() == [0, 2, 3, 5]
        assert [block.algos.dtype, block.times.dtype,
                block.workspaces.dtype] == [np.int8, np.float64, np.int64]
        got = cache.get_benchmark(self.GPU, g)
        assert type(got) is list and got == sample_results()
        got.clear()
        assert cache.get_benchmark(self.GPU, g) == sample_results()

    def test_import_counts_without_packing(self):
        """An import's count, ``len``, counters, ``dirty`` and re-export
        come from the loaded lists: nothing is packed until a read."""
        g = make_geometry(n=4)
        source = BenchmarkCache()
        source.put_benchmarks(self.GPU, g, {4: sample_results(),
                                            2: _ROW_VARIANTS[2]})
        cache = BenchmarkCache()
        assert cache.import_payload(source.export_payload()) == 2
        assert cache.import_payload(source.export_payload()) == 0  # keep-local
        assert (len(cache), cache.dirty, cache.hits, cache.misses) == (
            2, True, 0, 0)
        assert cache.export_payload() == source.export_payload()
        assert not cache._blocks
        assert cache.get_benchmark(self.GPU, g.with_batch(2)) == _ROW_VARIANTS[2]
        assert len(cache._blocks) == 1 and not cache._loaded

    @pytest.mark.parametrize("route", ["load", "import"])
    def test_identical_put_after_restore_is_silent(self, tmp_path, route):
        path = tmp_path / "bench.json"
        g = make_geometry(n=4)
        source = BenchmarkCache(path)
        source.put_benchmarks(self.GPU, g, {4: sample_results(),
                                            2: _ROW_VARIANTS[2]})
        source.save()
        if route == "load":
            cache = BenchmarkCache(path)
        else:
            cache = BenchmarkCache()
            cache.import_payload(source.export_payload())
        # Loaded rows stay lists until the first read packs them into one
        # block for the kernel's sizes.
        assert (len(cache._blocks), len(cache._loaded)) == (0, 1)
        assert cache.has_benchmark(self.GPU, g)
        assert (len(cache._blocks), len(cache._loaded)) == (1, 0)
        seen = []
        cache.add_invalidation_listener(lambda gpu, geo: seen.append(geo.n))
        cache.put_benchmarks(self.GPU, g, {4: sample_results(),
                                           2: list(_ROW_VARIANTS[2])})
        cache.put_benchmark(self.GPU, g, tuple(sample_results()))
        assert seen == []
        cache.put_benchmark(self.GPU, g, _ROW_VARIANTS[2])
        assert seen == [4]


class TestKeyTemplate:
    """The batched calls' key template equals the per-geometry key."""

    GEOMETRIES = [
        *(make_geometry(conv_type=t, c=16) for t in ConvType),
        ConvGeometry(ConvType.FORWARD, 8, 16, 14, 14, 32, 3, 3, 1, 1,
                     groups=4),
        ConvGeometry(ConvType.BACKWARD_FILTER, 8, 16, 14, 14, 16, 3, 3,
                     1, 1, groups=16),
        ConvGeometry(ConvType.BACKWARD_DATA, 8, 12, 9, 9, 24, 3, 3,
                     mode=ConvolutionMode.CONVOLUTION),
        ConvGeometry(ConvType.FORWARD, 16, 16, 16, 16, 16, 1, 1, groups=2,
                     mode=ConvolutionMode.CONVOLUTION),
    ]

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.cache_key())
    @pytest.mark.parametrize("n", [1, 6, 8, 16, 61, 128, 256])
    def test_template_matches_per_geometry_key(self, geometry, n):
        head, tail = _bench_key_template("p100-sxm2", geometry)
        expected = _bench_key("p100-sxm2", geometry.with_batch(n))
        assert f"{head}{n}{tail}" == expected

    def test_suffixes_survive_the_template(self):
        grouped, conv = self.GEOMETRIES[-3], self.GEOMETRIES[-2]
        assert _bench_key_template("k80", grouped)[1].endswith("g16")
        assert _bench_key_template("k80", conv)[1].endswith(":conv")


class _PopLog(OrderedDict):
    """Recency map that logs LRU evictions in the order they happen."""

    def __init__(self):
        super().__init__()
        self.popped = []

    def popitem(self, last=True):
        item = super().popitem(last=last)
        self.popped.append(_entry_key(item[0]))
        return item


class _RowModel:
    """Plain per-row reference: one dict, one LRU list, no batching."""

    def __init__(self, gpu, capacity):
        self.gpu = gpu
        self.capacity = capacity
        self.rows = {}
        self.recency = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evicted = []
        self.notified = []

    def get(self, geometry):
        key = _bench_key(self.gpu, geometry)
        if key not in self.rows:
            self.misses += 1
            return None
        self.hits += 1
        self.recency.move_to_end(key)
        return list(self.rows[key])

    def put(self, geometry, rows):
        key = _bench_key(self.gpu, geometry)
        old = self.rows.get(key)
        self.rows[key] = list(rows)
        self.recency[key] = None
        self.recency.move_to_end(key)
        while self.capacity is not None and len(self.rows) > self.capacity:
            evicted, _ = self.recency.popitem(last=False)
            del self.rows[evicted]
            self.evicted.append(evicted)
        if old is not None and old != list(rows):
            self.notified.append(geometry)

    def import_payload(self, payload, only_gpu):
        """Keep-local: add the keys not held, in payload order, then evict."""
        added = 0
        for key, rows in payload["benchmarks"].items():
            if only_gpu is not None and key.split("|")[0] != only_gpu:
                continue
            if key not in self.rows:
                self.rows[key] = [
                    PerfResult(FwdAlgo(r["algo"]), Status.SUCCESS, r["time"],
                               r["workspace"]) for r in rows]
                self.recency[key] = None
                added += 1
        while self.capacity is not None and len(self.rows) > self.capacity:
            evicted, _ = self.recency.popitem(last=False)
            del self.rows[evicted]
            self.evicted.append(evicted)
        return added

    def payload(self):
        return {
            "benchmarks": {
                key: [
                    {"conv_type": key.split("|")[1].split(":")[0],
                     "algo": int(r.algo), "time": r.time,
                     "workspace": r.workspace}
                    for r in rows
                ]
                for key, rows in self.rows.items()
            },
            "configurations": {},
        }


_KERNELS = [make_geometry(n=8, c=16), make_geometry(n=8, c=3, k=7)]
_ROW_VARIANTS = [
    sample_results(),
    sample_results()[::-1],
    [PerfResult(FwdAlgo.GEMM, Status.SUCCESS, 0.003, 64)],
]
_SIZES = st.integers(1, 8)
_KERNEL = st.integers(0, len(_KERNELS) - 1)
_ROWS = st.sampled_from(range(len(_ROW_VARIANTS)))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _KERNEL, st.lists(_SIZES, max_size=8)),
        st.tuples(st.just("get1"), _KERNEL, _SIZES),
        st.tuples(st.just("put"), _KERNEL,
                  st.dictionaries(_SIZES, _ROWS, max_size=8)),
        st.tuples(st.just("put1"), _KERNEL, _SIZES, _ROWS),
        # A payload of one kernel's sizes, also under a second GPU when the
        # flag is set, imported with or without the ``only_gpu`` filter.
        st.tuples(st.just("import"), _KERNEL,
                  st.dictionaries(_SIZES, _ROWS, max_size=8),
                  st.sampled_from([None, "p100-sxm2"]), st.booleans()),
    ),
    max_size=40,
)


def _import_payload(gpu, kernel, rows, other_gpu):
    """An ``export_payload``-shaped payload of ``kernel``'s ``rows``."""
    gpus = (gpu, "k80") if other_gpu else (gpu,)
    return {"benchmarks": {
        _bench_key(name, kernel.with_batch(n)): [
            {"conv_type": kernel.conv_type.value, "algo": int(r.algo),
             "time": r.time, "workspace": r.workspace}
            for r in _ROW_VARIANTS[v]]
        for n, v in rows.items() for name in gpus
    }, "configurations": {}}


class TestBatchedCallsAgainstRowModel:
    """Batched and per-row calls interleave exactly like per-row calls, and
    imported rows, packed only when first read, answer exactly as rows
    put there."""

    @pytest.mark.parametrize("capacity", [None, 1, 3, 7])
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_random_interleavings(self, capacity, ops):
        gpu = "p100-sxm2"
        cache = BenchmarkCache(capacity=capacity)
        cache._recency = _PopLog()
        model = _RowModel(gpu, capacity)
        notified = []

        def listener(gpu_name, geometry):
            assert not cache._lock._is_owned(), "listener ran under the lock"
            assert gpu_name == gpu
            notified.append(geometry)

        cache.add_invalidation_listener(listener)
        for op in ops:
            kind, kernel = op[0], _KERNELS[op[1]]
            if kind == "get":
                got = cache.get_benchmarks(gpu, kernel, op[2])
                assert got == [model.get(kernel.with_batch(n)) for n in op[2]]
            elif kind == "get1":
                sized = kernel.with_batch(op[2])
                assert cache.get_benchmark(gpu, sized) == model.get(sized)
            elif kind == "put":
                rows = {n: _ROW_VARIANTS[v] for n, v in op[2].items()}
                cache.put_benchmarks(gpu, kernel, rows)
                for n, results in rows.items():
                    model.put(kernel.with_batch(n), results)
            elif kind == "import":
                payload = _import_payload(gpu, kernel, op[2], op[4])
                assert cache.import_payload(payload, only_gpu=op[3]) == \
                    model.import_payload(payload, op[3])
            else:
                sized = kernel.with_batch(op[2])
                cache.put_benchmark(gpu, sized, _ROW_VARIANTS[op[3]])
                model.put(sized, _ROW_VARIANTS[op[3]])
            assert (cache.bench_hits, cache.bench_misses) == (
                model.hits, model.misses)
            assert cache._recency.popped == model.evicted
            assert cache.evictions == len(model.evicted)
            if capacity is None:
                # Nothing can be evicted, so no recency is kept at all.
                assert not cache._recency
            else:
                assert [_entry_key(entry) for entry in cache._recency] == \
                    list(model.recency)
            assert notified == model.notified
            assert len(cache) == len(model.rows)
        assert json.dumps(cache.export_payload()).encode() == json.dumps(
            model.payload()).encode()
        assert cache.dirty == bool(model.rows or model.evicted)

    def test_one_listener_call_per_changed_size(self):
        cache = BenchmarkCache()
        kernel = _KERNELS[0]
        cache.put_benchmarks("k80", kernel, {1: sample_results(),
                                             2: sample_results()})
        seen = []
        cache.add_invalidation_listener(lambda gpu, g: seen.append(g.n))
        cache.put_benchmarks("k80", kernel, {
            1: sample_results(),          # byte-identical: silent
            2: _ROW_VARIANTS[2],          # changed
            4: _ROW_VARIANTS[2],          # first insert: silent
        })
        assert seen == [2]


# ---------------------------------------------------------------------------
# The block store against a plain per-size model
# ---------------------------------------------------------------------------


class _StoreModel:
    """Plain per-size reference of a whole cache: one dict of rows keyed by
    each size's file DB key, one LRU list, no blocks."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rows = {}
        self.recency = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evicted = []
        self.notified = []

    def get(self, gpu, geometry):
        key = _bench_key(gpu, geometry)
        if key not in self.rows:
            self.misses += 1
            return None
        self.hits += 1
        if self.capacity is not None:
            self.recency.move_to_end(key)
        return list(self.rows[key])

    def _insert(self, key, rows):
        self.rows[key] = list(rows)
        if self.capacity is not None:
            self.recency[key] = None
            self.recency.move_to_end(key)

    def _evict(self):
        while self.capacity is not None and len(self.rows) > self.capacity:
            key, _ = self.recency.popitem(last=False)
            del self.rows[key]
            self.evicted.append(key)

    def put(self, gpu, geometry, rows):
        key = _bench_key(gpu, geometry)
        old = self.rows.get(key)
        self._insert(key, rows)
        self._evict()
        if old is not None and old != list(rows):
            self.notified.append((gpu, geometry))

    def import_payload(self, payload, only_gpu):
        added = 0
        for key, rows in payload["benchmarks"].items():
            if only_gpu is not None and key.split("|")[0] != only_gpu:
                continue
            if key not in self.rows:
                self._insert(key, [
                    PerfResult(ALGOS_FOR[ConvType(r["conv_type"])](r["algo"]),
                               Status.SUCCESS, r["time"], r["workspace"])
                    for r in rows
                ])
                added += 1
        self._evict()
        return added

    def payload(self):
        return _RowModel.payload(self)


@st.composite
def _geometry(draw):
    """A small random kernel: any operation type, stride, padding, groups."""
    groups = draw(st.sampled_from([1, 1, 2]))
    r = draw(st.sampled_from([1, 3]))
    return ConvGeometry(
        draw(st.sampled_from(list(ConvType))), draw(st.integers(1, 64)),
        groups * draw(st.integers(1, 8)), draw(st.integers(r, 12)),
        draw(st.integers(r, 12)), groups * draw(st.integers(1, 8)), r, r,
        draw(st.integers(0, 1)), draw(st.integers(0, 1)),
        draw(st.integers(1, 2)), draw(st.integers(1, 2)), groups=groups,
    )


#: Rows as (algorithm index, time, workspace), typed at the kernel's
#: operation; few values, so rewrites repeat rows and stay silent.
_ROW_SPEC = st.lists(st.tuples(
    st.integers(0, 5), st.sampled_from([0.0, 1e-7, 0.001, 0.5, 3.25]),
    st.sampled_from([0, 64, 1024, 2**33])), max_size=4)
_SIZE_LIST = st.lists(st.integers(1, 12), max_size=6)
_STORE_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["get", "block"]), st.integers(0, 1),
              st.integers(0, 2), _SIZE_LIST),
    st.tuples(st.just("put"), st.integers(0, 1), st.integers(0, 2),
              st.dictionaries(st.integers(1, 12), _ROW_SPEC, max_size=5)),
    st.tuples(st.just("refresh"), st.integers(0, 1), st.integers(0, 2),
              st.integers(1, 12), _ROW_SPEC),
    st.tuples(st.just("import"), st.sampled_from([None, 0, 1]),
              st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2),
                                 st.integers(1, 12), _ROW_SPEC), max_size=6)),
), max_size=30)


def _rows_of(kernel, spec):
    algos = list(ALGOS_FOR[kernel.conv_type])
    return [PerfResult(algos[i % len(algos)], Status.SUCCESS, t, w)
            for i, t, w in spec]


class TestBlockStoreAgainstModel:
    """One block per kernel behaves exactly like one dict entry per size."""

    GPUS = ("p100-sxm2", "v100-sxm2")

    @pytest.mark.parametrize("capacity", [None, 1, 4, 9])
    @settings(max_examples=40, deadline=None)
    @given(kernels=st.lists(_geometry(), min_size=3, max_size=3,
                            unique_by=lambda g: g.cache_key()),
           ops=_STORE_OPS)
    def test_random_operations(self, capacity, kernels, ops):
        cache = BenchmarkCache(capacity=capacity)
        cache._recency = _PopLog()
        model = _StoreModel(capacity)
        notified = []
        cache.add_invalidation_listener(
            lambda gpu, geometry: notified.append((gpu, geometry)))
        for op in ops:
            kind = op[0]
            if kind in ("get", "block"):
                gpu, kernel, sizes = self.GPUS[op[1]], kernels[op[2]], op[3]
                expected = [model.get(gpu, kernel.with_batch(n)) for n in sizes]
                if kind == "get":
                    assert cache.get_benchmarks(gpu, kernel, sizes) == expected
                else:
                    block, missed = cache.get_block(gpu, kernel, sizes)
                    hits = [(n, rows) for n, rows in zip(sizes, expected)
                            if rows is not None]
                    assert missed == [n for n, rows in zip(sizes, expected)
                                      if rows is None]
                    assert (block is None) == (not hits)
                    if block is not None:
                        assert block.sizes.tolist() == [n for n, _ in hits]
                        assert [block.rows(i) for i in range(len(block))] == \
                            [rows for _, rows in hits]
            elif kind == "put":
                gpu, kernel = self.GPUS[op[1]], kernels[op[2]]
                rows = {n: _rows_of(kernel, spec) for n, spec in op[3].items()}
                cache.put_benchmarks(gpu, kernel, rows)
                for n, results in rows.items():
                    model.put(gpu, kernel.with_batch(n), results)
            elif kind == "refresh":
                gpu, sized = self.GPUS[op[1]], kernels[op[2]].with_batch(op[3])
                rows = _rows_of(sized, op[4])
                cache.put_benchmark(gpu, sized, rows)
                model.put(gpu, sized, rows)
            else:
                only_gpu = None if op[1] is None else self.GPUS[op[1]]
                payload = {"benchmarks": {}}
                for g, k, n, spec in op[2]:
                    sized = kernels[k].with_batch(n)
                    key = _bench_key(self.GPUS[g], sized)
                    payload["benchmarks"].setdefault(key, [
                        {"conv_type": sized.conv_type.value,
                         "algo": int(r.algo), "time": r.time,
                         "workspace": r.workspace}
                        for r in _rows_of(sized, spec)
                    ])
                assert cache.import_payload(payload, only_gpu=only_gpu) == \
                    model.import_payload(payload, only_gpu)
            assert (cache.bench_hits, cache.bench_misses) == (
                model.hits, model.misses)
            assert cache._recency.popped == model.evicted
            assert cache.evictions == len(model.evicted)
            assert len(cache) == len(model.rows)
            if capacity is not None:
                assert [_entry_key(entry) for entry in cache._recency] == \
                    list(model.recency)
            assert notified == model.notified
        assert json.dumps(cache.export_payload()).encode() == json.dumps(
            model.payload()).encode()


# ---------------------------------------------------------------------------
# The bench decoder: row validation and arbitrary bytes
# ---------------------------------------------------------------------------


_VALID_KEY = "k80|Forward:n4c3h8w8k5r3s3ph1pw1sh1sw1dh1dw1"


def _doc(rows, key=_VALID_KEY):
    return {"version": 1, "benchmarks": {key: rows}, "configurations": {}}


def _row(**fields):
    row = {"conv_type": "Forward", "algo": 4, "time": 0.001, "workspace": 1024}
    row.update(fields)
    return row


class TestRowValidation:
    """The decoder stores only rows Find could have produced."""

    @pytest.mark.parametrize("row", [
        _row(time=float("nan")), _row(time=-0.5), _row(time=float("inf")),
        _row(time="0.001"), _row(time=True), _row(workspace=-1),
        _row(workspace=1.7), _row(workspace=2**63), _row(workspace="64"),
        _row(conv_type="BackwardData"), _row(algo=99), {"algo": 4},
    ], ids=["nan-time", "negative-time", "inf-time", "string-time",
            "bool-time", "negative-workspace", "fractional-workspace",
            "huge-workspace", "string-workspace", "other-conv-type",
            "unknown-algo", "missing-fields"])
    @pytest.mark.parametrize("route", ["load", "import"])
    def test_invalid_row_is_a_cache_error(self, tmp_path, row, route):
        doc = _doc([_row(), row])
        with pytest.raises(CacheError, match="k80"):
            if route == "load":
                path = tmp_path / "bench.json"
                path.write_text(json.dumps(doc))
                BenchmarkCache(path)
            else:
                BenchmarkCache().import_payload(doc)

    @pytest.mark.parametrize("key", [
        "k80|Forward:nc3", "k80|Forward:c3", "k80|Sideways:n4c3", "nokey",
        "k80|Forward:n99999999999999999999c3",
    ])
    def test_a_key_that_names_no_kernel_size_is_a_cache_error(self, key):
        with pytest.raises(CacheError):
            BenchmarkCache().import_payload(_doc([_row()], key=key))

    def test_integral_float_workspace_loads_as_an_integer(self):
        cache = BenchmarkCache()
        cache.import_payload(_doc([_row(workspace=1024.0, time=0)]))
        (row,) = cache.get_benchmark("k80", make_geometry())
        assert row == PerfResult(FwdAlgo.FFT, Status.SUCCESS, 0.0, 1024)
        assert type(row.workspace) is int and type(row.time) is float

    def test_a_valid_file_loads_to_the_same_rows_and_bytes(self, tmp_path):
        """Two kernels' sizes interleaved, empty rows, unsorted rows: the
        file loads to the rows it names and saves back byte for byte."""
        g, other = make_geometry(), make_geometry(c=16, k=7)
        source = {
            _bench_key("k80", g.with_batch(2)): [_row(), _row(algo=0, time=0.5,
                                                              workspace=0)],
            _bench_key("k80", other.with_batch(1)): [],
            _bench_key("k80", g.with_batch(1)): [_row(algo=0, time=0.25,
                                                      workspace=0), _row()],
            _bench_key("p100-sxm2", other): [_row(algo=2, time=3e-05,
                                                  workspace=2**40)],
        }
        path = tmp_path / "bench.json"
        text = json.dumps({"version": 1, "benchmarks": source,
                           "configurations": {}})
        path.write_text(text)
        cache = BenchmarkCache(path)
        for key, rows in source.items():
            gpu, geometry_key = key.split("|")
            n = int(geometry_key.split(":n")[1].split("c")[0])
            geometry = (g if geometry_key.startswith(g.cache_key()[:9])
                        and "c3h" in geometry_key else other).with_batch(n)
            assert cache.get_benchmark(gpu, geometry) == [
                PerfResult(FwdAlgo(r["algo"]), Status.SUCCESS, r["time"],
                           r["workspace"]) for r in rows]
        cache._dirty = True
        cache.save()
        assert path.read_text() == text


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**64)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
_FUZZ_KEY = st.sampled_from([
    _VALID_KEY, "v100-sxm2|BackwardFilter:n32c64h7w7k64r3s3ph1pw1sh1sw1dh1dw1g2",
    "k80|Forward:n0c3", "k80|Forward:n01c3", "k80|Forward:99", "|:n1",
]) | st.text(max_size=12)
_FUZZ_ROW = st.fixed_dictionaries({
    "conv_type": st.sampled_from(["Forward", "BackwardFilter"]) | _JSON,
    "algo": st.integers(-1, 8) | _JSON,
    "time": st.floats(allow_nan=True, allow_infinity=True) | _JSON,
    "workspace": st.integers(-2, 2**64) | st.floats() | _JSON,
})
_FUZZ_DOC = st.fixed_dictionaries({
    "version": st.sampled_from([1, 1, 2]) | _JSON,
    "benchmarks": st.dictionaries(
        _FUZZ_KEY, st.lists(_FUZZ_ROW, max_size=3) | _JSON, max_size=3) | _JSON,
    "configurations": st.dictionaries(st.text(max_size=6), _JSON,
                                      max_size=2) | _JSON,
})


class TestLoadFuzz:
    """Any bytes on disk give a loaded cache or a CacheError, nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200)
           | _FUZZ_DOC.map(lambda doc: json.dumps(doc).encode())
           | st.just(b"[" * 100_000) | st.just(b'{"version": 1, "\xff": 2}'))
    def test_any_bytes_load_or_raise_cache_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "bench.json"
            path.write_bytes(data)
            try:
                cache = BenchmarkCache(path)
            except CacheError:
                return
            # What loads exports, and re-imports to the same payload.
            payload = cache.export_payload()
            again = BenchmarkCache()
            again.import_payload(payload)
            assert again.export_payload() == payload


# ---------------------------------------------------------------------------
# Memory budget of the block store
# ---------------------------------------------------------------------------


class TestMemoryBudget:
    """The rows of AlexNet b256 ``all`` on p100 stay one block per kernel.

    Measured: the cache holds 452,675 bytes (15 blocks, 3840 sizes) where a
    tuple of row objects per size held 3,099,460.  The ceiling is the
    measured size plus 25%.
    """

    CEILING = 566_000

    def test_cache_bytes_after_alexnet_all(self):
        from repro.core.benchmarker import benchmark_kernel
        from repro.core.policies import BatchSizePolicy
        from repro.cudnn.device import Gpu
        from repro.cudnn.handle import CudnnHandle, ExecMode
        from repro.frameworks.model_zoo import build_alexnet
        from repro.harness.experiments import conv_geometries_of

        geometries = conv_geometries_of(build_alexnet, 256, "p100-sxm2")
        handle = CudnnHandle(gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING)

        def fill():
            cache = BenchmarkCache()
            for g in geometries.values():
                benchmark_kernel(handle, g, BatchSizePolicy.ALL, cache=cache)
            return cache

        fill()  # warm every lazy import and memo outside the measurement
        gc.collect()
        tracemalloc.start()
        try:
            cache = fill()
            gc.collect()
            full = tracemalloc.get_traced_memory()[0]
            entries = len(cache)
            del cache
            gc.collect()
            held = full - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert entries == 3840
        assert held <= self.CEILING, f"the cache holds {held} bytes"
