"""Tests for the benchmark / configuration cache (paper section III-D)."""

import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import BenchmarkCache, _bench_key, _bench_key_template
from repro.core.config import Configuration, MicroConfig
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import ConvolutionMode, ConvType, FwdAlgo
from repro.cudnn.perfmodel import PerfResult
from repro.cudnn.status import Status
from repro.errors import CacheError
from tests.conftest import make_geometry


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

    def test_stored_rows_are_tuples_and_lookups_fresh_lists(self):
        cache = BenchmarkCache()
        g = make_geometry()
        cache.put_benchmark(self.GPU, g, sample_results())
        assert all(type(rows) is tuple for rows in cache._bench.values())
        got = cache.get_benchmark(self.GPU, g)
        assert type(got) is list and got == sample_results()
        got.clear()
        assert cache.get_benchmark(self.GPU, g) == sample_results()

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
        assert all(type(rows) is tuple for rows in cache._bench.values())
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
        self.popped.append(item[0][1])
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
    ),
    max_size=40,
)


class TestBatchedCallsAgainstRowModel:
    """Batched and per-row calls interleave exactly like per-row calls."""

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
                assert [key for _, key in cache._recency] == list(model.recency)
            assert notified == model.notified
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
