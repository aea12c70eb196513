"""Benchmark and configuration caching (paper section III-D).

mu-cuDNN "caches the optimized configurations and the benchmark results into
memory and optional file-based database respectively, to skip unnecessary
recomputations" -- crucial for networks that replicate convolutional layers
of the same shape (ResNet), and enabling offline benchmarking plus sharing
across a homogeneous GPU cluster via a network filesystem.

Keys incorporate the GPU model and the full kernel geometry (including the
micro-batch size being measured); configuration cache keys additionally
carry the optimizer inputs (policy, workspace limit, WR/WD).  The file
format is a single JSON document, written atomically and durably
(:func:`write_atomic`: fsynced temp file + rename + directory fsync) so
concurrent readers on a shared filesystem never observe a torn file.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Iterable, Mapping

import repro.telemetry as telemetry
from repro.core.config import Configuration
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import ALGOS_FOR, ConvType
from repro.cudnn.perfmodel import PerfResult
from repro.cudnn.status import Status
from repro.errors import CacheError
from repro.telemetry.locks import blocking, new_lock

_FORMAT_VERSION = 1


def write_atomic(path: Path, text: str) -> None:
    """Durably replace ``path`` with ``text``, all or nothing.

    The text goes to a temp file beside ``path``, which is fsynced and then
    renamed over ``path`` with ``os.replace``; the directory is fsynced
    last so the rename itself survives a crash.  Readers, and a reload
    after a failure at any step, see the old complete file or the new one.
    A failure before the rename removes the temp file and re-raises.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _bench_key(gpu_name: str, geometry: ConvGeometry) -> str:
    return f"{gpu_name}|{geometry.cache_key()}"


def _bench_key_template(gpu_name: str, geometry: ConvGeometry) -> tuple[str, str]:
    """``(head, tail)`` with ``head + str(n) + tail`` the key at batch ``n``.

    Splits :func:`_bench_key` around the batch digits, so a kernel's keys at
    every micro-batch size come from one ``cache_key()`` call instead of one
    :class:`~repro.cudnn.descriptors.ConvGeometry` per size.
    """
    head, sep, rest = geometry.cache_key().partition(":n")
    return f"{gpu_name}|{head}{sep}", rest[len(str(geometry.n)):]


def _parse_bench_section(section: object, where: str) -> dict[str, tuple[PerfResult, ...]]:
    """Validate + decode the ``benchmarks`` section of a payload.

    Malformed structure (wrong container types, rows missing fields,
    unknown algorithm/conv-type codes) raises
    :class:`~repro.errors.CacheError` naming the damaged key, instead of
    leaking ``KeyError``/``TypeError``/``ValueError`` from half-parsed data.
    """
    if not isinstance(section, dict):
        raise CacheError(
            f"{where}: 'benchmarks' must be an object, "
            f"got {type(section).__name__}"
        )
    bench: dict[str, tuple[PerfResult, ...]] = {}
    for key, rows in section.items():
        try:
            conv_type = ConvType(rows[0]["conv_type"]) if rows else ConvType.FORWARD
            algo_enum = ALGOS_FOR[conv_type]
            bench[key] = tuple(
                PerfResult(
                    algo=algo_enum(r["algo"]),
                    status=Status.SUCCESS,
                    time=float(r["time"]),
                    workspace=int(r["workspace"]),
                )
                for r in rows
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CacheError(
                f"{where}: corrupt benchmark entry {key!r}: {exc}"
            ) from exc
    return bench


def _parse_config_section(section: object, where: str) -> dict[str, dict]:
    """Validate + copy the ``configurations`` section of a payload.

    Each entry must round-trip through
    :meth:`~repro.core.config.Configuration.from_dict` now, so a damaged
    entry fails at load time with a :class:`~repro.errors.CacheError`
    rather than at some later lookup deep inside an optimizer pass.
    """
    if not isinstance(section, dict):
        raise CacheError(
            f"{where}: 'configurations' must be an object, "
            f"got {type(section).__name__}"
        )
    configs: dict[str, dict] = {}
    for key, data in section.items():
        try:
            Configuration.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(
                f"{where}: corrupt configuration entry {key!r}: {exc}"
            ) from exc
        configs[key] = dict(data)
    return configs


class BenchmarkCache:
    """In-memory benchmark-result cache with optional file persistence.

    Parameters
    ----------
    path:
        Optional database file.  When given, existing contents are loaded
        eagerly and :meth:`save` persists the merged state.  The same file
        can be shared by many processes/nodes (last writer wins, which is
        safe: entries are deterministic for a given GPU model).
    capacity:
        Optional bound on the total number of in-memory entries (benchmark
        tables plus optimized configurations together), fixed at
        construction.  ``None`` -- the default, and the paper's behavior --
        is unlimited and keeps no recency order.  When bounded, inserting
        past the limit evicts the least-recently-*used* entry (lookups
        refresh recency) and increments :attr:`evictions`.

    Each size's rows are stored as one tuple; lookups return fresh lists.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str] | None" = None,
        capacity: int | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.path = Path(path) if path is not None else None
        self._capacity = capacity
        #: Owning lock for all mutable state below: the cache is shared by
        #: the parallel evaluator's worker threads and across policies.
        self._lock = new_lock("bench", reentrant=True)
        #: Serializes file writes only.  ``save`` snapshots the payload
        #: under the data lock, releases it, then writes under this one --
        #: so a multi-megabyte JSON dump never stalls cache lookups.  The
        #: "bench.io" level is blocking-allowed by contract (DESIGN.md
        #: section 14); "bench" is not.
        self._io_lock = new_lock("bench.io")
        self._bench: dict[str, tuple[PerfResult, ...]] = {}
        self._configs: dict[str, dict] = {}
        #: Hit/miss counters, split by what was looked up: benchmark tables
        #: (the expensive cudnnFind results) vs optimized configurations
        #: (cheap to recompute, but hits skip a whole WR/WD solve).
        self.bench_hits = 0
        self.bench_misses = 0
        self.config_hits = 0
        self.config_misses = 0
        #: Entries dropped by the LRU bound (always 0 when unbounded).
        self.evictions = 0
        #: Global LRU order across both stores; keys are ("bench"|"config",
        #: entry key), values unused.  Empty when unbounded: nothing evicts.
        self._recency: "OrderedDict[tuple[str, str], None]" = OrderedDict()
        #: Callbacks fired (outside the lock) when :meth:`put_benchmark`
        #: overwrites existing rows with different values -- the signal that
        #: plans derived from the old rows are stale.
        self._listeners: list[Callable[[str, ConvGeometry], None]] = []
        self._dirty = False
        if self.path is not None and self.path.exists():
            self.load()

    @property
    def capacity(self) -> int | None:
        """The entry bound given at construction (``None``: unbounded)."""
        return self._capacity

    @property
    def hits(self) -> int:
        """Total cache hits (benchmark + configuration)."""
        return self.bench_hits + self.config_hits

    @property
    def misses(self) -> int:
        """Total cache misses (benchmark + configuration)."""
        return self.bench_misses + self.config_misses

    @property
    def dirty(self) -> bool:
        """Whether in-memory state has changed since the last save/load."""
        return self._dirty

    # -- benchmark results ----------------------------------------------------

    def get_benchmark(
        self, gpu_name: str, geometry: ConvGeometry
    ) -> list[PerfResult] | None:
        return self.get_benchmarks(gpu_name, geometry, (geometry.n,))[0]

    def get_benchmarks(
        self, gpu_name: str, geometry: ConvGeometry, sizes: Iterable[int]
    ) -> list[list[PerfResult] | None]:
        """Rows of one kernel at each micro-batch size, in ``sizes`` order.

        One lock hold for the whole table; each size still counts its own
        hit or miss and (when bounded) refreshes its own LRU recency, exactly
        as one :meth:`get_benchmark` call per size would.
        """
        head, tail = _bench_key_template(gpu_name, geometry)
        keys = [f"{head}{size}{tail}" for size in sizes]
        out: list[list[PerfResult] | None] = []
        bounded = self._capacity is not None
        with self._lock:
            for key in keys:
                entry = self._bench.get(key)
                if entry is None:
                    self.bench_misses += 1
                    out.append(None)
                else:
                    self.bench_hits += 1
                    if bounded:
                        self._recency.move_to_end(("bench", key))
                    out.append(list(entry))
        if telemetry.enabled():
            for key, entry in zip(keys, out):
                if entry is None:
                    telemetry.count("cache.misses",
                                    help="benchmark/config cache misses")
                    telemetry.count("cache.bench.misses",
                                    help="benchmark-table cache misses")
                    telemetry.event("cache.miss", key=key)
                else:
                    telemetry.count("cache.hits",
                                    help="benchmark/config cache hits")
                    telemetry.count("cache.bench.hits",
                                    help="benchmark-table cache hits")
                    telemetry.event("cache.hit", key=key)
        return out

    def has_benchmark(self, gpu_name: str, geometry: ConvGeometry) -> bool:
        """Whether benchmark rows exist, without counting a hit or miss.

        A pure peek for schedulers deciding *where* to run a solve: the
        probe must not perturb the hit/miss counters (or LRU recency) that
        describe actual cache traffic, or scheduling would skew the very
        locality signal it reads.
        """
        with self._lock:
            return _bench_key(gpu_name, geometry) in self._bench

    def put_benchmark(
        self, gpu_name: str, geometry: ConvGeometry, results: list[PerfResult]
    ) -> None:
        """Insert or refresh benchmark rows for one kernel geometry."""
        self.put_benchmarks(gpu_name, geometry, {geometry.n: results})

    def put_benchmarks(
        self,
        gpu_name: str,
        geometry: ConvGeometry,
        rows: Mapping[int, list[PerfResult]],
    ) -> None:
        """Insert or refresh one kernel's rows at several micro-batch sizes.

        Sizes are inserted in ``rows`` order under one lock hold, each with
        its own recency bump and eviction pass when bounded, exactly as one
        :meth:`put_benchmark` call per size would.  Overwriting an existing
        size with *different* rows notifies every registered invalidation
        listener (outside the lock) once per such size, with that size's
        geometry, so dependent caches -- plan stores, delta solvers -- can
        drop stale derivations.  First-time inserts and byte-identical
        rewrites stay silent, which keeps the solver's miss-then-put path
        listener-free.  Callers that can change rows must not hold locks a
        listener may take.
        """
        head, tail = _bench_key_template(gpu_name, geometry)
        changed: list[int] = []
        evicted = 0
        with self._lock:
            for size, results in rows.items():
                key = f"{head}{size}{tail}"
                new = tuple(results)
                old = self._bench.get(key)
                if old is not None and old != new:
                    changed.append(size)
                self._bench[key] = new
                self._dirty = True
                evicted += self._evict_over_capacity(("bench", key))
            listeners = list(self._listeners) if changed else []
        if evicted and telemetry.enabled():
            telemetry.count("cache.evictions", evicted,
                            help="entries dropped by the LRU capacity bound")
        if listeners and telemetry.enabled():
            telemetry.count("cache.bench.refreshes", len(changed),
                            help="benchmark rows overwritten with new values")
        for size in changed:
            sized = geometry.with_batch(size)
            for listener in listeners:
                listener(gpu_name, sized)

    def add_invalidation_listener(
        self, listener: Callable[[str, ConvGeometry], None]
    ) -> None:
        """Register ``listener(gpu_name, geometry)`` for row refreshes."""
        with self._lock:
            self._listeners.append(listener)

    def remove_invalidation_listener(
        self, listener: Callable[[str, ConvGeometry], None]
    ) -> None:
        """Unregister a listener; unknown listeners are ignored."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    # -- optimized configurations ----------------------------------------------

    def config_key(
        self,
        gpu_name: str,
        geometry: ConvGeometry,
        policy: str,
        workspace_limit: int,
        scheme: str,
    ) -> str:
        return f"{gpu_name}|{geometry.cache_key()}|{policy}|{workspace_limit}|{scheme}"

    def get_configuration(self, key: str) -> Configuration | None:
        with self._lock:
            data = self._configs.get(key)
            if data is None:
                self.config_misses += 1
            else:
                self.config_hits += 1
                if self._capacity is not None:
                    self._recency.move_to_end(("config", key))
        if data is None:
            if telemetry.enabled():
                telemetry.count("cache.misses", help="benchmark/config cache misses")
                telemetry.count("cache.config.misses",
                                help="optimized-configuration cache misses")
                telemetry.event("cache.miss", key=key)
            return None
        if telemetry.enabled():
            telemetry.count("cache.hits", help="benchmark/config cache hits")
            telemetry.count("cache.config.hits",
                            help="optimized-configuration cache hits")
            telemetry.event("cache.hit", key=key)
        return Configuration.from_dict(data)

    def put_configuration(
        self, key: str, conv_type: ConvType, configuration: Configuration
    ) -> None:
        with self._lock:
            self._configs[key] = configuration.to_dict(conv_type)
            self._dirty = True
            evicted = self._evict_over_capacity(("config", key))
        if evicted and telemetry.enabled():
            telemetry.count("cache.evictions", evicted,
                            help="entries dropped by the LRU capacity bound")

    def _evict_over_capacity(self, *touched: tuple[str, str]) -> int:
        """Bump ``touched`` to most recent, then drop LRU entries past
        :attr:`capacity`; a no-op when unbounded (re-entrant on the lock)."""
        if self._capacity is None:
            return 0
        evicted = 0
        with self._lock:
            for entry in touched:
                self._recency[entry] = None
                self._recency.move_to_end(entry)
            while len(self._bench) + len(self._configs) > self._capacity:
                (kind, old_key), _ = self._recency.popitem(last=False)
                if kind == "bench":
                    del self._bench[old_key]
                else:
                    del self._configs[old_key]
                self.evictions += 1
                evicted += 1
        return evicted

    # -- persistence ------------------------------------------------------------

    def save(self) -> None:
        """Atomically persist to :attr:`path` (no-op without a path).

        Skips the write entirely when nothing changed since the last
        save/load -- frameworks call ``save`` once per training step, and
        after warm-up every step would otherwise rewrite an identical
        multi-megabyte JSON document.
        """
        if self.path is None:
            return
        with self._io_lock:
            with self._lock:
                if not self._dirty and self.path.exists():
                    telemetry.count("cache.saves_skipped",
                                    help="persist calls skipped because "
                                         "nothing changed")
                    return
                payload = {"version": _FORMAT_VERSION, **self.export_payload()}
                entries = len(self)
                self._dirty = False
            # The write happens with only the io lock held: lookups and
            # inserts proceed against the snapshot-consistent payload.
            try:
                with telemetry.span(
                    "cache.save", path=str(self.path), entries=entries
                ):
                    blocking("cache.save")
                    write_atomic(self.path, json.dumps(payload))
            except BaseException:
                with self._lock:
                    self._dirty = True  # the state never reached disk
                raise
        telemetry.count("cache.saves", help="benchmark DB persist operations")

    def export_payload(self) -> dict:
        """The persistable sections (a deep-enough copy, safe to serialize).

        This is the schema the file DB and the plan-snapshot backend
        (:mod:`repro.persistence`) share: ``benchmarks`` maps cache keys to
        benchmark rows, ``configurations`` maps config keys to serialized
        :class:`~repro.core.config.Configuration` dicts.
        """
        with self._lock:
            return {
                "benchmarks": {
                    key: [
                        {
                            "conv_type": key.split("|", 1)[1].split(":", 1)[0],
                            "algo": int(r.algo),
                            "time": r.time,
                            "workspace": r.workspace,
                        }
                        for r in results
                    ]
                    for key, results in self._bench.items()
                },
                "configurations": {
                    key: dict(value) for key, value in self._configs.items()
                },
            }

    def load(self) -> None:
        """Load (replacing in-memory state) from :attr:`path`.

        A file that cannot be read or parsed -- missing, empty, truncated
        mid-document, or structurally malformed (sections of the wrong
        type, benchmark rows missing fields) -- raises
        :class:`~repro.errors.CacheError` with the offending path, never a
        raw ``KeyError``/``TypeError`` traceback: a shared benchmark DB on
        a network filesystem *will* eventually be half-written or damaged,
        and the caller needs "the DB is corrupt" as a routable condition.
        """
        if self.path is None:
            raise CacheError("cache has no backing file")
        blocking("cache.load")
        try:
            with open(self.path) as fh:
                text = fh.read()
        except OSError as exc:
            raise CacheError(f"cannot read benchmark DB {self.path}: {exc}") from exc
        if not text.strip():
            raise CacheError(f"benchmark DB {self.path} is empty")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CacheError(
                f"benchmark DB {self.path} is not valid JSON "
                f"(truncated or corrupt?): {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise CacheError(
                f"benchmark DB {self.path} must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        if payload.get("version") != _FORMAT_VERSION:
            raise CacheError(
                f"benchmark DB {self.path} has version {payload.get('version')}, "
                f"expected {_FORMAT_VERSION}"
            )
        bench = _parse_bench_section(payload.get("benchmarks", {}), str(self.path))
        configs = _parse_config_section(
            payload.get("configurations", {}), str(self.path)
        )
        with self._lock:
            self._bench = bench
            self._configs = configs
            self._recency = OrderedDict()
            if self._capacity is not None:
                self._recency.update((("bench", key), None) for key in bench)
                self._recency.update((("config", key), None) for key in configs)
            evicted = self._evict_over_capacity()
            self._dirty = False
        if evicted and telemetry.enabled():
            telemetry.count("cache.evictions", evicted,
                            help="entries dropped by the LRU capacity bound")
        telemetry.event("cache.load", path=str(self.path), entries=len(self))

    def import_payload(
        self, payload: dict, *, only_gpu: str | None = None
    ) -> int:
        """Merge a :meth:`export_payload`-shaped payload into this cache.

        Existing entries always win (keep-local): benchmark rows are
        deterministic per GPU model, so a key already measured locally needs
        no replacement.  ``only_gpu`` restricts the import to entries whose
        key's GPU prefix matches -- the isolation rule for snapshots merged
        across heterogeneous fleets.  Returns the number of entries added;
        malformed payloads raise :class:`~repro.errors.CacheError`.
        """
        bench = _parse_bench_section(payload.get("benchmarks", {}), "import")
        configs = _parse_config_section(
            payload.get("configurations", {}), "import"
        )
        added = 0
        with self._lock:
            for key, results in bench.items():
                if only_gpu is not None and key.split("|", 1)[0] != only_gpu:
                    continue
                if key in self._bench:
                    continue
                self._bench[key] = results
                if self._capacity is not None:
                    self._recency[("bench", key)] = None
                added += 1
            for key, data in configs.items():
                if only_gpu is not None and key.split("|", 1)[0] != only_gpu:
                    continue
                if key in self._configs:
                    continue
                self._configs[key] = data
                if self._capacity is not None:
                    self._recency[("config", key)] = None
                added += 1
            if added:
                self._dirty = True
            evicted = self._evict_over_capacity()
        if evicted and telemetry.enabled():
            telemetry.count("cache.evictions", evicted,
                            help="entries dropped by the LRU capacity bound")
        return added

    def __len__(self) -> int:
        return len(self._bench) + len(self._configs)
