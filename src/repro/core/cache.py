"""Benchmark and configuration caching (paper section III-D).

mu-cuDNN "caches the optimized configurations and the benchmark results into
memory and optional file-based database respectively, to skip unnecessary
recomputations" -- crucial for networks that replicate convolutional layers
of the same shape (ResNet), and enabling offline benchmarking plus sharing
across a homogeneous GPU cluster via a network filesystem.

Benchmark rows are held as one :class:`~repro.cudnn.perfmodel.BenchBlock`
per GPU model and kernel geometry without its batch size: every measured
micro-batch size of that kernel in one set of columns, as Find produced
them.  Hits, misses and LRU recency still count per (block, size).  The
file format keys rows per size -- the GPU model plus the geometry at the
measured micro-batch size -- and configuration keys additionally carry the
optimizer inputs (policy, workspace limit, WR/WD).  It is a single JSON
document, written atomically and durably (:func:`write_atomic`: fsynced
temp file + rename + directory fsync) so concurrent readers on a shared
filesystem never observe a torn file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Container, Iterable, Iterator, Mapping

import repro.telemetry as telemetry
from repro.core.config import Configuration
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import ALGOS_FOR, ConvType
from repro.errors import CacheError, decode_json
from repro.telemetry.locks import blocking, new_lock

if TYPE_CHECKING:
    import numpy as np

    from repro.cudnn.perfmodel import BenchBlock, PerfResult

_FORMAT_VERSION = 1

#: The largest batch size or workspace a block's int64 columns hold.
_INT64_MAX = 2**63 - 1


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


#: A benchmark key split around its batch digits: (head, conv type, size,
#: tail), where ``head`` ends in ``:n``.
_KEY = re.compile(r"([^|]*\|([^:|]*):n)(0|[1-9][0-9]*)(.*)", re.DOTALL)

#: A stored block's key: the benchmark key around its batch digits.
Kernel = tuple[str, str]


def _bench_key_template(gpu_name: str, geometry: ConvGeometry) -> Kernel:
    """``(head, tail)`` with ``head + str(n) + tail`` the key at batch ``n``.

    The key of a kernel's block, and of each of its sizes in the file DB,
    from one ``cache_key()`` call.
    """
    head, sep, rest = geometry.cache_key().partition(":n")
    return f"{gpu_name}|{head}{sep}", rest[len(str(geometry.n)):]


class _Rows:  # reprolint: disable=THR001 -- owned by one BenchmarkCache: filled while parsing, then changed only under the cache's lock
    """One kernel's validated rows as plain lists, not yet a block.

    What :func:`_parse_bench_section` yields, and what the cache keeps for
    a kernel loaded from a file or imported from a snapshot until anything
    reads it: size ``sizes[i]`` owns the next ``counts[i]`` entries of
    ``algos`` (algorithm ids), ``times`` and ``workspaces``, in Find's
    order, and ``order[i]`` is its place in the file DB's key order.  Lists
    let a warm-starting server load, count and re-save rows without numpy
    or the perf model.
    """

    __slots__ = ("conv_type", "sizes", "counts", "algos", "times",
                 "workspaces", "order")

    def __init__(self, conv_type: ConvType) -> None:
        self.conv_type = conv_type
        self.sizes: list[int] = []
        self.counts: list[int] = []
        self.algos: list[int] = []
        self.times: list[float] = []
        self.workspaces: list[int] = []
        self.order: list[int] = []

    def tables(self) -> Iterator[tuple[int, int, int, int]]:
        """``(size, order, first row, end row)`` of each size."""
        lo = 0
        for size, order, count in zip(self.sizes, self.order, self.counts):
            yield size, order, lo, lo + count
            lo += count

    def extend(
        self, other: "_Rows", skip: Container[int], base: int
    ) -> list[tuple[int, int]]:
        """Append ``other``'s sizes not in ``skip``, their order shifted by
        ``base``; returns ``(order, size)`` of each size appended."""
        appended: list[tuple[int, int]] = []
        for size, order, lo, hi in other.tables():
            if size in skip:
                continue
            self.sizes.append(size)
            self.counts.append(hi - lo)
            self.order.append(base + order)
            self.algos += other.algos[lo:hi]
            self.times += other.times[lo:hi]
            self.workspaces += other.workspaces[lo:hi]
            appended.append((base + order, size))
        return appended

    def pack(self) -> "tuple[BenchBlock, np.ndarray]":
        """The rows as one block, in list order, and each size's order."""
        import numpy as np

        from repro.cudnn.perfmodel import BenchBlock

        return (BenchBlock.from_lists(self.conv_type, self.sizes, self.counts,
                                      self.algos, self.times, self.workspaces),
                np.array(self.order, dtype=np.int64))


def _parse_bench_section(section: object, where: str) -> dict[Kernel, _Rows]:
    """Validate + decode the ``benchmarks`` section into rows per kernel.

    Each size's ``order`` is the position of its key in the section.
    Malformed structure (wrong container types, a key that is no benchmark
    key, rows missing fields, unknown algorithm codes, a row ``conv_type``
    other than its key's, a time that is not a finite number >= 0, a
    workspace that is not an integer in ``[0, 2**63)``) raises
    :class:`~repro.errors.CacheError` naming the damaged key, instead of
    leaking ``KeyError``/``TypeError``/``ValueError`` from half-parsed data
    or storing a value no Find produced.
    """
    if not isinstance(section, dict):
        raise CacheError(
            f"{where}: 'benchmarks' must be an object, "
            f"got {type(section).__name__}"
        )
    parsed: dict[Kernel, _Rows] = {}
    for position, (key, rows) in enumerate(section.items()):
        try:
            match = _KEY.fullmatch(key)
            if match is None:
                raise ValueError("not a benchmark key")
            head, conv_name, digits, tail = match.groups()
            size = int(digits)
            if size > _INT64_MAX:
                raise ValueError(f"batch size {size} is out of range")
            conv_type = ConvType(conv_name)
            algo_enum = ALGOS_FOR[conv_type]
            if not isinstance(rows, list):
                raise TypeError(f"rows must be a list, got {type(rows).__name__}")
            kernel = (head, tail)
            if kernel not in parsed:
                parsed[kernel] = _Rows(conv_type)
            columns = parsed[kernel]
            for r in rows:
                if r["conv_type"] != conv_name:
                    raise ValueError(
                        f"row conv_type {r['conv_type']!r} is not the key's")
                columns.algos.append(int(algo_enum(r["algo"])))
                time, workspace = r["time"], r["workspace"]
                if type(time) not in (int, float) or not (
                        0 <= float(time) < math.inf):
                    raise ValueError(f"time {time!r} is not a finite number >= 0")
                if type(workspace) is float and workspace.is_integer():
                    workspace = int(workspace)
                if type(workspace) is not int or not 0 <= workspace <= _INT64_MAX:
                    raise ValueError(f"workspace {workspace!r} is not a byte count")
                columns.times.append(float(time))
                columns.workspaces.append(workspace)
            columns.sizes.append(size)
            columns.counts.append(len(rows))
            columns.order.append(position)
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise CacheError(
                f"{where}: corrupt benchmark entry {key!r}: {exc}"
            ) from exc
    return parsed


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

    Each kernel's rows are one block; lookups return fresh lists.  Rows
    loaded from the file or imported from a payload stay validated lists
    until anything reads their kernel, so loading, counting and re-saving
    them needs neither numpy nor the perf model.
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
        self._blocks: dict[Kernel, BenchBlock] = {}
        #: Per block, each size's place in the file DB's key order: sizes
        #: keep the order of their first insert, as keys of one dict would.
        self._order: dict[Kernel, np.ndarray] = {}
        #: Loaded or imported kernels not read since: :meth:`_block` packs
        #: one into ``_blocks`` on its first read.  A kernel is in one of
        #: the two maps, never both.
        self._loaded: dict[Kernel, _Rows] = {}
        self._next_order = 0
        self._bench_entries = 0
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
        #: Global LRU order across both stores; keys are ("bench", (head,
        #: tail, size)) and ("config", key), values unused.  Empty when
        #: unbounded: nothing evicts.
        self._recency: "OrderedDict[tuple[str, object], None]" = OrderedDict()
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
        block, where = self._lookup(gpu_name, geometry, list(sizes))
        return [None if i < 0 else block.rows(i) for i in where]

    def get_block(
        self, gpu_name: str, geometry: ConvGeometry, sizes: list[int]
    ) -> tuple[BenchBlock | None, list[int]]:
        """The stored rows of ``sizes`` as one block, and the sizes missed.

        Counts hits and misses (and refreshes recency) exactly as
        :meth:`get_benchmarks`.  The block holds the hits in ``sizes``
        order (``None`` when nothing hit); it is the stored block itself
        when ``sizes`` are exactly its sizes.
        """
        block, where = self._lookup(gpu_name, geometry, sizes)
        missed = [size for size, i in zip(sizes, where) if i < 0]
        hits = [i for i in where if i >= 0]
        if block is None or not hits:
            return None, missed
        if hits == list(range(len(block))):
            return block, missed
        return block.take(hits), missed

    def _lookup(
        self, gpu_name: str, geometry: ConvGeometry, sizes: list[int]
    ) -> tuple[BenchBlock | None, list[int]]:
        """The kernel's block and each size's position in it (-1: a miss)."""
        head, tail = kernel = _bench_key_template(gpu_name, geometry)
        with self._lock:
            block = self._block(kernel)
            where = (block.index(sizes).tolist() if block is not None
                     else [-1] * len(sizes))
            hits = sum(i >= 0 for i in where)
            self.bench_hits += hits
            self.bench_misses += len(sizes) - hits
            if self._capacity is not None:
                for size, i in zip(sizes, where):
                    if i >= 0:
                        self._recency.move_to_end(("bench", (head, tail, size)))
        if telemetry.enabled():
            for size, i in zip(sizes, where):
                outcome = "misses" if i < 0 else "hits"
                telemetry.count(f"cache.{outcome}",
                                help=f"benchmark/config cache {outcome}")
                telemetry.count(f"cache.bench.{outcome}",
                                help=f"benchmark-table cache {outcome}")
                telemetry.event("cache.miss" if i < 0 else "cache.hit",
                                key=f"{head}{size}{tail}")
        return block, where

    def has_benchmark(self, gpu_name: str, geometry: ConvGeometry) -> bool:
        """Whether benchmark rows exist, without counting a hit or miss.

        A pure peek for schedulers deciding *where* to run a solve: the
        probe must not perturb the hit/miss counters (or LRU recency) that
        describe actual cache traffic, or scheduling would skew the very
        locality signal it reads.
        """
        with self._lock:
            block = self._block(_bench_key_template(gpu_name, geometry))
            return block is not None and bool(block.index([geometry.n])[0] >= 0)

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

        The rows are packed into one block and stored by :meth:`put_block`.
        """
        from repro.cudnn.perfmodel import BenchBlock

        self.put_block(gpu_name, geometry, BenchBlock.pack(
            geometry.conv_type, list(rows), list(rows.values())))

    def put_block(
        self, gpu_name: str, geometry: ConvGeometry, block: BenchBlock
    ) -> None:
        """Insert or refresh one kernel's rows at the block's sizes.

        Sizes are inserted in block order under one lock hold, each with
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
        head, tail = kernel = _bench_key_template(gpu_name, geometry)
        changed: list[int] = []
        evicted = 0
        with self._lock:
            if self._capacity is None:
                changed = self._store(kernel, block)
            else:
                # One size at a time: an insert can evict a size the same
                # call writes later.
                for i, size in enumerate(block.sizes.tolist()):
                    changed += self._store(kernel, block.take([i]))
                    evicted += self._evict_over_capacity(
                        ("bench", (head, tail, size)))
            if len(block):
                self._dirty = True
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

    def _block(self, kernel: Kernel) -> BenchBlock | None:
        """The kernel's stored block, packing its loaded rows on first read.

        Every read of stored rows goes through here.  Re-entrant on the
        lock.
        """
        with self._lock:
            rows = self._loaded.pop(kernel, None)
            if rows is not None:
                self._bench_entries -= len(rows.sizes)
                self._store(kernel, *rows.pack())
            return self._blocks.get(kernel)

    def _store(
        self, kernel: Kernel, block: BenchBlock,
        order: np.ndarray | None = None,
    ) -> list[int]:
        """Merge ``block`` into the kernel's stored block.

        New sizes take ``order`` (default: the next free places, in block
        order); overwritten sizes keep theirs.  Returns the overwritten
        sizes whose rows changed, in block order.  Re-entrant on the lock.
        """
        import numpy as np

        from repro.cudnn.perfmodel import BenchBlock

        if not len(block):
            return []
        changed: list[int] = []
        with self._lock:
            if order is None:
                order = self._next_order + np.arange(len(block), dtype=np.int64)
            self._next_order = max(self._next_order, int(order.max()) + 1)
            old = self._block(kernel)
            if old is None:
                merged, merged_order = block, order
            else:
                old_order = self._order[kernel]
                where = old.index(block.sizes)
                present = where >= 0
                for i in np.flatnonzero(present).tolist():
                    if block.rows(i) != old.rows(int(where[i])):
                        changed.append(int(block.sizes[i]))
                order = np.where(present, old_order[np.maximum(where, 0)],
                                 order)
                keep = np.ones(len(old), dtype=bool)
                keep[where[present]] = False
                merged = BenchBlock.concat(
                    block.conv_type, [old.take(np.flatnonzero(keep)), block])
                merged_order = np.concatenate([old_order[keep], order])
                self._bench_entries -= len(old)
            self._blocks[kernel] = merged.ascending()
            self._order[kernel] = merged_order[
                np.argsort(merged.sizes, kind="stable")]
            self._bench_entries += len(merged)
        return changed

    def _drop(self, head: str, tail: str, size: int) -> None:
        """Remove one size of a stored block (re-entrant on the lock)."""
        import numpy as np

        kernel = (head, tail)
        with self._lock:
            block = self._block(kernel)
            assert block is not None
            keep = block.sizes != size
            if keep.any():
                self._blocks[kernel] = block.take(np.flatnonzero(keep))
                self._order[kernel] = self._order[kernel][keep]
            else:
                del self._blocks[kernel], self._order[kernel]
            self._bench_entries -= 1

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

    def _evict_over_capacity(self, *touched: tuple[str, object]) -> int:
        """Bump ``touched`` to most recent, then drop LRU entries past
        :attr:`capacity`; a no-op when unbounded (re-entrant on the lock)."""
        if self._capacity is None:
            return 0
        evicted = 0
        with self._lock:
            for entry in touched:
                self._recency[entry] = None
                self._recency.move_to_end(entry)
            while len(self) > self._capacity:
                (kind, old_key), _ = self._recency.popitem(last=False)
                if kind == "bench":
                    self._drop(*old_key)
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
        (:mod:`repro.persistence`) share: ``benchmarks`` maps each size's
        key to its benchmark rows, in first-insert order, and
        ``configurations`` maps config keys to serialized
        :class:`~repro.core.config.Configuration` dicts.
        """
        with self._lock:
            entries = []
            for (head, tail), block in self._blocks.items():
                conv_type = head.split("|", 1)[1].split(":", 1)[0]
                rows = [
                    {"conv_type": conv_type, "algo": int(algo), "time": time,
                     "workspace": workspace}
                    for algo, time, workspace in block.row_values(slice(None))
                ]
                bounds = block.offsets.tolist()
                entries += [
                    (order, f"{head}{size}{tail}", rows[bounds[i]:bounds[i + 1]])
                    for i, (size, order) in enumerate(zip(
                        block.sizes.tolist(), self._order[head, tail].tolist()))
                ]
            for (head, tail), loaded in self._loaded.items():
                conv_type = loaded.conv_type.value
                entries += [
                    (order, f"{head}{size}{tail}", [
                        {"conv_type": conv_type, "algo": algo, "time": time,
                         "workspace": workspace}
                        for algo, time, workspace in zip(
                            loaded.algos[lo:hi], loaded.times[lo:hi],
                            loaded.workspaces[lo:hi])])
                    for size, order, lo, hi in loaded.tables()
                ]
            entries.sort(key=lambda entry: entry[0])
            return {
                "benchmarks": {key: rows for _, key, rows in entries},
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
            payload = decode_json(
                self.path, CacheError, f"benchmark DB {self.path} is not "
                "valid JSON (truncated or corrupt?)")
        except OSError as exc:
            raise CacheError(f"cannot read benchmark DB {self.path}: {exc}") from exc
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
            self._blocks, self._order, self._loaded = {}, {}, {}
            self._next_order = self._bench_entries = 0
            self._configs = {}
            self._recency = OrderedDict()
            self._add(bench, configs)
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
        with self._lock:
            added = self._add(bench, configs, only_gpu)
            if added:
                self._dirty = True
            evicted = self._evict_over_capacity()
        if evicted and telemetry.enabled():
            telemetry.count("cache.evictions", evicted,
                            help="entries dropped by the LRU capacity bound")
        return added

    def _add(
        self, bench: dict[Kernel, _Rows],
        configs: dict[str, dict], only_gpu: str | None = None,
    ) -> int:
        """Add the parsed entries this cache lacks, in payload order;
        returns how many.  Rows of a kernel not yet read stay lists.
        Bounded caches append the entries to the LRU order, benchmark rows
        first.  Re-entrant on the lock."""
        added: list[tuple[int, str, str, int]] = []
        with self._lock:
            base = self._next_order
            for (head, tail), rows in bench.items():
                if only_gpu is not None and head.split("|", 1)[0] != only_gpu:
                    continue
                block = self._blocks.get((head, tail))
                loaded = self._loaded.get((head, tail))
                stored = (loaded.sizes if loaded is not None
                          else block.sizes.tolist() if block is not None
                          else [])
                target = loaded if loaded is not None else _Rows(rows.conv_type)
                appended = target.extend(rows, set(stored), base)
                if not appended:
                    continue
                if block is not None:
                    self._store((head, tail), *target.pack())
                else:
                    self._loaded[head, tail] = target
                    self._bench_entries += len(appended)
                    self._next_order = max(
                        self._next_order, max(order for order, _ in appended) + 1)
                added += [(order, head, tail, size) for order, size in appended]
            fresh = {key: data for key, data in configs.items()
                     if key not in self._configs
                     and (only_gpu is None or key.split("|", 1)[0] == only_gpu)}
            self._configs.update(fresh)
            if self._capacity is not None:
                added.sort()
                self._recency.update(
                    (("bench", (head, tail, size)), None)
                    for _, head, tail, size in added)
                self._recency.update((("config", key), None) for key in fresh)
        return len(added) + len(fresh)

    def __len__(self) -> int:
        return self._bench_entries + len(self._configs)
