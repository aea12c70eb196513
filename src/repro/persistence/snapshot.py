"""Schema-versioned, byte-deterministic plan/benchmark snapshots.

The paper caches micro-benchmark results "in memory and in an optional file
DB" so the autotuning cost is paid once per cluster; this module is the
production form of that file DB for the plan service.  One *snapshot
document* captures everything a fresh :class:`~repro.service.PlanService`
needs to answer previously-seen questions without a single solver
invocation:

* every stored plan (``PlanKey`` -> ``Configuration`` + the clock time it
  was solved at), and
* the benchmark cache sections backing them (the expensive ``cudnnFind``
  tables plus optimized-configuration entries).

Snapshot files follow the same discipline as the explain reports
(``repro.observability.report``): an explicit ``schema_version`` checked on
read, sorted-keys JSON so equal states serialize to identical bytes, and a
trailing newline.  Writes are atomic (temp file + rename in the target
directory) so concurrent readers on a shared filesystem never observe a
torn document.  Corruption and version mismatches are routed through the
:mod:`repro.errors` taxonomy (:class:`~repro.errors.SnapshotCorruptError`,
:class:`~repro.errors.SnapshotVersionError`) -- never raw ``KeyError``
tracebacks.

Determinism contract: plans serialize sorted by key string, so the bytes
are a pure function of store *contents*, independent of insertion, access,
or eviction history.  CI saves a snapshot, warm-starts a second service
from it, re-saves, and ``cmp``-checks the two files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import repro.telemetry as telemetry
from repro.core.cache import BenchmarkCache, write_atomic
from repro.core.config import Configuration
from repro.cudnn.device import gpu_spec
from repro.cudnn.enums import BwdDataAlgo, BwdFilterAlgo, ConvType, FwdAlgo
from repro.errors import (
    BadParamError,
    PersistenceError,
    SnapshotCorruptError,
    SnapshotVersionError,
    decode_json,
)
from repro.service.requests import PlanKey
from repro.service.store import PlanStore
from repro.telemetry.locks import blocking

if TYPE_CHECKING:
    from repro.service.plan_service import PlanService

#: Bumped on any incompatible change to the document structure below.
SNAPSHOT_SCHEMA_VERSION = 1

#: Document discriminator: rejects well-formed JSON that is not a snapshot.
SNAPSHOT_KIND = "repro.plan-snapshot"

#: Algorithm-enum class -> the operation type its entries belong to
#: (fallback when a plan's kernel id is not a geometry cache key).
_CONV_TYPE_BY_ALGO = {
    FwdAlgo: ConvType.FORWARD,
    BwdDataAlgo: ConvType.BACKWARD_DATA,
    BwdFilterAlgo: ConvType.BACKWARD_FILTER,
}


def canonical_gpu(gpu: str) -> str:
    """The canonical spec name for a GPU string, or the string itself.

    Benchmark-cache keys carry the canonical :class:`GpuSpec` name
    (``"p100-sxm2"``), while services keep the exact string they were
    constructed with (possibly an alias like ``"P100"``); GPU filters on the
    bench sections must compare canonically or a mere spelling difference
    would silently drop every row.  Unknown names (synthetic test GPUs)
    pass through unchanged.
    """
    try:
        return gpu_spec(gpu).name
    except BadParamError:
        return gpu


def conv_type_of(configuration: Configuration, kernel: str) -> ConvType:
    """The operation type a plan belongs to.

    Geometry cache keys (the normal ``PlanKey.kernel``) carry it as their
    prefix (``"Forward:n256c3..."``); synthetic keys (tests, spies) fall
    back to the algorithm enum class of the first micro-configuration.
    """
    prefix = kernel.split(":", 1)[0]
    try:
        return ConvType(prefix)
    except ValueError:
        pass
    for micro in configuration.micros:
        return _CONV_TYPE_BY_ALGO.get(type(micro.algo), ConvType.FORWARD)
    return ConvType.FORWARD


# ---------------------------------------------------------------------------
# Building documents
# ---------------------------------------------------------------------------


def snapshot_store(
    store: PlanStore,
    gpu: str,
    bench_cache: BenchmarkCache | None = None,
    meta: dict[str, object] | None = None,
) -> dict:
    """One snapshot document from a plan store (+ optional benchmark cache).

    ``meta`` is caller-supplied labeling (hostname, rollout id, ...); it is
    carried verbatim and never interpreted.  Note that including
    non-deterministic values there forfeits byte-determinism -- the core
    document never does.
    """
    plans: dict[str, dict] = {}
    for key, configuration, stored_at in store.entries():
        plans[str(key)] = {
            "key": {
                "gpu": key.gpu,
                "kernel": key.kernel,
                "policy": key.policy,
                "workspace_limit": key.workspace_limit,
                "scheme": key.scheme,
            },
            "configuration": configuration.to_dict(
                conv_type_of(configuration, key.kernel)
            ),
            "stored_at": stored_at,
        }
    bench = (
        bench_cache.export_payload()
        if bench_cache is not None
        else {"benchmarks": {}, "configurations": {}}
    )
    return {
        "kind": SNAPSHOT_KIND,
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "gpu": gpu,
        "plans": plans,
        "bench": bench,
        "meta": {str(k): v for k, v in sorted((meta or {}).items())},
    }


def snapshot_service(
    service: "PlanService", meta: dict[str, object] | None = None
) -> dict:
    """Snapshot a running service: its plan store and benchmark cache.

    A sharded cluster snapshots itself: services exposing
    ``snapshot_document`` (the :class:`~repro.cluster.ClusterService`
    facade) return one merged document covering every shard.
    """
    delegate = getattr(service, "snapshot_document", None)
    if delegate is not None:
        return dict(delegate(meta=meta))
    return snapshot_store(
        service.store, service.gpu_name,
        bench_cache=service.bench_cache, meta=meta,
    )


# ---------------------------------------------------------------------------
# Serialization + validation
# ---------------------------------------------------------------------------


def to_json(document: dict) -> str:
    """Canonical byte-deterministic serialization (sorted keys + newline)."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def validate_snapshot(document: object, where: str = "snapshot") -> dict:
    """Structure-check a document; returns it typed as a dict.

    Raises :class:`~repro.errors.SnapshotCorruptError` on any structural
    damage and :class:`~repro.errors.SnapshotVersionError` on a schema this
    build does not read.  Every plan entry is decoded once here, so a
    snapshot that validates is a snapshot that will warm-start.
    """
    if not isinstance(document, dict):
        raise SnapshotCorruptError(
            f"{where}: expected a JSON object, got {type(document).__name__}"
        )
    if document.get("kind") != SNAPSHOT_KIND:
        raise SnapshotCorruptError(
            f"{where}: not a plan snapshot "
            f"(kind={document.get('kind')!r}, expected {SNAPSHOT_KIND!r})"
        )
    version = document.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotVersionError(
            f"{where}: schema version {version!r} is not readable by this "
            f"build (expected {SNAPSHOT_SCHEMA_VERSION})"
        )
    if not isinstance(document.get("gpu"), str):
        raise SnapshotCorruptError(f"{where}: 'gpu' must be a string")
    plans = document.get("plans")
    if not isinstance(plans, dict):
        raise SnapshotCorruptError(f"{where}: 'plans' must be an object")
    for name in sorted(plans):
        _validate_plan_entry(plans[name], f"{where}: plans[{name!r}]")
    bench = document.get("bench")
    if not isinstance(bench, dict):
        raise SnapshotCorruptError(f"{where}: 'bench' must be an object")
    for section in ("benchmarks", "configurations"):
        if not isinstance(bench.get(section), dict):
            raise SnapshotCorruptError(
                f"{where}: bench[{section!r}] must be an object"
            )
    return document


def _validate_plan_entry(entry: object, where: str) -> None:
    if not isinstance(entry, dict):
        raise SnapshotCorruptError(f"{where}: must be an object")
    key = entry.get("key")
    if not isinstance(key, dict):
        raise SnapshotCorruptError(f"{where}: 'key' must be an object")
    for field_name in ("gpu", "kernel", "policy", "scheme"):
        if not isinstance(key.get(field_name), str):
            raise SnapshotCorruptError(
                f"{where}: key[{field_name!r}] must be a string"
            )
    if not isinstance(key.get("workspace_limit"), int):
        raise SnapshotCorruptError(
            f"{where}: key['workspace_limit'] must be an integer"
        )
    stored_at = entry.get("stored_at")
    if not isinstance(stored_at, (int, float)) or isinstance(stored_at, bool):
        raise SnapshotCorruptError(f"{where}: 'stored_at' must be a number")
    try:
        Configuration.from_dict(entry.get("configuration"))
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptError(
            f"{where}: corrupt configuration: {exc}"
        ) from exc


def from_json(
    text: "str | bytes | os.PathLike[str]", where: str = "snapshot"
) -> dict:
    """Parse + validate a snapshot document: text, UTF-8 bytes or a file."""
    document = decode_json(text, SnapshotCorruptError,
                           f"{where}: not valid JSON (truncated or corrupt?)")
    return validate_snapshot(document, where)


def plans_of(document: dict) -> Iterator[tuple[PlanKey, Configuration, float]]:
    """Decode a validated document's plans, sorted by key string."""
    plans = document["plans"]
    for name in sorted(plans):
        entry = plans[name]
        key_fields = entry["key"]
        yield (
            PlanKey(
                gpu=key_fields["gpu"],
                kernel=key_fields["kernel"],
                policy=key_fields["policy"],
                workspace_limit=key_fields["workspace_limit"],
                scheme=key_fields["scheme"],
            ),
            Configuration.from_dict(entry["configuration"]),
            float(entry["stored_at"]),
        )


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def save_snapshot(path: "str | os.PathLike[str]", document: dict) -> Path:
    """Atomically write a snapshot document; returns the resolved path.

    The document is validated *before* any bytes hit the disk -- a bug in
    the caller must not produce a file the loader will reject.  The write
    is :func:`~repro.core.cache.write_atomic` (fsynced temp file +
    ``os.replace`` + directory fsync), so readers -- and a reload after a
    crash -- see either the old complete file or the new one, never a mix.
    """
    validate_snapshot(document)
    blocking("snapshot.save")
    target = Path(path)
    write_atomic(target, to_json(document))
    telemetry.count("persistence.snapshot.saves",
                    help="snapshot documents written to disk")
    telemetry.event("persistence.snapshot.save", path=str(target),
                    plans=len(document["plans"]))
    return target


def load_snapshot(path: "str | os.PathLike[str]") -> dict:
    """Read + validate a snapshot file.

    Unreadable files raise :class:`~repro.errors.PersistenceError`; damaged
    or wrong-version contents raise the specific taxonomy subclasses (see
    :func:`from_json`).
    """
    target = Path(path)
    try:
        document = from_json(target, where=str(target))
    except OSError as exc:
        raise PersistenceError(
            f"cannot read snapshot {target}: {exc}"
        ) from exc
    telemetry.count("persistence.snapshot.loads",
                    help="snapshot documents read from disk")
    telemetry.event("persistence.snapshot.load", path=str(target),
                    plans=len(document["plans"]))
    return document
