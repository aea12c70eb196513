"""Deterministic, snapshot-able placement of plan keys onto cluster shards.

The cluster fronts N per-device :class:`~repro.service.PlanService` shards;
this module decides *which* shard owns a ``(device, kernel-geometry)``
question.  Placement must be

* **stable** -- the same key maps to the same shard across processes and
  Python invocations (``PYTHONHASHSEED`` must not matter), so warm-started
  shards see exactly the keys they snapshotted;
* **device-confined** -- a plan benchmarked on one GPU model must never be
  served for another, so hashing only ever picks among the shards of the
  key's own device group;
* **explicit** -- the map serializes to a schema-versioned canonical-JSON
  document (same discipline as the plan snapshots), so a deployment can
  pin, diff, and audit its placement.

Shards are named ``shard-0 .. shard-N-1`` and are striped round-robin over
the device list: ``shard-i`` serves ``devices[i % len(devices)]``.  Within
one device's group, a key's home shard is ``sha256(device|kernel)`` reduced
modulo the group size -- the stable-hash form of the paper's "spread
independent benchmark units over the GPUs of one node".
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import ClusterError, read_container, read_int, read_str

#: Bumped on any incompatible change to the shard-map document below.
SHARD_MAP_SCHEMA_VERSION = 1

#: Document discriminator: rejects well-formed JSON that is not a shard map.
SHARD_MAP_KIND = "repro.shard-map"


def stable_shard_hash(device: str, kernel: str) -> int:
    """Process-independent placement hash for one ``(device, kernel)`` key.

    The first 8 bytes of ``sha256(device|kernel)`` as a big-endian integer:
    unlike builtin ``hash()`` this is immune to ``PYTHONHASHSEED``, so two
    routers (or one router across restarts) always agree on a key's home.
    """
    digest = hashlib.sha256(f"{device}|{kernel}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ShardMap:
    """The cluster's placement function, as an explicit value.

    Parameters
    ----------
    devices:
        GPU model per device slot, in slot order (e.g. ``("p100-sxm2",
        "v100-sxm2")``).  Device *names* are the grouping key: listing a
        model twice pools both slots' shards into one group serving that
        model (their plans are interchangeable anyway).
    shards:
        Total shard count; must be at least ``len(devices)`` so every
        device gets a shard.
    """

    def __init__(self, devices: "tuple[str, ...] | list[str]",
                 shards: int) -> None:
        names = tuple(devices)
        self._check(names, shards)
        self.devices = names
        self.shards = shards
        #: shard id -> device it serves (round-robin striping).
        self.shard_devices: dict[str, str] = {
            self.shard_id(index): names[index % len(names)]
            for index in range(shards)
        }
        #: device -> its shard ids, ascending by shard index.
        self.device_shards: dict[str, list[str]] = {}
        for index in range(shards):
            device = names[index % len(names)]
            self.device_shards.setdefault(device, []).append(
                self.shard_id(index)
            )

    @staticmethod
    def _check(devices: "tuple[str, ...]", shards: int) -> None:
        """Raise ``ValueError`` unless ``shards`` can cover ``devices``."""
        if not devices:
            raise ValueError("need at least one device")
        if shards < len(devices):
            raise ValueError(
                f"{shards} shard(s) cannot cover {len(devices)} device(s); "
                f"need shards >= len(devices)"
            )

    @staticmethod
    def shard_id(index: int) -> str:
        return f"shard-{index}"

    @property
    def primary_device(self) -> str:
        """The first listed device (the cluster's identity for ``ping``)."""
        return self.devices[0]

    def shard_for(self, device: str, kernel: str) -> str:
        """The home shard of one ``(device, kernel)`` question."""
        group = self.device_shards.get(device)
        if group is None:
            raise ClusterError(
                f"no shard serves device {device!r}; cluster devices are "
                f"{sorted(set(self.devices))}"
            )
        return group[stable_shard_hash(device, kernel) % len(group)]

    def device_of(self, shard: str) -> str:
        """The device a shard serves."""
        device = self.shard_devices.get(shard)
        if device is None:
            raise ClusterError(
                f"unknown shard {shard!r}; cluster has {self.shards} "
                f"shard(s): shard-0 .. shard-{self.shards - 1}"
            )
        return device

    # -- snapshot form ------------------------------------------------------

    def to_dict(self) -> dict:
        """The map as a schema-versioned, JSON-safe document."""
        return {
            "kind": SHARD_MAP_KIND,
            "schema_version": SHARD_MAP_SCHEMA_VERSION,
            "devices": list(self.devices),
            "shards": self.shards,
            "assignments": {
                shard: self.shard_devices[shard]
                for shard in sorted(self.shard_devices)
            },
        }

    def to_json(self) -> str:
        """Canonical serialization (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, document: object) -> "ShardMap":
        """Rebuild a map from :meth:`to_dict`; structural damage is typed.

        The striping assignments are re-derived and cross-checked against
        the document's, so a hand-edited map that disagrees with this
        build's placement function is rejected instead of silently
        re-routing keys.  The document must list one assignment per shard,
        and that is checked before anything is built: decoding costs time
        and memory in proportion to the document, whatever its ``shards``
        claims.
        """
        if not isinstance(document, dict):
            raise ClusterError(
                f"shard map must be an object, got {type(document).__name__}"
            )
        if document.get("kind") != SHARD_MAP_KIND:
            raise ClusterError(
                f"not a shard map (kind={document.get('kind')!r}, "
                f"expected {SHARD_MAP_KIND!r})"
            )
        error, where = ClusterError, "shard map"
        version = read_int(document.get("schema_version"), error, where, "'schema_version'")
        if version != SHARD_MAP_SCHEMA_VERSION:
            raise ClusterError(
                f"shard map schema version {version!r} is not readable by "
                f"this build (expected {SHARD_MAP_SCHEMA_VERSION})"
            )
        devices = tuple(read_container(document.get("devices"), list, error, where,
                                       "'devices' (a string list)"))
        for device in devices:
            read_str(device, error, where, "each device")
        shards = read_int(document.get("shards"), error, where, "'shards'")
        try:
            cls._check(devices, shards)
        except ValueError as exc:
            raise ClusterError(f"shard map is inconsistent: {exc}") from exc
        recorded = read_container(document.get("assignments"), dict, error, where,
                                  "'assignments'")
        if len(recorded) != shards:
            raise ClusterError(
                f"shard map 'assignments' must map each of its {shards} "
                f"shards to a device"
            )
        built = cls(devices, shards)
        if recorded != built.to_dict()["assignments"]:
            raise ClusterError(
                "shard map 'assignments' disagree with this build's "
                "striping; regenerate the map instead of hand-editing it"
            )
        return built


__all__ = [
    "SHARD_MAP_KIND",
    "SHARD_MAP_SCHEMA_VERSION",
    "ShardMap",
    "stable_shard_hash",
]
