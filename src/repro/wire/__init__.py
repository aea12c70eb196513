"""Out-of-process plan serving: wire protocol, server, and client.

The paper's benchmark DB amortizes autotuning across processes on one
machine; this package amortizes it across *machines*: a
:class:`PlanServer` wraps one :class:`~repro.service.PlanService` (ideally
backed by a :class:`~repro.persistence.PersistentPlanStore`) behind a
length-prefixed JSON protocol, and :class:`PlanClient` gives remote
training processes the same blocking ``plan(request) -> response`` call
they would have in-process -- same plans, same taxonomy errors, plus a
network in between.

See :mod:`repro.wire.protocol` for the byte-level grammar.  The HTTP admin
endpoints live in :mod:`repro.wire.admin` and are not re-exported here, so
a server started without ``--admin`` never loads ``http.server``.
"""

from repro.wire.client import PlanClient
from repro.wire.protocol import (
    MAX_FRAME_BYTES,
    REQUEST_TYPES,
    WIRE_ERRORS,
    WIRE_VERSION,
    decode_envelope,
    encode_envelope,
    encode_frame,
    error_from_wire,
    error_to_wire,
    parse_address,
    read_frame,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
    span_from_wire,
    span_to_wire,
    write_frame,
)
from repro.wire.server import PlanServer, WireStats

__all__ = [
    "MAX_FRAME_BYTES",
    "PlanClient",
    "PlanServer",
    "REQUEST_TYPES",
    "WIRE_ERRORS",
    "WIRE_VERSION",
    "WireStats",
    "decode_envelope",
    "encode_envelope",
    "encode_frame",
    "error_from_wire",
    "error_to_wire",
    "parse_address",
    "read_frame",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
    "span_from_wire",
    "span_to_wire",
    "write_frame",
]
