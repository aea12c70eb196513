"""Length-prefixed JSON wire protocol for out-of-process plan serving.

Framing: every message is a 4-byte big-endian payload length followed by
that many bytes of UTF-8 JSON.  The JSON is a versioned *envelope*::

    {"body": <message body>, "id": <request id>, "type": <str>, "v": 1}

serialized canonically (sorted keys, compact separators), so identical
messages are identical bytes -- the golden-bytes tests in
``tests/test_wire.py`` pin the frames down to the byte.

Request types (client -> server): ``plan`` (a serialized
:class:`~repro.service.PlanRequest`), ``ping``, ``stats``, ``save``
(snapshot the server's store to its configured path).  The server replies
with an envelope of the *same* ``type`` and ``id`` on success, or one of
type ``error`` whose body is ``{"error": <class name>, "message": <str>}``.
Error bodies map back onto the :mod:`repro.errors` taxonomy on the client
(:data:`WIRE_ERRORS`); unmapped classes surface as
:class:`~repro.errors.RemoteError`, never silently.

Deadlines travel *inside* the plan body (``deadline_s``), so a client's
latency budget is enforced by the server's own degradation ladder --
the wire adds transport, not new timeout semantics.

Anything that violates this grammar -- truncated frame, oversized length
prefix, undecodable JSON, wrong envelope version, non-object body --
raises :class:`~repro.errors.WireProtocolError`.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

from repro.core.config import Configuration
from repro.core.policies import BatchSizePolicy
from repro.cudnn.descriptors import ConvGeometry
from repro.cudnn.enums import ConvType, ConvolutionMode
from repro.errors import (
    BadParamError,
    CacheError,
    ClusterError,
    DeadlineExceededError,
    InfeasibleError,
    MergeConflictError,
    OptimizationError,
    PersistenceError,
    RemoteError,
    ServiceError,
    ServiceOverloadedError,
    SnapshotCorruptError,
    SnapshotVersionError,
    SolverError,
    UcudnnError,
    WireProtocolError,
    decode_json,
    read_container,
    read_int,
    read_number,
    read_str,
)
from repro.persistence.snapshot import conv_type_of
from repro.service.requests import PlanKey, PlanRequest, PlanResponse
from repro.telemetry.locks import blocking
from repro.telemetry.spans import Span
from repro.units import MIB

#: Envelope version; bumped on any incompatible change to the grammar above.
WIRE_VERSION = 1

#: Upper bound on one frame's payload; a length prefix above this is
#: rejected before any allocation (a garbage prefix must not OOM the peer).
MAX_FRAME_BYTES = 16 * MIB

#: Request types the server dispatches.
REQUEST_TYPES = ("plan", "ping", "stats", "save")

#: Error-body class names -> local taxonomy classes (all constructible from
#: a bare message).  Anything else maps to :class:`RemoteError`.
WIRE_ERRORS: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        UcudnnError,
        OptimizationError,
        InfeasibleError,
        SolverError,
        CacheError,
        PersistenceError,
        SnapshotCorruptError,
        SnapshotVersionError,
        MergeConflictError,
        ServiceError,
        ServiceOverloadedError,
        DeadlineExceededError,
        ClusterError,
        WireProtocolError,
    )
}


# ---------------------------------------------------------------------------
# Envelopes and frames (pure bytes <-> values; golden-testable)
# ---------------------------------------------------------------------------


#: The canonical envelope encoder, built once: ``json.dumps`` with options
#: builds a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_envelope(msg_type: str, body: object, msg_id: int) -> bytes:
    """Canonical JSON payload bytes for one envelope (no length prefix)."""
    payload = _ENCODER.encode(
        {"body": body, "id": msg_id, "type": msg_type, "v": WIRE_VERSION}
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"outgoing {msg_type!r} payload is {len(payload)} bytes, "
            f"over the {MAX_FRAME_BYTES}-byte frame limit"
        )
    return payload


def encode_frame(msg_type: str, body: object, msg_id: int) -> bytes:
    """One complete frame: length prefix + envelope payload."""
    payload = encode_envelope(msg_type, body, msg_id)
    return struct.pack(">I", len(payload)) + payload


def decode_envelope(payload: bytes) -> tuple[str, int, object]:
    """``(type, id, body)`` of one envelope payload; validates the grammar."""
    error = WireProtocolError
    document = read_container(decode_json(payload, error, "undecodable envelope"),
                              dict, error, "wire", "the envelope")
    version = read_int(document.get("v"), error, "envelope", "'v'")
    if version != WIRE_VERSION:
        raise error(f"envelope version {version!r} is not speakable by this build "
                    f"(expected {WIRE_VERSION})")
    return (read_str(document.get("type"), error, "envelope", "'type'"),
            read_int(document.get("id"), error, "envelope", "'id'"),
            document.get("body"))


# ---------------------------------------------------------------------------
# Socket framing
# ---------------------------------------------------------------------------


def _recv_exact(sock: socket.socket, count: int, what: str) -> bytes | None:
    """Exactly ``count`` bytes, ``None`` on clean EOF before the first byte.

    EOF *after* the first byte is a truncated ``what`` and raises
    :class:`WireProtocolError` -- a peer vanishing mid-message is protocol
    damage, not a polite goodbye.
    """
    chunks: list[bytes] = []
    received = 0
    while received < count:
        chunk = sock.recv(count - received)
        if not chunk:
            if received == 0:
                return None
            raise WireProtocolError(
                f"connection closed mid-{what}: got {received} of "
                f"{count} bytes"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> bytes | None:
    """The next frame's payload bytes; ``None`` on clean EOF between frames."""
    blocking("wire.read_frame")
    header = _recv_exact(sock, 4, "length prefix")
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"incoming frame claims {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupt or hostile prefix?)"
        )
    payload = _recv_exact(sock, length, "frame payload")
    if payload is None and length > 0:
        raise WireProtocolError(
            f"connection closed before any of the {length} payload bytes"
        )
    return payload if payload is not None else b""


def write_frame(sock: socket.socket, payload: bytes) -> int:
    """Send one frame; returns bytes written (prefix included)."""
    blocking("wire.write_frame")
    if len(payload) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    frame = struct.pack(">I", len(payload)) + payload
    sock.sendall(frame)
    return len(frame)


# ---------------------------------------------------------------------------
# Message bodies
# ---------------------------------------------------------------------------


#: The error-message prefixes of the plan request and response decoders.
_REQUEST = "corrupt wire plan request"
_RESPONSE = "corrupt wire plan response"


def geometry_to_wire(geometry: ConvGeometry) -> dict:
    return {
        "conv_type": geometry.conv_type.value,
        "n": geometry.n, "c": geometry.c, "h": geometry.h, "w": geometry.w,
        "k": geometry.k, "r": geometry.r, "s": geometry.s,
        "pad_h": geometry.pad_h, "pad_w": geometry.pad_w,
        "stride_h": geometry.stride_h, "stride_w": geometry.stride_w,
        "dilation_h": geometry.dilation_h, "dilation_w": geometry.dilation_w,
        "mode": geometry.mode.value,
        "groups": geometry.groups,
    }


def geometry_from_wire(data: object) -> ConvGeometry:
    data = read_container(data, dict, WireProtocolError, _REQUEST, "'geometry'")
    try:
        return ConvGeometry(
            conv_type=ConvType(data["conv_type"]),
            n=data["n"], c=data["c"], h=data["h"], w=data["w"],
            k=data["k"], r=data["r"], s=data["s"],
            pad_h=data["pad_h"], pad_w=data["pad_w"],
            stride_h=data["stride_h"], stride_w=data["stride_w"],
            dilation_h=data["dilation_h"], dilation_w=data["dilation_w"],
            mode=ConvolutionMode(data["mode"]),
            groups=data["groups"],
        )
    except (BadParamError, KeyError, TypeError, ValueError) as exc:
        # BadParamError: a field that is not a positive (or, for padding,
        # non-negative) integer, or channels that do not divide by groups.
        raise WireProtocolError(f"corrupt wire geometry: {exc}") from exc


def request_to_wire(request: PlanRequest) -> dict:
    out = {
        "kernel": request.kernel,
        "geometry": geometry_to_wire(request.geometry),
        "policy": request.policy.value,
        "workspace_limit": request.workspace_limit,
        "deadline_s": request.deadline_s,
        "client": request.client,
    }
    # The trace-context key is *omitted* for untraced requests, so frames
    # from tracing-off builds are byte-identical to pre-tracing builds and
    # old peers (which ignore unknown keys) interoperate either way.
    if request.trace_id:
        out["trace"] = {
            "parent_span_id": request.parent_span_id,
            "trace_id": request.trace_id,
        }
    # Same omit-when-empty discipline for the cluster routing hint: frames
    # from unrouted clients stay byte-identical to pre-cluster builds.
    if request.shard:
        out["shard"] = request.shard
    return out


def request_from_wire(data: object) -> PlanRequest:
    error = WireProtocolError
    data = read_container(data, dict, error, _REQUEST, "the body")
    deadline = data.get("deadline_s")
    # A deadline is a wait timeout: past ``threading.TIMEOUT_MAX`` it would
    # not bound the wait.
    if deadline is not None and read_number(
            deadline, error, _REQUEST, "'deadline_s'", 0) > threading.TIMEOUT_MAX:
        raise error(f"{_REQUEST}: 'deadline_s' must be at most "
                    "threading.TIMEOUT_MAX seconds")
    trace = data.get("trace")
    trace_id = parent_span_id = ""
    if trace is not None:
        trace = read_container(trace, dict, error, _REQUEST, "'trace'")
        trace_id = read_str(trace.get("trace_id"), error, _REQUEST, "'trace.trace_id'")
        if not trace_id:  # "" means untraced, and then no trace is sent
            raise error(f"{_REQUEST}: 'trace.trace_id' is empty")
        parent_span_id = read_str(trace.get("parent_span_id", ""), error, _REQUEST,
                                  "'trace.parent_span_id'")
    try:
        policy = BatchSizePolicy(read_str(data.get("policy"), error, _REQUEST, "'policy'"))
    except ValueError as exc:
        raise error(f"{_REQUEST}: {exc}") from exc
    return PlanRequest(
        kernel=read_str(data.get("kernel"), error, _REQUEST, "'kernel'"),
        geometry=geometry_from_wire(data.get("geometry")),
        policy=policy,
        workspace_limit=read_int(data.get("workspace_limit"), error, _REQUEST,
                                 "'workspace_limit'", 0),
        deadline_s=None if deadline is None else float(deadline),
        client=read_str(data.get("client", ""), error, _REQUEST, "'client'"),
        trace_id=trace_id,
        parent_span_id=parent_span_id,
        shard=read_str(data.get("shard", ""), error, _REQUEST, "'shard'"),
    )


def response_to_wire(response: PlanResponse) -> dict:
    key = response.key
    out = {
        "kernel": response.kernel,
        "key": {
            "gpu": key.gpu,
            "kernel": key.kernel,
            "policy": key.policy,
            "workspace_limit": key.workspace_limit,
            "scheme": key.scheme,
        },
        "configuration": response.configuration.to_dict(
            conv_type_of(response.configuration, key.kernel)
        ),
        "source": response.source,
        "solve_seconds": response.solve_seconds,
        "latency_s": response.latency_s,
        "fallback_reason": response.fallback_reason,
        "client": response.client,
    }
    # Omitted for single-shard services (byte-identity with older peers);
    # cluster responses carry the shard that actually served the plan.
    if response.shard:
        out["shard"] = response.shard
    return out


def response_from_wire(data: object) -> PlanResponse:
    error = WireProtocolError
    data = read_container(data, dict, error, _RESPONSE, "the body")
    key = read_container(data.get("key"), dict, error, _RESPONSE, "'key'")
    return PlanResponse(
        kernel=read_str(data.get("kernel"), error, _RESPONSE, "'kernel'"),
        key=PlanKey(
            gpu=read_str(key.get("gpu"), error, _RESPONSE, "'key.gpu'"),
            kernel=read_str(key.get("kernel"), error, _RESPONSE, "'key.kernel'"),
            policy=read_str(key.get("policy"), error, _RESPONSE, "'key.policy'"),
            workspace_limit=read_int(key.get("workspace_limit"), error, _RESPONSE,
                                     "'key.workspace_limit'", 0),
            scheme=read_str(key.get("scheme"), error, _RESPONSE, "'key.scheme'"),
        ),
        configuration=Configuration.from_dict(data.get("configuration"), error,
                                              _RESPONSE),
        source=read_str(data.get("source"), error, _RESPONSE, "'source'"),
        solve_seconds=read_number(data.get("solve_seconds"), error, _RESPONSE,
                                  "'solve_seconds'", 0),
        latency_s=read_number(data.get("latency_s"), error, _RESPONSE, "'latency_s'", 0),
        fallback_reason=read_str(data.get("fallback_reason"), error, _RESPONSE,
                                 "'fallback_reason'"),
        client=read_str(data.get("client"), error, _RESPONSE, "'client'"),
        shard=read_str(data.get("shard", ""), error, _RESPONSE, "'shard'"),
    )


def span_to_wire(span: Span) -> dict:
    """One finished span tree as canonical JSON-safe nested dicts.

    Shipped inside a plan response's (unpinned) ``trace`` key so the client
    can adopt the server's half of the request timeline; attributes are
    stringified when not JSON-scalar, keys sorted for byte determinism.
    """
    attributes = {}
    for key in sorted(span.attributes):
        value = span.attributes[key]
        if isinstance(value, (bool, int, float, str)) or value is None:
            attributes[key] = value
        else:
            attributes[key] = str(value)
    out: dict = {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "attributes": attributes,
        "children": [span_to_wire(child) for child in span.children],
    }
    if span.trace_id is not None:
        out["trace_id"] = span.trace_id
    if span.span_id is not None:
        out["span_id"] = span.span_id
    if span.parent_span_id is not None:
        out["parent_span_id"] = span.parent_span_id
    if span.links:
        out["links"] = [dict(link) for link in span.links]
    return out


def span_from_wire(data: object) -> Span:
    """Rebuild one span tree; grammar violations raise ``WireProtocolError``."""
    error, where = WireProtocolError, "wire span"
    data = read_container(data, dict, error, where, "the span")
    attributes = read_container(data.get("attributes", {}), dict, error, where,
                                "'attributes'")
    if any(isinstance(value, (dict, list)) for value in attributes.values()):
        raise error(f"{where}: 'attributes' values must be JSON scalars")
    links = read_container(data.get("links", []), list, error, where, "'links'")
    for link in links:
        for value in read_container(link, dict, error, where, "a link").values():
            read_str(value, error, where, "a link value")
    end = data.get("end")
    trace_id, span_id, parent_span_id = (
        None if data.get(name) is None else read_str(data[name], error, where, repr(name))
        for name in ("trace_id", "span_id", "parent_span_id"))
    return Span(
        name=read_str(data.get("name"), error, where, "'name'"),
        attributes=dict(attributes),
        start=float(read_number(data.get("start"), error, where, "'start'")),
        end=None if end is None else float(read_number(end, error, where, "'end'")),
        children=[span_from_wire(child) for child in read_container(
            data.get("children", []), list, error, where, "'children'")],
        trace_id=trace_id, span_id=span_id, parent_span_id=parent_span_id,
        links=[dict(link) for link in links],
    )


def parse_address(address: str) -> tuple[str, int]:
    """``(host, port)`` from a ``HOST:PORT`` string (runner flag syntax)."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise WireProtocolError(
            f"address {address!r} is not HOST:PORT"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise WireProtocolError(
            f"address {address!r} has a non-numeric port"
        ) from exc
    if not 0 <= port <= 65535:
        raise WireProtocolError(f"port {port} out of range in {address!r}")
    return host, port


def error_to_wire(exc: BaseException) -> dict:
    """The error body a server sends for one failed request."""
    return {"error": type(exc).__name__, "message": str(exc)}


def error_from_wire(data: object) -> Exception:
    """The local exception to raise for one received error body."""
    error, where = WireProtocolError, "error body"
    try:
        data = read_container(data, dict, error, where, "the body")
        name = read_str(data.get("error"), error, where, "'error'")
        message = read_str(data.get("message"), error, where, "'message'")
    except WireProtocolError as exc:
        return exc
    mapped = WIRE_ERRORS.get(name)
    if mapped is not None:
        return mapped(message)
    return RemoteError(f"{name}: {message}")
