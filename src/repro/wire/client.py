"""Blocking client for the plan-serving wire protocol.

One connection, strictly request/response: the client assigns monotonically
increasing request ids, sends one frame, and blocks for the matching reply.
Replies are verified three ways before anything is returned -- envelope
version, echoed id, and echoed type -- so a desynchronized or misbehaving
server surfaces as :class:`~repro.errors.WireProtocolError` instead of a
wrong answer.  ``error`` envelopes are raised as their mapped taxonomy
class (see :data:`repro.wire.protocol.WIRE_ERRORS`): a remote
:class:`~repro.errors.ServiceOverloadedError` is catchable exactly like a
local one, which is the whole point of typed error transport.
"""

from __future__ import annotations

import dataclasses
import socket

import repro.telemetry as telemetry
from repro.errors import DeadlineExceededError, WireProtocolError, read_container, read_str
from repro.service.requests import PlanRequest, PlanResponse
from repro.telemetry.locks import new_lock
from repro.telemetry.trace import TraceIdSource
from repro.wire.protocol import (
    decode_envelope,
    encode_envelope,
    error_from_wire,
    read_frame,
    request_to_wire,
    response_from_wire,
    span_from_wire,
    write_frame,
)


class PlanClient:
    """Connect to a :class:`~repro.wire.PlanServer` at ``host:port``.

    ``timeout_s`` bounds each socket operation (connect/send/receive); it is
    transport protection, not a plan deadline -- put the plan deadline in
    :attr:`PlanRequest.deadline_s`, where the server's degradation ladder
    enforces it.  Thread-safe: concurrent calls serialize on the connection.
    """

    def __init__(
        self, host: str, port: int, timeout_s: float | None = None
    ) -> None:
        self.host = host
        self.port = port
        #: Owning lock: one request/response exchange at a time on the wire.
        self._lock = new_lock("wire.client")
        self._next_id = 1
        self._closed = False
        #: Deterministic trace-id mint for traced ``plan`` calls
        #: (``req-000001``, ...); only consulted while telemetry is enabled.
        self._trace_ids = TraceIdSource("req")
        try:
            self._sock = socket.create_connection((host, port), timeout_s)
        except TimeoutError as exc:
            # socket.timeout is a TimeoutError subclass of OSError; it must
            # map to the taxonomy's deadline class, not a protocol error --
            # a slow peer is a budget miss, not grammar damage (ERR001).
            raise DeadlineExceededError(
                f"timed out after {timeout_s} s connecting to plan server "
                f"at {host}:{port}"
            ) from exc
        except OSError as exc:
            raise WireProtocolError(
                f"cannot connect to plan server at {host}:{port}: {exc}"
            ) from exc
        if timeout_s is not None:
            self._sock.settimeout(timeout_s)

    # -- request primitives ------------------------------------------------

    def _call(self, msg_type: str, body: object) -> object:
        with self._lock:
            if self._closed:
                raise WireProtocolError("client is closed")
            msg_id = self._next_id
            self._next_id += 1
            try:
                write_frame(self._sock, encode_envelope(msg_type, body, msg_id))
                payload = read_frame(self._sock)
            except TimeoutError as exc:
                # A silent server is a missed budget, not protocol damage:
                # surface the taxonomy's deadline error so callers handle
                # local and remote deadline misses identically (ERR001).
                raise DeadlineExceededError(
                    f"no reply from plan server {self.host}:{self.port} "
                    f"within the socket timeout for request {msg_id}"
                ) from exc
            except OSError as exc:
                raise WireProtocolError(
                    f"transport failure talking to {self.host}:{self.port}: "
                    f"{exc}"
                ) from exc
        if payload is None:
            raise WireProtocolError(
                f"server {self.host}:{self.port} closed the connection "
                f"instead of answering request {msg_id}"
            )
        reply_type, reply_id, reply_body = decode_envelope(payload)
        if reply_id != msg_id:
            raise WireProtocolError(
                f"reply id {reply_id} does not match request id {msg_id} "
                "(connection desynchronized)"
            )
        if reply_type == "error":
            raise error_from_wire(reply_body)
        if reply_type != msg_type:
            raise WireProtocolError(
                f"reply type {reply_type!r} does not match request type "
                f"{msg_type!r}"
            )
        return reply_body

    # -- the protocol's verbs ----------------------------------------------

    def plan(self, request: PlanRequest) -> PlanResponse:
        """Solve one plan request on the server; blocks for the answer.

        With telemetry enabled, the call opens a ``wire.client.request``
        span, mints a trace id (unless the request already carries one),
        sends the trace context in the plan body, and -- when the server
        replies with its own span trees under the body's ``trace`` key --
        adopts them into the local tracer, so one Chrome-trace export
        renders the whole cross-process request timeline.  With telemetry
        off this method allocates no trace state at all.
        """
        if not telemetry.enabled():
            return response_from_wire(
                self._call("plan", request_to_wire(request))
            )
        with telemetry.span(
            "wire.client.request", kernel=request.kernel,
            server=f"{self.host}:{self.port}",
        ) as cspan:
            if not request.trace_id:
                request = dataclasses.replace(
                    request, trace_id=self._trace_ids.next()
                )
            tracer = telemetry.get_tracer()
            cspan.trace_id = request.trace_id  # type: ignore[attr-defined]
            cspan.span_id = tracer.new_span_id()  # type: ignore[attr-defined]
            request = dataclasses.replace(
                request, parent_span_id=cspan.span_id  # type: ignore[attr-defined]
            )
            body = self._call("plan", request_to_wire(request))
            response = response_from_wire(body)
            cspan.set("source", response.source)
            body = read_container(body, dict, WireProtocolError, "plan reply", "the body")
            for tree in read_container(body.get("trace", []), list, WireProtocolError,
                                       "plan reply", "'trace'"):
                tracer.adopt_remote(span_from_wire(tree), origin="server", anchor=cspan)
            return response

    def ping(self) -> dict:
        """Liveness probe; returns the server's GPU model and wire version."""
        return read_container(self._call("ping", {}), dict, WireProtocolError,
                              "ping reply", "the body")

    def stats(self) -> dict:
        """The server's metrics summary (service + store + wire counters)."""
        return read_container(self._call("stats", {}), dict, WireProtocolError,
                              "stats reply", "the body")

    def save(self) -> str:
        """Ask the server to snapshot its store; returns the saved path."""
        body = read_container(self._call("save", {}), dict, WireProtocolError,
                              "save reply", "the body")
        return read_str(body.get("path"), WireProtocolError, "save reply", "'path'")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sock = self._sock
        try:
            sock.close()
        except OSError:
            pass

    def __enter__(self) -> "PlanClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
