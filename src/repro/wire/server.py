"""Threaded socket server exposing one :class:`PlanService` over the wire.

One accept thread plus one handler thread per connection -- the same
concurrency shape as the in-process service (whose worker pool already
coalesces and bounds admission), so the server adds transport and nothing
else.  Request dispatch:

``plan``
    Deserialize the :class:`~repro.service.PlanRequest` (its ``deadline_s``
    rides along, so the server's degradation ladder enforces the *client's*
    budget) and answer with the serialized :class:`PlanResponse`.
``ping``
    Liveness + identity: returns the serving GPU model and wire version.
``stats``
    The service's :meth:`metrics_summary` plus per-server wire counters.
``save``
    Snapshot the backing store to disk (the server's configured
    ``snapshot_path``, or the :class:`PersistentPlanStore`'s own file).

Taxonomy errors raised by dispatch become typed ``error`` envelopes that
the client maps back to the same classes; the connection survives.  Frames
that violate the protocol itself get a best-effort ``error`` envelope
(id 0) and the connection is dropped -- once framing is lost there is no
way to know where the next message starts.
"""

from __future__ import annotations

import dataclasses
import socket
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import repro.telemetry as telemetry
from repro.errors import PersistenceError, ReproError, WireProtocolError
from repro.persistence.snapshot import save_snapshot, snapshot_service
from repro.persistence.store import PersistentPlanStore
from repro.service.plan_service import PlanService
from repro.telemetry.locks import new_lock
from repro.wire.protocol import (
    WIRE_VERSION,
    decode_envelope,
    encode_envelope,
    error_to_wire,
    read_frame,
    request_from_wire,
    response_to_wire,
    span_to_wire,
    write_frame,
)

if TYPE_CHECKING:
    from repro.cluster.service import ClusterService


@dataclass
class WireStats:
    """Monotonic per-server wire counters (mutated under the server lock)."""

    connections: int = 0
    requests: int = 0
    errors: int = 0
    protocol_errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    frames_in: int = 0
    frames_out: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "connections": self.connections,
            "requests": self.requests,
            "errors": self.errors,
            "protocol_errors": self.protocol_errors,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
        }


class PlanServer:
    """Serve ``service`` on ``host:port`` (port 0 picks an ephemeral port).

    Use as a context manager or call :meth:`start` / :meth:`close`.  The
    bound port is available as :attr:`port` after :meth:`start` -- tests
    and the runner print it so clients know where to connect.
    """

    def __init__(
        self,
        service: "PlanService | ClusterService",
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_path: "str | None" = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.snapshot_path = snapshot_path
        #: Owning lock for the stats and the connection registry below.
        self._lock = new_lock("wire")
        self.stats = WireStats()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._connections: dict[int, socket.socket] = {}
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "PlanServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        thread = threading.Thread(
            target=self._accept_loop, name="plan-server-accept", daemon=True
        )
        with self._lock:
            self.port = listener.getsockname()[1]
            self._listener = listener
            self._accept_thread = thread
        thread.start()
        telemetry.event("wire.server.start", host=self.host, port=self.port)
        return self

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        """Stop accepting, drop live connections, join handler threads."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            listener = self._listener
            connections = list(self._connections.values())
            handlers = list(self._handlers)
            accept_thread = self._accept_thread
        if listener is not None:
            # close() alone leaves the accept thread blocked in accept();
            # shutdown() is what wakes it.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # some platforms refuse shutdown on a listener
            listener.close()
        for conn in connections:
            _quiet_close(conn)
        if accept_thread is not None:
            accept_thread.join(timeout=5.0)
        for thread in handlers:
            thread.join(timeout=5.0)
        telemetry.event("wire.server.stop", host=self.host, port=self.port)

    def __enter__(self) -> "PlanServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- accept / per-connection loops ------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None, "start() assigns the listener first"
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                # The listener was closed (shutdown) or is otherwise dead;
                # either way accepting is over.
                return
            with self._lock:
                closing = self._closing
                if not closing:
                    self.stats.connections += 1
                    self._connections[conn.fileno()] = conn
                    thread = threading.Thread(
                        target=self._serve_connection,
                        args=(conn, conn.fileno()),
                        name=f"plan-server-conn-{self.stats.connections}",
                        daemon=True,
                    )
                    self._handlers.append(thread)
            if closing:
                # Close outside the lock: socket teardown can block, and
                # close() may already hold the lock on another thread.
                _quiet_close(conn)
                return
            if telemetry.enabled():
                telemetry.count("wire.server.connections",
                                help="connections accepted by plan servers")
            thread.start()

    def _serve_connection(self, conn: socket.socket, conn_id: int) -> None:
        try:
            while True:
                try:
                    payload = read_frame(conn)
                except WireProtocolError as exc:
                    self._reply_protocol_error(conn, exc)
                    return
                except OSError:
                    return  # connection reset under us; nothing to answer
                if payload is None:
                    return  # clean goodbye
                with self._lock:
                    self.stats.bytes_in += len(payload) + 4
                    self.stats.frames_in += 1
                try:
                    msg_type, msg_id, body = decode_envelope(payload)
                except WireProtocolError as exc:
                    self._reply_protocol_error(conn, exc)
                    return
                if not self._serve_request(conn, msg_type, msg_id, body):
                    return
        finally:
            _quiet_close(conn)
            with self._lock:
                self._connections.pop(conn_id, None)

    def _serve_request(
        self, conn: socket.socket, msg_type: str, msg_id: int, body: object
    ) -> bool:
        """Answer one request; False when the connection must drop."""
        with self._lock:
            self.stats.requests += 1
        if telemetry.enabled():
            telemetry.count("wire.server.requests",
                            help="requests dispatched by plan servers")
        try:
            result = self._dispatch(msg_type, body)
        except ReproError as exc:
            # Typed failure: serialize it back; the conversation continues.
            self._send(conn, encode_envelope("error", error_to_wire(exc), msg_id))
            with self._lock:
                self.stats.errors += 1
            if telemetry.enabled():
                telemetry.count("wire.server.errors",
                                help="requests answered with error envelopes")
            return True
        self._send(conn, encode_envelope(msg_type, result, msg_id))
        return True

    def _dispatch(self, msg_type: str, body: object) -> dict:
        if msg_type == "ping":
            return {"gpu": self.service.gpu_name, "v": WIRE_VERSION}
        if msg_type == "plan":
            return self._dispatch_plan(body)
        if msg_type == "stats":
            with self._lock:
                wire = self.stats.as_dict()
            summary = self.service.metrics_summary()
            summary["wire"] = wire
            return summary
        if msg_type == "save":
            return {"path": str(self._save_snapshot())}
        raise WireProtocolError(f"unknown request type {msg_type!r}")

    def _dispatch_plan(self, body: object) -> dict:
        """Serve one plan request, continuing its distributed trace.

        A traced request's ``wire.server.request`` span adopts the client's
        trace context and parents everything the service does for it (the
        ``service.request`` span opens on this same thread, the solve span
        links back via span ids).  After serving, every finished span tree
        belonging to this trace id is serialized into the response body's
        ``trace`` key so the client can stitch the two processes into one
        timeline.  Response-serialization time is attributed to the
        request's ``serialize`` stage on the service's request log.
        """
        request = request_from_wire(body)
        traced = telemetry.enabled() and bool(request.trace_id)
        with telemetry.span(
            "wire.server.request", kernel=request.kernel,
            client=request.client,
        ) as sspan:
            if traced:
                sspan.trace_id = request.trace_id  # type: ignore[attr-defined]
                sspan.span_id = (  # type: ignore[attr-defined]
                    telemetry.get_tracer().new_span_id()
                )
                if request.parent_span_id:
                    sspan.parent_span_id = (  # type: ignore[attr-defined]
                        request.parent_span_id
                    )
                request = dataclasses.replace(
                    request, parent_span_id=sspan.span_id  # type: ignore[attr-defined]
                )
            response = self.service.request(request)
            sspan.set("source", response.source)
        clock = self.service.clock
        serialize_start = clock.now()
        out = response_to_wire(response)
        if traced:
            out["trace"] = [
                span_to_wire(root)
                for root in telemetry.get_tracer().roots()
                if root.trace_id == request.trace_id and root.end is not None
            ]
        serialize_s = max(0.0, clock.now() - serialize_start)
        if request.trace_id and self.service.request_log is not None:
            self.service.request_log.amend_stage(
                request.trace_id, "serialize", serialize_s
            )
        if telemetry.enabled():
            telemetry.observe(
                "service.stage_seconds", serialize_s,
                help="request latency by pipeline stage",
                labels={"stage": "serialize"},
            )
        return out

    def _save_snapshot(self) -> str:
        store = self.service.store
        if isinstance(store, PersistentPlanStore):
            return str(store.save())
        if self.snapshot_path is not None:
            return str(save_snapshot(self.snapshot_path,
                                     snapshot_service(self.service)))
        raise PersistenceError(
            "server has no snapshot path: configure snapshot_path or back "
            "the service with a PersistentPlanStore"
        )

    # -- replies -----------------------------------------------------------

    def _send(self, conn: socket.socket, payload: bytes) -> None:
        sent = write_frame(conn, payload)
        with self._lock:
            self.stats.bytes_out += sent
            self.stats.frames_out += 1

    def _reply_protocol_error(
        self, conn: socket.socket, exc: WireProtocolError
    ) -> None:
        """Best-effort typed goodbye when framing is lost (request id 0)."""
        with self._lock:
            self.stats.protocol_errors += 1
        if telemetry.enabled():
            telemetry.count("wire.server.protocol_errors",
                            help="connections dropped for protocol violations")
        try:
            self._send(conn, encode_envelope("error", error_to_wire(exc), 0))
        except OSError:
            pass  # the peer is gone; the error was theirs to begin with


def _quiet_close(conn: socket.socket) -> None:
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        conn.close()
    except OSError:
        pass
