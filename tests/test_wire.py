"""Tests for the wire protocol and plan server (``src/repro/wire``).

Covers the ISSUE's acceptance criteria directly: golden-bytes framing (the
exact bytes of envelopes are pinned, so any accidental format change fails
loudly), every :data:`WIRE_ERRORS` variant round-trips to its taxonomy
class, protocol violations drop the connection while taxonomy errors keep
it alive, deadlines propagate to the server's solver, and an out-of-process
client solving an AlexNet kernel gets a plan byte-identical to the
in-process answer.
"""

import json
import socket
import struct
import time

import pytest

from repro.core.config import Configuration, MicroConfig
from repro.cudnn.enums import FwdAlgo
from repro.errors import (
    PersistenceError,
    RemoteError,
    ServiceOverloadedError,
    SolverError,
    WireProtocolError,
)
from repro.persistence import PersistentPlanStore
from repro.service import PlanKey, PlanRequest, PlanResponse, PlanService
from repro.telemetry.clock import ManualClock
from repro.units import MIB
from repro.wire import PlanClient, PlanServer
from repro.wire.protocol import (
    MAX_FRAME_BYTES,
    WIRE_ERRORS,
    WIRE_VERSION,
    decode_envelope,
    encode_envelope,
    encode_frame,
    error_from_wire,
    error_to_wire,
    geometry_from_wire,
    geometry_to_wire,
    parse_address,
    read_frame,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
    write_frame,
)
from tests.conftest import make_geometry

GPU = "p100-sxm2"


def fake_config(micro: int = 4) -> Configuration:
    return Configuration((MicroConfig(micro, FwdAlgo.IMPLICIT_GEMM, 0.001, 0),))


def spy_solve(request):
    return fake_config(), 0.1


def make_request(**kw) -> PlanRequest:
    kw.setdefault("kernel", "conv1")
    kw.setdefault("geometry", make_geometry())
    kw.setdefault("workspace_limit", MIB)
    return PlanRequest(**kw)


class TestGoldenBytes:
    """The exact frame bytes are the compatibility contract; pin them."""

    def test_ping_request_frame(self):
        assert encode_frame("ping", {}, 1) == (
            b'\x00\x00\x00&{"body":{},"id":1,"type":"ping","v":1}'
        )

    def test_error_envelope_payload(self):
        payload = encode_envelope("error", error_to_wire(SolverError("boom")), 7)
        assert payload == (
            b'{"body":{"error":"SolverError","message":"boom"},'
            b'"id":7,"type":"error","v":1}'
        )

    def test_frame_prefix_is_big_endian_payload_length(self):
        payload = encode_envelope("stats", {}, 42)
        frame = encode_frame("stats", {}, 42)
        assert frame[:4] == struct.pack(">I", len(payload))
        assert frame[4:] == payload

    def test_canonical_serialization_sorts_keys(self):
        # Equal bodies with different dict construction order -> equal bytes.
        a = encode_envelope("plan", {"z": 1, "a": 2}, 3)
        b = encode_envelope("plan", {"a": 2, "z": 1}, 3)
        assert a == b

    def test_envelope_round_trips(self):
        payload = encode_envelope("plan", {"kernel": "c1"}, 9)
        assert decode_envelope(payload) == ("plan", 9, {"kernel": "c1"})

    def test_oversized_outgoing_payload_is_refused(self):
        with pytest.raises(WireProtocolError, match="over the"):
            encode_envelope("plan", {"blob": "x" * MAX_FRAME_BYTES}, 1)


class TestEnvelopeValidation:
    def test_undecodable_json(self):
        with pytest.raises(WireProtocolError, match="undecodable"):
            decode_envelope(b"{nope")

    def test_non_object_envelope(self):
        with pytest.raises(WireProtocolError, match="JSON object"):
            decode_envelope(b"[1,2]")

    def test_non_utf8_bytes(self):
        with pytest.raises(WireProtocolError, match="undecodable"):
            decode_envelope(b'{"v": "\xff\xfe"}')

    def test_deep_nesting_within_the_frame_cap(self):
        """100 KB of ``[`` fits a frame and once escaped as RecursionError."""
        payload = b"[" * 100_000
        assert len(payload) < MAX_FRAME_BYTES
        with pytest.raises(WireProtocolError, match="undecodable"):
            decode_envelope(payload)

    def test_wrong_version(self):
        bad = json.dumps({"body": {}, "id": 1, "type": "ping",
                          "v": WIRE_VERSION + 1}).encode()
        with pytest.raises(WireProtocolError, match="not speakable"):
            decode_envelope(bad)

    def test_non_string_type(self):
        bad = json.dumps({"body": {}, "id": 1, "type": 5, "v": 1}).encode()
        with pytest.raises(WireProtocolError, match="'type'"):
            decode_envelope(bad)

    def test_boolean_id_is_not_an_integer(self):
        bad = json.dumps({"body": {}, "id": True, "type": "ping",
                          "v": 1}).encode()
        with pytest.raises(WireProtocolError, match="'id'"):
            decode_envelope(bad)


class TestFraming:
    """Socket-level framing against a local socketpair."""

    @pytest.fixture
    def pair(self):
        a, b = socket.socketpair()
        yield a, b
        a.close()
        b.close()

    def test_write_then_read_round_trips(self, pair):
        a, b = pair
        sent = write_frame(a, b"hello wire")
        assert sent == 4 + len(b"hello wire")
        assert read_frame(b) == b"hello wire"

    def test_clean_eof_between_frames_is_none(self, pair):
        a, b = pair
        a.close()
        assert read_frame(b) is None

    def test_truncated_length_prefix_is_protocol_error(self, pair):
        a, b = pair
        a.sendall(b"\x00\x00")  # half a prefix, then gone
        a.close()
        with pytest.raises(WireProtocolError, match="mid-length prefix"):
            read_frame(b)

    def test_truncated_payload_is_protocol_error(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", 10) + b"abc")
        a.close()
        with pytest.raises(WireProtocolError, match="mid-frame payload"):
            read_frame(b)

    def test_oversized_prefix_rejected_before_allocation(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(WireProtocolError, match="corrupt or hostile"):
            read_frame(b)

    def test_oversized_outgoing_frame_is_refused(self, pair):
        a, _ = pair
        with pytest.raises(WireProtocolError, match="refusing to send"):
            write_frame(a, b"x" * (MAX_FRAME_BYTES + 1))


class TestErrorMapping:
    @pytest.mark.parametrize("name", sorted(WIRE_ERRORS))
    def test_every_variant_round_trips(self, name):
        cls = WIRE_ERRORS[name]
        body = error_to_wire(cls("the reason"))
        assert body == {"error": name, "message": "the reason"}
        back = error_from_wire(body)
        assert type(back) is cls
        assert str(back) == "the reason"

    def test_unmapped_class_becomes_remote_error(self):
        back = error_from_wire({"error": "ValueError", "message": "nope"})
        assert type(back) is RemoteError
        assert "ValueError: nope" in str(back)

    def test_malformed_error_body_is_protocol_error(self):
        assert isinstance(error_from_wire("boom"), WireProtocolError)
        assert isinstance(error_from_wire({"error": 5}), WireProtocolError)


class TestBodyCodecs:
    def test_geometry_round_trips(self):
        geometry = make_geometry(c=7, n=32)
        assert geometry_from_wire(geometry_to_wire(geometry)) == geometry

    def test_request_round_trips(self):
        request = make_request(deadline_s=2.5, client="codec-test")
        assert request_from_wire(request_to_wire(request)) == request

    def test_request_without_deadline_round_trips(self):
        request = make_request()
        assert request.deadline_s is None
        assert request_from_wire(request_to_wire(request)) == request

    def test_response_round_trips(self):
        response = PlanResponse(
            kernel="conv1",
            key=PlanKey(gpu=GPU, kernel="conv1", policy="powerOfTwo",
                        workspace_limit=MIB),
            configuration=fake_config(),
            source="fresh",
            solve_seconds=0.25,
            latency_s=0.5,
            fallback_reason="",
            client="codec-test",
        )
        assert response_from_wire(response_to_wire(response)) == response

    def test_corrupt_geometry_is_protocol_error(self):
        with pytest.raises(WireProtocolError, match="geometry"):
            geometry_from_wire({"n": 1})

    @pytest.mark.parametrize("field,value", [
        ("n", 2.5), ("n", True), ("c", 3.0), ("pad_h", 0.5), ("groups", False),
        ("k", "8"), ("n", 0), ("stride_w", -1), ("h", None),
    ])
    def test_rejected_geometry_field_is_protocol_error(self, field, value):
        """Non-integral, bool and out-of-range fields never decode into a
        geometry (``n=2.5`` would give a second cache key, ``n2.5``)."""
        data = geometry_to_wire(make_geometry(c=7, n=32))
        data[field] = value
        with pytest.raises(WireProtocolError, match="corrupt wire geometry"):
            geometry_from_wire(data)

    def test_corrupt_request_is_protocol_error(self):
        with pytest.raises(WireProtocolError, match="corrupt wire plan"):
            request_from_wire({"kernel": "c1"})
        with pytest.raises(WireProtocolError, match="deadline_s"):
            request_from_wire({"kernel": "c1", "deadline_s": "soon"})

    def test_corrupt_response_is_protocol_error(self):
        with pytest.raises(WireProtocolError, match="plan response"):
            response_from_wire({"kernel": "c1"})


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:7070") == ("127.0.0.1", 7070)

    def test_hostname(self):
        assert parse_address("localhost:0") == ("localhost", 0)

    @pytest.mark.parametrize("bad", [
        "no-port", ":7070", "host:", "host:seventy", "host:70000",
    ])
    def test_bad_addresses_raise(self, bad):
        with pytest.raises(WireProtocolError):
            parse_address(bad)


class TestServerClient:
    """Integration over a real localhost socket (ephemeral port)."""

    @pytest.fixture
    def served(self):
        with PlanService(GPU, clock=ManualClock(),
                         solve_fn=spy_solve) as service:
            with PlanServer(service) as server:
                with PlanClient(server.host, server.port,
                                timeout_s=10.0) as client:
                    yield service, server, client

    def test_ping_reports_gpu_and_version(self, served):
        _, _, client = served
        info = client.ping()
        assert info["gpu"] == GPU
        assert info["v"] == WIRE_VERSION

    def test_plan_round_trip_matches_in_process(self, served):
        service, _, client = served
        request = make_request(client="wire-test")
        remote = client.plan(request)
        local = service.request(make_request(client="in-process"))
        assert remote.configuration == local.configuration
        assert remote.key == local.key
        assert remote.source == "fresh"
        assert local.source == "cached"  # the wire solve populated the store

    def test_stats_carries_wire_counters(self, served):
        _, _, client = served
        client.ping()
        stats = client.stats()
        wire = stats["wire"]
        assert wire["connections"] == 1
        assert wire["requests"] >= 2  # the ping + this stats call
        assert wire["errors"] == 0
        assert wire["bytes_in"] > 0 and wire["bytes_out"] > 0
        assert "service" in stats and "store" in stats

    def test_save_without_a_store_path_is_a_typed_error(self, served):
        _, _, client = served
        with pytest.raises(PersistenceError, match="no snapshot path"):
            client.save()

    def test_idle_server_closes_promptly(self):
        # close() must wake the accept thread blocked in accept(), not wait
        # out the join timeout.
        with PlanService(GPU, clock=ManualClock(),
                         solve_fn=spy_solve) as service:
            server = PlanServer(service).start()
            accept_thread = server._accept_thread
            started = time.monotonic()
            server.close()
            elapsed = time.monotonic() - started
        assert elapsed < 1.0
        assert accept_thread is not None and not accept_thread.is_alive()

    def test_deadline_propagates_to_the_server_solver(self):
        seen = []

        def spy(request):
            seen.append(request.deadline_s)
            return fake_config(), 0.1

        with PlanService(GPU, clock=ManualClock(), solve_fn=spy) as service:
            with PlanServer(service) as server:
                with PlanClient(server.host, server.port,
                                timeout_s=10.0) as client:
                    client.plan(make_request(deadline_s=2.5))
        assert seen == [2.5]

    def test_solver_errors_arrive_typed_and_keep_the_connection(self):
        def broken(request):
            raise SolverError("injected wire failure")

        with PlanService(GPU, clock=ManualClock(), solve_fn=broken,
                         fallback=False) as service:
            with PlanServer(service) as server:
                with PlanClient(server.host, server.port,
                                timeout_s=10.0) as client:
                    with pytest.raises(SolverError, match="fallback disabled"):
                        client.plan(make_request())
                    # Taxonomy errors are answers, not damage: the same
                    # connection keeps serving.
                    assert client.ping()["gpu"] == GPU

    def test_overload_errors_arrive_typed(self):
        import threading
        release = threading.Event()

        def stalled(request):
            release.wait(10.0)
            return fake_config(), 0.1

        with PlanService(GPU, clock=ManualClock(), solve_fn=stalled,
                         max_pending=1, fallback=False) as service:
            with PlanServer(service) as server:
                with PlanClient(server.host, server.port,
                                timeout_s=10.0) as first:
                    ticket = service.submit(make_request())  # fills the slot
                    try:
                        with pytest.raises(ServiceOverloadedError):
                            first.plan(make_request(
                                geometry=make_geometry(c=9)))
                    finally:
                        release.set()
                        service.wait(ticket)

    def test_unknown_request_type_is_rejected_but_survivable(self, served):
        _, _, client = served
        with pytest.raises(WireProtocolError, match="unknown request type"):
            client._call("bogus", {})
        assert client.ping()["gpu"] == GPU

    def test_garbage_frame_drops_the_connection(self, served):
        _, server, _ = served
        with socket.create_connection((server.host, server.port), 10.0) as raw:
            write_frame(raw, b"this is not json")
            reply = read_frame(raw)
            msg_type, msg_id, body = decode_envelope(reply)
            assert msg_type == "error"
            assert msg_id == 0  # framing is lost; no request id to echo
            assert isinstance(error_from_wire(body), WireProtocolError)
            assert read_frame(raw) is None  # server hung up

    def test_save_writes_through_a_persistent_store(self, tmp_path):
        path = tmp_path / "snap.json"
        store = PersistentPlanStore(path, gpu=GPU, clock=ManualClock(),
                                    sync_every=100)
        with PlanService(GPU, clock=ManualClock(), solve_fn=spy_solve,
                         store=store) as service:
            with PlanServer(service) as server:
                with PlanClient(server.host, server.port,
                                timeout_s=10.0) as client:
                    client.plan(make_request())
                    assert not path.exists()  # sync_every batches writes
                    assert client.save() == str(path)
        assert path.exists()

    def test_two_clients_share_the_plan_store(self, served):
        _, server, first = served
        first.plan(make_request())
        with PlanClient(server.host, server.port, timeout_s=10.0) as second:
            response = second.plan(make_request())
        assert response.source == "cached"

    def test_connect_to_nothing_fails_with_clear_message(self):
        # Bind-then-close guarantees a port with no listener behind it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(WireProtocolError, match="cannot connect"):
            PlanClient("127.0.0.1", port, timeout_s=2.0)


class TestAlexNetOverWire:
    """The ISSUE's end-to-end criterion: an out-of-process client solving
    an AlexNet kernel gets a plan byte-identical to the in-process one."""

    def test_wire_plan_is_byte_identical_to_in_process(self):
        from repro.harness.experiments import (
            PAPER_BATCHES,
            build_alexnet,
            conv_geometries_of,
        )
        from repro.persistence.snapshot import conv_type_of

        geoms = conv_geometries_of(build_alexnet, PAPER_BATCHES["alexnet"], GPU)
        kernel = sorted(geoms)[0]
        request = PlanRequest(kernel=kernel, geometry=geoms[kernel],
                              workspace_limit=64 * MIB)

        def plan_bytes(response):
            doc = response.configuration.to_dict(
                conv_type_of(response.configuration, response.key.kernel))
            return json.dumps(doc, sort_keys=True).encode()

        with PlanService(GPU, clock=ManualClock()) as local_service:
            local = local_service.request(request)

        with PlanService(GPU, clock=ManualClock()) as service:
            with PlanServer(service) as server:
                with PlanClient(server.host, server.port,
                                timeout_s=60.0) as client:
                    remote = client.plan(request)

        assert plan_bytes(remote) == plan_bytes(local)
        assert remote.configuration == local.configuration
