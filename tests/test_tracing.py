"""Tests for distributed request tracing and the introspection surface.

Covers the observability ISSUE's acceptance criteria directly: one
serve+client session yields ONE connected Chrome trace (client span parents
server span parents solve span, stitched by deterministic ids), the
``/requestz`` ring is bounded, thread-safe, and byte-deterministic, tracing
costs zero span/record allocations when off (ZOV001), a deliberately
silent server surfaces as :class:`~repro.errors.DeadlineExceededError`
(ERR001), and the soak report's stage breakdown is byte-identical across
two seeded runs (DET001).
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

import repro.telemetry as telemetry
from repro.core.config import Configuration, MicroConfig
from repro.cudnn.enums import FwdAlgo
from repro.errors import DeadlineExceededError, WireProtocolError
from repro.service import PlanRequest, PlanService, RequestLog
from repro.service.introspection import STAGES, RequestRecord
from repro.service.soak import SoakConfig, run_soak
from repro.telemetry import ManualClock, TraceIdSource, deadline_class
from repro.telemetry.exporters import chrome_trace, prometheus_text
from repro.telemetry.spans import Span
from repro.units import MIB
from repro.wire import PlanClient, PlanServer
from repro.wire.admin import AdminServer
from repro.wire.protocol import (
    decode_envelope,
    encode_envelope,
    request_to_wire,
    span_from_wire,
    span_to_wire,
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


@pytest.fixture
def traced():
    """One enabled telemetry session on a manual clock; always disabled."""
    clock = ManualClock()
    session = telemetry.enable(clock=clock)
    try:
        yield clock, session
    finally:
        telemetry.disable()


class TestDeadlineClass:
    def test_no_deadline_is_none(self):
        assert deadline_class(None) == "none"

    def test_sub_second_budgets_are_strict(self):
        assert deadline_class(0.05) == "strict"
        assert deadline_class(1.0) == "strict"

    def test_longer_budgets_are_relaxed(self):
        assert deadline_class(1.5) == "relaxed"


class TestTraceIdSource:
    def test_ids_are_deterministic_and_zero_padded(self):
        source = TraceIdSource("req")
        assert [source.next() for _ in range(3)] == [
            "req-000001", "req-000002", "req-000003"
        ]

    def test_equal_prefixes_mint_equal_sequences(self):
        a, b = TraceIdSource("soak"), TraceIdSource("soak")
        assert [a.next() for _ in range(5)] == [b.next() for _ in range(5)]

    def test_concurrent_minting_never_duplicates(self):
        source = TraceIdSource("t")
        minted: list[str] = []
        lock = threading.Lock()

        def mint():
            ids = [source.next() for _ in range(200)]
            with lock:
                minted.extend(ids)

        threads = [threading.Thread(target=mint) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(minted) == len(set(minted)) == 1600


class TestSpanWireCodec:
    def tree(self) -> Span:
        root = Span("wire.server.request", attributes={"kernel": "conv1"},
                    start=1.0, end=4.0, trace_id="req-000001",
                    span_id="s2", parent_span_id="s1")
        child = Span("service.request", start=1.5, end=3.5,
                     trace_id="req-000001", span_id="s3",
                     parent_span_id="s2",
                     links=[{"trace_id": "req-000002"}])
        root.children.append(child)
        return root

    def test_round_trips_identity_links_and_children(self):
        back = span_from_wire(span_to_wire(self.tree()))
        assert back.name == "wire.server.request"
        assert (back.trace_id, back.span_id, back.parent_span_id) == (
            "req-000001", "s2", "s1")
        assert back.attributes == {"kernel": "conv1"}
        (child,) = back.children
        assert child.links == [{"trace_id": "req-000002"}]
        assert span_to_wire(back) == span_to_wire(self.tree())

    def test_unknown_keys_are_tolerated(self):
        wired = span_to_wire(self.tree())
        wired["future_field"] = {"anything": True}
        wired["children"][0]["other"] = 7
        back = span_from_wire(wired)
        assert back.children[0].name == "service.request"

    @pytest.mark.parametrize("mutate", [
        lambda w: w.pop("name"),
        lambda w: w.__setitem__("name", 3),
        lambda w: w.__setitem__("start", "soon"),
        lambda w: w.__setitem__("children", "nope"),
        lambda w: w.__setitem__("links", [{"trace_id": 5}]),
        lambda w: w.__setitem__("trace_id", 12),
    ])
    def test_malformed_trees_are_protocol_errors(self, mutate):
        wired = span_to_wire(self.tree())
        mutate(wired)
        with pytest.raises(WireProtocolError):
            span_from_wire(wired)

    @pytest.mark.parametrize("field, value", [
        ("start", float("inf")), ("start", float("-inf")),
        ("start", float("nan")), ("end", float("inf")),
        ("end", float("-inf")), ("end", float("nan")),
        ("attributes", {"kernel": [1, 2]}),
        ("attributes", {"kernel": {"nested": 1}}),
    ])
    def test_non_finite_times_and_container_attributes_are_refused(
            self, field, value):
        """``span_to_wire`` sends finite times and scalar attributes only."""
        wired = span_to_wire(self.tree())
        wired["children"][0][field] = value
        with pytest.raises(WireProtocolError, match=field):
            span_from_wire(wired)

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "NaN"])
    def test_non_finite_times_in_the_payload_text_are_refused(self, text):
        wired = span_to_wire(self.tree())
        wired["end"] = 123456.5
        payload = encode_envelope("plan", {"trace": [wired]}, 1)
        _, _, body = decode_envelope(payload.replace(b"123456.5", text.encode()))
        with pytest.raises(WireProtocolError, match="end"):
            span_from_wire(body["trace"][0])

    def test_non_object_tree_is_a_protocol_error(self):
        with pytest.raises(WireProtocolError):
            span_from_wire(["not", "a", "span"])

    def test_untraced_request_bytes_are_unchanged(self):
        """No ``trace`` key -- pre-tracing peers see identical frames."""
        wired = request_to_wire(make_request())
        assert "trace" not in wired
        assert b"trace" not in encode_envelope("plan", wired, 1)

    def test_traced_request_round_trips_context(self):
        from repro.wire.protocol import request_from_wire
        request = make_request(trace_id="req-000009", parent_span_id="s1")
        back = request_from_wire(request_to_wire(request))
        assert back.trace_id == "req-000009"
        assert back.parent_span_id == "s1"

    def test_corrupt_trace_block_is_a_protocol_error(self):
        from repro.wire.protocol import request_from_wire
        wired = request_to_wire(make_request(trace_id="req-000001"))
        wired["trace"]["trace_id"] = 99
        with pytest.raises(WireProtocolError):
            request_from_wire(wired)


class TestGoldenTraceChain:
    """The tentpole: one request, one connected cross-process timeline."""

    def serve_one(self, clock):
        service = PlanService(GPU, clock=clock, solve_fn=spy_solve,
                              request_log=RequestLog())
        with service, PlanServer(service) as server:
            with PlanClient(server.host, server.port, timeout_s=10.0) as c:
                response = c.plan(make_request(client="golden"))
        return service, response

    def test_client_server_and_solve_spans_form_one_chain(self, traced):
        clock, session = traced
        service, response = self.serve_one(clock)
        assert response.source == "fresh"

        (cspan,) = [r for r in session.tracer.roots()
                    if r.name == "wire.client.request"]
        assert (cspan.trace_id, cspan.span_id) == ("req-000001", "s1")
        assert cspan.attributes["source"] == "fresh"

        adopted = [ch for ch in cspan.children if ch.origin == "server"]
        by_name = {s.name: s for s in adopted}
        sspan = by_name["wire.server.request"]
        solve = by_name["service.solve"]
        # Server span parents under the client span ...
        assert sspan.parent_span_id == cspan.span_id
        (tspan,) = [s for s in sspan.walk() if s.name == "service.request"]
        # ... service span under the server span ...
        assert tspan.parent_span_id == sspan.span_id
        # ... and the worker-thread solve under the service span.
        assert solve.parent_span_id == tspan.span_id
        for span in (sspan, tspan, solve):
            assert span.trace_id == "req-000001"
            assert span.end is not None

    def test_shared_manual_clock_adopts_with_zero_offset(self, traced):
        clock, session = traced
        self.serve_one(clock)
        (cspan,) = [r for r in session.tracer.roots()
                    if r.name == "wire.client.request"]
        for adopted in (ch for ch in cspan.children if ch.origin == "server"):
            assert cspan.start <= adopted.start
            assert adopted.end <= (cspan.end or adopted.end)

    def test_chrome_trace_renders_remote_process_and_flows(self, traced):
        clock, session = traced
        self.serve_one(clock)
        trace = chrome_trace(session.tracer)
        events = trace["traceEvents"]
        remote = [e for e in events if e.get("pid") == 2]
        assert any(e.get("name") == "wire.server.request" for e in remote)
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert starts and finishes
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}

    def test_serialize_stage_is_amended_onto_the_ring(self, traced):
        clock, _ = traced
        service, _ = self.serve_one(clock)
        (record,) = service.request_log.records()
        assert record.trace_id == "req-000001"
        assert set(record.stages) == set(STAGES)

    def test_untraced_sessions_open_no_client_spans(self):
        clock = ManualClock()
        service = PlanService(GPU, clock=clock, solve_fn=spy_solve)
        with service, PlanServer(service) as server:
            with PlanClient(server.host, server.port, timeout_s=10.0) as c:
                response = c.plan(make_request())
        assert response.source == "fresh"
        assert telemetry.session() is None


class TestZeroOverheadWhenOff:
    def test_no_span_or_record_allocations_off_path(self, monkeypatch):
        """ZOV001: tracing off means literally zero trace objects built."""
        allocations: list[str] = []
        span_init = Span.__init__
        record_init = RequestRecord.__init__

        def spy_span(self, *args, **kwargs):
            allocations.append("span")
            span_init(self, *args, **kwargs)

        def spy_record(self, *args, **kwargs):
            allocations.append("record")
            record_init(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", spy_span)
        monkeypatch.setattr(RequestRecord, "__init__", spy_record)
        assert not telemetry.enabled()
        service = PlanService(GPU, clock=ManualClock(), solve_fn=spy_solve)
        with service, PlanServer(service) as server:
            with PlanClient(server.host, server.port, timeout_s=10.0) as c:
                response = c.plan(make_request())
        assert response.source == "fresh"
        assert allocations == []

    def test_untraced_requests_skip_the_coalesce_link_table(self):
        service = PlanService(GPU, clock=ManualClock(), solve_fn=spy_solve)
        with service:
            ticket = service.submit(make_request())
            service.wait(ticket)
            assert ticket.solve.traces == []


class TestSilentServerTimeout:
    def test_no_reply_maps_to_deadline_exceeded(self):
        """ERR001: a silent peer is a missed budget, not protocol damage."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        held: list[socket.socket] = []

        def hold():
            conn, _ = listener.accept()
            held.append(conn)  # accept, then never answer

        thread = threading.Thread(target=hold, daemon=True)
        thread.start()
        try:
            client = PlanClient(host, port, timeout_s=0.2)
            with pytest.raises(DeadlineExceededError, match="no reply"):
                client.plan(make_request())
            client._closed = True  # transport is dead; skip the bye frame
        finally:
            thread.join(timeout=5.0)
            for conn in held:
                conn.close()
            listener.close()


class TestRequestLog:
    def fill(self, log: RequestLog, count: int) -> None:
        for index in range(count):
            log.record(trace_id=f"t-{index}", key="k", client="c",
                       source="fresh", outcome="ok", latency_s=0.0)

    def test_ring_is_bounded_and_counts_drops(self):
        log = RequestLog(capacity=4)
        self.fill(log, 10)
        assert len(log) == 4
        assert log.dropped == 6
        assert [r.seq for r in log.records()] == [6, 7, 8, 9]

    def test_amend_stage_targets_the_newest_matching_record(self):
        log = RequestLog(capacity=8)
        log.record(trace_id="t", key="k", client="c", source="fresh",
                   outcome="ok", latency_s=0.0, stages={"queue": 0.1})
        log.record(trace_id="t", key="k", client="c", source="cached",
                   outcome="ok", latency_s=0.0)
        log.amend_stage("t", "serialize", 0.5)
        older, newer = log.records()
        assert "serialize" not in older.stages
        assert newer.stages["serialize"] == 0.5

    def test_concurrent_writers_never_corrupt_the_ring(self):
        log = RequestLog(capacity=64)
        workers, per_worker = 8, 250

        def write(worker: int):
            for index in range(per_worker):
                log.record(trace_id=f"w{worker}-{index}", key="k",
                           client=f"w{worker}", source="fresh",
                           outcome="ok", latency_s=0.0)
                log.amend_stage(f"w{worker}-{index}", "serialize", 0.001)

        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) == 64
        assert log.dropped == workers * per_worker - 64
        seqs = [r.seq for r in log.records()]
        assert seqs == sorted(seqs) and len(set(seqs)) == 64
        json.loads(log.to_json())  # still one canonical document

    def test_to_json_is_byte_deterministic(self):
        a, b = RequestLog(capacity=4), RequestLog(capacity=4)
        self.fill(a, 6)
        self.fill(b, 6)
        assert a.to_json() == b.to_json()
        assert a.to_json().endswith("\n")


class TestLabeledHistograms:
    def test_deadline_classes_split_series_and_carry_exemplars(self, traced):
        _, session = traced
        telemetry.observe("service.request_latency_seconds", 0.2,
                          labels={"deadline_class": "strict"},
                          exemplar="req-000001")
        telemetry.observe("service.request_latency_seconds", 7.0,
                          labels={"deadline_class": "none"})
        text = prometheus_text(session.metrics)
        assert 'deadline_class="strict"' in text
        assert 'deadline_class="none"' in text
        assert '# {trace_id="req-000001"}' in text
        assert text.count("# TYPE repro_service_request_latency_seconds") == 1


class TestAdminEndpoints:
    def scrape(self, admin: AdminServer, path: str) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(
                f"http://{admin.address}{path}", timeout=5.0
            ) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as err:
            return err.code, err.read()

    def test_endpoints_cover_health_metrics_and_requests(self):
        service = PlanService(GPU, clock=ManualClock(), solve_fn=spy_solve,
                              request_log=RequestLog())
        with service:
            service.request(make_request(trace_id="req-000001"))
            with AdminServer(service, wire_stats=lambda: {"frames_in": 3}) \
                    as admin:
                status, body = self.scrape(admin, "/healthz")
                assert status == 200
                assert json.loads(body) == {"status": "ok"}

                status, body = self.scrape(admin, "/readyz")
                assert status == 200
                ready = json.loads(body)
                assert ready["ready"] is True and ready["gpu"] == GPU

                status, body = self.scrape(admin, "/metrics")
                assert status == 200
                text = body.decode()
                assert "repro_service_requests 1" in text
                assert "repro_wire_frames_in 3" in text
                assert "repro_requestz_records 1" in text

                status, body = self.scrape(admin, "/requestz")
                assert status == 200
                document = json.loads(body)
                assert document["records"][0]["trace_id"] == "req-000001"

                status, body = self.scrape(admin, "/nope")
                assert status == 404
                assert "/requestz" in json.loads(body)["paths"][-1]

    def test_readyz_is_503_once_the_service_closes(self):
        service = PlanService(GPU, clock=ManualClock(), solve_fn=spy_solve)
        with AdminServer(service) as admin:
            service.close()
            status, body = self.scrape(admin, "/readyz")
            assert status == 503
            assert json.loads(body)["ready"] is False

    def test_requestz_without_a_ring_serves_the_empty_shape(self):
        service = PlanService(GPU, clock=ManualClock(), solve_fn=spy_solve)
        with service, AdminServer(service) as admin:
            status, body = self.scrape(admin, "/requestz")
            assert status == 200
            assert json.loads(body) == {
                "capacity": 0, "dropped": 0, "records": []
            }

    def test_requestz_scrapes_are_byte_identical_across_runs(self):
        """The CI gate: two identical seeded runs, ``cmp``-equal scrapes."""

        def one_run() -> bytes:
            clock = ManualClock()
            ids = TraceIdSource("req")
            service = PlanService(GPU, clock=clock, solve_fn=spy_solve,
                                  request_log=RequestLog())
            with service, AdminServer(service) as admin:
                for _ in range(3):
                    service.request(make_request(trace_id=ids.next()))
                return self.scrape(admin, "/requestz")[1]

        assert one_run() == one_run()


class TestSlowRequestLog:
    def test_threshold_crossing_emits_one_structured_line(self):
        lines: list[str] = []
        service = PlanService(GPU, clock=ManualClock(), solve_fn=spy_solve,
                              slow_request_s=-1.0, slow_log=lines.append)
        with service:
            service.request(make_request(trace_id="req-000001",
                                         deadline_s=30.0))
        (line,) = lines
        entry = json.loads(line)
        assert entry["event"] == "slow_request"
        assert entry["trace_id"] == "req-000001"
        assert entry["kernel"] == "conv1"
        assert entry["deadline_s"] == 30.0
        assert "explain --explain-kernel conv1" in entry["explain"]
        assert set(entry["stages"]) <= set(STAGES)

    def test_fast_requests_stay_silent(self):
        lines: list[str] = []
        service = PlanService(GPU, clock=ManualClock(), solve_fn=spy_solve,
                              slow_request_s=60.0, slow_log=lines.append)
        with service:
            service.request(make_request())
        assert lines == []


class TestSoakStageBreakdown:
    CONFIG = SoakConfig(clients=8, rounds=2, seed=3, max_pending=64,
                        workspace_limits_mib=(8,), capacity=16,
                        bench_capacity=32)

    def test_report_carries_per_stage_percentiles(self):
        report = run_soak(self.CONFIG)
        assert report.healthy
        assert set(report.stage_percentiles_s) == set(STAGES)
        for stage in STAGES:
            assert set(report.stage_percentiles_s[stage]) == {
                "p50", "p90", "p99"
            }
        assert "queue p50" in report.table.render()

    def test_stage_breakdown_is_byte_deterministic(self):
        assert run_soak(self.CONFIG).to_json() == run_soak(self.CONFIG).to_json()
