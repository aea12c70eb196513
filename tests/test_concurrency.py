"""Concurrency contract tests: static analyzer, runtime sanitizer, cross-check.

Three layers, mirroring the contract's architecture:

* the **static analyzer** (:mod:`repro.analysis.concurrency`) is exercised on
  small seeded module trees, one behavior per test;
* the **runtime sanitizer** (:mod:`repro.telemetry.locks`) is exercised
  directly -- inversions, blocking checkpoints, reentrancy, zero-overhead
  disabled mode, canonical dumps;
* the **cross-check** runs the real soak workload under the sanitizer and
  asserts the dynamic lock graph is a subgraph of the static graph built
  from the real ``src/`` tree with the real pyproject config -- the same
  gate CI's ``lock-sanity`` job enforces out of process.
"""

from __future__ import annotations

import pathlib
import socket
import threading

import pytest

from repro.analysis.concurrency import (
    ConcurrencyModel,
    analyze_modules,
    compare_graphs,
)
from repro.analysis.config import LintConfig, load_config
from repro.analysis.context import build_context
from repro.analysis.engine import build_lock_model, check_source, lint_paths
from repro.telemetry import locks
from repro.telemetry.locks import (
    DEFAULT_BLOCKING_ALLOWED,
    LockMonitor,
    SanitizedLock,
    disable_sanitizer,
    enable_sanitizer,
    new_lock,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def build_model(
    sources: dict[str, str],
    level_aliases: dict[str, str] | None = None,
    blocking_allowed: tuple[str, ...] = (),
) -> ConcurrencyModel:
    config = LintConfig()
    modules = [
        build_context(pathlib.Path(relpath), relpath, text, config)
        for relpath, text in sources.items()
    ]
    return analyze_modules(
        modules, level_aliases=level_aliases, blocking_allowed=blocking_allowed
    )


def rules_fired(model: ConcurrencyModel) -> set[str]:
    return {finding.rule for finding in model.findings}


@pytest.fixture()
def sanitizer():
    """An enabled monitor, reliably torn down."""
    monitor = enable_sanitizer()
    try:
        yield monitor
    finally:
        disable_sanitizer()


# ---------------------------------------------------------------------------
# Static analyzer: CONC001 lock-order cycles
# ---------------------------------------------------------------------------


class TestLockOrderCycles:
    def test_two_lock_inversion_is_reported_with_both_paths(self):
        model = build_model({"m.py": (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def ab() -> None:\n"
            "    with A:\n"
            "        with B:\n"
            "            pass\n"
            "def ba() -> None:\n"
            "    with B:\n"
            "        with A:\n"
            "            pass\n"
        )})
        findings = model.findings_for("CONC001")
        assert len(findings) == 1
        message = findings[0].message
        assert "path 1:" in message and "path 2:" in message
        assert "m.py::A" in message and "m.py::B" in message

    def test_consistent_order_is_clean(self):
        model = build_model({"m.py": (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def ab() -> None:\n"
            "    with A:\n"
            "        with B:\n"
            "            pass\n"
            "def ab2() -> None:\n"
            "    with A:\n"
            "        with B:\n"
            "            pass\n"
        )})
        assert model.findings_for("CONC001") == []
        assert ("m.py::A", "m.py::B") in model.edges

    def test_cycle_through_call_edge_is_found(self):
        model = build_model({"m.py": (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def inner_b() -> None:\n"
            "    with B:\n"
            "        pass\n"
            "def ab() -> None:\n"
            "    with A:\n"
            "        inner_b()\n"
            "def ba() -> None:\n"
            "    with B:\n"
            "        with A:\n"
            "            pass\n"
        )})
        assert len(model.findings_for("CONC001")) == 1

    def test_cross_module_cycle_is_found(self):
        model = build_model({
            "locks.py": (
                "import threading\n"
                "A = threading.Lock()\n"
                "B = threading.Lock()\n"
            ),
            "one.py": (
                "from locks import A, B\n"
                "def ab() -> None:\n"
                "    with A:\n"
                "        with B:\n"
                "            pass\n"
            ),
            "two.py": (
                "from locks import A, B\n"
                "def ba() -> None:\n"
                "    with B:\n"
                "        with A:\n"
                "            pass\n"
            ),
        })
        assert len(model.findings_for("CONC001")) == 1

    def test_non_reentrant_same_level_nesting_is_a_cycle(self):
        model = build_model({"m.py": (
            "from repro.telemetry.locks import new_lock\n"
            "L = new_lock('svc')\n"
            "def nest() -> None:\n"
            "    with L:\n"
            "        with L:\n"
            "            pass\n"
        )})
        findings = model.findings_for("CONC001")
        assert len(findings) == 1
        assert "same-level" in findings[0].message

    def test_reentrant_same_level_nesting_is_clean(self):
        model = build_model({"m.py": (
            "from repro.telemetry.locks import new_lock\n"
            "L = new_lock('bench', reentrant=True)\n"
            "def nest() -> None:\n"
            "    with L:\n"
            "        with L:\n"
            "            pass\n"
        )})
        assert model.findings_for("CONC001") == []

    def test_self_attribute_locks_resolve_per_class(self):
        model = build_model({"m.py": (
            "import threading\n"
            "class Service:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.Lock()\n"
            "    def op(self) -> None:\n"
            "        with self._lock:\n"
            "            pass\n"
        )})
        assert "m.py::Service._lock" in model.declared_levels()


# ---------------------------------------------------------------------------
# Static analyzer: CONC002 blocking under lock
# ---------------------------------------------------------------------------


class TestBlockingUnderLock:
    def test_sleep_under_lock_fires(self):
        model = build_model({"m.py": (
            "import threading\n"
            "import time\n"
            "L = threading.Lock()\n"
            "def bad() -> None:\n"
            "    with L:\n"
            "        time.sleep(1)\n"
        )})
        assert len(model.findings_for("CONC002")) == 1

    def test_sleep_after_release_is_clean(self):
        model = build_model({"m.py": (
            "import threading\n"
            "import time\n"
            "L = threading.Lock()\n"
            "def good() -> None:\n"
            "    with L:\n"
            "        pass\n"
            "    time.sleep(1)\n"
        )})
        assert model.findings_for("CONC002") == []

    def test_blocking_propagates_through_call_chain(self):
        model = build_model({"m.py": (
            "import threading\n"
            "import time\n"
            "L = threading.Lock()\n"
            "def helper() -> None:\n"
            "    time.sleep(1)\n"
            "def outer() -> None:\n"
            "    with L:\n"
            "        helper()\n"
        )})
        findings = model.findings_for("CONC002")
        assert len(findings) == 1
        assert "helper" in findings[0].message

    def test_blocking_allowed_level_is_exempt(self):
        source = {"m.py": (
            "from repro.telemetry.locks import new_lock\n"
            "import time\n"
            "L = new_lock('solver')\n"
            "def work() -> None:\n"
            "    with L:\n"
            "        time.sleep(1)\n"
        )}
        assert build_model(source).findings_for("CONC002") != []
        clean = build_model(source, blocking_allowed=("solver",))
        assert clean.findings_for("CONC002") == []

    def test_socket_method_on_typed_param_fires(self):
        model = build_model({"m.py": (
            "import socket\n"
            "import threading\n"
            "L = threading.Lock()\n"
            "def bad(sock: socket.socket) -> None:\n"
            "    with L:\n"
            "        sock.sendall(b'x')\n"
        )})
        assert len(model.findings_for("CONC002")) == 1

    def test_future_result_under_lock_fires(self):
        model = build_model({"m.py": (
            "import threading\n"
            "from concurrent.futures import Future\n"
            "L = threading.Lock()\n"
            "def bad(f: Future) -> None:\n"
            "    with L:\n"
            "        f.result()\n"
        )})
        assert len(model.findings_for("CONC002")) == 1

    def test_one_report_per_line(self):
        # A line that both blocks directly and calls a blocking helper must
        # not be double-reported.
        model = build_model({"m.py": (
            "import threading\n"
            "import time\n"
            "L = threading.Lock()\n"
            "def helper() -> None:\n"
            "    time.sleep(1)\n"
            "def outer() -> None:\n"
            "    with L:\n"
            "        helper(); time.sleep(2)\n"
        )})
        assert len(model.findings_for("CONC002")) == 1


# ---------------------------------------------------------------------------
# Static analyzer: CONC003 callbacks, CONC004 split acquire/release
# ---------------------------------------------------------------------------


class TestCallbacksAndSplitLocks:
    def test_listener_loop_under_lock_fires(self):
        model = build_model({"m.py": (
            "import threading\n"
            "L = threading.Lock()\n"
            "LISTENERS: list = []\n"
            "def fire() -> None:\n"
            "    with L:\n"
            "        for listener in LISTENERS:\n"
            "            listener()\n"
        )})
        assert len(model.findings_for("CONC003")) == 1

    def test_collect_then_fire_after_release_is_clean(self):
        model = build_model({"m.py": (
            "import threading\n"
            "L = threading.Lock()\n"
            "LISTENERS: list = []\n"
            "def fire() -> None:\n"
            "    with L:\n"
            "        pending = list(LISTENERS)\n"
            "    for listener in pending:\n"
            "        listener()\n"
        )})
        assert model.findings_for("CONC003") == []

    def test_callable_typed_param_under_lock_fires(self):
        model = build_model({"m.py": (
            "import threading\n"
            "from typing import Callable\n"
            "L = threading.Lock()\n"
            "def run(hook: Callable[[], None]) -> None:\n"
            "    with L:\n"
            "        hook()\n"
        )})
        assert len(model.findings_for("CONC003")) == 1

    def test_split_acquire_release_fires_per_function(self):
        model = build_model({"m.py": (
            "import threading\n"
            "L = threading.Lock()\n"
            "def grab() -> None:\n"
            "    L.acquire()\n"
            "def drop() -> None:\n"
            "    L.release()\n"
        )})
        assert len(model.findings_for("CONC004")) == 2

    def test_balanced_acquire_release_is_clean(self):
        model = build_model({"m.py": (
            "import threading\n"
            "L = threading.Lock()\n"
            "def critical() -> None:\n"
            "    L.acquire()\n"
            "    try:\n"
            "        pass\n"
            "    finally:\n"
            "        L.release()\n"
        )})
        assert model.findings_for("CONC004") == []

    def test_context_manager_delegation_is_exempt(self):
        model = build_model({"m.py": (
            "import threading\n"
            "class Guard:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.Lock()\n"
            "    def __enter__(self) -> 'Guard':\n"
            "        self._lock.acquire()\n"
            "        return self\n"
            "    def __exit__(self, *exc: object) -> None:\n"
            "        self._lock.release()\n"
        )})
        assert model.findings_for("CONC004") == []


# ---------------------------------------------------------------------------
# Static analyzer: levels, graph shape, config
# ---------------------------------------------------------------------------


class TestLevelsAndGraph:
    def test_new_lock_string_literal_names_the_level(self):
        model = build_model({"m.py": (
            "from repro.telemetry.locks import new_lock\n"
            "L = new_lock('service')\n"
            "def op() -> None:\n"
            "    with L:\n"
            "        pass\n"
        )})
        assert "service" in model.declared_levels()

    def test_level_alias_config_renames_plain_locks(self):
        sources = {"m.py": (
            "import threading\n"
            "L = threading.Lock()\n"
            "def op() -> None:\n"
            "    with L:\n"
            "        pass\n"
        )}
        plain = build_model(sources)
        assert "m.py::L" in plain.declared_levels()
        aliased = build_model(sources, level_aliases={"m.py::L": "mylevel"})
        assert "mylevel" in aliased.declared_levels()
        assert "m.py::L" not in aliased.declared_levels()

    def test_dump_is_byte_deterministic(self):
        sources = {"m.py": (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def ab() -> None:\n"
            "    with A:\n"
            "        with B:\n"
            "            pass\n"
        )}
        assert build_model(sources).dump_graph() == \
            build_model(sources).dump_graph()

    def test_compare_graphs_subgraph_passes(self):
        static = {
            "schema_version": 1,
            "levels": ["a", "b", "c"],
            "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "c"}],
        }
        dynamic = {
            "schema_version": 1,
            "levels": ["a", "b"],
            "edges": [{"from": "a", "to": "b"}],
        }
        assert compare_graphs(static, dynamic) == []

    def test_compare_graphs_flags_unpredicted_edge_and_level(self):
        static = {
            "schema_version": 1,
            "levels": ["a", "b"],
            "edges": [{"from": "a", "to": "b"}],
        }
        dynamic = {
            "schema_version": 1,
            "levels": ["a", "b", "ghost"],
            "edges": [{"from": "b", "to": "a"}],
        }
        problems = compare_graphs(static, dynamic)
        assert any("ghost" in p for p in problems)
        assert any("b" in p and "a" in p for p in problems)


# ---------------------------------------------------------------------------
# Suppressions: with-headers and decorated functions
# ---------------------------------------------------------------------------


class TestSuppressionRanges:
    def test_pragma_on_multiline_with_header_covers_the_block(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "import threading\n"
            "import time\n"
            "L = threading.Lock()\n"
            "OTHER = threading.Lock()\n"
            "def bad() -> None:\n"
            "    with (  # reprolint: disable=CONC002 -- fixture exemption\n"
            "        L\n"
            "    ):\n"
            "        time.sleep(1)\n",
            encoding="utf-8",
        )
        report = lint_paths([tmp_path], LintConfig())
        assert "CONC002" not in report.counts()

    def test_pragma_on_decorated_function_covers_the_body(self):
        found = check_source(
            "import functools\n"
            "import time\n"
            "\n"
            "\n"
            "@functools.lru_cache  # reprolint: disable=DET001 -- fixture\n"
            "def f() -> float:\n"
            "    return time.time()\n",
            "core/mod.py",
            LintConfig(),
        )
        assert found == []

    def test_unused_tree_rule_suppression_is_reported(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "X: int = 1  # reprolint: disable=CONC001 -- nothing here\n",
            encoding="utf-8",
        )
        report = lint_paths([tmp_path], LintConfig())
        assert [v.rule for v in report.violations] == ["SUP001"]


# ---------------------------------------------------------------------------
# Runtime sanitizer
# ---------------------------------------------------------------------------


class TestSanitizer:
    def test_disabled_new_lock_is_a_plain_threading_lock(self):
        assert not locks.sanitizer_enabled()
        lock = new_lock("service")
        assert not isinstance(lock, SanitizedLock)
        with lock:
            pass
        rlock = new_lock("bench", reentrant=True)
        with rlock:
            with rlock:
                pass

    def test_enabled_new_lock_records_edges(self, sanitizer):
        a, b = new_lock("a"), new_lock("b")
        with a:
            with b:
                pass
        graph = sanitizer.graph()
        assert {"from": "a", "to": "b"} in graph["edges"]
        assert sanitizer.violations() == []

    def test_order_inversion_is_a_violation(self, sanitizer):
        a, b = new_lock("a"), new_lock("b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        kinds = [v.kind for v in sanitizer.violations()]
        assert kinds == ["inversion"]
        assert "'a'" in sanitizer.violations()[0].message

    def test_inversion_across_threads_is_caught(self, sanitizer):
        a, b = new_lock("a"), new_lock("b")

        def take_ab() -> None:
            with a:
                with b:
                    pass

        thread = threading.Thread(target=take_ab)
        thread.start()
        thread.join()
        with b:
            with a:
                pass
        assert [v.kind for v in sanitizer.violations()] == ["inversion"]

    def test_reentrant_lock_nests_without_violation(self, sanitizer):
        lock = new_lock("bench", reentrant=True)
        with lock:
            with lock:
                pass
        assert sanitizer.violations() == []
        # Same-object nesting is not an ordering fact: no self-edge.
        assert sanitizer.graph()["edges"] == []

    def test_nonreentrant_reacquire_records_self_deadlock(self, sanitizer):
        lock = new_lock("svc")
        monitor = sanitizer
        with lock:
            # Calling the monitor hook directly (a real second acquire()
            # would deadlock this thread forever -- exactly the bug class).
            monitor.on_attempt(lock)
        kinds = [v.kind for v in sanitizer.violations()]
        assert kinds == ["self-deadlock"]

    def test_blocking_checkpoint_under_disallowed_lock(self, sanitizer):
        lock = new_lock("service")
        with lock:
            locks.blocking("test.io")
        violations = sanitizer.violations()
        assert [v.kind for v in violations] == ["blocking"]
        assert "test.io" in violations[0].message

    def test_blocking_checkpoint_under_allowed_lock_is_clean(self, sanitizer):
        lock = new_lock("solver")
        with lock:
            locks.blocking("solver.work")
        assert sanitizer.violations() == []

    def test_blocking_checkpoint_with_no_lock_is_clean(self, sanitizer):
        locks.blocking("free.io")
        assert sanitizer.violations() == []

    def test_dump_is_canonical_and_deterministic(self, sanitizer):
        a, b = new_lock("a"), new_lock("b")
        with a:
            with b:
                pass
        first = sanitizer.dump_graph()
        assert first == sanitizer.dump_graph()
        assert first.endswith("\n")

    def test_default_blocking_allowed_matches_pyproject(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert tuple(sorted(config.blocking_allowed())) == \
            tuple(sorted(DEFAULT_BLOCKING_ALLOWED))

    def test_monitor_defaults_to_the_shared_allowlist(self):
        assert LockMonitor().blocking_allowed == \
            frozenset(DEFAULT_BLOCKING_ALLOWED)


# ---------------------------------------------------------------------------
# Cross-check: dynamic graph vs static graph on the real tree
# ---------------------------------------------------------------------------


class TestStaticDynamicCrossCheck:
    def run_soak(self) -> LockMonitor:
        from repro.harness.experiments import serve_plans

        monitor = enable_sanitizer()
        try:
            serve_plans(soak=False)
        finally:
            disable_sanitizer()
        return monitor

    def test_soak_dynamic_graph_is_subgraph_of_static(self):
        monitor = self.run_soak()
        assert monitor.violations() == []
        config = load_config(REPO_ROOT / "pyproject.toml")
        static = build_lock_model([SRC], config)
        problems = compare_graphs(static.graph(), monitor.graph())
        assert problems == []

    def test_wire_and_admin_shutdown_under_sanitizer(self):
        """The close-while-serving audit: live connection + admin scrape,
        then close everything; no inversions, no blocking-under-lock."""
        from urllib.request import urlopen

        from repro.service import PlanRequest, PlanService, RequestLog
        from repro.wire import PlanClient, PlanServer
        from repro.wire.admin import AdminServer
        from tests.conftest import make_geometry

        monitor = enable_sanitizer()
        try:
            request_log = RequestLog()
            service = PlanService(request_log=request_log)
            server = PlanServer(service, "127.0.0.1", 0).start()
            admin = AdminServer(
                service, wire_stats=server.stats.as_dict,
                host="127.0.0.1", port=0,
            ).start()
            client = PlanClient("127.0.0.1", server.port)
            try:
                response = client.plan(PlanRequest(
                    kernel="conv", geometry=make_geometry(), client="test",
                ))
                assert response.configuration is not None
                with urlopen(
                    f"http://{admin.address}/healthz", timeout=5
                ) as reply:
                    assert reply.status == 200
            finally:
                # Close the admin and server while the client connection is
                # still open -- the historical inversion window.
                admin.close()
                server.close()
                client.close()
                service.close()
        finally:
            disable_sanitizer()
        assert monitor.violations() == []

    def test_sanitized_service_answers_in_process(self):
        from repro.service import PlanRequest, PlanService
        from tests.conftest import make_geometry

        monitor = enable_sanitizer()
        try:
            service = PlanService()
            try:
                ticket = service.submit(PlanRequest(
                    kernel="conv", geometry=make_geometry(), client="test",
                ))
                response = service.wait(ticket)
                assert response.source in ("fresh", "cached", "coalesced")
            finally:
                service.close()
        finally:
            disable_sanitizer()
        assert monitor.violations() == []


def test_socket_level_lock_probe(sanitizer):
    """A socket pair driven under a 'wire.client' lock mirrors the client's
    hold-across-exchange pattern; blocking checkpoints must stay legal."""
    lock = new_lock("wire.client")
    left, right = socket.socketpair()
    try:
        with lock:
            locks.blocking("wire.write_frame")
            left.sendall(b"ping")
            locks.blocking("wire.read_frame")
            assert right.recv(4) == b"ping"
    finally:
        left.close()
        right.close()
    assert sanitizer.violations() == []
