"""Tests for the decision-provenance subsystem (observability package).

Pins the four contracts DESIGN.md promises: zero overhead when disabled,
byte-determinism under a manual clock, a versioned JSON schema that readers
refuse to misinterpret, and a drift diff that is empty exactly when nothing
changed.  Also self-tests the CI perf gate (``benchmarks/check_regression``)
by injecting a regression into a copy of the committed baseline.
"""

import copy
import json
import pathlib

import pytest

import repro.observability as observability
from benchmarks.check_regression import GATES, compare, main as gate_main, render
from repro.core.benchmarker import benchmark_kernel
from repro.core.pareto import desirable_set
from repro.core.policies import BatchSizePolicy
from repro.core.sweep import prepare_wd_kernels, sweep_wr
from repro.core.wd import solve_from_kernels
from repro.core.wr import optimize_from_benchmark
from repro.harness import experiments as E
from repro.observability import report as R
from repro.observability.provenance import (
    NULL_RECORDER,
    NullRecorder,
    ProvenanceRecorder,
)
from repro.telemetry import ManualClock
from repro.units import MIB
from tests.conftest import make_geometry

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _observability_disabled():
    """Provenance must be off by default and left off by every test."""
    assert not observability.enabled()
    yield
    assert not observability.enabled()


# ---------------------------------------------------------------------------
# Zero overhead when off
# ---------------------------------------------------------------------------


class TestZeroOverheadWhenOff:
    def test_recorder_returns_shared_falsy_null(self):
        rec = observability.recorder()
        assert rec is NULL_RECORDER
        assert not rec
        assert rec.begin_pass("wr") == -1  # inert, not an error

    def test_disabled_optimizers_never_call_a_recorder(self, timing_handle,
                                                       monkeypatch):
        """Every instrumented site guards with ``if rec:`` -- with
        provenance off, not even the NullRecorder's no-op methods run."""

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("recorder method called while disabled")

        for name in ("begin_pass", "end_pass", "record"):
            monkeypatch.setattr(NullRecorder, name, boom)
        g = make_geometry(n=16, c=16, k=16, h=13, w=13)
        bench = benchmark_kernel(timing_handle, g, BatchSizePolicy.POWER_OF_TWO)
        optimize_from_benchmark(bench, 8 * MIB)
        desirable_set(bench, workspace_limit=8 * MIB)
        sweep_wr(bench, [4096, 8 * MIB])
        kernels = prepare_wd_kernels(timing_handle, {"a": g},
                                     BatchSizePolicy.POWER_OF_TWO)
        solve_from_kernels(kernels, 8 * MIB, solver="ilp")

    def test_capture_restores_previous_state(self):
        with observability.capture() as rec:
            assert observability.enabled()
            assert observability.recorder() is rec
        assert not observability.enabled()


# ---------------------------------------------------------------------------
# Recorder mechanics
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_events_attach_to_innermost_open_pass(self):
        rec = ProvenanceRecorder(clock=ManualClock())
        outer = rec.begin_pass("network", scheme="wd")
        inner = rec.begin_pass("wr", kernel="conv1:Forward")
        rec.record("candidate.pruned.dp", kernel="conv1:Forward", micro_batch=8)
        rec.end_pass(inner)
        rec.record("chosen", kernel="conv1:Forward")
        rec.end_pass(outer)

        kinds = [(e.event, e.pass_id, e.kind) for e in rec.events]
        assert kinds == [
            ("pass.begin", outer, "network"),
            ("pass.begin", inner, "wr"),
            ("candidate.pruned.dp", inner, "wr"),
            ("pass.end", inner, "wr"),
            ("chosen", outer, "network"),
            ("pass.end", outer, "network"),
        ]
        assert [e.seq for e in rec.events] == list(range(6))
        assert all(e.ts == 0.0 for e in rec.events)

    def test_queries(self):
        rec = ProvenanceRecorder(clock=ManualClock())
        rec.record("chosen", kernel="b")
        rec.record("front", kernel="a")
        rec.record("chosen", kernel="a")
        assert [e.kernel for e in rec.events_named("chosen")] == ["b", "a"]
        assert rec.kernels() == ["b", "a"]  # first-appearance order
        assert rec.to_dicts()[0] == {
            "seq": 0, "ts": 0.0, "pass": -1, "kind": "", "kernel": "b",
            "event": "chosen", "detail": {},
        }

    def test_details_are_jsonified_strictly(self):
        rec = ProvenanceRecorder(clock=ManualClock())
        rec.record("kernel.baseline", kernel="k",
                   undivided_time=float("inf"), speedup=float("nan"),
                   tag=BatchSizePolicy.POWER_OF_TWO)
        (event,) = rec.events
        assert event.detail["undivided_time"] == "inf"
        assert event.detail["speedup"] == "nan"
        assert isinstance(event.detail["tag"], str)
        # Strict JSON: no bare Infinity/NaN tokens may survive.
        json.loads(json.dumps(event.detail, allow_nan=False))


# ---------------------------------------------------------------------------
# The explain report: determinism, schema, diff, rendering
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_a():
    return E.explain_report()


@pytest.fixture(scope="module")
def run_b():
    return E.explain_report()


@pytest.fixture(scope="module")
def run_small():
    return E.explain_report(total_workspace_mib=24)


class TestExplainReport:
    def test_two_runs_are_byte_identical(self, run_a, run_b):
        assert run_a.to_json() == run_b.to_json()
        assert run_a.to_json().encode() == run_b.to_json().encode()

    def test_report_covers_every_alexnet_conv_kernel(self, run_a):
        assert set(run_a.report["kernels"]) == {
            f"conv{i}:Forward" for i in range(1, 6)
        }
        for kernel in run_a.report["kernels"].values():
            chosen = kernel["chosen"]
            assert chosen["micro_batches"] and chosen["algorithms"]
            assert sum(chosen["micro_batches"]) == 64
            # Pooled WD can make an individual kernel slower than its solo
            # optimum (it donates workspace to a hungrier layer), so the
            # per-kernel speedup may dip below 1 -- but never to nonsense.
            assert kernel["speedup"] is None or kernel["speedup"] > 0

    def test_candidate_fates_are_recorded(self, run_a):
        counts = [k["counts"] for k in run_a.report["kernels"].values()]
        assert sum(c["dominated"] for c in counts) > 0
        assert sum(c["rejected_workspace"] for c in counts) > 0
        events = {e["event"] for e in run_a.report["events"]}
        assert {"pass.begin", "pass.end", "front", "chosen",
                "kernel.baseline", "solver.mckp"} <= events

    def test_json_round_trip(self, run_a):
        assert R.from_json(run_a.to_json()) == run_a.report

    def test_unknown_schema_version_is_rejected(self, run_a):
        doc = json.loads(run_a.to_json())
        doc["schema_version"] = 999
        with pytest.raises(R.SchemaError):
            R.from_json(json.dumps(doc))
        with pytest.raises(R.SchemaError):
            R.from_json("{}")

    def test_diff_of_identical_runs_is_empty(self, run_a, run_b):
        diff = R.diff_reports(run_a.report, run_b.report)
        assert R.diff_is_empty(diff)
        assert diff == {"added": [], "removed": [], "changed": {}}
        assert "no configuration drift" in R.render_diff(diff)

    def test_diff_across_limits_reports_exactly_the_changed_kernels(
        self, run_a, run_small
    ):
        """120 MiB -> 24 MiB of pooled workspace squeezes exactly conv2 and
        conv3 (the FFT-hungry layers) onto cheaper configurations."""
        diff = R.diff_reports(run_a.report, run_small.report)
        assert not diff["added"] and not diff["removed"]
        assert set(diff["changed"]) == {"conv2:Forward", "conv3:Forward"}
        for change in diff["changed"].values():
            assert "workspace" in change["fields"]
            assert change["before"] != change["after"]
        rendered = R.render_diff(diff, "120MiB", "24MiB")
        assert "conv2:Forward" in rendered and "24MiB" in rendered

    def test_text_and_html_renderings(self, run_a):
        text = R.render_text(run_a.report)
        assert "conv2:Forward" in text and "speedup" in text
        html = run_a.to_html()
        assert html.startswith("<!DOCTYPE html>")
        assert html.count("<svg") == len(run_a.report["kernels"])
        assert "conv5:Forward" in html

    def test_prometheus_lines_are_well_formed(self, run_a):
        text = R.prometheus_lines(run_a.report)
        assert text.endswith("\n")
        lines = text.splitlines()
        # time + workspace + micro_batches per kernel.
        assert len(lines) == 3 * len(run_a.report["kernels"])
        for line in lines:
            assert line.startswith("repro_explain_kernel_")
            assert 'kernel="' in line


# ---------------------------------------------------------------------------
# The CI perf-regression gate
# ---------------------------------------------------------------------------


class TestRegressionGate:
    @pytest.fixture(scope="class")
    def baseline(self):
        with open(REPO_ROOT / "BENCH_sweep.json") as fh:
            return json.load(fh)

    def test_every_gate_key_exists_in_the_committed_baseline(self, baseline):
        for key, _mode, _tol in GATES:
            node = baseline
            for part in key.split("."):
                assert part in node, f"baseline lacks gated key {key}"
                node = node[part]

    def test_identical_records_pass(self, baseline):
        rows, failures = compare(baseline, copy.deepcopy(baseline))
        assert not failures
        assert all(r.ok for r in rows)
        assert "REGRESSED" not in render(rows)

    def test_injected_regression_fails_the_gate(self, baseline):
        fresh = copy.deepcopy(baseline)
        fresh["wr"]["config_mismatches"] = 3          # exactness breach
        fresh["wd"]["sweep_ilp_nodes"] *= 2           # > 25% work growth
        rows, failures = compare(baseline, fresh)
        assert {r.key for r in failures} == {
            "wr.config_mismatches", "wd.sweep_ilp_nodes",
        }
        table = render(rows)
        assert "REGRESSED" in table and "+100.0%" in table

    def test_drift_within_tolerance_passes(self, baseline):
        fresh = copy.deepcopy(baseline)
        fresh["wr"]["sweep_dp_solves"] = int(
            baseline["wr"]["sweep_dp_solves"] * 1.05)  # inside the 10% gate
        _rows, failures = compare(baseline, fresh)
        assert not failures

    def test_wall_clock_is_informational_only(self, baseline):
        fresh = copy.deepcopy(baseline)
        fresh["wd"]["sweep_wall_s"] = baseline["wd"]["sweep_wall_s"] * 100
        _rows, failures = compare(baseline, fresh)
        assert not failures

    def test_missing_gated_key_fails(self, baseline):
        fresh = copy.deepcopy(baseline)
        del fresh["wd"]["solved_limits"]
        _rows, failures = compare(baseline, fresh)
        assert [r.key for r in failures] == ["wd.solved_limits"]

    def test_cli_exit_codes(self, baseline, tmp_path, capsys):
        base_path = REPO_ROOT / "BENCH_sweep.json"
        good = tmp_path / "good.json"
        good.write_text(json.dumps(baseline))
        assert gate_main(["--baseline", str(base_path),
                          "--fresh", str(good)]) == 0
        assert "all perf gates passed" in capsys.readouterr().out

        bad_record = copy.deepcopy(baseline)
        bad_record["wd"]["assignment_mismatches"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bad_record))
        assert gate_main(["--baseline", str(base_path),
                          "--fresh", str(bad)]) == 1
        assert "PERF REGRESSION" in capsys.readouterr().err

        assert gate_main(["--baseline", str(base_path),
                          "--fresh", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert "cannot read fresh record" in err and "missing.json" in err

        unparseable = tmp_path / "unparseable.json"
        unparseable.write_text("{not json")
        assert gate_main(["--baseline", str(base_path),
                          "--fresh", str(unparseable)]) == 2
        assert "cannot read fresh record" in capsys.readouterr().err

    def test_cli_schema_mismatch_exit_code(self, baseline, tmp_path, capsys):
        """A record that parses but carries the wrong shapes must exit 3
        with a diagnosis, not crash with a traceback (the original bug)."""
        base_path = REPO_ROOT / "BENCH_sweep.json"

        mangled = copy.deepcopy(baseline)
        mangled["wd"]["sweep_ilp_nodes"] = "lots"       # string where a number belongs
        bad_shape = tmp_path / "bad_shape.json"
        bad_shape.write_text(json.dumps(mangled))
        assert gate_main(["--baseline", str(base_path),
                          "--fresh", str(bad_shape)]) == 3
        err = capsys.readouterr().err
        assert "schema mismatch in fresh record" in err
        assert "wd.sweep_ilp_nodes" in err

        not_an_object = tmp_path / "list.json"
        not_an_object.write_text("[1, 2, 3]")
        assert gate_main(["--baseline", str(not_an_object),
                          "--fresh", str(bad_shape)]) == 3
        assert "schema mismatch in baseline record" in capsys.readouterr().err

    def test_validate_record_accepts_the_committed_baseline(self, baseline):
        from benchmarks.check_regression import validate_record

        assert validate_record(baseline) == []
        assert validate_record([]) != []
        mangled = copy.deepcopy(baseline)
        mangled["wr"]["config_mismatches"] = True       # bools are not counters
        assert any("wr.config_mismatches" in p for p in validate_record(mangled))
