"""Tests for the command-line experiment runner."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.telemetry as telemetry
from repro.harness.runner import REGISTRY, main


class TestRunner:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in REGISTRY:
            assert key in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig1" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_cheap_experiment(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "powerOfTwo" in out
        assert "[fig9" in out

    def test_csv_format(self, capsys):
        assert main(["fig9", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("policy,")
        assert "|" not in out

    def test_registry_covers_every_paper_artifact(self):
        assert set(REGISTRY) == {
            "fig1", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            "fig14", "opt-cost", "ilp-stats", "sweep", "explain", "serve",
            "client",
        }

    def test_every_registry_entry_names_an_experiment(self):
        """The runner imports the experiments only when one runs, so a
        misspelt entry point would surface only then; check them all."""
        from repro.harness import experiments as E

        for key, (entry, desc) in REGISTRY.items():
            assert isinstance(entry, str), key
            assert callable(getattr(E, entry, None)), (key, entry)
            assert desc

    def test_summary_line_reports_cache_hits_and_misses(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "cache: 10 hits, 256 misses (bench 10/256, config 0/0)" in out


class TestRunnerTelemetry:
    def test_profile_writes_valid_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["fig9", "--profile", str(path)]) == 0
        trace = json.loads(path.read_text())
        names = {e.get("name") for e in trace["traceEvents"]}
        # The documented nesting: experiment > optimize > benchmark > cache,
        # and the network's one tensor WR pass.
        assert {"experiment", "optimize.network", "solve.tensor.wr",
                "benchmark.kernel", "benchmark.find", "cache.hit",
                "cache.miss"} <= names
        assert f"[profile written to {path}]" in capsys.readouterr().out

    def test_metrics_prints_summary(self, capsys):
        assert main(["fig9", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "== telemetry summary ==" in out
        assert "cache.hits" in out and "cache.misses" in out
        assert "benchmark.units" in out

    def test_runner_leaves_telemetry_disabled(self):
        assert not telemetry.enabled()
        assert main(["fig9"]) == 0
        assert not telemetry.enabled()

    def test_runner_preserves_ambient_session(self):
        with telemetry.capture() as outer:
            assert main(["fig9"]) == 0
            assert telemetry.session() is outer


class TestOutputPaths:
    """Output paths with missing parent directories are created, not crashed
    into (regression: ``--profile missing/dir/trace.json`` used to die with
    a bare ``FileNotFoundError`` message)."""

    def test_profile_creates_missing_parent_dirs(self, capsys, tmp_path):
        path = tmp_path / "deeply" / "nested" / "trace.json"
        assert main(["fig9", "--profile", str(path)]) == 0
        assert path.exists()
        assert json.loads(path.read_text())["traceEvents"]

    def test_metrics_file_creates_missing_parent_dirs(self, capsys, tmp_path):
        path = tmp_path / "out" / "metrics.prom"
        assert main(["fig9", "--metrics-file", str(path)]) == 0
        assert path.read_text().startswith("# HELP repro_")

    def test_unwritable_output_fails_with_clear_message(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")  # a *file* where a directory is needed
        path = blocker / "sub" / "trace.json"
        assert main(["fig9", "--profile", str(path)]) == 1
        err = capsys.readouterr().err
        assert "cannot write profile" in err
        assert "cannot create output directory" in err


class TestExplain:
    def test_explain_runs_and_prints_table(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "Decision provenance" in out
        assert "conv2:Forward" in out

    def test_explain_writes_json_and_html(self, capsys, tmp_path):
        jpath = tmp_path / "new" / "run.json"
        hpath = tmp_path / "new" / "run.html"
        assert main(["explain", "--explain-json", str(jpath),
                     "--explain-html", str(hpath)]) == 0
        report = json.loads(jpath.read_text())
        assert report["schema_version"] == 1
        assert "conv2:Forward" in report["kernels"]
        html = hpath.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html

    def test_explain_flags_without_explain_experiment_fail(self, capsys,
                                                           tmp_path):
        assert main(["fig9", "--explain-json", str(tmp_path / "x.json")]) == 1
        assert "need the 'explain' experiment" in capsys.readouterr().err

    def test_diff_of_identical_runs_is_empty(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["explain", "--explain-json", str(a)]) == 0
        assert main(["explain", "--explain-json", str(b)]) == 0
        assert a.read_text() == b.read_text()  # byte-deterministic
        assert main(["--diff", str(a), str(b)]) == 0
        assert "no configuration drift" in capsys.readouterr().out

    def test_diff_unreadable_report_exits_2(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        a.write_text("{}")
        assert main(["--diff", str(a), str(tmp_path / "missing.json")]) == 2
        assert "cannot read report" in capsys.readouterr().err


class TestServe:
    def test_serve_runs_and_prints_table(self, capsys):
        assert main(["serve"]) == 0
        out = capsys.readouterr().out
        assert "Plan-service soak" in out
        assert "solver invocations" in out
        assert "[serve" in out

    def test_listen_exits_zero_when_stop_signals_repeat(self, tmp_path):
        # A supervisor may repeat SIGTERM; one that lands while the server
        # is already shutting down must not turn a clean stop into a kill.
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.runner", "serve",
             "--listen", "127.0.0.1:0", "--store", str(tmp_path / "p.json")],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            assert "SIGINT/SIGTERM to stop" in proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            assert "[plan store saved" in proc.stdout.readline()
            deadline = time.monotonic() + 30.0
            while proc.poll() is None and time.monotonic() < deadline:
                proc.send_signal(signal.SIGTERM)
                time.sleep(0.001)
            assert proc.wait(timeout=5.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_soak_writes_byte_deterministic_report(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["serve", "--soak", "--soak-report", str(a)]) == 0
        assert main(["serve", "--soak", "--soak-report", str(b)]) == 0
        assert a.read_text() == b.read_text()
        report = json.loads(a.read_text())
        assert report["healthy"] is True
        assert report["errored"] == 0 and report["dropped"] == 0
        # Coalescing + the plan store: strictly fewer solves than requests.
        assert 0 < report["solver_invocations"] < report["submitted"]
        # The seeded fault schedule exercised both fallback rungs.
        assert report["fallback_reasons"].get("timeout", 0) > 0
        assert report["fallback_reasons"].get("solver_error", 0) > 0

    @pytest.mark.parametrize("golden, flags", [
        ("soak_report.json", []),
        ("cluster_soak_report.json",
         ["--soak-clients", "32", "--shards", "4",
          "--devices", "p100-sxm2,v100-sxm2", "--steal-watermark", "2",
          "--tenant-mix", "train:3,infer:1"]),
    ], ids=["soak", "cluster-soak"])
    def test_soak_report_matches_its_golden(self, capsys, tmp_path, golden,
                                            flags):
        """The CI soak and cluster-soak reports, pinned byte for byte: any
        change to what the serving pipeline answers, counts or times shows
        up here (regenerate the golden only for an intended change)."""
        out = tmp_path / "report.json"
        assert main(["serve", "--soak", *flags, "--soak-report", str(out)]) == 0
        expected = Path(__file__).resolve().parent / "goldens" / golden
        assert out.read_bytes() == expected.read_bytes()

    def test_soak_summary_line_reports_evictions(self, capsys):
        # The soak parameterization bounds its BenchmarkCache, so this is
        # the runner path where the eviction count becomes visible.
        assert main(["serve", "--soak"]) == 0
        out = capsys.readouterr().out
        assert "evicted]" in out

    def test_soak_flags_without_serve_experiment_fail(self, capsys, tmp_path):
        assert main(["fig9", "--soak"]) == 1
        assert "need the 'serve' experiment" in capsys.readouterr().err

    def test_unhealthy_soak_exits_nonzero(self, capsys, monkeypatch):
        from repro.harness import experiments as E

        def unhealthy(soak=False, seed=0, store_path=None, **kwargs):
            result = E.serve_plans(soak=soak, seed=seed, store_path=store_path,
                                   **kwargs)
            result.report.errored = 1
            result.report.errors.append("SolverError: injected")
            return result

        registry = dict(REGISTRY)
        registry["serve"] = (unhealthy, registry["serve"][1])
        monkeypatch.setattr("repro.harness.runner.REGISTRY", registry)
        assert main(["serve"]) == 1
        assert "[serve: UNHEALTHY" in capsys.readouterr().err


class TestRunnerFailures:
    @pytest.fixture
    def broken_registry(self, monkeypatch):
        def boom():
            raise RuntimeError("injected failure")

        registry = dict(REGISTRY)
        registry["boom"] = (boom, "always fails")
        monkeypatch.setattr("repro.harness.runner.REGISTRY", registry)
        return registry

    def test_failing_experiment_exits_nonzero(self, capsys, broken_registry):
        assert main(["boom"]) == 1
        err = capsys.readouterr().err
        assert "[boom: FAILED]" in err
        assert "injected failure" in err
        assert "1 experiment(s) failed: boom" in err

    def test_failure_does_not_abort_remaining_experiments(
        self, capsys, broken_registry
    ):
        assert main(["boom", "fig9"]) == 1
        captured = capsys.readouterr()
        assert "[boom: FAILED]" in captured.err
        assert "powerOfTwo" in captured.out  # fig9 still ran
