"""Tests for the env-var option surface (paper section III-D)."""

import pytest

from repro.core.options import (
    ENV_BENCHMARK_DB,
    ENV_BENCHMARK_DEVICES,
    ENV_POLICY,
    ENV_TOTAL_WORKSPACE,
    ENV_WORKSPACE_LIMIT,
    Options,
)
from repro.core.policies import BatchSizePolicy
from repro.units import CAFFE2_DEFAULT_WORKSPACE, MIB


class TestDefaults:
    def test_paper_defaults(self):
        opts = Options()
        assert opts.policy == BatchSizePolicy.POWER_OF_TWO
        assert opts.workspace_limit == CAFFE2_DEFAULT_WORKSPACE
        assert opts.total_workspace is None
        assert not opts.use_wd

    def test_wd_enabled_by_total_workspace(self):
        assert Options(total_workspace=120 * MIB).use_wd


class TestValidation:
    def test_negative_limit(self):
        with pytest.raises(ValueError):
            Options(workspace_limit=-1)

    def test_negative_total(self):
        with pytest.raises(ValueError):
            Options(total_workspace=-1)

    def test_devices(self):
        with pytest.raises(ValueError):
            Options(benchmark_devices=0)

    def test_solver_name(self):
        """WD has one solver: a solver name is not an option."""
        with pytest.raises(TypeError):
            Options(wd_solver="glpk")
        assert Options.from_env({"UCUDNN_WD_SOLVER": "ilp"}) == Options()


class TestFromEnv:
    def test_empty_env_gives_defaults(self):
        assert Options.from_env({}) == Options()

    def test_full_env(self):
        env = {
            ENV_POLICY: "all",
            ENV_WORKSPACE_LIMIT: str(8 * MIB),
            ENV_TOTAL_WORKSPACE: str(120 * MIB),
            ENV_BENCHMARK_DB: "/tmp/db.json",
            ENV_BENCHMARK_DEVICES: "4",
        }
        opts = Options.from_env(env)
        assert opts.policy == BatchSizePolicy.ALL
        assert opts.workspace_limit == 8 * MIB
        assert opts.total_workspace == 120 * MIB
        assert opts.use_wd
        assert opts.benchmark_db == "/tmp/db.json"
        assert opts.benchmark_devices == 4

    def test_paper_policy_spelling(self):
        opts = Options.from_env({ENV_POLICY: "powerOfTwo"})
        assert opts.policy == BatchSizePolicy.POWER_OF_TWO

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            Options.from_env({ENV_POLICY: "fastest"})

    def test_bad_int_rejected(self):
        with pytest.raises(ValueError):
            Options.from_env({ENV_WORKSPACE_LIMIT: "lots"})

    def test_reads_real_environ_by_default(self, monkeypatch):
        monkeypatch.setenv(ENV_POLICY, "undivided")
        assert Options.from_env().policy == BatchSizePolicy.UNDIVIDED
