"""Runtime options for mu-cuDNN (env-var driven, paper section III-D).

The paper's library is configured without code changes through environment
variables; we reproduce that surface:

=============================  ==============================================
``UCUDNN_BATCH_SIZE_POLICY``   ``all`` / ``powerOfTwo`` / ``undivided``
                               (default ``powerOfTwo``)
``UCUDNN_WORKSPACE_LIMIT``     per-kernel WR workspace limit in bytes
                               (default 64 MiB, Caffe2's default, section IV)
``UCUDNN_TOTAL_WORKSPACE_SIZE`` total pool in bytes; setting it switches the
                               optimizer from WR to WD (section III-E)
``UCUDNN_BENCHMARK_DB``        path of the file-based benchmark database
``UCUDNN_BENCHMARK_DEVICES``   number of (homogeneous) GPUs used for the
                               parallel micro-configuration evaluation
``UCUDNN_DETERMINISTIC``       ``1`` restricts selection to bitwise-
                               reproducible algorithms (no atomics-based
                               backward kernels)
=============================  ==============================================

WD always solves with the exact MCKP solver (:mod:`repro.core.mckp`).
Programmatic construction is equally supported (``Options(...)``); the
environment is only consulted by :meth:`Options.from_env`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.policies import BatchSizePolicy
from repro.units import CAFFE2_DEFAULT_WORKSPACE

ENV_POLICY = "UCUDNN_BATCH_SIZE_POLICY"
ENV_WORKSPACE_LIMIT = "UCUDNN_WORKSPACE_LIMIT"
ENV_TOTAL_WORKSPACE = "UCUDNN_TOTAL_WORKSPACE_SIZE"
ENV_BENCHMARK_DB = "UCUDNN_BENCHMARK_DB"
ENV_BENCHMARK_DEVICES = "UCUDNN_BENCHMARK_DEVICES"
ENV_DETERMINISTIC = "UCUDNN_DETERMINISTIC"


@dataclass
class Options:
    """Resolved mu-cuDNN options."""

    policy: BatchSizePolicy = BatchSizePolicy.POWER_OF_TWO
    workspace_limit: int = CAFFE2_DEFAULT_WORKSPACE
    total_workspace: int | None = None
    benchmark_db: str | None = None
    benchmark_devices: int = 1
    deterministic: bool = False

    def __post_init__(self):
        if self.workspace_limit < 0:
            raise ValueError("workspace_limit must be >= 0")
        if self.total_workspace is not None and self.total_workspace < 0:
            raise ValueError("total_workspace must be >= 0")
        if self.benchmark_devices < 1:
            raise ValueError("benchmark_devices must be >= 1")

    @property
    def use_wd(self) -> bool:
        """WD mode is enabled by providing a total workspace pool."""
        return self.total_workspace is not None

    @classmethod
    def from_env(cls, env: dict | None = None) -> "Options":
        """Build options from (a copy of) the process environment."""
        env = os.environ if env is None else env
        kwargs: dict = {}
        if ENV_POLICY in env:
            kwargs["policy"] = BatchSizePolicy.parse(env[ENV_POLICY])
        if ENV_WORKSPACE_LIMIT in env:
            kwargs["workspace_limit"] = int(env[ENV_WORKSPACE_LIMIT])
        if ENV_TOTAL_WORKSPACE in env:
            kwargs["total_workspace"] = int(env[ENV_TOTAL_WORKSPACE])
        if ENV_BENCHMARK_DB in env:
            kwargs["benchmark_db"] = env[ENV_BENCHMARK_DB]
        if ENV_BENCHMARK_DEVICES in env:
            kwargs["benchmark_devices"] = int(env[ENV_BENCHMARK_DEVICES])
        if ENV_DETERMINISTIC in env:
            kwargs["deterministic"] = env[ENV_DETERMINISTIC].strip() not in (
                "", "0", "false", "False", "no",
            )
        return cls(**kwargs)
