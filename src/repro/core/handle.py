"""``UcudnnHandle_t`` -- the transparent interposition layer (section III-D/E).

The paper's deployment story: replace ``cudnnHandle_t`` with
``UcudnnHandle_t`` (about three lines in Caffe) and keep calling the cuDNN
API.  The wrapper then:

1. intercepts ``cudnnGetConvolution*Algorithm``: records the kernel's
   parameters and the framework's workspace limit, and returns a *virtual*
   algorithm ID with **zero** required workspace -- so the framework never
   allocates its own workspace and never errors;
2. intercepts ``cudnnConvolution*``: on first use it runs the optimizer
   (WR immediately per kernel; WD over every kernel registered so far, per
   section III-E's "first convolution call triggers the optimization"),
   allocates the real workspace itself, and executes the micro-batched
   configuration;
3. delegates everything else to the wrapped ``cudnnHandle_t`` (the paper's
   cast operator) -- here via ``__getattr__``.

In this Python rendering, the substrate's API functions
(:mod:`repro.cudnn.api`) check for the marker attribute
``UCUDNN_INTERPOSE`` and route to the wrapper's methods, which is the
moral equivalent of the C symbol interposition: frameworks written against
the plain cuDNN API run unmodified on a ``UcudnnHandle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro.telemetry as telemetry
from repro.core import convolution as uconv
from repro.core.benchmarker import benchmark_kernel
from repro.core.cache import BenchmarkCache
from repro.core.config import Configuration
from repro.core.options import Options
from repro.core.pareto import desirable_set
from repro.core.wd import WDKernel, WDResult, solve_from_kernels
from repro.core.wr import optimize_from_benchmark
from repro.cudnn import api
from repro.cudnn.descriptors import (
    ConvGeometry,
    ConvolutionDescriptor,
    FilterDescriptor,
    TensorDescriptor,
)
from repro.cudnn.device import Gpu
from repro.cudnn.enums import Algo, ConvType
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.cudnn.perfmodel import PerfResult
from repro.cudnn.status import Status
from repro.errors import UcudnnError


@dataclass(frozen=True)
class VirtualAlgo:
    """The virtual algorithm ID mu-cuDNN hands back to the framework.

    Frameworks treat algorithm IDs as opaque tokens they pass straight back
    into ``cudnnConvolution*``; this object plays that role and lets the
    wrapper recognize its own kernels.
    """

    conv_type: ConvType

    def __int__(self) -> int:  # looks like an algo enum value if coerced
        return -1

    @property
    def name(self) -> str:
        return f"UCUDNN_VIRTUAL_{self.conv_type.short}"


class UcudnnHandle:
    """Drop-in replacement for :class:`~repro.cudnn.handle.CudnnHandle`."""

    #: Marker checked by :mod:`repro.cudnn.api` for interposition.
    UCUDNN_INTERPOSE = True

    def __init__(
        self,
        gpu: Gpu | None = None,
        mode: ExecMode = ExecMode.NUMERIC,
        options: Options | None = None,
        cache: BenchmarkCache | None = None,
        jitter: float = 0.0,
        transient_workspace: bool = False,
    ) -> None:
        self.inner = CudnnHandle(gpu=gpu, mode=mode, jitter=jitter)
        #: Caffe keeps one persistent workspace per layer (False); TF-style
        #: scratch allocation acquires/releases around every kernel (True).
        self.transient_workspace = transient_workspace
        self.options = options if options is not None else Options.from_env()
        if cache is not None:
            self.cache = cache
        else:
            self.cache = BenchmarkCache(self.options.benchmark_db)
        #: Workspace limit the framework supplied per registered kernel.
        self._limits: dict[ConvGeometry, int | None] = {}
        #: Registration order (WD wants deterministic kernel ordering).
        self._registered: list[ConvGeometry] = []
        self._frozen = False
        #: Optimized configurations per kernel geometry.
        self._configs: dict[ConvGeometry, Configuration] = {}
        #: Live workspace allocation ids per kernel geometry.
        self._workspaces: dict[ConvGeometry, int] = {}
        self.wd_result: WDResult | None = None
        #: Simulated seconds spent benchmarking (the optimization cost the
        #: paper reports as 34.16 s for `all` vs 3.82 s for `powerOfTwo`).
        self.benchmark_time = 0.0

    # -- the cast operator: delegate everything else to the inner handle ------

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    # -- interposed cuDNN API ---------------------------------------------------

    def get_algorithm(
        self,
        g: ConvGeometry,
        preference: api.AlgoPreference | None = None,
        memory_limit: int | None = None,
    ) -> VirtualAlgo:
        """Interposed ``cudnnGetConvolution*Algorithm``.

        Registers the kernel and returns a virtual algorithm; after
        :meth:`freeze` (the paper's post-net-init library call for Caffe)
        repeated registrations are ignored.
        """
        if not self._frozen:
            if g not in self._limits:
                self._registered.append(g)
            self._limits[g] = memory_limit
        return VirtualAlgo(g.conv_type)

    def find_algorithms(self, g: ConvGeometry) -> list[PerfResult]:
        """Interposed ``cudnnFindConvolution*Algorithm``.

        Registers the kernel and reports a single virtual entry with zero
        workspace, satisfying the interface contract so frameworks that
        benchmark (rather than Get) still hand control to mu-cuDNN.
        """
        self.get_algorithm(g)
        return [PerfResult(VirtualAlgo(g.conv_type), Status.SUCCESS, 0.0, 0)]

    def get_workspace_size(self, g: ConvGeometry, algo: Algo | VirtualAlgo) -> int:
        """Interposed ``cudnnGetConvolution*WorkspaceSize``: zero for virtual
        algorithms (mu-cuDNN owns the workspace), passthrough otherwise."""
        if isinstance(algo, VirtualAlgo):
            return 0
        return api.get_workspace_size(self.inner, g, algo)

    def freeze(self) -> None:
        """Stop accepting kernel registrations (Caffe integration hook)."""
        self._frozen = True

    # -- optimization -----------------------------------------------------------

    def _config_cache_key(self, g: ConvGeometry, limit: int, scheme: str) -> str:
        if self.options.deterministic:
            scheme = f"{scheme}:det"
        return self.cache.config_key(
            self.inner.gpu.spec.name, g, self.options.policy.value, limit, scheme
        )

    def _optimize_wr(self, g: ConvGeometry) -> Configuration:
        limit = self._limits.get(g)
        if limit is None:
            limit = self.options.workspace_limit
        key = self._config_cache_key(g, limit, "wr")
        cached = self.cache.get_configuration(key)
        if cached is not None:
            return cached
        with telemetry.span(
            "ucudnn.optimize", scheme="wr", kernel=g.cache_key(),
            workspace_limit=limit,
        ):
            bench = benchmark_kernel(
                self.inner, g, self.options.policy, cache=self.cache,
                deterministic_only=self.options.deterministic,
            )
            self.benchmark_time += bench.benchmark_time
            config = optimize_from_benchmark(bench, limit)
        self.cache.put_configuration(key, g.conv_type, config)
        return config

    def _optimize_wd(self) -> None:
        """Run WD over every registered kernel (first convolution call)."""
        total = self.options.total_workspace
        assert total is not None
        with telemetry.span(
            "ucudnn.optimize", scheme="wd", kernels=len(self._registered),
            total_workspace=total,
        ):
            kernels: list[WDKernel] = []
            for g in self._registered:
                bench = benchmark_kernel(
                    self.inner, g, self.options.policy, cache=self.cache,
                    deterministic_only=self.options.deterministic,
                )
                self.benchmark_time += bench.benchmark_time
                front = desirable_set(bench, workspace_limit=total)
                kernels.append(
                    WDKernel(key=g.cache_key(), geometry=g, benchmark=bench, desirable=front)
                )
            result = solve_from_kernels(kernels, total)
        self.wd_result = result
        for kernel in kernels:
            self._configs[kernel.geometry] = result.assignments[kernel.key]
        self.freeze()

    def configuration_for(self, g: ConvGeometry) -> Configuration:
        """The (lazily computed) optimized configuration of a kernel."""
        config = self._configs.get(g)
        if config is not None:
            return config
        if self.options.use_wd:
            if g not in self._limits:
                # A kernel the framework never registered: register late and
                # redo WD (conservative; real frameworks always register).
                self._frozen = False
                self.wd_result = None
                self._configs.clear()
                self.release_workspaces()
                self.get_algorithm(g)
            self._optimize_wd()
            return self._configs[g]
        config = self._optimize_wr(g)
        self._configs[g] = config
        return config

    def _workspace_for(self, g: ConvGeometry, config: Configuration) -> int:
        """Ensure the kernel's workspace is available; return its size.

        Persistent mode keeps one slot per kernel alive (Caffe); transient
        mode charges the allocator only for the duration of the execution
        (TF scratch allocation), which :meth:`_run_with_workspace` handles.
        """
        if self.transient_workspace:
            return config.workspace
        if g not in self._workspaces:
            self._workspaces[g] = self.inner.gpu.memory.alloc(
                config.workspace, tag="workspace"
            )
            telemetry.count("workspace.allocations",
                            help="workspace slots allocated")
            telemetry.count("workspace.allocated_bytes", config.workspace,
                            help="workspace bytes allocated")
        return config.workspace

    def _run_with_workspace(
        self, config: Configuration, fn: Callable[[], np.ndarray | None]
    ) -> np.ndarray | None:
        """Run ``fn`` with a transient workspace allocation when enabled."""
        if not self.transient_workspace:
            return fn()
        memory = self.inner.gpu.memory
        ident = memory.alloc(config.workspace, tag="workspace")
        telemetry.count("workspace.allocations", help="workspace slots allocated")
        telemetry.count("workspace.allocated_bytes", config.workspace,
                        help="workspace bytes allocated")
        try:
            return fn()
        finally:
            memory.free(ident)

    def release_workspaces(self) -> None:
        """Free every workspace slot (e.g. between phases)."""
        for ident in self._workspaces.values():
            self.inner.gpu.memory.free(ident)
        self._workspaces.clear()

    # -- interposed execution -----------------------------------------------------

    def convolution_forward(
        self,
        x_desc: TensorDescriptor,
        x: np.ndarray | None,
        w_desc: FilterDescriptor,
        w: np.ndarray | None,
        conv_desc: ConvolutionDescriptor,
        algo: Algo | VirtualAlgo,
        workspace: int,
        y_desc: TensorDescriptor,
        y: np.ndarray | None = None,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> np.ndarray | None:
        g = api.make_geometry(ConvType.FORWARD, x_desc, w_desc, conv_desc, y_desc)
        config = self.configuration_for(g)
        ws = self._workspace_for(g, config)
        return self._run_with_workspace(config, lambda: uconv.forward(
            self.inner, config, x_desc, x, w_desc, w, conv_desc, ws,
            y_desc, y, alpha=alpha, beta=beta,
        ))

    def convolution_backward_data(
        self,
        w_desc: FilterDescriptor,
        w: np.ndarray | None,
        dy_desc: TensorDescriptor,
        dy: np.ndarray | None,
        conv_desc: ConvolutionDescriptor,
        algo: Algo | VirtualAlgo,
        workspace: int,
        dx_desc: TensorDescriptor,
        dx: np.ndarray | None = None,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> np.ndarray | None:
        g = api.make_geometry(ConvType.BACKWARD_DATA, dx_desc, w_desc, conv_desc, dy_desc)
        config = self.configuration_for(g)
        ws = self._workspace_for(g, config)
        return self._run_with_workspace(config, lambda: uconv.backward_data(
            self.inner, config, w_desc, w, dy_desc, dy, conv_desc, ws,
            dx_desc, dx, alpha=alpha, beta=beta,
        ))

    def convolution_backward_filter(
        self,
        x_desc: TensorDescriptor,
        x: np.ndarray | None,
        dy_desc: TensorDescriptor,
        dy: np.ndarray | None,
        conv_desc: ConvolutionDescriptor,
        algo: Algo | VirtualAlgo,
        workspace: int,
        dw_desc: FilterDescriptor,
        dw: np.ndarray | None = None,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> np.ndarray | None:
        g = api.make_geometry(ConvType.BACKWARD_FILTER, x_desc, dw_desc, conv_desc, dy_desc)
        config = self.configuration_for(g)
        ws = self._workspace_for(g, config)
        return self._run_with_workspace(config, lambda: uconv.backward_filter(
            self.inner, config, x_desc, x, dy_desc, dy, conv_desc, ws,
            dw_desc, dw, alpha=alpha, beta=beta,
        ))

    # -- reporting ---------------------------------------------------------------

    def configurations(self) -> dict[ConvGeometry, Configuration]:
        return dict(self._configs)

    def total_workspace_bytes(self) -> int:
        """Sum of live workspace slots (the Fig. 10 memory accounting)."""
        return sum(
            self._configs[g].workspace for g in self._workspaces
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "WD" if self.options.use_wd else "WR"
        return (
            f"UcudnnHandle({mode}, policy={self.options.policy.value}, "
            f"kernels={len(self._configs)})"
        )


def raise_if_virtual(algo: object) -> None:
    """Guard for code paths that must never see a virtual algorithm."""
    if isinstance(algo, VirtualAlgo):
        raise UcudnnError(
            "virtual mu-cuDNN algorithm leaked into a plain cuDNN handle; "
            "pass the UcudnnHandle that issued it"
        )


# Backward-compatible alias matching the paper's C type name.
UcudnnHandle_t = UcudnnHandle
