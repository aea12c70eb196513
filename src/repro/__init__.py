"""mu-cuDNN reproduction (CLUSTER 2018).

A full-system reproduction of *"mu-cuDNN: Accelerating Deep Learning
Frameworks with Micro-Batching"* (Oyama, Ben-Nun, Hoefler, Matsuoka):

* :mod:`repro.cudnn`      -- simulated cuDNN substrate (real numpy kernels
  + deterministic analytic performance/workspace models);
* :mod:`repro.core`       -- mu-cuDNN itself: WR dynamic programming, WD
  0-1 ILP with Pareto pruning, caching, micro-batched execution, and the
  transparent ``UcudnnHandle`` wrapper;
* :mod:`repro.frameworks` -- a mini Caffe/TF-like framework + model zoo;
* :mod:`repro.memory`     -- per-layer memory accounting;
* :mod:`repro.parallel`   -- multi-GPU benchmark evaluation;
* :mod:`repro.harness`    -- one experiment per paper figure/table;
* :mod:`repro.telemetry`  -- spans, metrics, and exporters over all of it
  (off by default; see ``telemetry.enable`` / ``telemetry.capture``);
* :mod:`repro.observability` -- decision provenance: per-kernel "why this
  configuration" logs and explain/diff reports (also off by default).

Quickstart::

    from repro.core import UcudnnHandle, Options, BatchSizePolicy
    from repro.frameworks.model_zoo import build_alexnet
    from repro.frameworks import time_net
    from repro.units import MIB

    handle = UcudnnHandle(options=Options(
        policy=BatchSizePolicy.POWER_OF_TWO, workspace_limit=64 * MIB))
    net = build_alexnet(batch=256).setup(handle, workspace_limit=64 * MIB)
    report = time_net(net)

``import repro`` loads no subpackage and re-exports nothing but
``__version__``: import each name from the module that defines it (the
``repro.UcudnnHandle``-style shortcuts and ``repro.core``-style attribute
access without an import are gone).  :mod:`repro.core` and
:mod:`repro.cudnn` still offer their public names, but load each one's
submodule on first access.  That keeps a plan server's start-up down to
the modules serving calls: a warm server answering from its store loads
neither numpy nor the solver stack, which load on its first solve.

See README.md and DESIGN.md for the full tour.
"""

__version__ = "1.0.0"
