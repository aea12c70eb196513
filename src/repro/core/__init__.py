"""mu-cuDNN: the paper's contribution.

Micro-batching optimizer layers over the simulated cuDNN substrate:
configuration types, batch-size policies, the WR dynamic program, the
desirable-set Pareto pruning, the WD 0-1 ILP (solved by the MCKP merge),
benchmark/configuration caching, micro-batched execution, and the
transparent ``UcudnnHandle`` interposition wrapper.

Import each name from the submodule that defines it, e.g.
:class:`~repro.core.handle.UcudnnHandle`, :class:`~repro.core.options.Options`,
:class:`~repro.core.policies.BatchSizePolicy` and
:func:`~repro.core.optimizer.optimize_network_wr`.  The package loads none
of them, so importing a numpy-free submodule such as
:mod:`repro.core.cache` does not load the solver stack.
"""
