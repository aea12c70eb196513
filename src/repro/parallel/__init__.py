"""Parallel substrates: multi-GPU benchmark evaluation and data-parallel
training simulation (the paper's introduction motivation).

Import from the submodules -- :mod:`repro.parallel.evaluator`,
:mod:`repro.parallel.data_parallel` and :mod:`repro.parallel.scheduler`.
The package loads none of them, so the cluster router's use of
:func:`~repro.parallel.scheduler.schedule_lpt` does not load the framework
that the data-parallel model reads its timing reports from.
"""
