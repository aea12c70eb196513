"""Experiment harness: one entry point per paper figure/table.

The experiments live in :mod:`repro.harness.experiments` and the table type
in :mod:`repro.harness.tables`; import them from there.  The package itself
loads neither, so pulling in :class:`~repro.harness.tables.Table` (as the
soak driver does) does not load the experiment registry's dependencies.
"""
