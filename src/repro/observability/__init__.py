"""Decision provenance: per-kernel "why this configuration" logs + reports.

Built on the same session pattern as :mod:`repro.telemetry` (and typically
enabled alongside it): a module-global recorder that instrumented optimizer
sites fetch with one call, receiving the shared falsy
:data:`~repro.observability.provenance.NULL_RECORDER` when disabled -- so
provenance is **off by default and zero-overhead when off**.

Enable it explicitly::

    from repro import observability
    from repro.observability import report

    recorder = observability.enable()     # or enable(clock=ManualClock())
    ...  run any optimizer ...
    built = report.build_report(recorder, model="alexnet")
    print(report.render_text(built))
    observability.disable()

or scoped, restoring whatever was active before::

    with observability.capture() as recorder:
        ...

The event taxonomy lives in :mod:`repro.observability.provenance`, the
text/JSON/HTML renderers and the ``--diff`` drift report in
:mod:`repro.observability.report`; both are documented in DESIGN.md
("Observability").  The harness front-end is
``python -m repro.harness.runner explain``.  The package does not import
:mod:`~repro.observability.report`; import it where reports are rendered.
"""

from __future__ import annotations

import contextlib

from repro.observability.provenance import (
    NULL_RECORDER,
    PROVENANCE_SCHEMA_VERSION,
    DecisionEvent,
    NullRecorder,
    ProvenanceRecorder,
    configuration_detail,
)

__all__ = [
    "DecisionEvent",
    "NULL_RECORDER",
    "NullRecorder",
    "PROVENANCE_SCHEMA_VERSION",
    "ProvenanceRecorder",
    "capture",
    "configuration_detail",
    "disable",
    "enable",
    "enabled",
    "recorder",
    "session",
]

#: The active recorder, or ``None`` when provenance is disabled.
_recorder: ProvenanceRecorder | None = None


def enable(clock=None) -> ProvenanceRecorder:
    """Activate provenance recording globally; returns the fresh recorder."""
    global _recorder
    _recorder = ProvenanceRecorder(clock=clock)
    return _recorder


def disable() -> ProvenanceRecorder | None:
    """Deactivate recording; returns the ended recorder for late rendering."""
    global _recorder
    ended, _recorder = _recorder, None
    return ended


def enabled() -> bool:
    return _recorder is not None


def session() -> ProvenanceRecorder | None:
    """The active recorder, or ``None``."""
    return _recorder


def recorder() -> ProvenanceRecorder | NullRecorder:
    """The hot-path accessor: active recorder, or the shared falsy null.

    Instrumented sites do ``rec = observability.recorder()`` once per pass
    and guard every recording block with ``if rec:`` -- one global check and
    one truthiness test when disabled, nothing else.
    """
    r = _recorder
    if r is None:
        return NULL_RECORDER
    return r


@contextlib.contextmanager
def capture(clock=None):
    """Scoped recording: enable on entry, restore the prior state on exit."""
    global _recorder
    previous = _recorder
    _recorder = ProvenanceRecorder(clock=clock)
    try:
        yield _recorder
    finally:
        _recorder = previous
