"""Exception hierarchy for the mu-cuDNN reproduction.

The simulated cuDNN substrate mirrors cuDNN's error reporting model: C cuDNN
returns ``cudnnStatus_t`` codes, which deep learning frameworks convert into
exceptions.  Here the substrate raises :class:`CudnnStatusError` subclasses
directly, carrying the equivalent status code (see :mod:`repro.cudnn.status`).

The optimizer layers (``repro.core``) raise :class:`UcudnnError` subclasses
for problems in the micro-batching machinery itself, so callers can
distinguish "the simulated library rejected this call" from "the optimizer was
misused".
"""

from __future__ import annotations

import json
import os
import pathlib


class ReproError(Exception):
    """Base class for every exception raised by this package."""


# ---------------------------------------------------------------------------
# cuDNN-substrate errors
# ---------------------------------------------------------------------------


class CudnnStatusError(ReproError):
    """A simulated cuDNN call failed with a non-success status.

    Attributes
    ----------
    status:
        The :class:`repro.cudnn.status.Status` value that a real cuDNN call
        would have returned.
    """

    def __init__(self, status, message: str = ""):
        self.status = status
        super().__init__(f"{getattr(status, 'name', status)}: {message}" if message else str(status))


class BadParamError(CudnnStatusError):
    """Equivalent of ``CUDNN_STATUS_BAD_PARAM`` (invalid argument)."""


class NotSupportedError(CudnnStatusError):
    """Equivalent of ``CUDNN_STATUS_NOT_SUPPORTED``.

    Raised when an algorithm cannot handle the given layer geometry (e.g.
    Winograd with a 5x5 filter, FFT with stride > 1) -- exactly the condition
    real cuDNN reports through this status.
    """


class AllocFailedError(CudnnStatusError):
    """Equivalent of ``CUDNN_STATUS_ALLOC_FAILED`` (device memory exhausted)."""


class ExecutionFailedError(CudnnStatusError):
    """Equivalent of ``CUDNN_STATUS_EXECUTION_FAILED``."""


class WorkspaceTooSmallError(BadParamError):
    """The provided workspace is smaller than the algorithm requires.

    cuDNN reports this via ``CUDNN_STATUS_BAD_PARAM`` from the convolution
    entry points; we keep a dedicated subclass because the whole paper is
    about this failure mode.
    """

    def __init__(self, status, required: int, provided: int, message: str = ""):
        self.required = int(required)
        self.provided = int(provided)
        detail = f"workspace too small: required={required} B, provided={provided} B"
        if message:
            detail = f"{detail} ({message})"
        super().__init__(status, detail)


# ---------------------------------------------------------------------------
# mu-cuDNN (optimizer-layer) errors
# ---------------------------------------------------------------------------


class UcudnnError(ReproError):
    """Base class for errors in the micro-batching optimizer layers."""


class OptimizationError(UcudnnError):
    """An optimizer (WR/WD) could not produce a feasible configuration."""


class InfeasibleError(OptimizationError):
    """No configuration satisfies the workspace constraint."""


class SolverError(UcudnnError):
    """The ILP/MCKP solver failed or was driven with inconsistent inputs."""


class CacheError(UcudnnError):
    """The benchmark/configuration cache is corrupt or unusable."""


class PersistenceError(UcudnnError):
    """Base class for errors in the persistent plan/benchmark store layer."""


class SnapshotCorruptError(PersistenceError):
    """A snapshot file is unreadable, truncated, or structurally invalid.

    Raised instead of the raw ``KeyError``/``TypeError``/``JSONDecodeError``
    a malformed document would otherwise produce, so operators can tell "the
    snapshot is damaged" from "the loader has a bug".
    """


class SnapshotVersionError(PersistenceError):
    """A snapshot's schema version is not the one this build reads.

    Version rejection is explicit and loud: silently loading a future (or
    ancient) schema could resurrect plans whose meaning has drifted.
    """


class MergeConflictError(PersistenceError):
    """Snapshot merge found same-key-different-plan under policy ``error``.

    The other policies (``keep-local``/``keep-newer``) resolve conflicts and
    report them; ``error`` is for fleets that treat divergent plans for one
    ``(gpu, kernel, policy, limit)`` key as a deployment bug.
    """


class ServiceError(UcudnnError):
    """Base class for errors raised by the plan-compilation service layer."""


class ServiceOverloadedError(ServiceError):
    """The plan service refused admission: its request queue is full.

    Raised *synchronously* at submission time (admission control, not a
    deadline): callers see backpressure immediately instead of queueing
    behind work the service cannot keep up with, and can retry, shed load,
    or fall back to solving in-process.
    """


class DeadlineExceededError(ServiceError):
    """A plan request's deadline expired and no fallback plan was possible.

    The service normally degrades a timed-out solve to the ``undivided``
    policy (plain-cuDNN semantics); this error is raised only when that
    fallback is disabled or itself infeasible, so callers never silently
    lose the deadline they asked for.
    """


class ClusterError(ServiceError):
    """A sharded cluster could not route a request.

    Raised when a request's routing hint names a shard or device the
    cluster's shard map does not contain -- a client/deployment mismatch,
    not an overload, so it is its own type rather than backpressure.
    """


class WireError(ServiceError):
    """Base class for errors in the wire-protocol (out-of-process) layer."""


class WireProtocolError(WireError):
    """A frame or envelope violated the wire protocol.

    Covers truncated frames, oversized length prefixes, undecodable JSON,
    envelope version mismatches, and unknown request types -- everything
    that means "the bytes on the socket are not a conversation this
    protocol version can have".
    """


class RemoteError(WireError):
    """A server-side failure whose type has no local wire mapping.

    The wire protocol maps taxonomy errors back to their real classes; any
    remaining server exception arrives as this type, carrying the remote
    class name and message so nothing is silently swallowed.
    """


class FrameworkError(ReproError):
    """Errors raised by the mini deep-learning framework substrate."""


class ShapeError(FrameworkError):
    """Tensor shapes are inconsistent with the layer's expectations."""


def decode_json(
    source: "str | bytes | os.PathLike[str]", error: type[ReproError], what: str
) -> object:
    """Parse one JSON document, every decode failure raised as ``error``.

    The one decode path of the benchmark DB, plan snapshots and wire
    envelopes.  ``source`` is text, UTF-8 bytes or a UTF-8 file, read here
    so that only its text and the document are in memory at once (a file
    that cannot be read raises its ``OSError`` for the caller to report).
    Bytes that are not UTF-8, a blank document, malformed JSON and a
    document nested too deeply for the parser (a few kilobytes of ``[``)
    all raise ``error(f"{what}: {reason}")`` -- never a
    ``UnicodeDecodeError`` or ``RecursionError`` traceback.
    """
    try:
        if isinstance(source, os.PathLike):
            source = pathlib.Path(source).read_text(encoding="utf-8")
        elif isinstance(source, bytes):
            source = source.decode("utf-8")
        if not source or source.isspace():
            raise error(f"{what}: the document is empty")
        return json.loads(source)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what}: {exc}") from exc
