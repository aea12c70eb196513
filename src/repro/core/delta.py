"""The part of incremental re-optimization a plan server needs unsolved.

:class:`~repro.core.tensor_solve.DeltaSolver` re-solves only the kernels a
benchmark refresh touched.  A plan server reads two things about it before
it has solved anything: the kernel family a refresh invalidates
(:func:`geometry_family`, matched against the keys of stored plans) and
the solver's counters (:class:`DeltaStats`, reported as zeros until a
solver exists).  They live here, apart from the solver, because this
module imports no numpy; :mod:`repro.core.tensor_solve` re-exports both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_BATCH_COMPONENT = re.compile(r"n\d+")


def geometry_family(cache_key: str) -> str:
    """A geometry cache key with its mini-batch component wildcarded.

    Benchmark rows are stored per *micro*-batch geometry
    (``forward:n8c64...``) while plans are keyed by the *mini*-batch
    geometry (``forward:n32c64...``); both belong to one kernel family.
    Invalidation (bench rows changed at any size) must therefore match on
    the batch-normalized key, which this helper produces
    (``forward:n*c64...``).
    """
    return _BATCH_COMPONENT.sub("n*", cache_key, count=1)


@dataclass
class DeltaStats:
    """Monotonic counters of one
    :class:`~repro.core.tensor_solve.DeltaSolver` (read freely)."""

    #: ``solve_network`` calls answered entirely from cached buckets.
    full_solves_avoided: int = 0
    #: Calls that re-solved a strict subset and recombined with the cache.
    delta_solves: int = 0
    #: Calls that had to solve every kernel (cold start or total change).
    full_solves: int = 0
    kernels_solved: int = 0
    kernels_reused: int = 0
    #: Cache entries dropped because a fingerprint or an explicit
    #: invalidation said the underlying bench rows changed.
    invalidations: int = 0

    def as_dict(self) -> "dict[str, int]":
        return {
            "full_solves_avoided": self.full_solves_avoided,
            "delta_solves": self.delta_solves,
            "full_solves": self.full_solves,
            "kernels_solved": self.kernels_solved,
            "kernels_reused": self.kernels_reused,
            "invalidations": self.invalidations,
        }
