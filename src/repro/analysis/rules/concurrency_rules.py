"""CONC001-CONC004 -- the interprocedural concurrency contract.

All four rules are views over one shared :class:`ConcurrencyModel`
(:mod:`repro.analysis.concurrency`), built once per lint run and memoized
on the :class:`~repro.analysis.context.TreeContext`.  The model resolves
lock objects to stable identities and level names, propagates held-lock
sets through ``with`` blocks and call edges, and derives the
may-hold-while-acquiring lock graph that the runtime sanitizer
(``--sanitize-locks``) is checked against in CI.

The lock hierarchy itself -- which levels exist and which may legitimately
cover blocking work -- is declared in ``[tool.reprolint.locks]`` and
documented in DESIGN.md section 14.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.concurrency import ConcurrencyModel, analyze_tree
from repro.analysis.context import TreeContext
from repro.analysis.registry import register
from repro.analysis.rules.base import Rule
from repro.analysis.violations import Violation


class _ConcRule(Rule):
    """Shared plumbing: fetch the memoized model, report own findings."""

    whole_tree = True
    default_severity = "error"

    def check_tree(self, tree: TreeContext) -> Iterator[Violation]:
        model: ConcurrencyModel = analyze_tree(tree)
        for finding in model.findings_for(self.id):
            yield self.tree_violation(
                finding.file, finding.line, 0, finding.message
            )


@register
class LockOrderCycleRule(_ConcRule):
    id = "CONC001"
    name = "lock-order-cycle"
    invariant = (
        "the may-hold-while-acquiring relation over lock levels is acyclic "
        "(and non-reentrant levels are never re-acquired while held)"
    )
    rationale = (
        "two threads taking the same pair of locks in opposite orders is "
        "the classic deadlock; with worker pools, coalesced solves, the "
        "wire server, and cache listeners all holding locks, only an "
        "acyclic lock hierarchy makes deadlock freedom checkable"
    )
    fix = (
        "restructure so locks are always taken in hierarchy order (see "
        "DESIGN.md section 14): release the lower lock first, snapshot the "
        "state you need, or split the lock"
    )


@register
class BlockingUnderLockRule(_ConcRule):
    id = "CONC002"
    name = "blocking-under-lock"
    invariant = (
        "no blocking call (solver entry, socket I/O, time.sleep, file "
        "I/O, Future.result) runs while holding a lock whose level is not "
        "in [tool.reprolint.locks] blocking-allowed"
    )
    rationale = (
        "a lock held across blocking work stalls every other thread that "
        "needs it for the full duration -- the contention cliff the "
        "micro-batch serving stack exists to avoid; locks that exist to "
        "serialize blocking work (solver, snapshot writers) are declared "
        "blocking-allowed instead of suppressed ad hoc"
    )
    fix = (
        "move the blocking call outside the `with` block (snapshot state "
        "under the lock, do the slow work after release), or -- for a lock "
        "whose *purpose* is serializing that work -- add its level to "
        "blocking-allowed in [tool.reprolint.locks]"
    )


@register
class CallbackUnderLockRule(_ConcRule):
    id = "CONC003"
    name = "callback-under-lock"
    invariant = (
        "user callbacks/listeners/hooks are never invoked while holding a "
        "lock"
    )
    rationale = (
        "a callback is arbitrary user code: it may take arbitrarily long "
        "or re-enter the component and try to take the same lock, a "
        "self-deadlock no hierarchy can excuse; the cache's invalidation "
        "listeners established the collect-under-lock, fire-after-release "
        "pattern this rule enforces"
    )
    fix = (
        "copy the callback list (and its arguments) while holding the "
        "lock, then invoke every callback after release -- see "
        "BenchmarkCache.put_benchmarks for the canonical shape"
    )


@register
class SplitAcquireReleaseRule(_ConcRule):
    id = "CONC004"
    name = "split-acquire-release"
    invariant = (
        "a lock acquired with bare .acquire() is released by the same "
        "function (context-manager delegation methods are exempt)"
    )
    rationale = (
        "acquire-here-release-elsewhere hides the critical section from "
        "both readers and this analyzer: no scope bounds the hold, and "
        "one missed error path leaks the lock forever"
    )
    fix = (
        "use `with lock:` so the critical section is a lexical scope; if "
        "an object genuinely owns a lock across calls, wrap it in a "
        "context manager (__enter__/__exit__ are exempt)"
    )
