"""Desirable configuration sets -- the Pareto pruning of section III-C1.

The WD optimizer must consider, for every kernel, not just the fastest
configuration under one limit (as WR does) but every configuration that
could be worth picking under *some* share of the global workspace pool.  The
paper defines this as the Pareto front in (execution time x workspace) space
and proves that pruning everything else never removes the ILP optimum:
configurations off the front are dominated, and substituting the dominating
configuration into any ILP solution only improves it.

The front is computed by a modified WR dynamic program whose states are
*sets* of undominated configurations:

    D(0) = { [] }
    D(i) = prune( union over measured m <= i, micro options o at m of
                  { c ⊕ o : c in D(i - m) } )

Pruning intermediate states is safe because both aggregates compose
monotonically: time is a sum and workspace a max of the parts, so a
dominated prefix can only produce dominated completions.

The practical payoff the paper reports: AlexNet kernels keep at most ~68
desirable configurations, versus the ``O(|A|^(B/2))`` full space.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

import numpy as np

import repro.observability as observability
import repro.telemetry as telemetry
from repro.core.benchmarker import KernelBenchmark
from repro.core.config import Configuration, MicroConfig
from repro.errors import OptimizationError

T = TypeVar("T")


def pareto_front(
    items: Iterable[T],
    time_of: Callable[[T], float],
    workspace_of: Callable[[T], float],
) -> list[T]:
    """Undominated subset of ``items`` in (time, workspace) space.

    Weak dominance: ``a`` dominates ``b`` when it is no worse in both
    coordinates and strictly better in at least one.  Of exact ties, the
    first item encountered is kept.  Output is sorted by ascending
    workspace (descending time), the paper's Fig. 8 presentation order.
    """
    ordered = sorted(items, key=lambda it: (workspace_of(it), time_of(it)))
    front: list[T] = []
    best_time = float("inf")
    for item in ordered:
        # Sorted by (ws, time): an item survives iff it strictly beats the
        # best time seen at any smaller-or-equal workspace.
        if time_of(item) < best_time:
            front.append(item)
            best_time = time_of(item)
    return front


def configuration_front(configs: Iterable[Configuration]) -> list[Configuration]:
    """:func:`pareto_front` specialized to configurations."""
    return pareto_front(configs, lambda c: c.time, lambda c: c.workspace)


def _array_front(
    times: np.ndarray, wss: np.ndarray,
    exact_times: Callable[[np.ndarray], list[int]],
) -> np.ndarray:
    """Indices of the Pareto-undominated points (vectorized).

    Sort by (workspace, time); a point survives iff its time strictly beats
    every time at smaller-or-equal workspace, i.e. the running minimum.

    A float tie need not be an exact tie: three 0.01 s micro-batches sum to
    the float 0.03, yet exactly they are 2**-59 s slower than one 0.03 s
    micro-batch.  So where a float time ties the running minimum, exact
    times (``exact_times(indices)``, integers on a common scale) decide.  A
    tie group is the point that lowered the running minimum to a value plus
    every later point tying it; all other points are decided by float time
    (earlier ones are slower, later ones faster at a larger workspace).
    Within a group, the exact front in (workspace, exact time, position)
    order replaces the float decision, so exact ties keep the first point.
    """
    order = np.lexsort((times, wss))
    t_sorted = times[order]
    cummin = np.minimum.accumulate(t_sorted)
    keep = np.empty(len(order), dtype=bool)
    keep[0] = True
    keep[1:] = t_sorted[1:] < cummin[:-1]
    groups: dict[float, list[int]] = {}
    for pos in (np.flatnonzero(t_sorted[1:] == cummin[:-1]) + 1).tolist():
        value = float(cummin[pos - 1])
        if value not in groups:
            # cummin is non-increasing: its first position at this value is
            # where the group's first point lowered it.
            groups[value] = [int(np.searchsorted(-cummin[:pos], -value))]
        groups[value].append(pos)
    for members in groups.values():
        points = order[members]
        best = None
        for _, exact, pos in sorted(
            zip(wss[points].tolist(), exact_times(points), members)
        ):
            keep[pos] = best is None or exact < best
            if keep[pos]:
                best = exact
    return order[keep]


def desirable_set(
    benchmark: KernelBenchmark,
    workspace_limit: int | None = None,
    max_front: int | None = None,
    kernel: str | None = None,
) -> list[Configuration]:
    """All desirable (Pareto-undominated) configurations of one kernel.

    See :func:`_desirable_set` below for the DP itself; this wrapper adds
    the telemetry span and the front-size histogram (the paper's "at most
    ~68 desirable configurations" claim, checkable from any profiled run).
    ``kernel`` optionally names the kernel in provenance events (network
    optimizers pass their stable layer key, e.g. ``"conv2:Forward"``);
    defaults to the geometry cache key.
    """
    with telemetry.span(
        "optimize.pareto",
        kernel=benchmark.geometry.cache_key(),
        policy=benchmark.policy.value,
    ) as tspan:
        front = _desirable_set(benchmark, workspace_limit, max_front)
        tspan.set("front_size", len(front))
        telemetry.observe(
            "pareto.front_size", len(front),
            help="desirable-set sizes per kernel",
            buckets=telemetry.metrics.SIZE_BUCKETS,
        )
    rec = observability.recorder()
    if rec:
        record_pareto_provenance(rec, benchmark, workspace_limit, front, kernel)
    return front


def record_pareto_provenance(
    rec: observability.ProvenanceRecorder,
    benchmark: KernelBenchmark,
    workspace_limit: int | None,
    front: list[Configuration],
    kernel: str | None = None,
) -> None:
    """Post-hoc decision log for one desirable-set pass (provenance on only).

    Replays the per-size first-level pruning against the already-memoized
    benchmark queries to name each rejected algorithm's fate, then records
    the configuration-level front itself.
    """
    key = kernel or benchmark.geometry.cache_key()
    pid = rec.begin_pass(
        "pareto", kernel=key, policy=benchmark.policy.value,
        workspace_limit=workspace_limit,
    )
    for size in benchmark.sizes:
        options = benchmark.micro_options(size, workspace_limit)
        admitted = {(o.algo, o.time, o.workspace) for o in options}
        for res in benchmark.results[size]:
            if (res.algo, res.time, res.workspace) in admitted:
                continue
            if workspace_limit is not None and res.workspace > workspace_limit:
                rec.record(
                    "candidate.rejected.workspace", kernel=key,
                    micro_batch=size, algo=res.algo.name,
                    workspace=res.workspace, workspace_limit=workspace_limit,
                )
                continue
            dominator = next(
                (o for o in options
                 if o.time <= res.time and o.workspace <= res.workspace),
                None,
            )
            rec.record(
                "candidate.dominated", kernel=key,
                micro_batch=size, algo=res.algo.name,
                time=res.time, workspace=res.workspace,
                dominated_by=dominator.algo.name if dominator else None,
                dominated_by_time=dominator.time if dominator else None,
                dominated_by_workspace=dominator.workspace if dominator else None,
            )
    rec.record(
        "front", kernel=key, size=len(front),
        points=[
            {
                "micro_batches": list(c.micro_batch_sizes()),
                "time": c.time,
                "workspace": c.workspace,
            }
            for c in front
        ],
    )
    rec.end_pass(pid, kernel=key, front_size=len(front))


def _desirable_set(
    benchmark: KernelBenchmark,
    workspace_limit: int | None = None,
    max_front: int | None = None,
) -> list[Configuration]:
    """The desirable-set DP (section III-C1).

    Parameters
    ----------
    benchmark:
        The kernel's benchmark table (any policy).
    workspace_limit:
        Optional hard cap -- configurations above it can never be selected
        by the WD ILP (whose pool is this large), so they are excluded from
        the front up front.  ``None`` keeps the full front.
    max_front:
        Optional size cap on intermediate fronts, keeping an evenly-spread
        subset by workspace.  ``None`` (default) is exact; a cap trades
        optimality for speed on very large ``all``-policy problems and is
        *not* used by any experiment that reproduces a paper figure.

    Returns
    -------
    list[Configuration]
        Sorted by ascending workspace; the last element is the fastest.
        Always contains the WR optimum for this limit (the paper notes
        ``WR(B) in D(B)``).

    Notes
    -----
    The DP states are kept as flat numpy arrays with parent pointers and
    configurations are only materialized for the final front -- the ``all``
    policy at mini-batch 256 generates millions of candidate extensions, so
    the per-state work must stay vectorized (see the repository's
    hpc-parallel guides: push the inner loops into numpy).
    """
    batch = benchmark.geometry.n
    micro_options: list[MicroConfig] = []
    for size in benchmark.sizes:
        micro_options.extend(benchmark.micro_options(size, workspace_limit))
    if not micro_options:
        raise OptimizationError(
            f"no algorithm fits workspace limit {workspace_limit} for "
            f"{benchmark.geometry}"
        )
    opt_size = np.array([o.micro_batch for o in micro_options])
    opt_time = np.array([o.time for o in micro_options])
    opt_ws = np.array([o.workspace for o in micro_options], dtype=np.int64)

    # Per-state arrays: time, workspace, and a parent pointer
    # (previous state index i - m, row in that state's front, option id).
    empty = (np.empty(0), np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64))
    fronts: list[tuple] = [empty] * (batch + 1)
    fronts[0] = (np.zeros(1), np.zeros(1, dtype=np.int64), np.full((1, 3), -1, np.int64))
    front_len = np.zeros(batch + 1, dtype=np.int64)
    front_len[0] = 1

    # Exact times for _array_front's float ties: each option time as an
    # integer multiple of the finest power of two among their denominators,
    # so sums are exact.  A candidate walks its parent pointers.
    ratios = [float(t).as_integer_ratio() for t in opt_time]
    finest = max(den for _, den in ratios)
    exact_options = [num * (finest // den) for num, den in ratios]

    def exact_times(links: np.ndarray) -> list[int]:
        out = []
        for state, row, opt_id in links.tolist():
            total = exact_options[opt_id]
            while state > 0:
                state, row, opt_id = fronts[state][2][row].tolist()
                total += exact_options[opt_id]
            out.append(total)
        return out

    for i in range(1, batch + 1):
        # Candidates c ⊕ o for every option o (id j, size m <= i) and every
        # c in D(i - m), gathered as whole parent fronts and expanded once.
        opt_ids = np.flatnonzero(opt_size <= i)
        opt_ids = opt_ids[front_len[i - opt_size[opt_ids]] > 0]
        if len(opt_ids) == 0:
            continue
        prev_states = i - opt_size[opt_ids]
        counts = front_len[prev_states]
        starts = np.cumsum(counts) - counts
        parents = np.empty((int(counts.sum()), 3), dtype=np.int64)
        parents[:, 0] = np.repeat(prev_states, counts)
        parents[:, 1] = np.arange(len(parents)) - np.repeat(starts, counts)
        parents[:, 2] = np.repeat(opt_ids, counts)
        prev = prev_states.tolist()
        times = (np.concatenate([fronts[state][0] for state in prev])
                 + opt_time[parents[:, 2]])
        wss = np.maximum(np.concatenate([fronts[state][1] for state in prev]),
                         opt_ws[parents[:, 2]])
        keep = _array_front(times, wss, lambda c: exact_times(parents[c]))
        if max_front is not None and len(keep) > max_front:
            # Evenly spread by rank, always retaining the fastest (last).
            picks = np.unique(
                np.round(np.linspace(0, len(keep) - 1, max_front)).astype(int)
            )
            keep = keep[picks]
        fronts[i] = (times[keep], wss[keep], parents[keep])
        front_len[i] = len(keep)

    final_t, final_w, _ = fronts[batch]
    if len(final_t) == 0:
        raise OptimizationError(
            f"mini-batch {batch} is not composable from measured sizes "
            f"{sorted(set(int(s) for s in opt_size))} "
            f"(policy {benchmark.policy.value})"
        )

    # Materialize configurations by walking parent pointers.
    def build(state: int, row: int) -> Configuration:
        micros = []
        while state > 0:
            _, _, parents = fronts[state]
            prev_state, prev_row, opt_id = parents[row]
            micros.append(micro_options[int(opt_id)])
            state, row = int(prev_state), int(prev_row)
        micros.sort(key=lambda mc: -mc.micro_batch)
        return Configuration(tuple(micros))

    order = np.argsort(final_w, kind="stable")
    return [build(batch, int(row)) for row in order]


def assert_valid_front(configs: Sequence[Configuration]) -> None:
    """Raise if ``configs`` is not a valid Pareto front (test helper)."""
    for i, a in enumerate(configs):
        for j, b in enumerate(configs):
            if i != j and a.dominates(b):
                raise AssertionError(f"front contains dominated entry: {b} by {a}")
