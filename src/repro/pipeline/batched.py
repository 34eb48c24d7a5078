"""Batched vectorized simulation: lower once, execute K duration vectors.

This module is the simulator's only fast path. ``simulate`` runs it at
R = 1 (one duration row: the schedule's own durations) and reads each
task's start and finish from that run. Robustness ensembles
(``repro.core.robust``) and robust-objective sweeps (``repro.core.sweep``)
run ``1 + K + p + 1`` rows whose schedules differ *only in task durations
and hop addends* — the DAG is frozen by the perturbation contract
(ALGORITHMS.md section 9). Either way the DAG is lowered once and any
number of duration vectors execute as one numpy sweep (the
lower-once/execute-many idiom of ngraph's numpy transformer).

Why this is exact, not approximate (ALGORITHMS.md section 11):

* The reference engine (``simulate_reference``) evaluates the
  longest-path recurrence ``finish[i] = max_j(finish[j] + add_ij) +
  dur[i]`` over the task's unique in-edges: its dependency edges plus
  the implicit device-order edge (addend 0.0) from the previous task on
  its device — or, for a device's first task, from the device start at
  0.0, the reference's initial ready time. ``max`` over IEEE-754 doubles
  selects one operand bit-for-bit and is commutative/associative, and
  each task's finish depends only on its predecessors' finishes — so
  *any* topological order yields bit-identical floats to the reference's
  polling order. The executor therefore takes one Kahn order grouped by
  dependency level (:meth:`CompiledSchedule.topological_order`) and
  evaluates each level for all K duration rows at once with
  ``np.maximum.reduceat`` / ``add`` over flattened edge arrays.
  Elementwise float64 numpy arithmetic is the same IEEE double
  arithmetic the reference performs, in the same per-task operand
  order, hence bit-identical times (fuzz-pinned in
  ``tests/test_batched.py`` and the engine-equivalence tests).

* Memory is not duration-independent: with zero-duration tasks an
  allocation and a free can land on the same timestamp or not depending
  on the durations, and the reference orders each device's events by
  ``(time, delta)``. :meth:`BatchedSchedule.activation_peaks` therefore
  reads the run's start and finish times and sums each device's events
  in exactly that order. Ensemble rows report iteration times only.

The public surface is :func:`batched_simulator` (a per-``Schedule`` memo
of :class:`BatchedSchedule`, mirroring ``Schedule.compiled``) and
:func:`shape_digest` (groups schedules that may share one lowering —
what robust sweeps key their batches by).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.content import content_digest
from repro.pipeline.compiled import CompiledSchedule
from repro.pipeline.perturb import jitter_multiplier
from repro.pipeline.tasks import Schedule

__all__ = [
    "BatchedSchedule",
    "batched_simulator",
    "shape_digest",
]

#: Jitter vectors memoized per BatchedSchedule ((seed, sigma) -> vector).
#: Each entry is num_tasks float64s; 1024 of them bound the memo at a few
#: MB for the largest schedules the sweeps build.
_JITTER_MEMO_LIMIT = 1024


def shape_digest(compiled: CompiledSchedule) -> str:
    """Digest of everything the batched executor lowers — except durations.

    :func:`repro.content.content_digest` with ``shape=True``: every field
    of the schedule, its tasks and their keys except those declared
    ``omit`` or ``shape_free`` — task durations, activation bytes and
    weights, and the per-device static and buffer bytes. Two schedules
    with equal shape digests share task identities, devices, dependency
    structure, per-device order, overlap windows, hop time and link
    overrides, so one :class:`BatchedSchedule` built from either executes
    duration vectors of both (and their spec lowerings — factors, stall
    delays, jitter vectors — coincide).

    This digest keys *batch grouping only*; result caching uses the full
    content digests (``schedule.digest()`` × spec) — see
    ``repro.core.robust.ensemble_digest``.
    """
    cached = getattr(compiled, "_shape_digest", None)
    if cached is None:
        cached = content_digest(compiled.schedule, shape=True)
        compiled._shape_digest = cached  # type: ignore[attr-defined]  # per-instance memo
    return cached


class BatchedSchedule:
    """One schedule's DAG lowered into a level-wavefront execution plan.

    Construction performs the one-time work. Tasks are laid out in
    *slots*: :meth:`CompiledSchedule.topological_order`, which groups
    them by dependency level, so every level is one contiguous slice of
    slots. Each task's in-edges — the lowered edges, plus one from the
    *device start* (slot ``num_tasks``, always 0.0) into every device's
    first task that has dependencies — are sorted by destination slot,
    so every level's in-edges are one contiguous run, grouped per task
    into ``np.maximum.reduceat`` segments. Execution then touches only
    numpy slices and reductions, whatever the number of duration rows.

    Raises:
        SimulationError: at construction, when the dependency graph has a
            cycle (via :meth:`CompiledSchedule.topological_order`).
    """

    def __init__(self, compiled: CompiledSchedule) -> None:
        self.compiled = compiled
        schedule = compiled.schedule
        n = compiled.num_tasks
        self.num_tasks = n
        self._hop_time = schedule.hop_time

        order = np.asarray(compiled.topological_order(), dtype=np.intp)
        level_starts = compiled.level_starts()
        self.num_levels = len(level_starts) - 1
        slot = np.empty(n, dtype=np.intp)
        slot[order] = np.arange(n, dtype=np.intp)
        self._order = order
        self._slot = slot

        # The device start stands in for the reference engine's ready time
        # of 0.0 on a device that has run nothing yet; every later task's
        # ready time starts at its device-order predecessor's finish,
        # which the device-order edge (addend 0.0) carries.
        firsts = []
        position = 0
        for tasks in schedule.device_tasks:
            if tasks and compiled.indegree[position]:
                firsts.append(position)
            position += len(tasks)
        src = np.concatenate([
            np.repeat(slot, np.diff(compiled.succ_ptr)),
            np.full(len(firsts), n, dtype=np.intp),
        ])
        dst = np.concatenate([
            slot[np.asarray(compiled.succ_idx, dtype=np.intp)],
            slot[np.asarray(firsts, dtype=np.intp)],
        ])
        add = np.concatenate([
            np.asarray(compiled.succ_add, dtype=np.float64),
            np.zeros(len(firsts)),
        ])
        # Stable: each task's in-edges keep their lowered order.
        edges = np.argsort(dst, kind="stable")
        self._edge_src = src[edges]
        self._edge_dst = dst[edges]
        self._add = add[edges]
        self._add.flags.writeable = False

        # Per level >= 1: its slot range, its in-edge range, the
        # predecessor slots of those edges and the segment starts
        # relative to the level's first in-edge. Every such task has an
        # in-edge, so no segment is empty.
        edge_start = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(self._edge_dst, minlength=n), out=edge_start[1:])
        level_edge = edge_start[level_starts]
        seg = edge_start[:-1] - np.repeat(level_edge[:-1], np.diff(level_starts))
        level_edge = level_edge.tolist()
        self._level0_end = level_starts[1] if n else 0
        self._plan: List[Tuple[int, int, int, int, np.ndarray, np.ndarray]] = [
            (a, b, lo, hi, self._edge_src[lo:hi], seg[a:b])
            for a, b, lo, hi in zip(
                level_starts[1:], level_starts[2:], level_edge[1:], level_edge[2:]
            )
        ]
        self._last_slots = slot[
            np.asarray([i for i in compiled.device_last if i >= 0], dtype=np.intp)
        ]
        self._links: Optional[
            Tuple[List[Tuple[Tuple[int, int], np.ndarray]], np.ndarray, np.ndarray]
        ] = None
        self._raw_durations = np.asarray(compiled.duration, dtype=np.float64)
        self._raw_durations.flags.writeable = False
        self._jitter_memo: "OrderedDict[Tuple[int, float], np.ndarray]" = OrderedDict()

    @property
    def raw_durations(self) -> np.ndarray:
        """The schedule's own per-task durations (read-only float64)."""
        return self._raw_durations

    @property
    def shape_digest(self) -> str:
        """See :func:`shape_digest`."""
        return shape_digest(self.compiled)

    def jitter_vector(self, seed: int, sigma: float) -> np.ndarray:
        """Per-task jitter multipliers of one ensemble draw (memoized).

        Elementwise :func:`repro.pipeline.perturb.jitter_multiplier` —
        the draw depends only on ``(seed, task key, sigma)``, never on
        durations, which is what makes the vector legitimate lowering
        state: it is shared across repeated ensembles and across every
        schedule with this schedule's shape. The memo is FIFO-bounded
        and entries are returned read-only.
        """
        if sigma == 0.0:
            return np.ones(self.num_tasks, dtype=np.float64)
        memo_key = (seed, sigma)
        vector = self._jitter_memo.get(memo_key)
        if vector is None:
            vector = np.array(
                [
                    jitter_multiplier(seed, key, sigma)
                    for key in self.compiled.keys
                ],
                dtype=np.float64,
            )
            vector.flags.writeable = False
            if len(self._jitter_memo) >= _JITTER_MEMO_LIMIT:
                self._jitter_memo.popitem(last=False)
            self._jitter_memo[memo_key] = vector
        return vector

    def _addends(
        self, link_hops: Optional[Dict[Tuple[int, int], float]]
    ) -> np.ndarray:
        """The in-edge addend vector, with ``link_hops`` applied."""
        if link_hops is None:
            return self._add
        if self._links is None:
            # Indexed on first use: only perturbed runs override hops.
            device = np.append(
                np.asarray(self.compiled.device, dtype=np.intp)[self._order], -1
            )
            src_device = device[self._edge_src]
            dst_device = device[self._edge_dst]
            cross = (src_device != dst_device) & (src_device >= 0)
            pairs = sorted(
                set(zip(src_device[cross].tolist(), dst_device[cross].tolist()))
            )
            overlap = np.asarray(
                [task.overlap for task in self.compiled.tasks], dtype=np.float64
            )[self._order][self._edge_dst]
            overlap_edges = np.flatnonzero(cross & (overlap != 0.0))
            self._links = (
                [
                    (pair, np.flatnonzero(
                        cross & (src_device == pair[0]) & (dst_device == pair[1])
                    ))
                    for pair in pairs
                ],
                overlap_edges,
                overlap[overlap_edges],
            )
        link_edges, overlap_edges, overlap_vals = self._links
        add = np.array(self._add)
        for pair, edges in link_edges:
            add[edges] = link_hops.get(pair, self._hop_time)
        if overlap_edges.size:
            # Re-fold the compute/comm overlap windows the override just
            # clobbered — same single `hop - overlap` float subtraction
            # the compiled lowering performs, keeping rows bit-identical
            # to the reference engine under degraded links.
            add[overlap_edges] -= overlap_vals
        return add

    def _run(
        self,
        dur: np.ndarray,
        add: np.ndarray,
        starts: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The level wavefront: finish time per slot, plus the device
        start at slot ``num_tasks``.

        ``dur`` holds durations in slot order, ``(n,)`` for one run or
        ``(n, R)`` for R rows; ``add`` is :meth:`_addends`'s vector,
        shaped ``(E, 1)`` for R rows. When given, ``starts`` (shaped like
        ``dur``) receives each task's start.
        """
        finish = np.empty((self.num_tasks + 1,) + dur.shape[1:], dtype=np.float64)
        finish[-1] = 0.0
        level0 = self._level0_end
        # Level 0 has no in-edges: it starts at 0.0 and finishes at its
        # duration.
        finish[:level0] = dur[:level0]
        if starts is not None:
            starts[:level0] = 0.0
        for a, b, lo, hi, pred, seg in self._plan:
            ready = np.maximum.reduceat(
                finish[pred] + add[lo:hi], seg, axis=0,
                out=None if starts is None else starts[a:b],
            )
            np.add(ready, dur[a:b], out=finish[a:b])
        return finish

    def _makespan(self, finish: np.ndarray) -> np.ndarray:
        """Iteration time from slot-ordered finish times: the latest
        device-last finish, floored at 0.0 (an idle device's time in the
        reference engine). NaN propagates, so a NaN duration never reads
        as a fast run."""
        if not self._last_slots.size:
            return np.zeros(finish.shape[1:], dtype=np.float64)
        return np.maximum(finish[self._last_slots].max(axis=0), 0.0)

    def _sweep(
        self,
        durations: np.ndarray,
        link_hops: Optional[Dict[Tuple[int, int], float]],
    ) -> np.ndarray:
        """Slot-ordered finish times for every duration row: ``(n + 1, R)``."""
        dur = np.asarray(durations, dtype=np.float64)
        if dur.ndim == 1:
            dur = dur[np.newaxis, :]
        if dur.ndim != 2 or dur.shape[1] != self.num_tasks:
            raise ValueError(
                f"duration matrix must be (rows, {self.num_tasks}), "
                f"got shape {dur.shape}"
            )
        slotted = np.ascontiguousarray(dur[:, self._order].T)
        return self._run(slotted, self._addends(link_hops)[:, np.newaxis])

    def timeline(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """The R = 1 run behind ``simulate``: the start and finish of
        every task (two ``(n,)`` vectors in task-index order) and the
        iteration time, for the schedule's own durations and hops —
        bit-identical to the reference engine's ``start_times``,
        ``end_times`` and ``iteration_time``."""
        starts = np.empty(self.num_tasks, dtype=np.float64)
        finish = self._run(self._raw_durations[self._order], self._add, starts)
        slot = self._slot
        return starts[slot], finish[slot], float(self._makespan(finish))

    def activation_peaks(
        self, starts: np.ndarray, finish: np.ndarray
    ) -> List[float]:
        """Per-device activation high-water mark of one run.

        Pins apply at their forward's start, releases at their releasing
        task's finish, each on the device the lowering charged it to. Each
        device's events are summed in the reference engine's ``(time,
        delta)`` order — frees before allocations at equal times — from a
        level of 0.0, so the peaks match the reference bit for bit.
        """
        compiled = self.compiled
        delta = np.asarray(compiled.mem_delta, dtype=np.float64)
        tasks = np.flatnonzero(delta)
        delta = delta[tasks]
        device = np.asarray(compiled.mem_device, dtype=np.intp)[tasks]
        times = np.where(delta > 0.0, starts[tasks], finish[tasks])
        order = np.lexsort((delta, times, device))
        deltas = delta[order]
        bounds = np.searchsorted(
            device[order], np.arange(compiled.schedule.num_devices + 1)
        ).tolist()
        peaks: List[float] = []
        for lo, hi in zip(bounds, bounds[1:]):
            # cumsum adds left to right, like the reference's running
            # level; the peak starts at 0.0 as the reference's does.
            high = float(np.cumsum(deltas[lo:hi]).max()) if hi > lo else 0.0
            peaks.append(max(0.0, high))
        return peaks

    def finish_matrix(
        self,
        durations: np.ndarray,
        link_hops: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> np.ndarray:
        """Per-task finish times, one row per duration vector: ``(R, n)``.

        Row ``r``, column ``i`` equals the reference engine's end time of
        task ``i`` under duration vector ``r`` (and, when given, the
        ``link_hops`` hop overrides), bit for bit.
        """
        return np.ascontiguousarray(self._sweep(durations, link_hops)[self._slot].T)

    def iteration_times(
        self,
        durations: np.ndarray,
        link_hops: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> np.ndarray:
        """Iteration time of every duration row: ``(R,)``.

        Accepts a single ``(n,)`` vector (returning shape ``(1,)``) or an
        ``(R, n)`` matrix. ``link_hops`` overrides the hop addend of every
        cross-device edge, exactly like a perturbed schedule's
        ``link_hops`` mapping — absent links fall back to the schedule's
        ``hop_time``.
        """
        return self._makespan(self._sweep(durations, link_hops))


def batched_simulator(schedule: Schedule) -> BatchedSchedule:
    """The schedule's batched executor, built once (memoized).

    Mirrors :meth:`Schedule.compiled`: the lowering assumes
    ``device_tasks`` is not mutated afterwards.
    """
    cached = getattr(schedule, "_batched", None)
    if cached is None:
        cached = BatchedSchedule(schedule.compiled())
        schedule._batched = cached  # type: ignore[attr-defined]  # per-instance memo
    return cached
