"""Chimera bidirectional pipeline scheduling (Li & Hoefler, SC'21).

Chimera runs two pipeline replicas in opposite directions: the *down*
replica places stage ``s`` on device ``s``, the *up* replica on device
``p - 1 - s``, so every device hosts two stages (and a full second copy of
its model shard — the memory duplication the paper notes). One *scheduling
unit* processes ``p`` micro-batches, ``p/2`` per direction; iterations with
``n > p`` micro-batches concatenate units, and because backward passes are
longer than forwards, bubbles appear between consecutive units — exactly why
the paper finds Chimera slower than DAPPLE at large ``n``.

The concrete per-device order is derived with a greedy list scheduler over
the bidirectional task graph: backwards are preferred when ready (as in
1F1B), and the per-direction in-flight window is capped at
``min(p - s, p/2)``, which yields Chimera's characteristic middle-heavy
activation profile (Figure 8 of the paper).

The scheduler weighs only the next task of each ``(pipe, stage, kind)``
stream -- at most 4p candidates a step, ``O(T p)`` for ``T`` tasks -- and
returns the per-device orders a scan of every pending task would
(ALGORITHMS.md section 13.4). That equivalence needs non-negative
durations: :class:`~repro.pipeline.tasks.StageCosts` rejects a negative
or NaN stage time, and a negative or NaN hop time raises
:class:`~repro.config.ConfigError` here.

``forward_doubling=True`` models ChimeraD: pairs of micro-batches are merged
into one forward pass (halving the number of scheduling units, doubling the
pinned activations), which trades bubbles for memory.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.config import ConfigError, require_non_negative
from repro.pipeline.tasks import Schedule, StageCosts, Task, TaskKey, TaskKind

#: Rank of a stream with nothing to dispatch. Ranks order by earliest
#: start first, and an infinite start is a real one (infeasible stages
#: carry ``backward=inf``), so the sentinel sorts after every real rank on
#: its second field: real ranks carry 0 (backward) or 1 (forward) there.
_UNSCHEDULABLE: Tuple = (math.inf, 2)


def chimera_schedule(
    stage_costs: Sequence[StageCosts],
    num_micro_batches: int,
    hop_time: float = 0.0,
    forward_doubling: bool = False,
) -> Schedule:
    """Build a (bidirectional) Chimera schedule.

    Args:
        stage_costs: per-stage costs; ``len(stage_costs)`` must be even.
        num_micro_batches: total micro-batches per iteration; must split
            evenly between the two directions (and into pairs for ChimeraD).
        hop_time: stage-boundary communication time.
        forward_doubling: model ChimeraD's doubled forward passes.
    """
    p = len(stage_costs)
    if p % 2 != 0:
        raise ConfigError(f"Chimera needs an even stage count, got {p}")
    # The list scheduler's stream-order argument needs non-negative
    # durations: StageCosts rejects a negative or NaN cost, and the hop
    # time is checked here. inf stays legal (infeasible stage evaluations
    # carry it).
    require_non_negative("Chimera hop_time", hop_time, allow_inf=True, error=ConfigError)
    weight = 2 if forward_doubling else 1
    if num_micro_batches % (2 * weight) != 0:
        raise ConfigError(
            f"{num_micro_batches} micro-batches do not split over two "
            f"directions with weight {weight}"
        )
    entities_per_pipe = num_micro_batches // (2 * weight)

    tasks = _build_tasks(stage_costs, entities_per_pipe, weight)
    device_tasks = _list_schedule(tasks, p, hop_time)

    statics = [2.0 * costs.static_bytes for costs in stage_costs]
    buffers = [2.0 * costs.buffer_bytes for costs in stage_costs]
    name = "ChimeraD" if forward_doubling else "Chimera"
    schedule = Schedule(
        name=name,
        num_devices=p,
        device_tasks=device_tasks,
        hop_time=hop_time,
        device_static_bytes=statics,
        device_buffer_bytes=buffers,
        num_micro_batches=num_micro_batches,
    )
    schedule.validate()
    return schedule


def _device_of(pipe: int, stage: int, p: int) -> int:
    return stage if pipe == 0 else p - 1 - stage


def _build_tasks(
    stage_costs: Sequence[StageCosts], entities_per_pipe: int, weight: int
) -> Dict[TaskKey, Task]:
    p = len(stage_costs)
    tasks: Dict[TaskKey, Task] = {}
    for pipe in (0, 1):
        for stage in range(p):
            device = _device_of(pipe, stage, p)
            costs = stage_costs[stage]
            for m in range(entities_per_pipe):
                fkey = TaskKey(pipe, stage, m, TaskKind.FORWARD)
                fdeps: Tuple[TaskKey, ...] = ()
                if stage > 0:
                    fdeps = (TaskKey(pipe, stage - 1, m, TaskKind.FORWARD),)
                tasks[fkey] = Task(
                    key=fkey,
                    device=device,
                    duration=weight * costs.forward,
                    deps=fdeps,
                    activation_bytes=weight * costs.activation_bytes,
                    weight=weight,
                )
                bkey = TaskKey(pipe, stage, m, TaskKind.BACKWARD)
                bdeps = [fkey]
                if stage < p - 1:
                    bdeps.append(TaskKey(pipe, stage + 1, m, TaskKind.BACKWARD))
                tasks[bkey] = Task(
                    key=bkey,
                    device=device,
                    duration=weight * costs.backward,
                    deps=tuple(bdeps),
                    weight=weight,
                )
    return tasks


def _list_schedule(
    tasks: Dict[TaskKey, Task], p: int, hop_time: float
) -> List[List[Task]]:
    """Greedy list scheduling producing per-device total orders.

    Repeatedly dispatches the schedulable task with the earliest possible
    start time, breaking ties in favour of backwards (they release memory
    and unblock upstream stages, as in 1F1B) and then lower micro-batch
    index. Forwards additionally respect the per-direction in-flight window
    ``min(p - s, p/2)``.

    Only the head of each ``(pipe, stage, kind)`` stream -- its lowest
    undispatched micro-batch -- is ever a candidate: with non-negative
    durations and hop time the rank dispatches every stream in micro-batch
    order (ALGORITHMS.md section 13.4), so a scan over all pending tasks
    would pick the same task. Each stream's rank is cached and recomputed
    only when a dispatch changes one of its inputs: a free time on its
    device, the end of a dependency, its stage's in-flight count or its
    own head.
    """
    stream_of: Dict[Tuple[int, int, TaskKind], int] = {}
    streams: List[List[Task]] = []
    for key, task in tasks.items():
        sid = stream_of.setdefault((key.pipe, key.stage, key.kind), len(streams))
        if sid == len(streams):
            streams.append([])
        streams[sid].append(task)
    for stream in streams:
        stream.sort(key=lambda task: task.key.micro_batch)

    # A dispatch from stream ``sid`` changes the ranks of its device's
    # streams (free time, in-flight count, the head) and of the streams
    # that wait on it (the next stage's forwards, the previous stage's
    # backwards); ``rerank[sid]`` lists them once each.
    device_streams: List[List[int]] = [[] for _ in range(p)]
    for sid, stream in enumerate(streams):
        device_streams[stream[0].device].append(sid)
    rerank = [dict.fromkeys(device_streams[stream[0].device]) for stream in streams]
    for sid, stream in enumerate(streams):
        for task in stream:
            for dep in task.deps:
                rerank[stream_of[dep.pipe, dep.stage, dep.kind]][sid] = None

    end_times: Dict[TaskKey, float] = {}
    device_free = [0.0] * p
    in_flight: Dict[Tuple[int, int], int] = {}
    window = {stage: min(p - stage, p // 2) for stage in range(p)}
    order: List[List[Task]] = [[] for _ in range(p)]
    heads = [0] * len(streams)

    def rank(sid: int) -> Tuple:
        stream = streams[sid]
        if heads[sid] == len(stream):
            return _UNSCHEDULABLE
        task = stream[heads[sid]]
        key = task.key
        if key.kind == TaskKind.FORWARD:
            if in_flight.get((key.pipe, key.stage), 0) >= window[key.stage]:
                return _UNSCHEDULABLE
        est = device_free[task.device]
        for dep in task.deps:
            dep_end = end_times.get(dep)
            if dep_end is None:
                return _UNSCHEDULABLE
            if tasks[dep].device != task.device:
                dep_end += hop_time
            est = max(est, dep_end)
        backward_first = 0 if key.kind == TaskKind.BACKWARD else 1
        return (est, backward_first, key.micro_batch, key.pipe, key.stage, sid)

    ranks = [rank(sid) for sid in range(len(streams))]
    for _ in range(len(tasks)):
        best = min(ranks)
        if best is _UNSCHEDULABLE:
            raise ConfigError("Chimera list scheduling wedged (internal error)")
        start, sid = best[0], best[-1]
        task = streams[sid][heads[sid]]
        heads[sid] += 1
        key = task.key
        end_times[key] = start + task.duration
        device_free[task.device] = start + task.duration
        flight_key = (key.pipe, key.stage)
        if key.kind == TaskKind.FORWARD:
            in_flight[flight_key] = in_flight.get(flight_key, 0) + 1
        else:
            in_flight[flight_key] = in_flight.get(flight_key, 0) - 1
        order[task.device].append(task)
        for touched in rerank[sid]:
            ranks[touched] = rank(touched)
    return order
