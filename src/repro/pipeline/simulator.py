"""Event-driven execution of a pipeline schedule.

Each device executes its task list strictly in order; a task starts once the
device is free and all its dependencies have completed (cross-device
dependencies add the schedule's hop time). This is exactly how a static
pipeline schedule executes on a real cluster, so the resulting makespan *is*
the iteration time.

The simulator also tracks activation memory per device: a micro-batch's
intermediates are pinned from the start of its forward until the end of its
releasing backward twin — the grad-weight half when the backward is split
(2BP), the plain backward otherwise — sitting on top of the device's static
state and recompute buffer.
The per-device high-water mark supports the paper's Figure 1/Figure 8 memory
profiles and OOM detection for infeasible baselines.

Two engines implement these semantics:

* ``"compiled"`` (the default) lowers the schedule once into integer-indexed
  arrays (:mod:`repro.pipeline.compiled`) and executes them with an
  indegree/ready-queue pass that is O(tasks + edges) — no ``TaskKey``
  hashing, no repeated device rescans, and incremental memory tracking with
  no end-of-run event sort.
* ``"reference"`` is the original O(devices x passes) polling loop, kept
  verbatim as the equivalence oracle: both engines produce bit-identical
  results (asserted by tests/test_sim_engine.py). Select it with
  ``simulate(..., engine="reference")`` or ``REPRO_SIM_ENGINE=reference``.

On top sits a digest-keyed cross-run :class:`SimulationCache`: experiments
that re-simulate structurally identical schedules (the same plan evaluated
for several figures, repeated probe simulations, rebuilt executors) reuse
the memoized :class:`SimulationResult` instead of re-running the engine.
The cache is keyed by :func:`schedule_digest` — schedule *content*, not
identity — plus the engine name, and can be disabled with ``cache=False``
or ``REPRO_SIM_CACHE=0``. Cached results share their timing/memory
structures; treat :class:`SimulationResult` as read-only.

A third execution path lives in :mod:`repro.pipeline.batched`: many
duration vectors over one unchanged DAG, swept as a single numpy matrix.
It is not an engine here (it answers iteration times, not full
:class:`SimulationResult` objects) but is bit-equivalent to both scalar
engines row by row; robustness ensembles run on it by default
(``repro.core.robust``). Its ensemble-level cache honours the same
``REPRO_SIM_CACHE`` switch via :func:`simulation_cache_disabled`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.pipeline.compiled import SimulationError
from repro.pipeline.tasks import RELEASE_KINDS, Schedule, Task, TaskKey, TaskKind

__all__ = [
    "SimulationCache",
    "SimulationError",
    "SimulationResult",
    "global_simulation_cache",
    "schedule_digest",
    "simulate",
    "simulate_reference",
    "simulate_with_info",
    "simulation_cache_disabled",
]

ENGINES = ("compiled", "reference")
_ENGINE_ENV = "REPRO_SIM_ENGINE"
_CACHE_ENV = "REPRO_SIM_CACHE"


@dataclass
class SimulationResult:
    """Outcome of simulating one training iteration.

    Attributes:
        iteration_time: makespan in seconds.
        start_times / end_times: per-task timing.
        device_busy_time: seconds each device spent computing.
        device_peak_bytes: memory high-water mark per device (static +
            buffer + activations).
        device_micro_batch_passes: weighted useful work per device — the
            sum of ``Task.weight`` over the device's tasks, counting each
            forward or backward micro-batch pass once (so ChimeraD's
            doubled forwards count as 2).
        schedule: the simulated schedule (for rendering).
    """

    iteration_time: float
    start_times: Dict[TaskKey, float]
    end_times: Dict[TaskKey, float]
    device_busy_time: List[float]
    device_peak_bytes: List[float]
    device_micro_batch_passes: List[int]
    schedule: Schedule

    @property
    def bubble_ratio(self) -> float:
        """Fraction of device-time spent idle inside the iteration."""
        total = self.iteration_time * len(self.device_busy_time)
        if total == 0:
            return 0.0
        return 1.0 - sum(self.device_busy_time) / total

    @property
    def micro_batch_passes(self) -> int:
        """Total weighted forward+backward micro-batch passes executed."""
        return sum(self.device_micro_batch_passes)

    def peak_bytes(self) -> float:
        return max(self.device_peak_bytes, default=0.0)

    def oom_devices(self, capacity_bytes: float) -> List[int]:
        """Devices whose peak memory exceeds ``capacity_bytes``."""
        return [
            d
            for d, peak in enumerate(self.device_peak_bytes)
            if peak > capacity_bytes
        ]


# -- simulation cache ---------------------------------------------------------


def schedule_digest(schedule: Schedule) -> str:
    """Content digest of everything that determines a simulation's numbers.

    Covers devices, hop time, per-link hop overrides, per-device
    static/buffer bytes and every task's identity, device, duration,
    activation bytes, weight, overlap window, and dependencies. The
    schedule ``name`` and ``num_micro_batches`` are deliberately excluded — they label the
    schedule but do not move any simulated quantity, so e.g. a relabelled
    1F1B schedule replays a cached result. Memoized per instance via
    :meth:`Schedule.digest`.

    The ``link_hops`` coverage is load-bearing for perturbation injection
    (:mod:`repro.pipeline.perturb`): a link-degraded schedule is
    structurally identical to its nominal twin — same tasks, durations and
    edges — so without it the cache would serve a nominal result to a
    perturbed run (and vice versa). An empty/absent mapping digests like
    no mapping at all, since the two simulate identically.
    """
    parts: List[str] = [
        f"sim-v2|{schedule.num_devices}|{schedule.hop_time!r}",
        repr(schedule.device_static_bytes),
        repr(schedule.device_buffer_bytes),
    ]
    if schedule.link_hops:
        parts.append(
            "links:" + ";".join(
                f"{src}>{dst}:{hop!r}"
                for (src, dst), hop in sorted(schedule.link_hops.items())
            )
        )
    append = parts.append
    for tasks in schedule.device_tasks:
        append("|device")
        for task in tasks:
            k = task.key
            append(
                f"{k.pipe},{k.stage},{k.micro_batch},{k.kind.value},"
                f"{task.device},{task.duration!r},{task.activation_bytes!r},"
                f"{task.weight},{task.overlap!r}"
            )
            for dep in task.deps:
                append(f"<{dep.pipe},{dep.stage},{dep.micro_batch},{dep.kind.value}")
    digest = hashlib.blake2b("\n".join(parts).encode(), digest_size=16)
    return digest.hexdigest()


class SimulationCache:
    """Cross-run memo of :class:`SimulationResult` keyed by (engine, digest).

    Entries are evicted FIFO past ``max_entries``. Hits return the stored
    result with only its ``schedule`` field re-pointed at the requesting
    schedule (timing dicts and memory lists are shared — read-only by
    contract).
    """

    def __init__(self, max_entries: int = 256) -> None:
        self._entries: "OrderedDict[Tuple[str, str], SimulationResult]" = (
            OrderedDict()
        )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def get(self, key: Tuple[str, str]) -> Optional[SimulationResult]:
        found = self._entries.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def put(self, key: Tuple[str, str], result: SimulationResult) -> None:
        self._entries[key] = result
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


_GLOBAL_CACHE = SimulationCache()


def global_simulation_cache() -> SimulationCache:
    """The process-wide cache ``simulate`` consults by default."""
    return _GLOBAL_CACHE


def _resolve_engine(engine: Optional[str]) -> str:
    engine = engine or os.environ.get(_ENGINE_ENV) or "compiled"
    if engine not in ENGINES:
        raise ValueError(f"unknown simulator engine {engine!r}; pick from {ENGINES}")
    return engine


def simulation_cache_disabled() -> bool:
    """True when ``REPRO_SIM_CACHE`` disables digest-keyed caching
    process-wide — honoured by this module's :class:`SimulationCache`
    default and by the ensemble cache in ``repro.core.robust``."""
    return os.environ.get(_CACHE_ENV, "").lower() in ("0", "off", "false")


def _resolve_cache(
    cache: Union[SimulationCache, bool, None]
) -> Optional[SimulationCache]:
    if cache is None:
        if simulation_cache_disabled():
            return None
        return _GLOBAL_CACHE
    if cache is False:
        return None
    return cache  # an explicit SimulationCache


# -- public entry points ------------------------------------------------------


def simulate(
    schedule: Schedule,
    *,
    engine: Optional[str] = None,
    cache: Union[SimulationCache, bool, None] = None,
) -> SimulationResult:
    """Execute ``schedule`` and return timing and memory results.

    Args:
        schedule: the schedule to execute.
        engine: ``"compiled"`` (default) or ``"reference"``; ``None`` reads
            ``REPRO_SIM_ENGINE`` and falls back to the compiled engine.
        cache: ``None`` uses the global :class:`SimulationCache` (unless
            ``REPRO_SIM_CACHE=0``), ``False`` disables caching, or pass a
            cache instance to scope memoization explicitly.

    Raises:
        SimulationError: if the schedule deadlocks (a device's next task
            waits on a task that can never run) or references unknown tasks.
    """
    return simulate_with_info(schedule, engine=engine, cache=cache)[0]


def simulate_with_info(
    schedule: Schedule,
    *,
    engine: Optional[str] = None,
    cache: Union[SimulationCache, bool, None] = None,
) -> Tuple[SimulationResult, Dict[str, object]]:
    """:func:`simulate` plus an observability record.

    The second element carries ``engine`` (the engine that produced the
    result), ``cache_hit`` (whether this call replayed a memoized result),
    and the consulted cache's cumulative ``cache_hits``/``cache_misses``
    (zeros when caching is off) — the counters plan metadata surfaces.
    """
    engine = _resolve_engine(engine)
    runner = _run_compiled if engine == "compiled" else simulate_reference
    use_cache = _resolve_cache(cache)
    if use_cache is None:
        return runner(schedule), {
            "engine": engine,
            "cache_hit": False,
            "cache_hits": 0,
            "cache_misses": 0,
        }
    key = (engine, schedule.digest())
    found = use_cache.get(key)
    if found is None:
        found = runner(schedule)
        use_cache.put(key, found)
        hit = False
    else:
        found = dataclasses.replace(found, schedule=schedule)
        hit = True
    return found, {
        "engine": engine,
        "cache_hit": hit,
        "cache_hits": use_cache.hits,
        "cache_misses": use_cache.misses,
    }


# -- compiled ready-queue engine ----------------------------------------------


def _run_compiled(schedule: Schedule) -> SimulationResult:
    """O(tasks + edges) execution of the lowered schedule.

    Start times satisfy ``start[i] = max(end[prev-on-device], max over deps
    j of end[j] + hop)`` — a longest-path recurrence over a DAG, so any
    topological processing order yields the same floats as the reference
    polling loop (``max`` is exact; the only additions are the same
    ``end + hop`` terms). Memory is tracked incrementally: each device's
    events are generated in nondecreasing time order (allocs at forward
    start, releases at same-device backward end), so buffering just the
    current timestamp's deltas — applied frees-before-allocs like the
    reference sort's tie-break — reproduces the sorted sweep exactly,
    without the end-of-run sort.
    """
    compiled = schedule.compiled()
    if not compiled.same_device_twins:
        # A backward releasing activations on a *different* device breaks
        # the nondecreasing-event-time invariant; such schedules fail
        # Schedule.validate and only the reference semantics define them.
        return simulate_reference(schedule)

    num_tasks = compiled.num_tasks
    num_devices = schedule.num_devices
    rows = compiled.rows

    # ``ready`` doubles as the start-time array: once a task pops off the
    # stack all its predecessors are done, so its entry is final.
    ready = [0.0] * num_tasks
    ends = [0.0] * num_tasks
    indegree = list(compiled.indegree)

    # Incremental per-device memory tracking: level/peak plus the deltas of
    # the timestamp currently being grouped (frees apply before allocs at
    # equal times, preserved by sorting each tiny group by delta).
    level = [0.0] * num_devices
    peak = [0.0] * num_devices
    pending_time: List[Optional[float]] = [None] * num_devices
    pending: List[List[float]] = [[] for _ in range(num_devices)]

    stack = [i for i in range(num_tasks) if not indegree[i]]
    executed = 0
    while stack:
        i = stack.pop()
        executed += 1
        dur, d, delta, succs = rows[i]
        end = ready[i] + dur
        ends[i] = end
        if delta:
            when = ready[i] if delta > 0.0 else end
            if when == pending_time[d]:
                pending[d].append(delta)
            else:
                group = pending[d]
                if group:
                    if len(group) > 1:
                        group.sort()
                    running = level[d]
                    high = peak[d]
                    for step in group:
                        running += step
                        if running > high:
                            high = running
                    level[d] = running
                    peak[d] = high
                pending_time[d] = when
                pending[d] = [delta]
        for j, add in succs:
            candidate = end + add
            if candidate > ready[j]:
                ready[j] = candidate
            left = indegree[j] - 1
            indegree[j] = left
            if not left:
                stack.append(j)

    if executed < num_tasks:
        finished = {
            compiled.keys[i] for i in range(num_tasks) if not indegree[i]
        }
        raise SimulationError(_deadlock_message(schedule, finished))

    for d in range(num_devices):
        group = pending[d]
        if group:
            if len(group) > 1:
                group.sort()
            running = level[d]
            high = peak[d]
            for step in group:
                running += step
                if running > high:
                    high = running
            level[d] = running
            peak[d] = high

    statics = schedule.device_static_bytes or [0.0] * num_devices
    buffers = schedule.device_buffer_bytes or [0.0] * num_devices
    peaks = [statics[d] + buffers[d] + peak[d] for d in range(num_devices)]
    iteration = 0.0
    for d, last in enumerate(compiled.device_last):
        if last >= 0 and ends[last] > iteration:
            iteration = ends[last]

    keys = compiled.keys
    return SimulationResult(
        iteration_time=iteration,
        start_times=dict(zip(keys, ready)),
        end_times=dict(zip(keys, ends)),
        device_busy_time=list(compiled.device_busy),
        device_peak_bytes=peaks,
        device_micro_batch_passes=list(compiled.device_passes),
        schedule=schedule,
    )


def _deadlock_message(schedule: Schedule, finished: Iterable[TaskKey]) -> str:
    """Per device, name the next waiting task *and* its unmet dependencies,
    so malformed schedules point straight at the broken edge."""
    finished = set(finished)
    stuck: List[str] = []
    for d in range(schedule.num_devices):
        for task in schedule.device_tasks[d]:
            if task.key in finished:
                continue
            unmet = ", ".join(
                str(dep) for dep in task.deps if dep not in finished
            )
            stuck.append(f"{task.key} (device {d}) waiting on [{unmet}]")
            break
    return f"schedule deadlock; waiting tasks: [{'; '.join(stuck)}]"


# -- reference engine (equivalence oracle) ------------------------------------


def simulate_reference(schedule: Schedule) -> SimulationResult:
    """The original round-robin polling engine, kept as the oracle.

    O(devices x passes) with per-dependency ``TaskKey`` dict lookups and an
    end-of-run memory-event sort — slow, but defined directly from the
    scheduling semantics. The compiled engine must match it bit-for-bit.
    """
    task_map = schedule.task_map()
    for task in task_map.values():
        for dep in task.deps:
            if dep not in task_map:
                raise SimulationError(f"{task.key} depends on missing task {dep}")

    end_times: Dict[TaskKey, float] = {}
    start_times: Dict[TaskKey, float] = {}
    device_time = [0.0] * schedule.num_devices
    device_busy = [0.0] * schedule.num_devices
    device_passes = [0] * schedule.num_devices
    pointers = [0] * schedule.num_devices
    remaining = sum(len(tasks) for tasks in schedule.device_tasks)

    # Memory bookkeeping: activations pinned between forward start and
    # backward end, tracked as (time, delta) events per device.
    memory_events: List[List[Tuple[float, float]]] = [
        [] for _ in range(schedule.num_devices)
    ]
    forward_device: Dict[TaskKey, int] = {}

    while remaining > 0:
        progressed = False
        for device in range(schedule.num_devices):
            tasks = schedule.device_tasks[device]
            while pointers[device] < len(tasks):
                task = tasks[pointers[device]]
                ready_at = device_time[device]
                blocked = False
                for dep in task.deps:
                    if dep not in end_times:
                        blocked = True
                        break
                    dep_end = end_times[dep]
                    if task_map[dep].device != device:
                        add = schedule.hop_for(task_map[dep].device, device)
                        if task.overlap:
                            # Compute/comm overlap window: the task's
                            # first `overlap` seconds run while the hop is
                            # in flight. Same float ops as the compiled
                            # lowering's `hop - overlap` addend, so both
                            # engines stay bit-identical.
                            add -= task.overlap
                        dep_end += add
                    ready_at = max(ready_at, dep_end)
                if blocked:
                    break
                start_times[task.key] = ready_at
                end = ready_at + task.duration
                end_times[task.key] = end
                device_time[device] = end
                device_busy[device] += task.duration
                device_passes[device] += task.weight
                _record_memory(
                    task, ready_at, end, device, memory_events, forward_device, task_map
                )
                pointers[device] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise SimulationError(_deadlock_message(schedule, end_times))

    peaks = _memory_peaks(schedule, memory_events)
    return SimulationResult(
        iteration_time=max(device_time, default=0.0),
        start_times=start_times,
        end_times=end_times,
        device_busy_time=device_busy,
        device_peak_bytes=peaks,
        device_micro_batch_passes=device_passes,
        schedule=schedule,
    )


def _record_memory(
    task: Task,
    start: float,
    end: float,
    device: int,
    memory_events: List[List[Tuple[float, float]]],
    forward_device: Dict[TaskKey, int],
    task_map: Dict[TaskKey, Task],
) -> None:
    """Pin activations at forward start, release them at the end of the
    forward's releasing twin (grad-weight under a split backward, the
    plain backward otherwise). Grad-input and recompute tasks touch no
    activation accounting."""
    del end  # backward release uses its own end below
    kind = task.key.kind
    if kind == TaskKind.FORWARD:
        if task.activation_bytes > 0:
            memory_events[device].append((start, task.activation_bytes))
        forward_device[task.key] = device
        return
    if kind not in RELEASE_KINDS:
        return
    if kind == TaskKind.BACKWARD and (
        TaskKey(
            task.key.pipe, task.key.stage, task.key.micro_batch,
            TaskKind.BACKWARD_WEIGHT,
        )
        in task_map
    ):
        # Mixed plain/split backwards fail validation; mirror the compiled
        # lowering and never double-release regardless.
        return
    twin = TaskKey(
        task.key.pipe, task.key.stage, task.key.micro_batch, TaskKind.FORWARD
    )
    twin_task = task_map.get(twin)
    if twin_task is not None and twin_task.activation_bytes > 0:
        release_at = start + task.duration
        memory_events[forward_device.get(twin, device)].append(
            (release_at, -twin_task.activation_bytes)
        )


def _memory_peaks(
    schedule: Schedule, memory_events: List[List[Tuple[float, float]]]
) -> List[float]:
    statics = schedule.device_static_bytes or [0.0] * schedule.num_devices
    buffers = schedule.device_buffer_bytes or [0.0] * schedule.num_devices
    peaks: List[float] = []
    for device in range(schedule.num_devices):
        level = 0.0
        peak = 0.0
        # Frees sort before allocations at equal timestamps so an exactly
        # back-to-back free/alloc pair does not inflate the peak.
        for _, delta in sorted(memory_events[device], key=lambda item: (item[0], item[1])):
            level += delta
            peak = max(peak, level)
        peaks.append(statics[device] + buffers[device] + peak)
    return peaks
