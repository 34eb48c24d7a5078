"""One-time lowering of a :class:`Schedule` into integer-indexed task arrays.

The simulator's inner loop used to hash :class:`TaskKey` dataclasses on every
dependency check. Lowering replaces every key with a dense integer index and
every dependency with a precomputed edge, so executing the schedule touches
only flat lists:

* per task: duration, device, a signed memory delta (``+activation_bytes``
  pinned at forward start, ``-activation_bytes`` released at the end of the
  forward's *releasing* twin — grad-weight when the backward is split,
  the plain backward otherwise), the device that delta is charged to (the
  forward's device, for the pin and the release alike), and the number of
  incoming edges (unique dependencies plus the implicit device-order edge
  to the previous task on the same device);
* per edge: the successor index and the hop addend (``hop_time`` — or the
  link's ``Schedule.link_hops`` override — when the edge crosses devices,
  ``0.0`` otherwise), stored in CSR layout. A destination task with a
  compute/comm overlap window (``Task.overlap``) has the window folded
  into its cross-device addends (``hop - overlap``): the longest-path
  recurrence then evaluates ``end = max(local_ready + dur, end[src] + hop
  + dur - overlap)`` with no engine change.

Per-device aggregates that do not depend on execution at all — busy time
(durations summed in list order, preserving the reference engine's float
accumulation order) and weighted micro-batch passes — are folded out of the
run entirely and precomputed here.

The lowering also subsumes the structural checks ``Schedule.validate`` and
the simulator used to perform separately (each building its own
``TaskKey -> Task`` map): duplicate keys and unresolvable dependencies are
rejected exactly once, here, and the result is memoized on the schedule via
:meth:`Schedule.compiled`, so validated schedules reach the simulator
already lowered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.pipeline.tasks import RELEASE_KINDS, Schedule, Task, TaskKey, TaskKind


class SimulationError(RuntimeError):
    """Raised on malformed schedules (unresolvable dependencies)."""


def deadlock_message(schedule: Schedule, finished: Iterable[TaskKey]) -> str:
    """Per device, name the next waiting task *and* its unmet dependencies,
    so malformed schedules point straight at the broken edge.

    ``finished`` is the set of tasks that could run; both engines reach the
    same set (every task whose dependencies and device predecessors can
    run), so they report the same message.
    """
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


@dataclass
class CompiledSchedule:
    """A schedule lowered to arrays, ready for the wavefront executor.

    Task indices follow enumeration order: device 0's tasks in list order,
    then device 1's, and so on — consecutive tasks of one device therefore
    have consecutive indices.

    Attributes:
        schedule: the source schedule.
        tasks: task index -> source :class:`Task`.
        keys: task index -> :class:`TaskKey` (for building result dicts).
        index: key -> task index.
        device: task index -> executing device.
        duration: task index -> seconds of device time.
        mem_delta: task index -> signed activation bytes (positive deltas
            apply at the task's start, negative at its end, zero means no
            memory event).
        mem_device: task index -> device its memory event is charged to:
            the forward twin's device, for the pin and its release alike
            (as the reference engine charges them).
        indegree: incoming-edge count per task (unique dependencies + the
            device-order edge).
        succ_ptr / succ_idx / succ_add: CSR adjacency over outgoing edges;
            ``succ_add`` is the communication addend of each edge.
        dep_indices: unique dependency indices per task (diagnostics).
        device_last: last task index per device (``-1`` when idle all
            iteration).
        device_busy: per-device busy seconds, summed in list order.
        device_passes: per-device weighted micro-batch passes (``weight``
            summed over the device's tasks).
        num_edges: total edge count (dependency + device-order).
    """

    schedule: Schedule
    tasks: List[Task]
    keys: List[TaskKey]
    index: Dict[TaskKey, int]
    device: List[int]
    duration: List[float]
    mem_delta: List[float]
    mem_device: List[int]
    indegree: List[int]
    succ_ptr: List[int]
    succ_idx: List[int]
    succ_add: List[float]
    dep_indices: List[Tuple[int, ...]]
    device_last: List[int]
    device_busy: List[float]
    device_passes: List[int]
    num_edges: int

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def topological_order(self) -> List[int]:
        """One topological order over all edges, grouped by dependency
        level, computed once (memoized).

        A single level-synchronous Kahn pass over the CSR arrays
        (``indegree`` / ``succ_ptr`` / ``succ_idx``): level 0 is every
        task without in-edges, and level ``k + 1`` every task whose last
        in-edge is retired while level ``k`` drains. Levels drain in
        order, so that last in-edge comes from the task's deepest
        predecessor, and level ``k`` holds exactly the tasks whose
        longest path from a source has ``k`` edges: no two tasks of one
        level share an edge. :meth:`level_starts` says where each level
        begins; the batched executor evaluates one level per wavefront
        step. The traversal is fixed, so the order is deterministic — but
        no consumer may depend on *which* order inside a level is
        returned: the longest-path recurrence the engines evaluate is
        order-independent (ALGORITHMS.md section 11).

        Raises:
            SimulationError: when the dependency graph has a cycle, with
                the reference engine's :func:`deadlock_message` (the tasks
                Kahn's pass reaches are exactly the tasks the reference's
                polling loop runs before it stalls).
        """
        cached = getattr(self, "_topo_order", None)
        if cached is None:
            indegree = list(self.indegree)
            succ_ptr, succ_idx = self.succ_ptr, self.succ_idx
            order = [i for i in range(self.num_tasks) if not indegree[i]]
            append = order.append
            starts = [0]
            while starts[-1] < len(order):
                level = order[starts[-1]:]
                starts.append(len(order))
                for i in level:
                    for j in succ_idx[succ_ptr[i]:succ_ptr[i + 1]]:
                        left = indegree[j] - 1
                        indegree[j] = left
                        if not left:
                            append(j)
            if len(order) != self.num_tasks:
                raise SimulationError(
                    deadlock_message(
                        self.schedule, (self.keys[i] for i in order)
                    )
                )
            self._level_starts = starts  # type: ignore[attr-defined]
            self._topo_order = cached = order  # type: ignore[attr-defined]
        return cached

    def level_starts(self) -> List[int]:
        """Where each dependency level begins in :meth:`topological_order`,
        plus a final ``num_tasks``: level ``k`` is
        ``order[starts[k]:starts[k + 1]]``."""
        self.topological_order()
        return self._level_starts  # type: ignore[attr-defined]

    def validate_twins(self) -> None:
        """Enforce the per-kind completeness contract (the structural
        guarantee ``Schedule.validate`` promises).

        Per ``(pipe, stage, micro_batch)``:

        * a ``FORWARD`` needs a complete backward: either one plain
          ``BACKWARD``, or a ``BACKWARD_INPUT``/``BACKWARD_WEIGHT`` pair —
          never a mix of the split and unsplit forms;
        * every backward (or half), and every ``RECOMPUTE``, needs the
          matching ``FORWARD``;
        * all of a micro-batch's twins run on the forward's device (a
          micro-batch's activations live where its forward ran).

        Unlike the deadlock diagnostics' single-edge reports, twin
        violations are *collected*: the raised ``ValueError`` names every
        missing or conflicting key, grouped per device, so a malformed
        generator is diagnosed in one pass.
        """
        violations: List[Tuple[int, str]] = []
        for i, task in enumerate(self.tasks):
            key = task.key
            device_i = self.device[i]

            def twin(kind: TaskKind) -> "TaskKey":
                return TaskKey(key.pipe, key.stage, key.micro_batch, kind)

            if key.kind == TaskKind.FORWARD:
                plain = self.index.get(twin(TaskKind.BACKWARD))
                grad_in = self.index.get(twin(TaskKind.BACKWARD_INPUT))
                grad_w = self.index.get(twin(TaskKind.BACKWARD_WEIGHT))
                if plain is None and grad_in is None and grad_w is None:
                    violations.append(
                        (device_i, f"forward {key} has no backward twin")
                    )
                elif plain is not None and (
                    grad_in is not None or grad_w is not None
                ):
                    violations.append((
                        device_i,
                        f"forward {key} has both a plain backward and a "
                        "split grad-input/grad-weight backward",
                    ))
                elif plain is None:
                    if grad_in is None:
                        violations.append((
                            device_i,
                            f"forward {key} has a grad-weight twin but no "
                            f"grad-input {twin(TaskKind.BACKWARD_INPUT)}",
                        ))
                    if grad_w is None:
                        violations.append((
                            device_i,
                            f"forward {key} has a grad-input twin but no "
                            f"grad-weight {twin(TaskKind.BACKWARD_WEIGHT)} "
                            "(activations would never be released)",
                        ))
                for j in (plain, grad_in, grad_w):
                    if j is not None and self.device[j] != device_i:
                        violations.append((
                            device_i,
                            f"{key} and {self.keys[j]} run on different devices",
                        ))
            else:
                j = self.index.get(twin(TaskKind.FORWARD))
                if j is None:
                    violations.append(
                        (device_i, f"{key} has no forward twin")
                    )
                elif key.kind == TaskKind.RECOMPUTE and self.device[j] != device_i:
                    violations.append((
                        device_i,
                        f"{key} and {self.keys[j]} run on different devices",
                    ))
        if violations:
            by_device: Dict[int, List[str]] = {}
            for device_i, message in violations:
                by_device.setdefault(device_i, []).append(message)
            report = "; ".join(
                f"device {device_i}: " + ", ".join(messages)
                for device_i, messages in sorted(by_device.items())
            )
            raise ValueError(
                f"schedule twin contract violated ({len(violations)} "
                f"violation{'s' if len(violations) != 1 else ''}): {report}"
            )


def compile_schedule(schedule: Schedule) -> CompiledSchedule:
    """Lower ``schedule`` into a :class:`CompiledSchedule`.

    Raises:
        ValueError: on duplicate task keys (matching ``Schedule.task_map``),
            on a task whose ``device`` is not the index of the list that
            holds it (the reference engine rejects it too), on a nonzero
            ``activation_bytes`` on any non-forward task (the forward
            carries the pinned bytes — see ``Task``), or on a negative
            ``overlap``.
        SimulationError: when a task depends on a key absent from the
            schedule.
    """
    tasks: List[Task] = []
    index: Dict[TaskKey, int] = {}
    for listed, device_list in enumerate(schedule.device_tasks):
        for task in device_list:
            if task.key in index:
                raise ValueError(f"duplicate task {task.key}")
            if task.device != listed:
                raise ValueError(
                    f"{task.key}: device {task.device} but listed under device {listed}"
                )
            index[task.key] = len(tasks)
            tasks.append(task)

    num_tasks = len(tasks)
    keys = [task.key for task in tasks]
    device = [task.device for task in tasks]
    duration = [task.duration for task in tasks]
    indegree = [0] * num_tasks
    successors: List[List[Tuple[int, float]]] = [[] for _ in range(num_tasks)]
    dep_indices: List[Tuple[int, ...]] = []
    hop = schedule.hop_time
    link_hops = schedule.link_hops or {}

    for i, task in enumerate(tasks):
        if task.overlap < 0.0:
            raise ValueError(
                f"{task.key}: overlap must be >= 0, got {task.overlap!r}"
            )
        # Duplicate deps must not double-count indegree. The filter keeps
        # first-seen edge order (it feeds `dep_indices` and the CSR edge
        # layout) but tests membership against a set — lists made this
        # O(deps^2) per task, which bites schedules with heavily repeated
        # dependency keys.
        seen: List[int] = []
        seen_set: Set[int] = set()
        for dep in task.deps:
            j = index.get(dep)
            if j is None:
                raise SimulationError(f"{task.key} depends on missing task {dep}")
            if j in seen_set:
                continue
            seen_set.add(j)
            seen.append(j)
            if device[j] != device[i]:
                add = link_hops.get((device[j], device[i]), hop) if link_hops else hop
                if task.overlap:
                    # Compute/comm overlap window: up to `overlap` seconds
                    # of task i's duration run while this hop is in
                    # flight, so the edge contributes
                    # `end[j] + hop - overlap` to i's start — i.e.
                    # `end[i] = max(local_ready + dur, end[j] + hop +
                    # dur - overlap)`. The device-order edge (addend 0)
                    # keeps the local floor, so a negative effective
                    # addend never starts i before its own device frees.
                    add -= task.overlap
            else:
                add = 0.0
            successors[j].append((i, add))
        dep_indices.append(tuple(seen))
        indegree[i] = len(seen)

    # Device-order edges: each task waits for its predecessor in the
    # device's list (consecutive indices by construction).
    position = 0
    for device_list in schedule.device_tasks:
        for offset in range(1, len(device_list)):
            i = position + offset
            successors[i - 1].append((i, 0.0))
            indegree[i] += 1
        position += len(device_list)

    succ_ptr = [0] * (num_tasks + 1)
    succ_idx: List[int] = []
    succ_add: List[float] = []
    for i in range(num_tasks):
        for j, add in successors[i]:
            succ_idx.append(j)
            succ_add.append(add)
        succ_ptr[i + 1] = len(succ_idx)

    mem_delta = [0.0] * num_tasks
    mem_device = list(device)
    for i, task in enumerate(tasks):
        kind = task.key.kind
        if kind == TaskKind.FORWARD:
            if task.activation_bytes > 0:
                mem_delta[i] = task.activation_bytes
            continue
        if task.activation_bytes:
            # The Task contract says forwards carry the pinned bytes; a
            # nonzero value anywhere else used to be silently dropped,
            # which 2BP's deferred-release accounting cannot afford.
            raise ValueError(
                f"{task.key}: activation_bytes={task.activation_bytes!r} on "
                f"a {kind.value} task; activations are carried by the "
                "forward and released by its backward (grad-weight) twin"
            )
        if kind not in RELEASE_KINDS:
            # Grad-input and recomputation never release: the activations
            # stay pinned until grad-weight (split backward) or the plain
            # backward consumes them.
            continue
        if kind == TaskKind.BACKWARD and (
            TaskKey(
                task.key.pipe, task.key.stage, task.key.micro_batch,
                TaskKind.BACKWARD_WEIGHT,
            )
            in index
        ):
            # Defensive: mixed plain/split backwards fail validate_twins,
            # but lowering must not double-release if asked anyway.
            continue
        twin = TaskKey(
            task.key.pipe, task.key.stage, task.key.micro_batch,
            TaskKind.FORWARD,
        )
        j = index.get(twin)
        if j is not None and tasks[j].activation_bytes > 0:
            mem_delta[i] = -tasks[j].activation_bytes
            # The release frees the forward's device's memory, wherever
            # the releasing task itself runs.
            mem_device[i] = device[j]

    device_last = [-1] * schedule.num_devices
    device_busy = [0.0] * schedule.num_devices
    device_passes = [0] * schedule.num_devices
    position = 0
    for d, device_list in enumerate(schedule.device_tasks):
        busy = 0.0
        passes = 0
        for task in device_list:
            busy += task.duration
            passes += task.weight
        device_busy[d] = busy
        device_passes[d] = passes
        if device_list:
            device_last[d] = position + len(device_list) - 1
        position += len(device_list)

    return CompiledSchedule(
        schedule=schedule,
        tasks=tasks,
        keys=keys,
        index=index,
        device=device,
        duration=duration,
        mem_delta=mem_delta,
        mem_device=mem_device,
        indegree=indegree,
        succ_ptr=succ_ptr,
        succ_idx=succ_idx,
        succ_add=succ_add,
        dep_indices=dep_indices,
        device_last=device_last,
        device_busy=device_busy,
        device_passes=device_passes,
        num_edges=len(succ_idx),
    )
