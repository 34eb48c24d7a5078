"""Task-graph representation of a pipeline schedule.

A *schedule* is, per device, a total order over *tasks*; each task is one
pass of one micro-batch through one stage of one pipeline replica (Chimera
runs two replicas in opposite directions, hence the ``pipe`` coordinate):
a forward, a backward — possibly split into grad-input and grad-weight
halves (2BP) — or an explicit recomputation. Tasks carry explicit
dependency keys, so the simulator needs no knowledge of any particular
scheduling policy — it just executes each device's list in order, waiting
on dependencies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.config import ConfigError, require_non_negative
from repro.content import omit, shape_free


class TaskKind(enum.Enum):
    """The kinds of device work a schedule can express.

    ``FORWARD``/``BACKWARD`` are the classic twins every schedule family
    used to be built from. Two further families split or extend them:

    * ``BACKWARD_INPUT`` / ``BACKWARD_WEIGHT`` — the 2BP split backward:
      grad-input propagates the activation gradient upstream (so the
      previous stage unblocks as soon as it finishes), grad-weight is
      deferrable filler work. A micro-batch's activations stay pinned
      until its *grad-weight* completes, so ``BACKWARD_WEIGHT`` (not
      ``BACKWARD_INPUT``) is the releasing twin of the forward.
    * ``RECOMPUTE`` — explicit re-execution of discarded activations
      before a backward. It depends only on locally saved state (its own
      forward), never on the incoming gradient, which is what lets its
      duration overlap the cross-device hop window of the backward that
      consumes it.
    """

    FORWARD = "F"
    BACKWARD = "B"
    BACKWARD_INPUT = "Bi"
    BACKWARD_WEIGHT = "Bw"
    RECOMPUTE = "R"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Kinds that release their forward twin's pinned activations when they
#: finish; every other non-forward kind leaves liveness alone. The
#: compiled lowering and the reference engine both decide from this tuple.
#: ``BACKWARD`` only releases when no ``BACKWARD_WEIGHT`` twin exists (the
#: per-kind completeness contract forbids mixing the two for one
#: micro-batch; lowering is defensive about it regardless).
RELEASE_KINDS = (TaskKind.BACKWARD, TaskKind.BACKWARD_WEIGHT)


@dataclass(frozen=True)
class TaskKey:
    """Globally unique identity of a task.

    Attributes:
        pipe: pipeline replica index (0 for everything except Chimera's
            second, reversed pipeline).
        stage: pipeline stage the task runs on.
        micro_batch: micro-batch index within the replica.
        kind: the :class:`TaskKind` of the pass.
    """

    pipe: int
    stage: int
    micro_batch: int
    kind: TaskKind

    def __post_init__(self) -> None:
        # Keys are hashed constantly (dependency lookups, per-task result
        # dicts); precomputing keeps that off the simulator's hot paths.
        object.__setattr__(
            self,
            "_hash",
            hash((self.pipe, self.stage, self.micro_batch, self.kind)),
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]  # set in __post_init__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}(p{self.pipe},s{self.stage},m{self.micro_batch})"


@dataclass(frozen=True)
class Task:
    """One unit of device work.

    Attributes:
        key: the task's identity.
        device: executing device.
        duration: seconds of device time.
        deps: keys this task waits for. Cross-device dependencies incur the
            schedule's communication hop time.
        activation_bytes: intermediates pinned by this micro-batch on this
            stage from the *start of the forward* until the *end of the
            releasing backward twin* — ``BACKWARD_WEIGHT`` when the
            backward is split, plain ``BACKWARD`` otherwise. Only forwards
            may carry a nonzero value; ``compile_schedule`` rejects it on
            any other kind (the matching forward carries it).
        weight: micro-batches processed (2 for ChimeraD's doubled forwards).
            The simulator sums it into
            ``SimulationResult.device_micro_batch_passes``, the weighted
            useful-work count backing throughput accounting.
        overlap: seconds of this task's leading duration that do not need
            its cross-device inputs — the compute/comm overlap window. The
            engines evaluate ``end = max(local_ready + duration,
            comm_ready + duration - overlap)``: up to ``overlap`` seconds
            of the task run while the hop is still in flight. ``0.0``
            (the default) reproduces the fully serialized hop addend. The
            fused lowering of overlapped recomputation sets it to the
            recompute portion of a backward's duration.
    """

    key: TaskKey
    device: int
    duration: float = field(metadata=shape_free(
        "a duration row of the lowered DAG, not its structure"
    ))
    deps: Tuple[TaskKey, ...] = ()
    activation_bytes: float = field(default=0.0, metadata=shape_free(
        "memory accounting only; no start or finish time reads it"
    ))
    weight: int = field(default=1, metadata=shape_free(
        "a useful-work count; no start or finish time reads it"
    ))
    overlap: float = 0.0


@dataclass(frozen=True)
class StageCosts:
    """Per-micro-batch costs of one stage, as the simulator consumes them.

    Attributes:
        forward: forward time of one micro-batch through the stage.
        backward: backward time (including any recomputation the stage's
            plan performs).
        activation_bytes: intermediates one micro-batch pins on the stage.
        static_bytes: parameters/gradients/optimizer state of the stage.
        buffer_bytes: recompute-buffer high-water mark during backward.
    """

    forward: float
    backward: float
    activation_bytes: float = 0.0
    static_bytes: float = 0.0
    buffer_bytes: float = 0.0

    def __post_init__(self) -> None:
        # A NaN or negative cost would run through every schedule builder
        # and simulator as a plausible time; inf stays legal (infeasible
        # stage evaluations carry an infinite backward).
        for item in fields(self):
            require_non_negative(
                f"StageCosts.{item.name}",
                getattr(self, item.name),
                allow_inf=True,
                error=ConfigError,
            )


@dataclass
class Schedule:
    """A complete pipeline schedule over one iteration.

    Attributes:
        name: scheduling policy label ("1F1B", "GPipe", ...).
        num_devices: devices in the pipeline group.
        device_tasks: per device, tasks in execution order.
        hop_time: communication delay applied to cross-device dependencies.
        device_static_bytes: static memory per device (sums both of a
            device's stages under Chimera).
        device_buffer_bytes: recompute-buffer bound per device.
        num_micro_batches: micro-batches per iteration per replica.
        link_hops: optional per-link overrides of ``hop_time``, keyed by
            the directed ``(src_device, dst_device)`` pair — how
            perturbation injection expresses degraded p2p links. Links
            absent from the mapping use ``hop_time``.
    """

    name: str = field(metadata=omit(
        "a policy label: no simulated number reads it, so a relabelled "
        "schedule replays a cached result"
    ))
    num_devices: int
    device_tasks: List[List[Task]]
    hop_time: float = 0.0
    device_static_bytes: Optional[List[float]] = field(default=None, metadata=shape_free(
        "memory accounting only; no start or finish time reads it"
    ))
    device_buffer_bytes: Optional[List[float]] = field(default=None, metadata=shape_free(
        "memory accounting only; no start or finish time reads it"
    ))
    num_micro_batches: int = field(default=0, metadata=omit(
        "redundant: the tasks carry every micro-batch, so two schedules "
        "differing only here simulate identically"
    ))
    link_hops: Optional[Dict[Tuple[int, int], float]] = None

    def hop_for(self, src_device: int, dst_device: int) -> float:
        """Hop time of a dependency crossing ``src -> dst``."""
        if self.link_hops:
            return self.link_hops.get((src_device, dst_device), self.hop_time)
        return self.hop_time

    def all_tasks(self) -> List[Task]:
        return [task for tasks in self.device_tasks for task in tasks]

    def task_map(self) -> Dict[TaskKey, Task]:
        mapping: Dict[TaskKey, Task] = {}
        for task in self.all_tasks():
            if task.key in mapping:
                raise ValueError(f"duplicate task {task.key}")
            mapping[task.key] = task
        return mapping

    def compiled(self):
        """The schedule's integer-indexed lowering, computed once.

        Both :meth:`validate` and the simulator's fast path run off this
        :class:`~repro.pipeline.compiled.CompiledSchedule`, so validated
        schedules reach the simulator without rebuilding the task map. The
        lowering (and :meth:`digest`) assume ``device_tasks`` is not mutated
        afterwards.
        """
        cached = getattr(self, "_compiled", None)
        if cached is None:
            from repro.pipeline.compiled import compile_schedule

            cached = compile_schedule(self)
            self._compiled = cached  # type: ignore[attr-defined]  # per-instance memo
        return cached

    def digest(self) -> str:
        """Content digest keying the cross-run simulation cache (memoized)."""
        cached = getattr(self, "_digest", None)
        if cached is None:
            from repro.pipeline.simulator import schedule_digest

            cached = schedule_digest(self)
            self._digest = cached  # type: ignore[attr-defined]  # per-instance memo
        return cached

    def validate(self) -> None:
        """Check structural sanity: unique keys, every task listed under
        its own device, resolvable dependencies, and the per-kind
        completeness contract — every forward has a
        complete set of same-device backward twins (a plain backward, or a
        grad-input/grad-weight pair, never both) and every auxiliary task
        (recompute, backward halves) has its forward. Violations are
        collected and reported together, grouped per device.

        Runs on the shared :meth:`compiled` lowering, so the task map built
        here is the one the simulator executes."""
        from repro.pipeline.compiled import SimulationError

        try:
            compiled = self.compiled()
        except SimulationError as err:
            # Lowering reports unresolvable dependencies as simulation
            # errors; validation's contract is ValueError.
            raise ValueError(str(err)) from None
        compiled.validate_twins()
