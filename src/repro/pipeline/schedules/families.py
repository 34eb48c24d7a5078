"""The schedule-family table: every schedule kind, in one place.

AdaPipe's memory model (Section 4.2) prices saved activations by how many
micro-batches the *schedule* keeps live on a stage, so a schedule kind is
more than a builder: it is a name, a builder, an in-flight rule and a
claim about how exact that rule is. :data:`SCHEDULE_FAMILIES` holds one
:class:`ScheduleFamily` row per kind, and every site that used to list
kinds by hand reads it instead — plan evaluation
(:func:`repro.core.evaluate.build_schedule_for_plan`), the memory model
(:func:`repro.profiler.memory.in_flight_micro_batches`), the memory
audit's defaults, the CLI choices and the validate battery. Adding a
family is one row here plus its builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.pipeline.schedules.chimera import chimera_schedule
from repro.pipeline.schedules.gpipe import gpipe_schedule
from repro.pipeline.schedules.interleaved import (
    interleaved_1f1b_schedule,
    interleaved_in_flight,
)
from repro.pipeline.schedules.onef1b import one_f_one_b_schedule
from repro.pipeline.schedules.overlapped import one_f_one_b_overlapped
from repro.pipeline.schedules.twobp import one_f_one_b_2bp
from repro.pipeline.tasks import Schedule, StageCosts

#: ``build(stage_costs, num_micro_batches, hop_time, method, num_devices)``.
Builder = Callable[[Sequence[StageCosts], int, float, str, int], Schedule]

#: ``in_flight(stage, num_stages, num_micro_batches, num_devices)``.
InFlightRule = Callable[[int, int, int, Optional[int]], int]


@dataclass(frozen=True)
class ScheduleFamily:
    """One schedule kind: its builder and its in-flight accounting.

    Attributes:
        name: the kind string callers pass (``schedule_kind="1f1b"``).
        build: emits the schedule for per-stage costs; ``method`` is the
            planner label some families name the schedule after, and
            ``num_devices`` the pipeline group size.
        in_flight: micro-batches whose activations ``stage`` keeps live
            at peak. Callers range-check ``stage`` and the micro-batch
            count first.
        exact_in_flight: ``in_flight`` equals the simulator's measured
            per-stage peak (the memory audit reports those stages exact);
            otherwise it is an admissible upper bound only.
        chunked: the builder needs a chunked plan — several global stages
            per device — so a plain plan cannot run under it.
    """

    name: str
    build: Builder
    in_flight: InFlightRule
    exact_in_flight: bool
    chunked: bool = False


def _one_f_one_b_in_flight(
    stage: int, num_stages: int, num_micro_batches: int, num_devices: Optional[int]
) -> int:
    """``p - s`` warmup forwards, then strict 1F/1B alternation."""
    return min(num_micro_batches, num_stages - stage)


def _gpipe_in_flight(
    stage: int, num_stages: int, num_micro_batches: int, num_devices: Optional[int]
) -> int:
    """Every forward runs before any backward."""
    return num_micro_batches


def _chimera_in_flight(
    weight: int,
    stage: int,
    num_stages: int,
    num_micro_batches: int,
    num_devices: Optional[int],
) -> int:
    """The greedy list scheduler's order depends on task durations, but it
    caps each direction's window at ``min(p - s, p / 2)`` entities; each
    entity pins ``weight`` micro-batches (2 under ChimeraD)."""
    entities_per_pipe = -(-num_micro_batches // (2 * weight))  # ceil: an upper bound
    return weight * min(
        entities_per_pipe, num_stages - stage, max(1, num_stages // 2)
    )


SCHEDULE_FAMILIES: Tuple[ScheduleFamily, ...] = (
    ScheduleFamily(
        "1f1b",
        build=lambda costs, n, hop, method, devices: one_f_one_b_schedule(
            costs, n, hop_time=hop, name=method
        ),
        in_flight=_one_f_one_b_in_flight,
        exact_in_flight=True,
    ),
    # 2BP holds activations until grad-weight, but defers grad-weights
    # only into the drain, where liveness already declines: the
    # steady-phase peak is 1F1B's (ALGORITHMS.md §13).
    ScheduleFamily(
        "2bp",
        build=lambda costs, n, hop, method, devices: one_f_one_b_2bp(
            costs, n, hop_time=hop, name=f"{method}-2BP"
        ),
        in_flight=_one_f_one_b_in_flight,
        exact_in_flight=True,
    ),
    # Recompute tasks neither pin nor release activations (the recompute
    # buffer is StageCosts.buffer_bytes), so liveness is 1F1B's.
    ScheduleFamily(
        "overlap",
        build=lambda costs, n, hop, method, devices: one_f_one_b_overlapped(
            costs, n, hop_time=hop, name=f"{method}-OR"
        ),
        in_flight=_one_f_one_b_in_flight,
        exact_in_flight=True,
    ),
    ScheduleFamily(
        "gpipe",
        build=lambda costs, n, hop, method, devices: gpipe_schedule(
            costs, n, hop_time=hop
        ),
        in_flight=_gpipe_in_flight,
        exact_in_flight=True,
    ),
    ScheduleFamily(
        "chimera",
        build=lambda costs, n, hop, method, devices: chimera_schedule(
            costs, n, hop_time=hop
        ),
        in_flight=partial(_chimera_in_flight, 1),
        exact_in_flight=False,
    ),
    ScheduleFamily(
        "chimerad",
        build=lambda costs, n, hop, method, devices: chimera_schedule(
            costs, n, hop_time=hop, forward_doubling=True
        ),
        in_flight=partial(_chimera_in_flight, 2),
        exact_in_flight=False,
    ),
    # The task order is duration-independent, so its replay is exact.
    ScheduleFamily(
        "interleaved",
        build=lambda costs, n, hop, method, devices: interleaved_1f1b_schedule(
            costs, n, devices, hop_time=hop
        ),
        in_flight=interleaved_in_flight,
        exact_in_flight=True,
        chunked=True,
    ),
)

_BY_NAME: Dict[str, ScheduleFamily] = {
    family.name: family for family in SCHEDULE_FAMILIES
}

#: Every schedule kind name, in table order.
SCHEDULE_KINDS: Tuple[str, ...] = tuple(_BY_NAME)


def schedule_family(name: str) -> ScheduleFamily:
    """The family called ``name``; ``ValueError`` naming the known kinds."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown schedule kind {name!r}; pick from {SCHEDULE_KINDS}"
        ) from None
