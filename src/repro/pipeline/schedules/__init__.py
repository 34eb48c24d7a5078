"""Pipeline schedule generators.

Every generator consumes per-stage :class:`~repro.pipeline.tasks.StageCosts`
and emits a :class:`~repro.pipeline.tasks.Schedule` the simulator can
execute:

* :func:`gpipe_schedule` — all forwards then all backwards (Figure 2a).
* :func:`one_f_one_b_schedule` — DAPPLE/PipeDream 1F1B (Figure 2b); the
  schedule AdaPipe builds on.
* :func:`one_f_one_b_2bp` — 1F1B with the 2BP split backward: grad-input
  unblocks the upstream stage immediately, grad-weight fills the drain
  bubble.
* :func:`one_f_one_b_overlapped` — 1F1B with recomputation hidden under
  the cross-device gradient hop (explicit ``RECOMPUTE`` tasks or the
  fused ``Task.overlap`` lowering).
* :func:`interleaved_1f1b_schedule` — Megatron's interleaved variant with
  multiple model chunks per device.
* :func:`chimera_schedule` — bidirectional pipelines (two replicas in
  opposite directions), optionally with forward doubling (ChimeraD).

:data:`SCHEDULE_FAMILIES` (:mod:`repro.pipeline.schedules.families`) binds
each kind name to its generator and its in-flight memory rule; look a
kind up with :func:`schedule_family`.
"""

from repro.pipeline.schedules.chimera import chimera_schedule
from repro.pipeline.schedules.families import (
    SCHEDULE_FAMILIES,
    SCHEDULE_KINDS,
    ScheduleFamily,
    schedule_family,
)
from repro.pipeline.schedules.gpipe import gpipe_schedule
from repro.pipeline.schedules.interleaved import interleaved_1f1b_schedule
from repro.pipeline.schedules.onef1b import one_f_one_b_schedule
from repro.pipeline.schedules.overlapped import (
    default_recompute_times,
    one_f_one_b_overlapped,
)
from repro.pipeline.schedules.twobp import one_f_one_b_2bp

__all__ = [
    "SCHEDULE_FAMILIES",
    "SCHEDULE_KINDS",
    "ScheduleFamily",
    "chimera_schedule",
    "default_recompute_times",
    "gpipe_schedule",
    "interleaved_1f1b_schedule",
    "one_f_one_b_2bp",
    "one_f_one_b_overlapped",
    "one_f_one_b_schedule",
    "schedule_family",
]
