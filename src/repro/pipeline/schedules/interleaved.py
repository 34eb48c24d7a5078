"""Megatron-LM interleaved 1F1B scheduling.

Each device hosts ``v`` model chunks: device ``d`` runs global stages
``d, d + p, ..., d + (v-1)p``. Micro-batches flow through all ``v * p``
global stages, which shrinks each bubble to ``1/v`` of its 1F1B size at the
cost of ``v`` times the stage-boundary communication (Section 2.1).

The task order per device follows Megatron's published algorithm: a warmup
of ``2(p - d - 1) + (v - 1)p`` virtual forwards, a steady 1F1B phase over
virtual micro-batches, and a backward drain. Virtual micro-batch ``k`` maps
to chunk ``(k // p) % v`` and real micro-batch ``(k // (vp)) * p + k % p``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.config import ConfigError
from repro.pipeline.schedules.common import (
    backward_deps,
    backward_key,
    build_schedule,
    forward_deps,
    forward_key,
)
from repro.pipeline.tasks import Schedule, StageCosts, Task


def _virtual_to_concrete(
    k: int, p: int, v: int, backward: bool
) -> Tuple[int, int]:
    """Map a virtual micro-batch index to (chunk, real micro-batch)."""
    chunk = (k // p) % v
    if backward:
        chunk = v - 1 - chunk
    micro_batch = (k // (p * v)) * p + (k % p)
    return chunk, micro_batch


def interleaved_1f1b_schedule(
    stage_costs: Sequence[StageCosts],
    num_micro_batches: int,
    num_devices: int,
    hop_time: float = 0.0,
) -> Schedule:
    """Build an interleaved 1F1B schedule.

    Args:
        stage_costs: one entry per *global* stage; the length must be a
            multiple of ``num_devices`` (the multiple is the chunk count).
        num_micro_batches: must be a multiple of ``num_devices``
            (Megatron's constraint).
        num_devices: pipeline group size ``p``.
        hop_time: stage-boundary communication time.
    """
    p = num_devices
    total_stages = len(stage_costs)
    if total_stages % p != 0:
        raise ConfigError(
            f"{total_stages} global stages not divisible by {p} devices"
        )
    v = total_stages // p
    n = num_micro_batches
    if n % p != 0:
        raise ConfigError(
            f"interleaved 1F1B needs micro-batches ({n}) divisible by p ({p})"
        )

    total_virtual = n * v
    device_tasks: List[List[Task]] = [[] for _ in range(p)]
    for device in range(p):
        tasks = device_tasks[device]

        def forward(k: int) -> Task:
            chunk, m = _virtual_to_concrete(k, p, v, backward=False)
            stage = chunk * p + device
            costs = stage_costs[stage]
            return Task(
                key=forward_key(stage, m),
                device=device,
                duration=costs.forward,
                deps=forward_deps(stage, m, total_stages),
                activation_bytes=costs.activation_bytes,
            )

        def backward(k: int) -> Task:
            chunk, m = _virtual_to_concrete(k, p, v, backward=True)
            stage = chunk * p + device
            costs = stage_costs[stage]
            return Task(
                key=backward_key(stage, m),
                device=device,
                duration=costs.backward,
                deps=backward_deps(stage, m, total_stages),
            )

        warmup = min(2 * (p - device - 1) + (v - 1) * p, total_virtual)
        for k in range(warmup):
            tasks.append(forward(k))
        for i in range(total_virtual - warmup):
            tasks.append(forward(warmup + i))
            tasks.append(backward(i))
        for k in range(total_virtual - warmup, total_virtual):
            tasks.append(backward(k))

    statics = [0.0] * p
    buffers = [0.0] * p
    for stage, costs in enumerate(stage_costs):
        statics[stage % p] += costs.static_bytes
        buffers[stage % p] = max(buffers[stage % p], costs.buffer_bytes)
    return build_schedule(
        f"Interleaved-1F1B(v={v})",
        stage_costs,
        device_tasks,
        hop_time,
        n,
        device_static_bytes=statics,
        device_buffer_bytes=buffers,
    )


@lru_cache(maxsize=None)
def _interleaved_stage_peaks(
    num_devices: int, num_chunks: int, num_micro_batches: int
) -> Tuple[int, ...]:
    """Exact per-global-stage in-flight peaks of the interleaved schedule.

    The Megatron task order is fixed combinatorics (warmup of
    ``2(p - d - 1) + (v - 1)p`` virtual forwards, then strict 1F1B
    alternation), independent of task durations, so the peak number of
    live micro-batches per stage is obtained by replaying the index
    arithmetic of :func:`interleaved_1f1b_schedule` — no simulation
    needed. Forward and backward of a micro-batch run on the same device
    and devices execute in list order, so this dispatch-counter peak
    equals the simulator's measured activation-liveness peak
    (`stage_in_flight_micro_batch_peaks`).
    """
    p, v, n = num_devices, num_chunks, num_micro_batches
    total_virtual = n * v
    peaks = [0] * (v * p)
    for device in range(p):
        live = [0] * v
        warmup = min(2 * (p - device - 1) + (v - 1) * p, total_virtual)

        def start_forward(k: int) -> None:
            chunk = (k // p) % v
            live[chunk] += 1
            stage = chunk * p + device
            if live[chunk] > peaks[stage]:
                peaks[stage] = live[chunk]

        for k in range(warmup):
            start_forward(k)
        for i in range(total_virtual - warmup):
            start_forward(warmup + i)
            live[v - 1 - (i // p) % v] -= 1  # backward i retires its chunk
        # The drain phase only runs backwards; peaks cannot rise further.
    return tuple(peaks)


def interleaved_in_flight(
    stage: int,
    num_stages: int,
    num_micro_batches: int,
    num_devices: Optional[int],
) -> int:
    """Exact in-flight count of global stage ``stage`` (``num_stages`` is
    ``chunks * num_devices``)."""
    if num_devices is None or num_devices < 1 or num_stages % num_devices:
        raise ValueError(
            f"interleaved needs num_devices dividing {num_stages} stages, "
            f"got {num_devices}"
        )
    return _interleaved_stage_peaks(
        num_devices, num_stages // num_devices, num_micro_batches
    )[stage]
