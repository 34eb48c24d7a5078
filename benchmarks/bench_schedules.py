"""Bench: schedule families — 2BP's bubble ratio and Chimera's build scaling.

``test_2bp_bubble_ratio``: the 2BP family must strictly reduce pipeline
bubble time against plain 1F1B at identical per-device peak activation
memory (p=4 and p=8), and the achieved ratios are tracked in the uploaded
``BENCH_schedules.json`` so regressions in the schedule builders or the
engine lowering show up in CI history.

Bubble time here is ``p * iteration_time - total_busy_time`` — the idle
device-seconds of one iteration. Both schedules carry identical
per-device work, so any iteration-time gap is pure bubble.

``test_chimera_build_scaling``: building a Chimera schedule must stay
near-linear in its task count. Four times the micro-batches at p=8 must
cost under 8x the time: a linear builder takes about 4x, a scheduler that
rescans every pending task each step about 16x.
"""

import pytest

from benchmarks.common import best_of
from repro.pipeline.schedules import (
    chimera_schedule,
    one_f_one_b_2bp,
    one_f_one_b_schedule,
)
from repro.pipeline.simulator import simulate
from repro.pipeline.tasks import StageCosts

N, HOP = 8, 0.1


def _costs(p):
    return [
        StageCosts(forward=1.0, backward=2.0, activation_bytes=1.0)
        for _ in range(p)
    ]


def _bubble(result, schedule):
    busy = sum(
        task.duration for tasks in schedule.device_tasks for task in tasks
    )
    return result.iteration_time * schedule.num_devices - busy


@pytest.mark.parametrize("p", [4, 8])
def test_2bp_bubble_ratio(benchmark, p):
    """Build + simulate both families; gate the strict bubble reduction
    at equal peaks and record the ratio."""
    costs = _costs(p)
    base_schedule = one_f_one_b_schedule(costs, N, hop_time=HOP)
    split_schedule = one_f_one_b_2bp(costs, N, hop_time=HOP)

    def _both():
        return (
            simulate(base_schedule, cache=False),
            simulate(split_schedule, cache=False),
        )

    base, split = benchmark(_both)
    assert split.iteration_time < base.iteration_time
    assert split.device_peak_bytes == base.device_peak_bytes

    base_bubble = _bubble(base, base_schedule)
    split_bubble = _bubble(split, split_schedule)
    assert split_bubble < base_bubble
    benchmark.extra_info.update(
        devices=p,
        micro_batches=N,
        hop_time=HOP,
        onef1b_iteration_s=round(base.iteration_time, 6),
        twobp_iteration_s=round(split.iteration_time, 6),
        onef1b_bubble_s=round(base_bubble, 6),
        twobp_bubble_s=round(split_bubble, 6),
        bubble_ratio=round(split_bubble / base_bubble, 4),
        peak_bytes=list(base.device_peak_bytes),
    )


def test_chimera_build_scaling(benchmark):
    """Time ``chimera_schedule`` at p=8 with n=64 and n=256 (4x the tasks);
    gate the time ratio below 8 and record both times."""
    p, small_n, large_n = 8, 64, 256
    costs = [
        StageCosts(
            forward=1.0 + 0.1 * stage,
            backward=2.0 + 0.2 * stage,
            activation_bytes=1.0,
        )
        for stage in range(p)
    ]
    small = best_of(lambda: chimera_schedule(costs, small_n, hop_time=HOP), 5)
    large = best_of(lambda: chimera_schedule(costs, large_n, hop_time=HOP), 3)
    benchmark.pedantic(
        lambda: chimera_schedule(costs, large_n, hop_time=HOP),
        rounds=1, iterations=1,
    )
    benchmark.extra_info.update(
        devices=p,
        hop_time=HOP,
        small_micro_batches=small_n,
        large_micro_batches=large_n,
        small_build_s=round(small, 6),
        large_build_s=round(large, 6),
        time_ratio=round(large / small, 2),
    )
    assert large / small < 8.0
