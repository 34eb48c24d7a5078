"""Bench: the simulator engines themselves.

The strategy sweep and the experiment harness both lean on ``simulate``;
this bench pins its advantage — the batched wavefront run at R = 1 — over
the reference polling oracle on a large schedule (p=16, n=256 — 8192
tasks), and the cross-run cache's replay speed on top.

Acceptance floors (asserted in ``test_speedup_floors``): ``simulate`` ≥ 5x
faster than ``simulate_reference``, cache replay ≥ 50x faster than
reference. ``simulate`` is timed on its first call of each fresh
schedule, as ``evaluate_plan`` calls it: only the lowering is warm (the
generator's ``validate()``), so the level plan it builds is inside the
timing.
"""

import random

import pytest

from benchmarks.common import best_of
from repro.pipeline.schedules import one_f_one_b_schedule
from repro.pipeline.simulator import SimulationCache, simulate, simulate_reference
from repro.pipeline.tasks import StageCosts

P, N = 16, 256


def _large_schedule():
    rng = random.Random(42)
    costs = [
        StageCosts(
            forward=rng.uniform(0.8, 1.2),
            backward=rng.uniform(1.6, 2.4),
            activation_bytes=rng.uniform(1.0, 8.0),
            static_bytes=rng.uniform(10.0, 20.0),
            buffer_bytes=rng.uniform(0.0, 2.0),
        )
        for _ in range(P)
    ]
    return one_f_one_b_schedule(costs, N, hop_time=0.05)


_ENGINES = {
    "simulate": lambda schedule: simulate(schedule, cache=False),
    "reference": simulate_reference,
}


@pytest.mark.parametrize("engine", list(_ENGINES))
def test_engine_latency(benchmark, engine):
    """Uncached single-run latency per engine, each round on a fresh
    schedule (lowering pre-warmed by the generator's validate(), as in
    every real code path)."""
    result = benchmark.pedantic(
        _ENGINES[engine], setup=lambda: ((_large_schedule(),), {}), rounds=5
    )
    assert result.iteration_time > 0


def test_sim_cache_replay(benchmark):
    """Replay of a memoized result for a rebuilt (digest-equal) schedule."""
    cache = SimulationCache()
    simulate(_large_schedule(), cache=cache)  # populate
    schedule = _large_schedule()  # fresh object, same content
    result = benchmark(lambda: simulate(schedule, cache=cache))
    assert result.iteration_time > 0
    assert cache.hits > 0


def test_speedup_floors(benchmark):
    """The acceptance floors: ``simulate`` ≥5x on first calls, cache
    replay ≥50x."""
    schedule = _large_schedule()
    reference = best_of(lambda: simulate_reference(schedule))
    fresh = iter([_large_schedule() for _ in range(5)])
    fast = best_of(lambda: simulate(next(fresh), cache=False), repeats=5)
    cache = SimulationCache()
    simulate(schedule, cache=cache)
    replay = best_of(lambda: simulate(schedule, cache=cache))

    benchmark.pedantic(
        lambda: simulate(schedule, cache=False), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        tasks=2 * P * N,
        reference_s=round(reference, 6),
        simulate_s=round(fast, 6),
        cache_replay_s=round(replay, 6),
        simulate_speedup=round(reference / fast, 2),
        replay_speedup=round(reference / replay, 2),
    )
    assert reference / fast >= 5.0
    assert reference / replay >= 50.0
