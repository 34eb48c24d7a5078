"""Bench: the simulator engines themselves.

The strategy sweep and the experiment harness both lean on ``simulate``;
this bench pins the compiled ready-queue engine's advantage over the
reference polling oracle on a large schedule (p=16, n=256 — 8192 tasks),
and the cross-run cache's replay speed on top.

Acceptance floors (asserted in ``test_speedup_floors``): compiled ≥ 5x
faster than reference with a warm lowering, cache replay ≥ 50x faster
than reference.
"""

import random

import pytest

from benchmarks.common import best_of
from repro.pipeline.schedules import one_f_one_b_schedule
from repro.pipeline.simulator import SimulationCache, simulate
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


@pytest.mark.parametrize("engine", ["compiled", "reference"])
def test_sim_engine_latency(benchmark, engine):
    """Uncached single-run latency per engine (lowering pre-warmed by the
    generator's validate(), as in every real code path)."""
    schedule = _large_schedule()
    result = benchmark(lambda: simulate(schedule, engine=engine, cache=False))
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
    """The ISSUE's acceptance floors: compiled ≥5x, cache replay ≥50x."""
    schedule = _large_schedule()
    reference = best_of(lambda: simulate(schedule, engine="reference", cache=False))
    compiled = best_of(lambda: simulate(schedule, engine="compiled", cache=False))
    cache = SimulationCache()
    simulate(schedule, cache=cache)
    replay = best_of(lambda: simulate(schedule, cache=cache))

    benchmark.pedantic(
        lambda: simulate(schedule, engine="compiled", cache=False),
        rounds=1, iterations=1,
    )
    benchmark.extra_info.update(
        tasks=2 * P * N,
        reference_s=round(reference, 6),
        compiled_s=round(compiled, 6),
        cache_replay_s=round(replay, 6),
        compiled_speedup=round(reference / compiled, 2),
        replay_speedup=round(reference / replay, 2),
    )
    assert reference / compiled >= 5.0
    assert reference / replay >= 50.0
