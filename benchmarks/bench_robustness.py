"""Bench: the robustness ensemble (the CI robustness smoke job).

``evaluate_robustness`` runs 1 nominal + K ensemble + (p + 1) criticality
simulations per report; this bench pins the ensemble's wall time on a
p=4, K=8 configuration so regressions in the perturbation lowering or the
simulator engines show up in the uploaded ``BENCH_robustness.json``.

The ``batch``-named benches pin the batched vectorized path (uploaded
separately as ``BENCH_batch.json``): one p=4, K=32 ensemble executed as a
single numpy sweep must beat the per-draw path by >= 10x — with
bit-identical results. The per-draw benches here call the oracle,
``evaluate_robustness_reference``, which runs every draw through
``simulate_reference``: the floor the batched path is compared against.
"""

import random

from benchmarks.common import best_of
from repro.core.robust import evaluate_robustness, evaluate_robustness_reference
from repro.pipeline.perturb import PerturbationSpec, perturb_schedule
from repro.pipeline.schedules import one_f_one_b_schedule
from repro.pipeline.simulator import simulate_reference
from repro.pipeline.tasks import StageCosts

P, N, DRAWS = 4, 64, 8

#: Ensemble size of the batched benches — the ISSUE's K >= 32 floor.
BATCH_DRAWS = 32

#: The batched sweep must be at least this much faster than the per-draw
#: reference path on the same ensemble.
BATCH_SPEEDUP_FLOOR = 10.0


def _schedule():
    rng = random.Random(7)
    costs = [
        StageCosts(
            forward=rng.uniform(0.8, 1.2),
            backward=rng.uniform(1.6, 2.4),
            activation_bytes=rng.uniform(1.0, 8.0),
        )
        for _ in range(P)
    ]
    return one_f_one_b_schedule(costs, N, hop_time=0.05)


def _spec():
    return PerturbationSpec.build({2: 1.5, 3: 1.5}, jitter_sigma=0.05, seed=0)


def test_perturb_lowering_latency(benchmark):
    """One spec application — the per-draw overhead on top of simulate."""
    schedule = _schedule()
    spec = _spec()
    perturbed = benchmark(lambda: perturb_schedule(schedule, spec))
    assert perturbed is not schedule


def test_robustness_ensemble(benchmark):
    """The full p=4, K=8 report on the per-draw path: ensemble +
    criticality differences. The oracle is uncached, so the bench keeps
    measuring per-draw compute, not cache hits."""
    schedule = _schedule()
    spec = _spec()
    report = benchmark(
        lambda: evaluate_robustness_reference(schedule, spec, DRAWS)
    )
    assert len(report.times) == DRAWS
    assert all(c >= 0.0 for c in report.device_criticality)
    benchmark.extra_info.update(
        devices=P,
        draws=DRAWS,
        tasks=2 * P * N,
        simulations_per_report=1 + DRAWS + P + 1,
        mean_slowdown=round(report.slowdown("mean"), 4),
        p95_slowdown=round(report.slowdown("p95"), 4),
    )


def test_ensemble_overhead_floor(benchmark):
    """A per-draw report is K+p+2 reference simulations plus K+p+1 spec
    lowerings; the statistics/bookkeeping on top may not add more than ~3x
    slack."""
    schedule = _schedule()
    spec = _spec()
    sims = 1 + DRAWS + P + 1
    lowerings = DRAWS + P + 1

    def _sequential():
        return evaluate_robustness_reference(schedule, spec, DRAWS)

    single = best_of(lambda: simulate_reference(schedule))
    lower = best_of(lambda: perturb_schedule(schedule, spec))
    ensemble = best_of(_sequential)
    budget = sims * single + lowerings * lower
    benchmark.pedantic(_sequential, rounds=1, iterations=1)
    benchmark.extra_info.update(
        single_sim_s=round(single, 6),
        single_lowering_s=round(lower, 6),
        ensemble_s=round(ensemble, 6),
        overhead_ratio=round(ensemble / budget, 2),
    )
    assert ensemble <= 3.0 * budget


def test_batched_ensemble(benchmark):
    """The p=4, K=32 report on the batched path: one duration matrix, one
    numpy sweep. The first call pays the (bit-pinned, per-draw) jitter
    derivation; the memoized steady state is what downstream sweeps see,
    so that is what the bench records."""
    schedule = _schedule()
    spec = _spec()

    def _batched():
        return evaluate_robustness(schedule, spec, BATCH_DRAWS, cache=False)

    _batched()  # warm the jitter memo on the schedule's BatchedSchedule
    report = benchmark(_batched)
    assert len(report.times) == BATCH_DRAWS
    benchmark.extra_info.update(
        devices=P,
        draws=BATCH_DRAWS,
        tasks=2 * P * N,
        rows_per_sweep=2 + BATCH_DRAWS + P,
        mean_slowdown=round(report.slowdown("mean"), 4),
    )


def test_batched_vs_sequential_floor(benchmark):
    """The acceptance gate: at p=4, K=32 the batched sweep must beat the
    sequential per-draw reference path by >= 10x, and the reports — every
    ensemble iteration time included — must be bit-identical."""
    schedule = _schedule()
    spec = _spec()

    def _batched():
        return evaluate_robustness(schedule, spec, BATCH_DRAWS, cache=False)

    def _sequential():
        return evaluate_robustness_reference(schedule, spec, BATCH_DRAWS)

    batched_report = _batched()  # also warms the jitter memo
    sequential_report = _sequential()
    assert batched_report.times == sequential_report.times
    assert batched_report == sequential_report

    batched_s = best_of(_batched)
    sequential_s = best_of(_sequential, repeats=3)
    benchmark.pedantic(_batched, rounds=1, iterations=1)
    benchmark.extra_info.update(
        devices=P,
        draws=BATCH_DRAWS,
        tasks=2 * P * N,
        batched_s=round(batched_s, 6),
        sequential_s=round(sequential_s, 6),
        speedup=round(sequential_s / batched_s, 1),
    )
    assert sequential_s >= BATCH_SPEEDUP_FLOOR * batched_s, (
        f"batched sweep only {sequential_s / batched_s:.1f}x faster "
        f"(floor {BATCH_SPEEDUP_FLOOR}x)"
    )
