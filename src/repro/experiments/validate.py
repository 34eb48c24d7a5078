"""Self-validation battery: ``adapipe validate``.

Runs the repository's load-bearing cross-checks end-to-end in one command —
the consistency arguments that make the simulator-based reproduction
trustworthy. Each check pits two independent implementations of the same
quantity against each other:

1. knapsack DP vs exponential brute force (integer *and* fractional
   weights — the DP must stay budget-feasible, never just value-close);
2. 1F1B phase model vs event-driven simulator (homogeneous exactness);
3. modelled per-stage memory vs simulated activation peaks;
4. pipelined 1F1B executor vs monolithic training (losses and gradients);
5. unit-granular recomputation vs save-everything (gradient identity);
6. the eager (tape) engine vs the manual-backward engine;
7. plan JSON round-trip fidelity;
8. schedule-aware memory audit — modelled in-flight counts and device
   peaks vs the simulator's, for every row of the schedule-family table
   (conservative everywhere, exact wherever the row claims
   ``exact_in_flight``);
9. the new schedule families — 2BP split backward and overlapped
   recomputation: bit-equality of ``simulate`` (the batched fast path)
   and the reference engine, 2BP strictly shrinking the bubble at equal
   peak memory, and fused-vs-explicit overlap lowering equivalence;
10. adalint — the domain-aware static analysis pass over the installed
    package (determinism, unit consistency, frozen mutation) must report
    zero unsuppressed findings;
11. heterogeneous round trip — a homogeneous device pool must reproduce
    the poolless planner's plan bit-identically, and an elastic
    warm-started replan after a device leaves must select the same plan
    as a cold sweep on the shrunken pool while actually reusing cached
    stage evaluations.
"""

from __future__ import annotations


from typing import Callable, List, Tuple

import numpy as np

CheckResult = Tuple[str, bool, str]


def _check_knapsack() -> CheckResult:
    from repro.core.recompute_dp import (
        UnitItem,
        brute_force_recompute,
        optimize_stage_recompute,
    )

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(25):
        items = [
            UnitItem(
                name=f"u{i}",
                value=float(rng.uniform(0.1, 5.0)),
                weight_bytes=float(rng.integers(1, 40)),
                copies=int(rng.integers(1, 3)),
            )
            for i in range(4)
        ]
        budget = float(rng.integers(0, 150))
        result = optimize_stage_recompute(items, budget, in_flight=2)
        _, best = brute_force_recompute(items, budget, 2)
        worst = max(worst, abs(result.saved_value - best))
    if worst >= 1e-9:
        return ("knapsack vs brute force", False, f"max gap {worst:.2e}")

    # Fractional weights/budgets: quantization may legitimately leave value
    # on the table, but the returned save set must stay budget-feasible
    # (true bytes, not rounded ones) and never beat the true optimum.
    infeasible = 0
    for _ in range(25):
        items = [
            UnitItem(
                name=f"u{i}",
                value=float(rng.uniform(0.1, 5.0)),
                weight_bytes=float(rng.uniform(0.5, 40.0)),
                copies=int(rng.integers(1, 3)),
            )
            for i in range(4)
        ]
        budget = float(rng.uniform(0.0, 150.0))
        in_flight = int(rng.integers(1, 4))
        result = optimize_stage_recompute(items, budget, in_flight)
        _, best = brute_force_recompute(items, budget, in_flight)
        weight_of = {item.name: item.weight_bytes for item in items}
        used = sum(
            weight_of[name] * count * in_flight
            for name, count in result.saved_counts.items()
        )
        if used > budget + 1e-9 or result.saved_value > best + 1e-9:
            infeasible += 1
    ok = infeasible == 0
    detail = f"max gap {worst:.2e}; fractional violations {infeasible}"
    return ("knapsack vs brute force", ok, detail)


def _check_phase_model() -> CheckResult:
    from repro.pipeline.batched import batched_simulator
    from repro.pipeline.schedules import one_f_one_b_schedule
    from repro.pipeline.simulator import simulate, simulate_reference
    from repro.pipeline.tasks import StageCosts

    worst = 0.0
    exact = True
    for p, n, f, b in ((2, 4, 1.0, 2.0), (4, 12, 0.7, 1.4), (8, 8, 1.0, 2.5)):
        costs = [StageCosts(forward=f, backward=b) for _ in range(p)]
        schedule = one_f_one_b_schedule(costs, n)
        simulated = simulate(schedule).iteration_time
        sim = batched_simulator(schedule)
        batched = float(sim.iteration_times(sim.raw_durations)[0])
        reference = simulate_reference(schedule).iteration_time
        exact = exact and simulated == batched == reference
        modeled = (n + p - 1) * (f + b)
        worst = max(worst, abs(simulated - modeled) / modeled)
    ok = worst < 1e-9 and exact
    detail = f"max rel gap {worst:.2e}, ensemble sweep and reference " + (
        "bit-exact" if exact else "MISMATCH"
    )
    return ("1F1B phase model vs simulator", ok, detail)


def _check_memory_model() -> CheckResult:
    from repro.pipeline.schedules import one_f_one_b_schedule
    from repro.pipeline.simulator import simulate
    from repro.pipeline.tasks import StageCosts

    p, n = 5, 9
    costs = [
        StageCosts(forward=1.0, backward=2.0, activation_bytes=1.0)
        for _ in range(p)
    ]
    peaks = simulate(one_f_one_b_schedule(costs, n)).device_peak_bytes
    expected = [float(min(p - s, n)) for s in range(p)]
    ok = peaks == expected
    return ("1F1B in-flight memory min(n, p - s)", ok, f"peaks {peaks}")


def _training_fixture():
    from repro.config import ParallelConfig, TrainingConfig
    from repro.core.search import PlannerContext, plan_adapipe
    from repro.hardware.cluster import cluster_a
    from repro.model.spec import tiny_gpt
    from repro.training.modules import build_model

    spec = tiny_gpt(num_layers=3, hidden_size=32, vocab_size=40)
    train = TrainingConfig(
        sequence_length=8,
        global_batch_size=4,
        micro_batch_size=1,
        sequence_parallel=False,
        flash_attention=False,
    )
    ctx = PlannerContext(
        cluster_a(1),
        spec,
        train,
        ParallelConfig(1, 2, 1),
        memory_limit_bytes=8 * 1024**2,
    )
    plan = plan_adapipe(ctx)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 40, size=(4, 8))
    targets = rng.integers(0, 40, size=(4, 8))
    return spec, plan, tokens, targets, build_model


def _planning_fixture():
    """A small planned workload for the differential schedule checks.

    Four layers so an interleaved layout with two chunks per device still
    has one layer per global stage.
    """
    from repro.config import ParallelConfig, TrainingConfig
    from repro.core.search import PlannerContext, plan_adapipe
    from repro.hardware.cluster import cluster_a
    from repro.model.spec import tiny_gpt

    spec = tiny_gpt(num_layers=4, hidden_size=32, vocab_size=40)
    train = TrainingConfig(
        sequence_length=8,
        global_batch_size=4,
        micro_batch_size=1,
        sequence_parallel=False,
        flash_attention=False,
    )
    ctx = PlannerContext(
        cluster_a(1),
        spec,
        train,
        ParallelConfig(1, 2, 1),
        memory_limit_bytes=8 * 1024**2,
    )
    return ctx, plan_adapipe(ctx)


def _check_pipeline_executor() -> CheckResult:
    from repro.training.pipeline_exec import PipelineExecutor

    spec, plan, tokens, targets, build_model = _training_fixture()
    reference = build_model(spec, seed=9)
    ref_loss = reference.loss_and_grad(tokens, targets)
    pipelined = build_model(spec, seed=9)
    stats = PipelineExecutor(pipelined, plan).train_step(tokens, targets)
    gap = max(
        np.abs(rp.grad - pp.grad).max()
        for (_, rp), (_, pp) in zip(
            reference.named_parameters(), pipelined.named_parameters()
        )
        if rp.grad is not None
    )
    ok = abs(stats.loss - ref_loss) < 1e-12 and gap < 1e-11
    return ("pipelined vs monolithic training", ok, f"grad gap {gap:.2e}")


def _check_recompute_identity() -> CheckResult:
    spec, _, tokens, targets, build_model = _training_fixture()
    model = build_model(spec, seed=4)
    loss_all = model.loss_and_grad(tokens, targets)
    grads = {
        n: p.grad.copy() for n, p in model.named_parameters() if p.grad is not None
    }
    model.zero_grad()
    loss_ckpt = model.loss_and_grad(tokens, targets, [set() for _ in model.layers])
    identical = loss_all == loss_ckpt and all(
        np.array_equal(grads[n], p.grad)
        for n, p in model.named_parameters()
        if p.grad is not None
    )
    return ("recompute gradient identity", identical, "bit-exact" if identical else "mismatch")


def _check_eager_engine() -> CheckResult:
    from repro.training.eager import EagerTransformer

    spec, _, tokens, targets, build_model = _training_fixture()
    model = build_model(spec, seed=2)
    manual_loss = model.loss_and_grad(tokens, targets)
    eager = EagerTransformer(model)
    loss = eager.loss(tokens, targets)
    loss.backward()
    gap = max(
        np.abs(p.grad - eager.params[n].grad).max()
        for n, p in model.named_parameters()
        if p.grad is not None
    )
    ok = abs(float(loss.data) - manual_loss) < 1e-12 and gap < 1e-11
    return ("eager (tape) vs manual engine", ok, f"grad gap {gap:.2e}")


def _check_plan_roundtrip() -> CheckResult:
    from repro.core.serialize import plan_from_dict, plan_to_dict

    _, plan, _, _, _ = _training_fixture()
    restored = plan_from_dict(plan_to_dict(plan))
    ok = (
        restored.layer_counts() == plan.layer_counts()
        and restored.saved_unit_counts() == plan.saved_unit_counts()
        and restored.parallel == plan.parallel
    )
    return ("plan JSON round-trip", ok, "lossless" if ok else "divergent")


def _check_memory_audit() -> CheckResult:
    from repro.baselines.extensions import plan_interleaved
    from repro.core.evaluate import build_schedule_for_plan
    from repro.core.strategies import RecomputePolicy
    from repro.pipeline.memory_audit import audit_schedule_memory
    from repro.pipeline.schedules import SCHEDULE_FAMILIES

    ctx, plan = _planning_fixture()
    chunked = plan_interleaved(ctx, RecomputePolicy.SELECTIVE, chunks=2)
    under, inexact, missing, exact = [], [], [], []
    for family in SCHEDULE_FAMILIES:
        target = chunked if family.chunked else plan
        try:
            schedule = build_schedule_for_plan(target, ctx.cluster, family.name)
        except ValueError:
            missing.append(family.name)
            continue
        report = audit_schedule_memory(schedule, family.name)
        if not report.conservative:
            under.append(family.name)
        if not family.exact_in_flight:
            continue
        exact.append(family.name)
        # A device hosting a single stage peaks with that stage, so exact
        # stage counts must give exact device peaks there as well.
        single_stage = len(report.stages) == len(report.devices)
        if any(not stage.exact for stage in report.stages) or (
            single_stage and report.max_abs_rel_gap > 1e-6
        ):
            inexact.append(family.name)
    ok = not under and not inexact and not missing
    detail = (
        f"{len(SCHEDULE_FAMILIES)} schedules conservative, "
        f"{len(exact)} exact ({', '.join(exact)})"
        if ok
        else (
            f"under-counting on {under or 'n/a'}; "
            f"inexact on {inexact or 'n/a'}; missing {missing or 'n/a'}"
        )
    )
    return ("memory model vs simulator audit", ok, detail)


def _check_schedule_families() -> CheckResult:
    """Differential check of the 2BP and overlapped-recompute families.

    On a pinned p=4 fixture: ``simulate`` and the reference engine must
    agree bit-for-bit on every family; 2BP must strictly shrink the
    pipeline bubble vs 1F1B at identical per-device activation peaks; and
    the fused ``Task.overlap`` lowering must agree with explicit
    ``RECOMPUTE`` tasks to float round-off.
    """
    from repro.pipeline.schedules import (
        one_f_one_b_2bp,
        one_f_one_b_overlapped,
        one_f_one_b_schedule,
    )
    from repro.pipeline.simulator import simulate, simulate_reference
    from repro.pipeline.tasks import StageCosts

    p, n, hop = 4, 8, 0.1
    costs = [
        StageCosts(forward=1.0, backward=2.0, activation_bytes=1.0)
        for _ in range(p)
    ]
    baseline = one_f_one_b_schedule(costs, n, hop_time=hop)
    twobp = one_f_one_b_2bp(costs, n, hop_time=hop)
    explicit = one_f_one_b_overlapped(costs, n, hop_time=hop)
    fused = one_f_one_b_overlapped(costs, n, hop_time=hop, fused=True)

    for schedule in (twobp, explicit, fused):
        fast = simulate(schedule)
        reference = simulate_reference(schedule)
        if not (
            fast.iteration_time == reference.iteration_time
            and fast.end_times == reference.end_times
            and fast.device_peak_bytes == reference.device_peak_bytes
        ):
            return (
                "2BP / overlapped schedule families",
                False,
                f"engine mismatch on {schedule.name}",
            )

    base = simulate(baseline)
    split = simulate(twobp)
    busy = [sum(t.duration for t in tasks) for tasks in baseline.device_tasks]
    base_bubble = base.iteration_time * p - sum(busy)
    split_bubble = split.iteration_time * p - sum(busy)
    if split.device_peak_bytes != base.device_peak_bytes:
        return (
            "2BP / overlapped schedule families",
            False,
            f"2BP peaks {split.device_peak_bytes} != 1F1B {base.device_peak_bytes}",
        )
    if not split_bubble < base_bubble:
        return (
            "2BP / overlapped schedule families",
            False,
            f"2BP bubble {split_bubble:.3f} not < 1F1B {base_bubble:.3f}",
        )
    fuse_gap = abs(
        simulate(explicit).iteration_time - simulate(fused).iteration_time
    )
    ok = fuse_gap < 1e-9
    detail = (
        f"engines bit-exact; bubble {base_bubble:.1f} -> {split_bubble:.1f} "
        f"at equal peaks; fused/explicit gap {fuse_gap:.1e}"
    )
    return ("2BP / overlapped schedule families", ok, detail)


def _check_adalint() -> CheckResult:
    from pathlib import Path

    import repro
    from repro.analysis import run_lint

    package_root = Path(repro.__file__).parent
    result = run_lint([str(package_root)])
    detail = (
        f"{result.files_scanned} files, {len(result.findings)} findings, "
        f"{len(result.suppressed)} suppressed"
    )
    return ("adalint static analysis", result.ok, detail)


def _check_heterogeneous() -> CheckResult:
    """Placement search + elastic replanning round trip (check 11)."""
    from repro.config import TrainingConfig
    from repro.core.isomorphism import StageEvalCache
    from repro.core.replan import pool_without_rank, replan
    from repro.core.serialize import plan_signature
    from repro.core.sweep import SweepConfig, run_sweep
    from repro.hardware.cluster import cluster_a
    from repro.hardware.device import derated
    from repro.model.spec import tiny_gpt

    spec = tiny_gpt(num_layers=4, hidden_size=32, vocab_size=40)
    train = TrainingConfig(
        sequence_length=8,
        global_batch_size=4,
        micro_batch_size=1,
        sequence_parallel=False,
        flash_attention=False,
    )
    base = cluster_a(1)
    limit = 8 * 1024**2
    config = SweepConfig(workers=1)

    # Homogeneous pool must be invisible: bit-identical to no pool.
    plain = run_sweep(base, spec, train, 2, config=config, memory_limit_bytes=limit)
    pooled = run_sweep(
        base.with_device_pool((base.device, base.device)),
        spec,
        train,
        2,
        config=config,
        memory_limit_bytes=limit,
    )
    if plan_signature(plain.best) != plan_signature(pooled.best):
        return ("heterogeneous round trip", False, "homogeneous pool diverges")

    # Elastic round trip: cold pool search, derated rank leaves, warm
    # replan must equal a cold sweep on the survivors while reusing evals.
    pool = (base.device, derated(base.device, 1.3), base.device)
    cluster = base.with_device_pool(pool)
    cache = StageEvalCache()
    cold = run_sweep(
        cluster,
        spec,
        train,
        3,
        config=config,
        eval_cache=cache,
        memory_limit_bytes=limit,
    )
    shrunken = pool_without_rank(cluster, 1)
    warm = replan(
        cold.best, shrunken, spec, eval_cache=cache, memory_limit_bytes=limit
    )
    cold_again = run_sweep(
        shrunken,
        spec,
        train,
        2,
        config=config,
        eval_cache=StageEvalCache(),
        memory_limit_bytes=limit,
    )
    identical = plan_signature(warm.best) == plan_signature(cold_again.best)
    ok = identical and warm.evals_reused > 0
    detail = (
        f"warm == cold, reused {warm.evals_reused} evals "
        f"({warm.reuse_rate:.0%})"
        if ok
        else ("replan diverges from cold sweep" if not identical else "no reuse")
    )
    return ("heterogeneous round trip", ok, detail)


CHECKS: List[Callable[[], CheckResult]] = [
    _check_knapsack,
    _check_phase_model,
    _check_memory_model,
    _check_pipeline_executor,
    _check_recompute_identity,
    _check_eager_engine,
    _check_plan_roundtrip,
    _check_memory_audit,
    _check_schedule_families,
    _check_adalint,
    _check_heterogeneous,
]


def run_validation() -> List[CheckResult]:
    """Execute every cross-check; returns (name, passed, detail) triples."""
    return [check() for check in CHECKS]


def render_validation(results: List[CheckResult]) -> str:
    lines = []
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        lines.append(f"[{status}] {name:36s} {detail}")
    failed = sum(1 for _, passed, _ in results if not passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} consistency checks passed"
    )
    return "\n".join(lines)
