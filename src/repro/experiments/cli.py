"""Command-line interface.

* ``adapipe list`` — available experiments.
* ``adapipe run <experiment|all> [--fast]`` — regenerate paper artifacts.
* ``adapipe plan ...`` — run the search engine on a chosen model, cluster
  and workload; print the plan and optionally write it as JSON and
  simulate it. ``--device-pool`` plans a heterogeneous per-rank fleet
  with stage placement searched across the device classes.
* ``adapipe replan ...`` — elastic warm-start replan: re-search a changed
  device pool (leave/join/drift) reusing a surviving plan's persisted
  stage-evaluation cache.
* ``adapipe validate`` — the cross-implementation consistency battery.
* ``adapipe lint`` — adalint, the domain-aware static analysis pass
  (determinism, unit consistency, frozen mutation);
  text/JSON/SARIF reporters, ``--changed`` for git-scoped runs.
* ``adapipe audit ...`` — differential memory audit: the Section 4.2
  model's per-stage totals vs the simulator's measured peaks, across the
  schedule zoo.
* ``adapipe robustness ...`` — perturbation-ensemble evaluation of one
  plan: nominal vs mean/p95/worst iteration time plus per-device
  straggler criticality, optionally rendered as an SVG heat map.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, List, Optional, TypeVar

from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.pipeline.schedules import SCHEDULE_KINDS, schedule_family

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.config import ParallelConfig, TrainingConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adapipe",
        description="AdaPipe (ASPLOS 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    runner = sub.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("experiment", help="experiment id, e.g. figure5, or 'all'")
    runner.add_argument(
        "--fast",
        action="store_true",
        help="smaller sweeps / fewer steps (seconds instead of minutes)",
    )
    runner.add_argument(
        "--svg-dir",
        metavar="DIR",
        help="also render the result as an SVG chart into DIR",
    )
    runner.add_argument(
        "--html",
        metavar="FILE",
        help="also assemble all results into a single-file HTML report",
    )

    planner = sub.add_parser("plan", help="search a plan for a configuration")
    planner.add_argument("--model", default="gpt3-175b",
                         help="model name (gpt3-175b, llama2-70b, bert-large)")
    planner.add_argument("--cluster", default="A", choices=["A", "B"],
                         help="hardware cluster")
    planner.add_argument("--devices", type=int, default=64,
                         help="accelerators to occupy")
    planner.add_argument("--seq", type=int, default=4096, help="sequence length")
    planner.add_argument("--batch", type=int, default=128, help="global batch size")
    planner.add_argument("--tp", type=int, help="tensor parallel size")
    planner.add_argument("--pp", type=int, help="pipeline parallel size")
    planner.add_argument("--dp", type=int, help="data parallel size")
    planner.add_argument("--method", default="AdaPipe",
                         help="planning method (see `adapipe list` methods)")
    planner.add_argument("--memory-limit-gib", type=float,
                         help="DP memory constraint in GiB (default: 92%% of device)")
    planner.add_argument("--output", help="write the plan as JSON to this path")
    planner.add_argument("--no-simulate", action="store_true",
                         help="skip the pipeline simulation")
    planner.add_argument(
        "--robust-objective", default="nominal",
        choices=["nominal", "mean", "p95", "worst"],
        help="rank feasible strategies by this perturbation-ensemble "
             "statistic instead of the nominal simulated time",
    )
    planner.add_argument("--robust-draws", type=int, default=8,
                         help="perturbation ensemble size per strategy")
    planner.add_argument("--robust-sigma", type=float, default=0.05,
                         help="lognormal per-task jitter sigma")
    planner.add_argument("--robust-seed", type=int, default=0,
                         help="jitter base seed")
    planner.add_argument(
        "--robust-device-factor", action="append", default=[],
        metavar="RANK=FACTOR",
        help="derate pipeline rank RANK by FACTOR (repeatable)",
    )
    planner.add_argument(
        "--sweep-workers", type=int, metavar="N",
        help="run the search through the sweep orchestrator with N worker "
             "processes (0 = one per CPU core); enables work-stealing "
             "shards, cache merge-back and incumbent-broadcast pruning",
    )
    planner.add_argument(
        "--sweep-checkpoint", metavar="FILE",
        help="write periodic frontier checkpoints to FILE so a killed "
             "sweep can resume via --sweep-resume FILE",
    )
    planner.add_argument(
        "--sweep-resume", metavar="FILE",
        help="resume the sweep from a checkpoint written by "
             "--sweep-checkpoint (re-plans only uncovered strategies)",
    )
    planner.add_argument(
        "--sweep-cache", metavar="FILE",
        help="persist the merged stage-evaluation cache to FILE and warm-"
             "start from it on later runs",
    )
    planner.add_argument(
        "--sweep-progress", action="store_true",
        help="stream best-so-far plans as the sweep's frontier advances",
    )
    planner.add_argument(
        "--device-pool", metavar="SPEC",
        help="heterogeneous per-rank device pool: comma-separated "
             "NAME[*SLOWDOWN][:COUNT] parts (presets: a100, ascend), e.g. "
             "'a100:2,a100*1.3,ascend'; fixes the pipeline depth to the "
             "pool size and searches stage placement across the classes",
    )

    replanner = sub.add_parser(
        "replan",
        help="elastic replan: warm-start the search on a changed cluster "
             "from a surviving plan + persisted evaluation cache",
    )
    replanner.add_argument("--plan", required=True, metavar="FILE",
                           help="surviving plan JSON (from `adapipe plan "
                                "--output`)")
    replanner.add_argument("--model", default="gpt3-175b",
                           help="model name the plan was searched for")
    replanner.add_argument("--cluster", default="A", choices=["A", "B"],
                           help="hardware cluster")
    replanner.add_argument(
        "--device-pool", required=True, metavar="SPEC",
        help="the NEW per-rank device pool after the elastic event "
             "(same syntax as `adapipe plan --device-pool`)",
    )
    replanner.add_argument(
        "--cache", metavar="FILE",
        help="persisted evaluation cache (see `adapipe plan --sweep-cache`); "
             "loaded for the warm start and rewritten with the new entries",
    )
    replanner.add_argument("--devices", type=int,
                           help="total accelerators (default: keep the "
                                "plan's per-rank device count times the "
                                "new pool size)")
    replanner.add_argument("--memory-limit-gib", type=float,
                           help="DP memory constraint in GiB (default: 92%% "
                                "of each device)")
    replanner.add_argument("--output", metavar="FILE",
                           help="write the replanned best plan as JSON")

    artifact = sub.add_parser(
        "artifact",
        help="run the artifact-style workflow (global_test.sh equivalent)",
    )
    artifact.add_argument("--output-dir", default="artifact_results")
    artifact.add_argument("--fast", action="store_true",
                          help="first workload and strategy per model only")
    artifact.add_argument("--collect-only", action="store_true",
                          help="summarise an existing run (collect_result.py)")

    sub.add_parser(
        "validate",
        help="run the cross-implementation consistency battery",
    )

    lint = sub.add_parser(
        "lint",
        help="adalint: domain-aware static analysis (determinism, unit "
             "consistency, frozen mutation)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyse (default: src)",
    )
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text", help="stdout rendering")
    lint.add_argument(
        "--output", metavar="FILE",
        help="also write the full JSON report to FILE (CI artifact)",
    )
    lint.add_argument(
        "--sarif", metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE (GitHub code "
             "scanning upload)",
    )
    lint.add_argument(
        "--changed", action="store_true",
        help="lint only files changed vs git HEAD (plus untracked), "
             "scoped to the given paths; relpaths and baselines stay "
             "rooted as in a full run",
    )
    lint.add_argument(
        "--baseline", metavar="FILE",
        help="JSON report whose findings are accepted as pre-existing",
    )
    lint.add_argument(
        "--write-baseline", metavar="FILE",
        help="write the current findings as a baseline file and exit 0",
    )
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")

    audit = sub.add_parser(
        "audit",
        help="differential memory audit: Section 4.2 model vs simulator",
    )
    audit.add_argument("--model", default="bert-large",
                       help="model name (gpt3-175b, llama2-70b, bert-large)")
    audit.add_argument("--cluster", default="A", choices=["A", "B"],
                       help="hardware cluster")
    audit.add_argument("--seq", type=int, default=512, help="sequence length")
    audit.add_argument("--batch", type=int, default=16, help="global batch size")
    audit.add_argument("--tp", type=int, default=1, help="tensor parallel size")
    audit.add_argument("--pp", type=int, default=4, help="pipeline parallel size")
    audit.add_argument("--dp", type=int, default=1, help="data parallel size")
    audit.add_argument("--memory-limit-gib", type=float,
                       help="memory constraint in GiB (default: 92%% of device)")
    audit.add_argument(
        "--schedules", nargs="+", default=list(SCHEDULE_KINDS),
        choices=SCHEDULE_KINDS,
        help="schedule kinds to audit the plan under (default: all)",
    )
    audit.add_argument("--chunks", type=int, default=2,
                       help="chunks per device for the chunked (interleaved) "
                            "audits")
    audit.add_argument("--verbose", action="store_true",
                       help="print the full per-stage discrepancy tables")

    robust = sub.add_parser(
        "robustness",
        help="perturbation-ensemble statistics and straggler criticality "
             "for one planned configuration",
    )
    robust.add_argument("--model", default="gpt3-175b",
                        help="model name (gpt3-175b, llama2-70b, bert-large)")
    robust.add_argument("--cluster", default="A", choices=["A", "B"],
                        help="hardware cluster")
    robust.add_argument("--seq", type=int, default=4096, help="sequence length")
    robust.add_argument("--batch", type=int, default=128,
                        help="global batch size")
    robust.add_argument("--tp", type=int, default=8, help="tensor parallel size")
    robust.add_argument("--pp", type=int, default=8, help="pipeline parallel size")
    robust.add_argument("--dp", type=int, default=1, help="data parallel size")
    robust.add_argument("--method", default="AdaPipe",
                        help="planning method (see `adapipe list` methods)")
    robust.add_argument("--memory-limit-gib", type=float,
                        help="memory constraint in GiB (default: 92%% of device)")
    robust.add_argument(
        "--schedule", default="1f1b", choices=SCHEDULE_KINDS,
        help="schedule to execute the plan under",
    )
    robust.add_argument("--draws", type=int, default=16,
                        help="perturbation ensemble size")
    robust.add_argument("--sigma", type=float, default=0.05,
                        help="lognormal per-task jitter sigma")
    robust.add_argument("--seed", type=int, default=0, help="jitter base seed")
    robust.add_argument(
        "--device-factor", action="append", default=[],
        metavar="RANK=FACTOR",
        help="derate pipeline rank RANK by FACTOR (repeatable)",
    )
    robust.add_argument("--json", metavar="FILE",
                        help="write the report as JSON to FILE")
    robust.add_argument(
        "--svg", metavar="FILE",
        help="write a per-device factor/criticality heat map to FILE",
    )
    return parser


def _parse_device_factors(pairs, num_ranks: int, cluster):
    """``RANK=FACTOR`` strings -> ``cluster`` with those per-rank factors.

    Returns ``cluster`` unchanged when no pair is given. Malformed pairs,
    out-of-range ranks and factors the cluster rejects (NaN, infinite,
    zero or negative) exit with one ``error:`` line.
    """
    if not pairs:
        return cluster
    factors = [1.0] * num_ranks
    for pair in pairs:
        rank_text, _, factor_text = pair.partition("=")
        try:
            rank, factor = int(rank_text), float(factor_text)
        except ValueError:
            raise SystemExit(
                f"error: --device-factor expects RANK=FACTOR, got {pair!r}"
            )
        if not 0 <= rank < num_ranks:
            raise SystemExit(
                f"error: rank {rank} out of range for {num_ranks} pipeline ranks"
            )
        factors[rank] = factor
    try:
        return cluster.with_device_factors(factors)
    except ValueError as err:
        raise SystemExit(f"error: {err}")


def _parse_device_pool(text: str):
    """``NAME[*SLOWDOWN][:COUNT],...`` -> a tuple of DeviceSpecs."""
    from repro.hardware.device import derated, device_preset

    pool = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count_text = part.partition(":")
        base, _, slow_text = name.partition("*")
        try:
            count = int(count_text) if count_text else 1
            slowdown = float(slow_text) if slow_text else 1.0
            device = derated(device_preset(base), slowdown)
        except ValueError as err:
            raise SystemExit(f"error: --device-pool: {err}")
        if count < 1:
            raise SystemExit(f"error: --device-pool count must be >= 1 in {part!r}")
        pool.extend([device] * count)
    if not pool:
        raise SystemExit("error: --device-pool names no devices")
    return tuple(pool)


def _cmd_list() -> int:
    from repro.baselines import ALL_METHODS

    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    print("methods (for `adapipe plan --method`):")
    for name in ALL_METHODS:
        print(f"  {name}")
    return 0


def _cmd_run(args) -> int:
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    results = {}
    for name in names:
        started = time.time()  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
        result = run_experiment(name, fast=args.fast)
        results[name] = result
        print(result.render())
        print(f"({name} finished in {time.time() - started:.1f}s)\n")  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
    if args.svg_dir:
        from repro.report import save_experiment_svgs

        for path in save_experiment_svgs(results, args.svg_dir):
            print(f"chart written to {path}")
    if args.html:
        from repro.report.html import write_html_report

        print(f"report written to {write_html_report(results, args.html)}")
    return 0


def _robust_select(args, cluster, feasible, nominal_strategy):
    """Re-rank the feasible strategies by a perturbation-ensemble statistic.

    Mirrors ``repro.core.sweep`` robust mode: every feasible plan's 1F1B
    schedule runs under the same perturbation model (per-rank slowdown
    factors + seeded jitter) and the requested statistic replaces the
    nominal simulated time as the selection key. The chosen evaluation's
    plan carries the ensemble summary as ``robust_*`` metadata.
    """
    import dataclasses

    from repro.core.evaluate import build_schedule_for_plan
    from repro.core.robust import (
        cluster_perturbation,
        evaluate_robustness_many,
        robust_metadata,
    )

    num_ranks = max(s.pipeline_parallel for s, _ in feasible)
    cluster = _parse_device_factors(args.robust_device_factor, num_ranks, cluster)
    # The perturbation spec depends only on the pipeline width, so
    # strategies sharing one width share a spec and batch-evaluate
    # through evaluate_robustness_many (one vectorized sweep per shape).
    schedules = [
        build_schedule_for_plan(evaluation.plan, cluster, "1f1b")
        for _, evaluation in feasible
    ]
    by_width = {}
    for position, schedule in enumerate(schedules):
        by_width.setdefault(schedule.num_devices, []).append(position)
    reports = [None] * len(feasible)
    for width, positions in sorted(by_width.items()):
        pert = cluster_perturbation(
            cluster,
            width,
            jitter_sigma=args.robust_sigma,
            seed=args.robust_seed,
        )
        width_reports = evaluate_robustness_many(
            [schedules[position] for position in positions],
            pert,
            args.robust_draws,
        )
        for position, report in zip(positions, width_reports):
            reports[position] = report
    best = best_strategy = best_key = None
    for (strategy, evaluation), report in zip(feasible, reports):
        evaluation = dataclasses.replace(
            evaluation,
            plan=evaluation.plan.with_metadata(
                robust_objective=args.robust_objective,
                **robust_metadata(report),
            ),
        )
        key = report.objective(args.robust_objective)
        if best_key is None or key < best_key:
            best, best_strategy, best_key = evaluation, strategy, key
    flipped = "" if best_strategy == nominal_strategy else (
        f" (flipped from nominal winner {nominal_strategy})"
    )
    print(
        f"robust objective {args.robust_objective} over {args.robust_draws} "
        f"draws selects {best_strategy} at {best_key:.3f}s{flipped}"
    )
    return best, best_strategy


_T = TypeVar("_T")


def _checked(build: Callable[..., _T], *args: Any) -> Optional[_T]:
    """``build(*args)``, or None after one ``error:`` line when it raises
    :class:`~repro.config.ConfigError`: an unknown ``--method`` or
    ``--model`` (the message names the known ones), or workload numbers
    that do not make a workload (``--seq``/``--batch`` below 1, a batch
    that ``--dp`` does not divide)."""
    from repro.config import ConfigError

    try:
        return build(*args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _strategy(args, train: TrainingConfig) -> Optional[ParallelConfig]:
    """The ``--tp/--pp/--dp`` strategy, checked to split ``train`` into
    whole micro-batches; None after one ``error:`` line when it does not."""
    from repro.config import ParallelConfig

    parallel = _checked(ParallelConfig, args.tp, args.pp, args.dp)
    if parallel is None or _checked(train.num_micro_batches, parallel) is None:
        return None
    return parallel


def _unusable_file(exc: Exception) -> int:
    """Report a plan, cache, checkpoint or report file that cannot be used;
    exit code 2."""
    if isinstance(exc.__cause__, OSError):  # missing or not a file
        print(f"error: {exc}", file=sys.stderr)
    else:
        print(f"error: {exc}; deleting the file makes the next run start cold",
              file=sys.stderr)
    return 2


def _cmd_plan_sweep(args, cluster, spec, train, limit) -> int:
    """``adapipe plan`` through the sweep orchestrator (--sweep-* flags).

    Work-stealing parallel planning with cache merge-back, incumbent
    broadcast, frontier streaming, and checkpoint/resume (ALGORITHMS.md
    §12). It selects the same best plan as the serial sweep, which need
    not be the default loop's: the sweep ranks strategies by modelled
    iteration time per sample, which leaves out ZeRO-1 gradient sync,
    while the default loop (``_cmd_plan``) ranks them by simulated
    iteration time, which includes it. For bert-large on 8 devices (seq
    512, batch 16) the default loop picks (1,8,1) and the sweep (1,2,4).
    A method whose schedule is not 1F1B (the Chimera family) exits 2: the
    phase model and the sweep's lower bound describe 1F1B only.
    """
    from repro.baselines import evaluate_method
    from repro.baselines.methods import method_spec
    from repro.core.isomorphism import StageEvalCache
    from repro.core.orchestrator import CheckpointError
    from repro.core.search import PlannerContext
    from repro.core.serialize import PlanFormatError, dump_plan
    from repro.core.sweep import SweepConfig, run_sweep

    if any(v is not None for v in (args.tp, args.pp, args.dp)):
        print("error: --sweep-* flags search the strategy space; drop "
              "--tp/--pp/--dp (or drop the sweep flags)", file=sys.stderr)
        return 2
    if args.robust_objective != "nominal":
        print("error: the sweep orchestrator ranks by the nominal modelled "
              "time; use `adapipe plan` without --sweep-* flags for robust "
              "objectives", file=sys.stderr)
        return 2
    kind = method_spec(args.method).schedule_kind
    if kind != "1f1b":
        print(f"error: the sweep orchestrator ranks by the 1F1B phase model, "
              f"but {args.method} runs a {kind} schedule; use `adapipe plan` "
              f"without --sweep-* flags", file=sys.stderr)
        return 2

    progress = None
    if args.sweep_progress:
        def progress(event) -> None:
            if event.improved and event.per_sample_time is not None:
                iteration = event.per_sample_time * train.global_batch_size
                print(
                    f"[{event.completed}/{event.total}] frontier: "
                    f"{event.parallel} at {iteration:.3f}s/iter (modelled)"
                )

    cache = StageEvalCache()
    config = SweepConfig(
        workers=args.sweep_workers if args.sweep_workers is not None else 0,
        checkpoint_path=args.sweep_checkpoint,
        cache_path=args.sweep_cache,
    )
    try:
        result = run_sweep(
            cluster,
            spec,
            train,
            args.devices,
            planner=args.method,
            config=config,
            resume_from=args.sweep_resume,
            progress=progress,
            eval_cache=cache,
            memory_limit_bytes=limit,
        )
    except CheckpointError as exc:
        return _unusable_file(exc)
    if result.best is None:
        print(f"no feasible strategy for {args.method} "
              f"({args.model}, seq {args.seq}) — all candidates OOM")
        return 1
    print(result.best.describe())
    print(f"\nbest strategy: {result.best.parallel}")
    print(f"sweep: {result.stats.describe()}")
    if result.stats.worker_cache_hits or result.stats.worker_cache_misses:
        print(f"worker caches: {result.stats.worker_cache_hits} hits / "
              f"{result.stats.worker_cache_misses} misses "
              f"({result.stats.cache_entries_merged} entries merged back)")
    if args.sweep_checkpoint:
        print(f"checkpoint written to {args.sweep_checkpoint}")
    if args.sweep_cache:
        print(f"evaluation cache persisted to {args.sweep_cache}")
    if not args.no_simulate:
        ctx = PlannerContext(
            cluster, spec, train, result.best.parallel,
            memory_limit_bytes=limit, eval_cache=cache,
        )
        evaluation = evaluate_method(args.method, ctx)
        if evaluation.iteration_time is not None:
            print(f"simulated iteration time: {evaluation.iteration_time:.3f}s "
                  f"(bubble {evaluation.simulation.bubble_ratio:.1%})")
    if args.output:
        try:
            dump_plan(result.best, args.output)
        except PlanFormatError as exc:
            return _unusable_file(exc)
        print(f"plan written to {args.output}")
    return 0


def _cmd_plan(args) -> int:
    from repro.baselines import evaluate_method, method_spec
    from repro.config import TrainingConfig
    from repro.core.isomorphism import StageEvalCache
    from repro.core.search import PlannerContext, enumerate_parallel_strategies
    from repro.core.serialize import PlanFormatError, dump_plan
    from repro.hardware.cluster import cluster_a, cluster_b
    from repro.model.spec import model_by_name

    spec = _checked(model_by_name, args.model)
    if spec is None or _checked(method_spec, args.method) is None:
        return 2
    train = _checked(TrainingConfig, args.seq, args.batch)
    if train is None:
        return 2
    make_cluster = cluster_a if args.cluster == "A" else cluster_b
    cluster = make_cluster(max(1, args.devices // 8))
    if args.device_pool:
        pool = _parse_device_pool(args.device_pool)
        cluster = make_cluster(
            max(1, args.devices // 8, -(-len(pool) // 8))
        ).with_device_pool(pool)
        print(
            f"device pool ({len(pool)} ranks): "
            + ", ".join(device.name for device in pool)
        )
    limit = (
        args.memory_limit_gib * 1024**3 if args.memory_limit_gib is not None else None
    )

    if (
        args.sweep_workers is not None
        or args.sweep_checkpoint
        or args.sweep_resume
        or args.sweep_cache
        or args.sweep_progress
    ):
        return _cmd_plan_sweep(args, cluster, spec, train, limit)

    explicit = [args.tp, args.pp, args.dp]
    if any(v is not None for v in explicit):
        if not all(v is not None for v in explicit):
            print("error: --tp/--pp/--dp must be given together", file=sys.stderr)
            return 2
        if cluster.device_pool and args.pp != len(cluster.device_pool):
            print(
                f"error: --pp {args.pp} but the device pool fixes the "
                f"pipeline depth to {len(cluster.device_pool)}",
                file=sys.stderr,
            )
            return 2
        parallel = _strategy(args, train)
        if parallel is None:
            return 2
        strategies = [parallel]
    else:
        strategies = enumerate_parallel_strategies(
            args.devices, cluster, spec, train
        )
        print(f"searching {len(strategies)} parallel strategies ...")

    best = None
    best_strategy = None
    feasible = []
    cache = StageEvalCache()
    inner_dp_total = hits = misses = 0
    started = time.time()  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
    for strategy in strategies:
        ctx = PlannerContext(
            cluster, spec, train, strategy, memory_limit_bytes=limit,
            eval_cache=cache,
        )
        evaluation = evaluate_method(args.method, ctx)
        metadata = evaluation.plan.metadata
        inner_dp_total += int(metadata.get("inner_dp_invocations", 0))
        hits += int(metadata.get("eval_cache_hits", 0))
        misses += int(metadata.get("eval_cache_misses", 0))
        if evaluation.iteration_time is None:
            continue
        feasible.append((strategy, evaluation))
        if best is None or evaluation.iteration_time < best.iteration_time:
            best, best_strategy = evaluation, strategy
    elapsed = time.time() - started  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity

    if best is None:
        print(f"no feasible strategy for {args.method} "
              f"({args.model}, seq {args.seq}) — all candidates OOM")
        return 1

    if args.robust_objective != "nominal":
        best, best_strategy = _robust_select(args, cluster, feasible, best_strategy)

    print(best.plan.describe())
    # Evaluator-level hits over the searched plans, as SweepStats counts.
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    print(f"\nbest strategy: {best_strategy} (search took {elapsed:.1f}s, "
          f"{inner_dp_total} inner-DP invocations, eval-cache hit rate "
          f"{hit_rate:.0%})")
    if not args.no_simulate:
        print(f"simulated iteration time: {best.iteration_time:.3f}s "
              f"(bubble {best.simulation.bubble_ratio:.1%})")
    if args.output:
        try:
            dump_plan(best.plan, args.output)
        except PlanFormatError as exc:
            return _unusable_file(exc)
        print(f"plan written to {args.output}")
    return 0


def _cmd_replan(args) -> int:
    """``adapipe replan``: warm-start search on an elastically-changed pool.

    Loads the surviving plan and (optionally) a persisted evaluation
    cache, rebuilds the cluster around the post-event device pool, and
    re-runs the sweep warm: entries whose device classes survived answer
    from cache, so the replan re-prices only what the event changed —
    while selecting a plan bit-identical to a cold search (the digest
    keys guarantee cached and recomputed evaluations agree).
    """
    from repro.core.isomorphism import StageEvalCache
    from repro.core.orchestrator import (
        CheckpointError,
        load_cache_file,
        save_cache_file,
    )
    from repro.core.replan import replan
    from repro.core.serialize import PlanFormatError, dump_plan, load_plan
    from repro.hardware.cluster import cluster_a, cluster_b
    from repro.model.spec import model_by_name

    spec = _checked(model_by_name, args.model)
    if spec is None:
        return 2
    try:
        plan = load_plan(args.plan)
    except PlanFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pool = _parse_device_pool(args.device_pool)
    make_cluster = cluster_a if args.cluster == "A" else cluster_b
    per_rank = plan.parallel.num_devices // plan.parallel.pipeline_parallel
    devices = args.devices if args.devices is not None else per_rank * len(pool)
    cluster = make_cluster(
        max(1, devices // 8, -(-len(pool) // 8))
    ).with_device_pool(pool)
    limit = (
        args.memory_limit_gib * 1024**3 if args.memory_limit_gib is not None else None
    )

    cache = StageEvalCache()
    loaded = 0
    if args.cache:
        import os

        if os.path.exists(args.cache):
            try:
                entries = load_cache_file(args.cache)
            except CheckpointError as exc:
                return _unusable_file(exc)
            loaded = cache.merge_entries(entries)
    print(
        f"replanning {plan.method} {plan.parallel} onto a {len(pool)}-rank "
        f"pool ({loaded} cached evaluations loaded)"
    )
    result = replan(
        plan,
        cluster,
        spec,
        eval_cache=cache,
        num_devices=devices,
        memory_limit_bytes=limit,
    )
    if result.best is None:
        print("no feasible strategy on the new pool — all candidates OOM")
        return 1
    print(result.best.describe())
    print(f"\nbest strategy: {result.best.parallel}")
    print(
        f"warm start: {result.evals_reused} evaluations reused, "
        f"{result.evals_recomputed} recomputed "
        f"(reuse rate {result.reuse_rate:.0%})"
    )
    print(f"sweep: {result.sweep.stats.describe()}")
    if args.cache:
        try:
            saved = save_cache_file(cache, args.cache)
        except CheckpointError as exc:
            return _unusable_file(exc)
        print(f"evaluation cache ({saved} entries) rewritten to {args.cache}")
    if args.output:
        try:
            dump_plan(result.best, args.output)
        except PlanFormatError as exc:
            return _unusable_file(exc)
        print(f"plan written to {args.output}")
    return 0


def _cmd_audit(args) -> int:
    from repro.baselines.extensions import plan_interleaved
    from repro.config import ConfigError, TrainingConfig
    from repro.core.evaluate import build_schedule_for_plan
    from repro.core.search import PlannerContext, plan_adapipe
    from repro.core.strategies import RecomputePolicy
    from repro.hardware.cluster import cluster_a, cluster_b
    from repro.model.spec import model_by_name
    from repro.pipeline.memory_audit import audit_schedule_memory

    spec = _checked(model_by_name, args.model)
    if spec is None:
        return 2
    train = _checked(TrainingConfig, args.seq, args.batch)
    parallel = None if train is None else _strategy(args, train)
    if parallel is None:
        return 2
    make_cluster = cluster_a if args.cluster == "A" else cluster_b
    cluster = make_cluster(max(1, parallel.num_devices // 8))
    limit = (
        args.memory_limit_gib * 1024**3 if args.memory_limit_gib is not None else None
    )
    ctx = PlannerContext(cluster, spec, train, parallel, memory_limit_bytes=limit)
    plan = plan_adapipe(ctx)
    if not plan.feasible:
        print("planner found no feasible plan for this configuration")
        return 2
    print(plan.describe())
    print()

    failures = 0
    audited = 0
    for kind in args.schedules:
        if schedule_family(kind).chunked:
            target = plan_interleaved(ctx, RecomputePolicy.SELECTIVE, args.chunks)
        else:
            target = plan
        try:
            schedule = build_schedule_for_plan(target, cluster, kind)
        except (ConfigError, ValueError) as err:
            print(f"{kind:12s} skipped ({err})")
            continue
        report = audit_schedule_memory(schedule, kind)
        audited += 1
        summary = report.summary()
        verdict = "conservative" if report.conservative else "UNDER-COUNTS"
        print(
            f"{kind:12s} {verdict:12s} model peak "
            f"{summary['modeled_peak_bytes'] / 1024**3:7.2f} GiB vs sim "
            f"{summary['simulated_peak_bytes'] / 1024**3:7.2f} GiB "
            f"(max rel gap {summary['max_rel_gap']:+.2%}, "
            f"{summary['stages_exact']}/{summary['stages_total']} stages exact)"
        )
        if args.verbose or not report.conservative:
            print(report.describe())
        if not report.conservative:
            failures += 1
    print()
    if not audited:
        print("no schedule could be audited for this configuration")
        return 2
    if failures:
        print(f"memory model UNDER-COUNTS on {failures}/{audited} schedules")
        return 1
    print(f"memory model conservative on all {audited} audited schedules")
    return 0


def _cmd_robustness(args) -> int:
    from repro.baselines import evaluate_method, method_spec
    from repro.config import TrainingConfig
    from repro.core.evaluate import build_schedule_for_plan
    from repro.core.robust import cluster_perturbation, evaluate_robustness
    from repro.core.search import PlannerContext
    from repro.core.serialize import write_json_file, write_text_file
    from repro.hardware.cluster import cluster_a, cluster_b
    from repro.model.spec import model_by_name

    spec = _checked(model_by_name, args.model)
    if spec is None or _checked(method_spec, args.method) is None:
        return 2
    train = _checked(TrainingConfig, args.seq, args.batch)
    parallel = None if train is None else _strategy(args, train)
    if parallel is None:
        return 2
    make_cluster = cluster_a if args.cluster == "A" else cluster_b
    cluster = make_cluster(max(1, parallel.num_devices // 8))
    cluster = _parse_device_factors(args.device_factor, args.pp, cluster)
    limit = (
        args.memory_limit_gib * 1024**3 if args.memory_limit_gib is not None else None
    )
    ctx = PlannerContext(cluster, spec, train, parallel, memory_limit_bytes=limit)
    evaluation = evaluate_method(args.method, ctx)
    if evaluation.iteration_time is None:
        print("planner found no feasible plan for this configuration")
        return 2
    print(evaluation.plan.describe())
    print()

    schedule = build_schedule_for_plan(evaluation.plan, cluster, args.schedule)
    pert = cluster_perturbation(
        cluster, schedule.num_devices, jitter_sigma=args.sigma, seed=args.seed
    )
    report = evaluate_robustness(schedule, pert, args.draws)
    print(f"schedule: {args.schedule}, {schedule.num_devices} pipeline ranks")
    print(report.describe())
    worst = report.most_critical_device()
    print(
        f"most critical device: {worst} "
        f"(criticality {report.device_criticality[worst]:.3f})"
    )
    if args.json:
        document = report.to_dict()
        try:
            write_json_file(document, args.json, ValueError, indent=2)
        except ValueError as exc:
            return _unusable_file(exc)
        print(f"report written to {args.json}")
    if args.svg:
        from repro.report import heat_map
        from repro.report.charts import ChartSpec

        svg = heat_map(
            ChartSpec(
                title="Per-device slowdown factor and straggler criticality",
                subtitle=f"{args.model}, ({args.tp},{args.pp},{args.dp}), "
                f"{args.schedule}, {args.draws} draws",
                x_labels=["factor", "criticality"],
            ),
            [f"device {d}" for d in range(schedule.num_devices)],
            [
                [report.spec.factor_for(d), report.device_criticality[d]]
                for d in range(schedule.num_devices)
            ],
            width=420,
        )
        try:
            write_text_file(svg, args.svg, ValueError)
        except ValueError as exc:
            return _unusable_file(exc)
        print(f"heat map written to {args.svg}")
    return 0


def _changed_python_files(paths):
    """Changed-vs-HEAD plus untracked ``.py`` files under ``paths``.

    Returns ``None`` when git is unavailable (callers fall back to a full
    walk): ``--changed`` is an accelerator, never a correctness gate.
    """
    import subprocess
    from pathlib import Path

    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True,
        )
    except OSError:
        return None
    if top.returncode != 0:
        return None
    repo = Path(top.stdout.strip())
    names = set()
    for command in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            command, cwd=repo, capture_output=True, text=True
        )
        if proc.returncode != 0:
            return None
        names.update(
            line.strip() for line in proc.stdout.splitlines() if line.strip()
        )
    scopes = [Path(path).resolve() for path in paths]
    changed = []
    for name in sorted(names):
        candidate = (repo / name).resolve()
        if candidate.suffix != ".py" or not candidate.is_file():
            continue
        if any(
            candidate == scope or scope in candidate.parents
            for scope in scopes
        ):
            changed.append(candidate)
    return changed


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis import (
        load_baseline,
        render_json,
        render_sarif,
        render_text,
        run_lint,
    )
    from repro.analysis.framework import default_lint_root

    if args.list_rules:
        from repro.analysis import default_rules

        for rule in sorted(default_rules(), key=lambda r: r.name):
            print(f"{rule.name} ({rule.severity}): {rule.description}")
        return 0

    baseline = load_baseline(args.baseline) if args.baseline else None
    if args.changed:
        # Pin the root to the *requested* paths so relpaths (and thus
        # baseline keys and suppression tables) match a full run's.
        root = default_lint_root([Path(path) for path in args.paths])
        files = _changed_python_files(args.paths)
        if files is None:
            print(
                "adalint: git unavailable, --changed falling back to a "
                "full walk", file=sys.stderr,
            )
            result = run_lint(args.paths, baseline=baseline)
        else:
            result = run_lint(files, baseline=baseline, root=root)
    else:
        result = run_lint(args.paths, baseline=baseline)

    if args.write_baseline:
        import json

        with open(args.write_baseline, "w") as handle:
            handle.write(render_json(result))
        print(f"baseline with {len(result.findings)} finding(s) written "
              f"to {args.write_baseline}")
        return 0

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(render_json(result))
    if args.sarif:
        with open(args.sarif, "w") as handle:
            handle.write(render_sarif(result))
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def _cmd_artifact(args) -> int:
    from repro.experiments.artifact import collect_results, run_artifact_workflow

    if not args.collect_only:
        root = run_artifact_workflow(args.output_dir, fast=args.fast)
        print(f"workflow results written under {root}")
    print(collect_results(args.output_dir))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "artifact":
        return _cmd_artifact(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "replan":
        return _cmd_replan(args)
    if args.command == "robustness":
        return _cmd_robustness(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "validate":
        from repro.experiments.validate import render_validation, run_validation

        results = run_validation()
        print(render_validation(results))
        return 0 if all(passed for _, passed, _ in results) else 1
    return _cmd_plan(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
