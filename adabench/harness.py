"""One benchmark run: set-up, the closed op loop, golden checks and metrics."""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import calibrate
import check
import spans
import workloads
from repro.core.robust import global_ensemble_cache
from repro.pipeline.simulator import global_simulation_cache

#: (name, unit) of every per-layer metric, reported per op.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("profiler.calls", "count"),
    ("profiler.self_s", "s"),
    ("isomorphism.calls", "count"),
    ("isomorphism.inner_dp", "count"),
    ("isomorphism.hit_rate", "frac"),
    ("isomorphism.self_s", "s"),
    ("recompute_dp.calls", "count"),
    ("recompute_dp.self_s", "s"),
    ("partition_dp.calls", "count"),
    ("partition_dp.self_s", "s"),
    ("placement.count", "count"),
    ("placement.self_s", "s"),
    ("sweep.strategies", "count"),
    ("sweep.pruned_frac", "frac"),
    ("sweep.bound_s", "s"),
    ("sweep.self_s", "s"),
    ("replan.reuse_rate", "frac"),
    ("orchestrator.cache_load_s", "s"),
    ("orchestrator.cache_save_s", "s"),
    ("orchestrator.cache_entries", "count"),
    ("serialize.self_s", "s"),
    ("schedules.self_s", "s"),
    ("schedules.tasks", "count"),
    ("compiled.self_s", "s"),
    ("simulator.calls", "count"),
    ("simulator.self_s", "s"),
    ("memory_audit.self_s", "s"),
    ("batched.lower_s", "s"),
    ("batched.sweep_s", "s"),
    ("batched.rows", "count"),
    ("perturb.jitter_s", "s"),
    ("perturb.lower_s", "s"),
    ("robust.self_s", "s"),
    ("evaluate.self_s", "s"),
    ("bench.unattributed_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
)


@dataclass
class Sample:
    """The outcome of one op."""

    key: str
    cls: str
    seconds: float
    finished: bool
    ok: bool
    answer: Optional[Dict] = None
    counters: Dict[str, float] = field(default_factory=dict)
    root: Optional[spans.Node] = None
    #: Mean of the kernel timings that bracket the op (see calibrate.py).
    kernel: float = calibrate.REFERENCE_S


def fresh_state() -> None:
    """The cold process state a CLI invocation starts from."""
    global_simulation_cache().clear()
    global_ensemble_cache().clear()
    gc.collect()


def execute(op: workloads.Op, golden: Dict[str, Dict], tracer=None) -> Sample:
    """Run one op (timed) between two kernel timings, then check its answer.

    The kernel timings give the host speed the op ran at (see
    ``calibrate.py``); they, the cold-state reset and the check are all
    outside the timer.
    """
    before = calibrate.kernel_seconds()
    fresh_state()
    root = None
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
            seconds = time.perf_counter() - start
        else:
            result, seconds = tracer.run_op(op.key, op.run)
            root = tracer.roots[-1]
    except Exception:
        seconds = time.perf_counter() - start
        kernel = (before + calibrate.kernel_seconds()) / 2
        traceback.print_exc(file=sys.stderr)
        return Sample(op.key, op.cls, seconds, False, False, kernel=kernel)
    kernel = (before + calibrate.kernel_seconds()) / 2
    try:
        answer = check.normalise(op.answer(result))
        ok = op.key in golden and check.matches(answer, golden[op.key])
        counters = op.counters(result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Sample(op.key, op.cls, seconds, True, False, root=root, kernel=kernel)
    if not ok:
        print(f"golden mismatch: {op.key}", file=sys.stderr)
    return Sample(op.key, op.cls, seconds, True, ok, answer, counters, root, kernel)


def run_passes(
    workload, seed: int, seconds: float, golden, tracer=None
) -> Tuple[List[Sample], List[Sample], int]:
    """Whole passes over the table until ``seconds`` of wall time have passed.

    Each pass is a permutation of the table drawn from a generator seeded
    with the workload's name and ``seed``, so every key runs once per pass
    and the seed fixes the order. A pass in which no op finishes ends the
    loop. Returns (untraced, traced, passes).
    """
    rng = random.Random(f"{workload.name}:{seed}")
    samples: List[Sample] = []
    traced: List[Sample] = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        order = list(workload.table)
        rng.shuffle(order)
        untraced_pass, traced_pass = run_loop(order, golden, tracer)
        samples += untraced_pass
        traced += traced_pass
        passes += 1
        if not any(s.finished for s in untraced_pass):
            print("no op of the pass finished: stopping", file=sys.stderr)
            break
    return samples, traced, passes


def warmup_ops(workload) -> List[workloads.Op]:
    """The first table op of each class."""
    seen: Dict[str, workloads.Op] = {}
    for op in workload.table:
        seen.setdefault(op.cls, op)
    return list(seen.values())


def run_loop(sequence, golden, tracer=None) -> Tuple[List[Sample], List[Sample]]:
    """Run ``sequence`` untraced; with a tracer, also run each op traced.

    The traced and untraced runs of an op are back to back, so both see the
    same host state and their ratio is the tracing overhead; which of the two
    goes first alternates from op to op, so warm-up from the first run does
    not bias the ratio. The wrappers are installed only around traced runs.
    """
    samples: List[Sample] = []
    traced: List[Sample] = []
    for index, op in enumerate(sequence):
        if tracer is not None and index % 2:
            traced.append(_traced(op, golden, tracer))
        samples.append(execute(op, golden))
        if tracer is not None and not index % 2:
            traced.append(_traced(op, golden, tracer))
    return samples, traced


def _traced(op: workloads.Op, golden: Dict[str, Dict], tracer: spans.Tracer) -> Sample:
    tracer.install()
    try:
        return execute(op, golden, tracer)
    finally:
        tracer.uninstall()


def op_times(samples: List[Sample]) -> Dict[str, float]:
    """Per op key, the median of its timings in the run, rescaled to the reference speed.

    ``samples`` are in execution order. Each timing is rescaled by the
    median kernel time of the ops around it (``calibrate.local_kernels``),
    so a run in a slow host stretch reads about the same as one in a fast
    stretch; the median over the run's passes then drops the timings whose
    rescaling the host's moves outran.
    """
    local = calibrate.local_kernels([s.kernel for s in samples])
    rescaled: Dict[str, List[float]] = defaultdict(list)
    for sample, kernel in zip(samples, local):
        if sample.finished:
            rescaled[sample.key].append(calibrate.rescale(sample.seconds, kernel))
    return {key: statistics.median(times) for key, times in rescaled.items()}


def end_to_end_metrics(
    samples: List[Sample], rows: List[str], setup_s: Optional[float], attempted: List[Sample]
) -> Dict[str, Tuple[Optional[float], str]]:
    """The six end-to-end metrics; time metrics are None if no op finished.

    ``samples`` are the timed passes' ops and ``attempted`` every op of the
    run. ``rows`` are the table's keys, duplicates included, so the time
    metrics weigh the op classes in the table's proportions.
    """
    per_key = op_times(samples)
    times = [per_key[key] for key in rows if key in per_key]
    ok = sum(s.ok for s in attempted)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times) if times else None, "1/s"),
        "op_p50_s": (statistics.median(times) if times else None, "s"),
        "op_p90_s": (
            statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else None,
            "s",
        ),
        "ok_frac": (ok / len(attempted), "frac"),
        "peak_rss_mb": (peak_rss_kib() / 1024.0, "MB"),
    }


def peak_rss_kib() -> float:
    """Peak resident memory of this interpreter (VmHWM; ru_maxrss elsewhere)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _layer_totals(samples: List[Sample]) -> Dict[str, List[float]]:
    """Per layer: [span count, self seconds, work items], summed over ops."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0])
    for sample in samples:
        for node in sample.root.walk():
            if node is sample.root:
                continue
            entry = totals[node.name]
            entry[0] += node.count
            entry[1] += node.self_time
            entry[2] += node.items
    return totals


def layer_metrics(
    traced: List[Sample], untraced: List[Sample]
) -> Dict[str, Tuple[Optional[float], str]]:
    """Per-op averages over the traced executions; None if none finished."""
    traced = [s for s in traced if s.finished and s.root is not None]
    untraced_seconds = [s.seconds for s in untraced if s.finished]
    n = len(traced)
    if not n or not untraced_seconds:
        return {name: (None, unit) for name, unit in LAYER_METRICS}
    totals = _layer_totals(traced)
    counters: Dict[str, float] = defaultdict(float)
    for sample in traced:
        for name, value in sample.counters.items():
            counters[name] += value
    op_seconds = sum(s.seconds for s in traced)

    def calls(layer: str) -> float:
        return totals[layer][0] / n

    def self_s(layer: str) -> float:
        return totals[layer][1] / n

    def items(layer: str) -> float:
        return totals[layer][2] / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    traced_rate = n / op_seconds
    untraced_rate = len(untraced_seconds) / sum(untraced_seconds)
    values = {
        "profiler.calls": calls("profiler"),
        "profiler.self_s": self_s("profiler"),
        "isomorphism.calls": calls("isomorphism"),
        "isomorphism.inner_dp": counters["inner_dp"] / n,
        "isomorphism.hit_rate": ratio(counters["eval_hits"], totals["isomorphism"][0]),
        "isomorphism.self_s": self_s("isomorphism"),
        "recompute_dp.calls": calls("recompute_dp"),
        "recompute_dp.self_s": self_s("recompute_dp"),
        "partition_dp.calls": calls("partition_dp"),
        "partition_dp.self_s": self_s("partition_dp"),
        "placement.count": items("placement"),
        "placement.self_s": self_s("placement"),
        "sweep.strategies": counters["strategies"] / n,
        "sweep.pruned_frac": ratio(counters["pruned"], counters["strategies"]),
        "sweep.bound_s": self_s("sweep.bound"),
        "sweep.self_s": self_s("sweep"),
        "replan.reuse_rate": ratio(
            counters["reused"], counters["reused"] + counters["recomputed"]
        ),
        "orchestrator.cache_load_s": self_s("orchestrator.load"),
        "orchestrator.cache_save_s": self_s("orchestrator.save"),
        "orchestrator.cache_entries": items("orchestrator.load"),
        "serialize.self_s": self_s("serialize"),
        "schedules.self_s": self_s("schedules"),
        "schedules.tasks": items("schedules"),
        "compiled.self_s": self_s("compiled"),
        "simulator.calls": calls("simulator"),
        "simulator.self_s": self_s("simulator"),
        "memory_audit.self_s": self_s("memory_audit"),
        "batched.lower_s": self_s("batched.lower"),
        "batched.sweep_s": self_s("batched.sweep"),
        "batched.rows": items("batched.sweep"),
        "perturb.jitter_s": self_s("perturb.jitter"),
        "perturb.lower_s": self_s("perturb.lower"),
        "robust.self_s": self_s("robust"),
        "evaluate.self_s": self_s("evaluate"),
        "bench.unattributed_frac": sum(s.root.self_time for s in traced) / op_seconds,
        "bench.trace_overhead_frac": 1.0 - traced_rate / untraced_rate,
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}


def class_shares(traced: List[Sample]) -> Dict[str, Dict]:
    """Per op class: op count, mean op seconds and each layer's self share."""
    by_class: Dict[str, List[Sample]] = defaultdict(list)
    for sample in traced:
        if sample.finished and sample.root is not None:
            by_class[sample.cls].append(sample)
    report = {}
    for cls, members in sorted(by_class.items()):
        seconds = sum(s.seconds for s in members)
        shares = {
            layer: entry[1] / seconds for layer, entry in _layer_totals(members).items()
        }
        shares["(unattributed)"] = sum(s.root.self_time for s in members) / seconds
        report[cls] = {
            "ops": len(members),
            "mean_op_s": seconds / len(members),
            "self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        }
    return report


def negative_control(samples: List[Sample], golden: Dict[str, Dict]) -> bool:
    """True when every mutation of a correct answer is rejected."""
    reference = next((s for s in samples if s.ok), None)
    if reference is None:
        return False
    controls = check.negative_controls(reference.answer)
    rejected = True
    for label, mutated in controls:
        if check.matches(mutated, golden[reference.key]):
            print(f"negative control accepted: {reference.key}: {label}", file=sys.stderr)
            rejected = False
    return rejected and bool(controls)


def _setup(name: str, scratch: str, golden) -> Tuple[object, bool, List[float]]:
    """Fixtures plus one untimed, checked warm-up op per class.

    Also returns the kernel timings read along the way, after the imports,
    after the fixtures and around each warm-up op, for ``setup_seconds``.
    """
    kernels = [calibrate.kernel_seconds()]
    fresh_state()
    workload = workloads.WORKLOADS[name](scratch)
    workload.setup()
    kernels.append(calibrate.kernel_seconds())
    warm_ok = True
    for op in warmup_ops(workload):
        sample = execute(op, golden)
        warm_ok &= sample.ok
        kernels.append(sample.kernel)
    return workload, warm_ok, kernels


def _write_trace(path: str, args, traced: List[Sample], shares: Dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "classes": shares,
        "ops": [
            {"key": s.key, "class": s.cls, "seconds": s.seconds, "spans": s.root.to_dict()}
            for s in traced
            if s.root is not None
        ],
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)


def setup_seconds(exec_t0: float, kernel_before: float, kernels: List[float]) -> float:
    """Set-up time so far, rescaled to the reference speed.

    The set-up's host speed is the median of the kernel times read across
    it: ``kernel_before``, the median the launcher read just before it
    started this process; ``kernels``, read during the set-up; and the
    median of ``calibrate.SETUP_KERNELS`` readings taken now.
    """
    seconds = time.monotonic() - exec_t0
    after = calibrate.host_speed(calibrate.SETUP_KERNELS)
    kernel = statistics.median([kernel_before] + kernels + [after])
    return calibrate.rescale(seconds, kernel)


def main(
    args,
    exec_t0: float,
    kernel_before: float,
    build_dir: str,
    prior_setups: List[Dict],
    setup_only: bool,
) -> int:
    """One measuring process; ``exec_t0`` is its start on the monotonic clock.

    With ``setup_only`` the process only sets up and prints
    ``{"setup_s": ..., "ok": ...}``: the launcher runs such processes
    before the measuring one, so every ``setup_s`` sample starts cold.
    """
    os.makedirs(build_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"adabench-{args.workload}-", dir=build_dir)
    try:
        if setup_only:
            try:
                golden = check.load_golden(args.workload)
                _, warm_ok, kernels = _setup(args.workload, scratch, golden)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                print(json.dumps({"setup_s": None, "ok": False}))
                return 0
            setup_s = setup_seconds(exec_t0, kernel_before, kernels)
            print(json.dumps({"setup_s": setup_s, "ok": bool(warm_ok)}))
            return 0
        return _run(args, exec_t0, kernel_before, scratch, build_dir, prior_setups)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _report(correct: bool, attempted: int, failed: int, metrics: Dict) -> int:
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _run(
    args,
    exec_t0: float,
    kernel_before: float,
    scratch: str,
    build_dir: str,
    prior_setups: List[Dict],
) -> int:
    golden = check.load_golden(args.workload)
    try:
        workload, warm_ok, kernels = _setup(args.workload, scratch, golden)
    except Exception:
        # A failed set-up counts as one attempted, failed op.
        traceback.print_exc(file=sys.stderr)
        failed_setup = [Sample("setup", "setup", 0.0, False, False)]
        if args.trace:
            return _report(False, 1, 1, layer_metrics([], []))
        return _report(False, 1, 1, end_to_end_metrics([], [], None, failed_setup))
    setup_s = setup_seconds(exec_t0, kernel_before, kernels)
    setups = [p["setup_s"] for p in prior_setups] + [setup_s]
    setups_ok = all(p["ok"] and p["setup_s"] is not None for p in prior_setups)
    tracer = spans.Tracer() if args.trace else None
    samples, traced, passes = run_passes(workload, args.seed, args.seconds, golden, tracer)
    # The headline ops run once, after the passes: they are checked (and
    # traced) but stay out of the time metrics, whose per-op median needs
    # every op to run once per pass.
    head_samples, head_traced = run_loop(workload.headline, golden, tracer)
    attempted = samples + traced + head_samples + head_traced
    restored_ok = True
    if tracer is not None:
        leftover = tracer.not_restored()
        if leftover:
            print(f"wrapped attributes not restored: {leftover}", file=sys.stderr)
        restored_ok = not leftover
        traced += head_traced
        metrics = layer_metrics(traced, samples + head_samples)
        shares = class_shares(traced)
        trace_path = os.path.join(
            build_dir, "adabench-traces", f"{args.workload}-seed{args.seed}.json"
        )
        _write_trace(trace_path, args, traced, shares)
        for cls, entry in shares.items():
            top = ", ".join(
                f"{layer} {share:.0%}"
                for layer, share in list(entry["self_share"].items())[:6]
            )
            print(f"class {cls}: {entry['ops']} ops, mean {entry['mean_op_s']:.3f} s; {top}")
        print(f"spans written to {os.path.relpath(trace_path)}")
    else:
        valid = [t for t in setups if t is not None]
        metrics = end_to_end_metrics(
            samples,
            [op.key for op in workload.table],
            statistics.median(valid) if valid else None,
            attempted,
        )

    control_ok = negative_control(attempted, golden)
    failed = sum(not s.ok for s in attempted)
    correct = warm_ok and setups_ok and control_ok and restored_ok and failed == 0
    kernel_ms = 1e3 * statistics.median(s.kernel for s in samples) if samples else 0.0
    print(
        f"{args.workload} seed {args.seed}: {len(attempted)} ops in {passes} passes, "
        f"{failed} failed, setup median of "
        f"{', '.join('-' if t is None else f'{t:.3f}' for t in setups)} s, "
        f"kernel median {kernel_ms:.3f} ms "
        f"(reference {1e3 * calibrate.REFERENCE_S:.3f} ms), "
        f"negative control {'rejected' if control_ok else 'NOT rejected'}"
    )
    return _report(correct, len(attempted), failed, metrics)
