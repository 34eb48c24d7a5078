"""Structured execution traces and the result collector.

The paper's artifact records, per worker, "the timestamps and memory
information of each forward and backward pass", and ships a
``collect_result.py`` that summarises all runs. This module reproduces
both: :func:`trace_simulation` turns a simulator run into per-task JSONL
records, and :class:`ResultCollector` aggregates many experiment outcomes
into the artifact-style summary table.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.pipeline.simulator import SimulationResult
from repro.pipeline.tasks import TaskKind


@dataclass(frozen=True)
class TraceRecord:
    """One executed task, as a worker log line would record it."""

    device: int
    stage: int
    pipe: int
    micro_batch: int
    kind: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def trace_simulation(result: SimulationResult) -> List[TraceRecord]:
    """Flatten a simulation into per-task records, sorted by start time."""
    records = []
    for task in result.schedule.all_tasks():
        records.append(
            TraceRecord(
                device=task.device,
                stage=task.key.stage,
                pipe=task.key.pipe,
                micro_batch=task.key.micro_batch,
                kind=str(task.key.kind),
                start=result.start_times[task.key],
                end=result.end_times[task.key],
            )
        )
    records.sort(key=lambda r: (r.start, r.device))
    return records


def write_trace_jsonl(result: SimulationResult, path: str) -> int:
    """Write the trace as JSON-lines; returns the record count."""
    records = trace_simulation(result)
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(asdict(record)) + "\n")
    return len(records)


def phase_breakdown(result: SimulationResult) -> Dict[str, float]:
    """Split the iteration of a (single-replica) 1F1B run into the paper's
    warmup / steady / ending phases, as seen from stage 0.

    Warmup ends at stage 0's first backward start; ending begins at stage
    0's last forward end.
    """
    stage0 = [
        r for r in trace_simulation(result) if r.stage == 0 and r.pipe == 0
    ]
    backwards = [r for r in stage0 if r.kind == str(TaskKind.BACKWARD)]
    forwards = [r for r in stage0 if r.kind == str(TaskKind.FORWARD)]
    if not backwards or not forwards:
        return {"warmup": 0.0, "steady": 0.0, "ending": 0.0}
    warmup_end = min(r.start for r in backwards)
    ending_start = max(r.end for r in forwards)
    total = result.iteration_time
    ending_start = min(max(ending_start, warmup_end), total)
    return {
        "warmup": warmup_end,
        "steady": ending_start - warmup_end,
        "ending": total - ending_start,
    }


@dataclass
class ResultCollector:
    """Aggregates experiment outcomes into one summary, artifact-style."""

    entries: List[Dict] = field(default_factory=list)

    def add(
        self,
        model: str,
        method: str,
        sequence_length: int,
        strategy: tuple,
        iteration_time: Optional[float],
        peak_memory_bytes: Optional[float] = None,
    ) -> None:
        self.entries.append(
            {
                "model": model,
                "method": method,
                "sequence_length": sequence_length,
                "strategy": tuple(strategy),
                "iteration_time": iteration_time,
                "peak_memory_bytes": peak_memory_bytes,
            }
        )

    def best_by_method(self, model: str, sequence_length: int) -> Dict[str, Dict]:
        """Fastest feasible entry per method for one workload."""
        best: Dict[str, Dict] = {}
        for entry in self.entries:
            if entry["model"] != model:
                continue
            if entry["sequence_length"] != sequence_length:
                continue
            if entry["iteration_time"] is None:
                continue
            current = best.get(entry["method"])
            if current is None or entry["iteration_time"] < current["iteration_time"]:
                best[entry["method"]] = entry
        return best

    def speedup(
        self, model: str, sequence_length: int, method: str, baseline: str
    ) -> Optional[float]:
        best = self.best_by_method(model, sequence_length)
        if method not in best or baseline not in best:
            return None
        return best[baseline]["iteration_time"] / best[method]["iteration_time"]

    def render(self) -> str:
        """The artifact's expected_result.txt-style summary."""
        lines = ["model | seq | method | (t,p,d) | iteration | peak GiB"]
        for entry in sorted(
            self.entries,
            key=lambda e: (e["model"], e["sequence_length"], e["method"]),
        ):
            time_text = (
                "OOM"
                if entry["iteration_time"] is None
                else f"{entry['iteration_time']:.3f}s"
            )
            peak = entry.get("peak_memory_bytes")
            peak_text = "-" if peak is None else f"{peak / 1024**3:.1f}"
            lines.append(
                f"{entry['model']} | {entry['sequence_length']} | "
                f"{entry['method']} | {entry['strategy']} | {time_text} | {peak_text}"
            )
        return "\n".join(lines)

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.entries, handle, indent=2, default=list)


def _releases(kind: str, key: Tuple[int, int, int], split: set) -> bool:
    """Whether a task record of ``kind`` ends its micro-batch's activation
    span: the grad-weight half when the backward is split, the plain
    backward otherwise. Grad-input and recompute tasks never release."""
    if kind == str(TaskKind.BACKWARD_WEIGHT):
        return True
    return kind == str(TaskKind.BACKWARD) and key not in split


def stage_in_flight_micro_batch_peaks(
    result: SimulationResult,
) -> Dict[Tuple[int, int], int]:
    """Per (pipe, stage): the peak number of micro-batches whose
    activations are simultaneously live (forward started, releasing
    backward twin — grad-weight under a split backward — not yet
    finished).

    Each live activation interval is weighted by its task's ``weight`` —
    the number of micro-batches the task processes (2 for ChimeraD's
    doubled forwards, 1 elsewhere) — so the peaks are directly comparable
    with the memory model's in-flight counts and with
    ``saved_per_microbatch`` multipliers. For plain 1F1B this reproduces
    the analytic ``min(n, p - s)``; for interleaved or bidirectional
    schedules it measures what no closed form gives — the multiplier
    adaptive recomputation needs per stage.
    """
    forward_start: Dict[Tuple[int, int, int], float] = {}
    weight_of: Dict[Tuple[int, int, int], int] = {}
    spans: Dict[Tuple[int, int], List[Tuple[float, float, int]]] = {}
    tasks = result.schedule.all_tasks()
    split = {
        (t.key.pipe, t.key.stage, t.key.micro_batch)
        for t in tasks
        if t.key.kind == TaskKind.BACKWARD_WEIGHT
    }
    for task in tasks:
        key = (task.key.pipe, task.key.stage, task.key.micro_batch)
        if task.key.kind == TaskKind.FORWARD:
            forward_start[key] = result.start_times[task.key]
            weight_of[key] = task.weight
        elif _releases(task.key.kind.value, key, split):
            end = result.end_times[task.key]
            start = forward_start.get(key, result.start_times[task.key])
            weight = weight_of.get(key, task.weight)
            spans.setdefault((task.key.pipe, task.key.stage), []).append(
                (start, end, weight)
            )
    peaks: Dict[Tuple[int, int], int] = {}
    for stage_key, stage_spans in spans.items():
        events = []
        for start, end, weight in stage_spans:
            events.append((start, weight))
            events.append((end, -weight))
        # Sort negatives first at equal timestamps: a backward that ends
        # exactly when a forward begins frees its memory first, matching
        # the simulator's free-before-alloc accounting.
        events.sort(key=lambda item: (item[0], item[1]))
        level = peak = 0
        for _, delta in events:
            level += delta
            peak = max(peak, level)
        peaks[stage_key] = peak
    return peaks
