"""Span tracing for the traced benchmark run.

The tracer wraps each layer's public entry points from outside the
package: it replaces the attribute a caller resolves at call time (a
module global or a class attribute) with a timing wrapper, and puts the
original object back when the run ends. Timed runs never install it.

Spans are kept in memory as a call tree, one tree per op. Calls of the
same entry point under the same parent are merged into one node that
holds their count, summed duration and summed child duration, so a
planner op that makes 150,000 ``StageEvaluator.evaluate`` calls costs one
node rather than 150,000 records. A node's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module, attribute path, layer) of every timed entry point. The
#: attribute path is the name the caller resolves: a global of the calling
#: module, or ``Class.method`` for methods called through an instance.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.profiler.profiler", "Profiler.profile_layer", "profiler"),
    ("repro.core.isomorphism", "StageEvaluator.evaluate", "isomorphism"),
    ("repro.core.isomorphism", "optimize_stage_recompute", "recompute_dp"),
    ("repro.core.search", "optimize_partition", "partition_dp"),
    ("repro.core.search", "enumerate_placements", "placement"),
    ("repro.core.replan", "run_sweep", "sweep"),
    ("repro.core.sweep", "strategy_lower_bound", "sweep.bound"),
    ("repro.core.replan", "replan", "replan"),
    ("repro.core.orchestrator", "load_cache_file", "orchestrator.load"),
    ("repro.core.orchestrator", "save_cache_file", "orchestrator.save"),
    ("repro.core.serialize", "load_plan", "serialize"),
    ("repro.core.serialize", "dump_plan", "serialize"),
    ("repro.core.evaluate", "build_schedule_for_plan", "schedules"),
    ("repro.pipeline.compiled", "compile_schedule", "compiled"),
    ("repro.core.evaluate", "simulate_with_info", "simulator"),
    ("repro.core.evaluate", "audit_schedule_memory", "memory_audit"),
    ("repro.core.robust", "batched_simulator", "batched.lower"),
    ("repro.pipeline.batched", "BatchedSchedule.iteration_times", "batched.sweep"),
    ("repro.pipeline.batched", "BatchedSchedule.jitter_vector", "perturb.jitter"),
    ("repro.core.robust", "lower_spec_components", "perturb.lower"),
    ("repro.core.robust", "lowered_link_hops", "perturb.lower"),
    ("repro.core.evaluate", "evaluate_robustness", "robust"),
    ("repro.core.evaluate", "evaluate_plan", "evaluate"),
    ("repro.baselines.methods", "evaluate_plan", "evaluate"),
)


class Node:
    """All spans of one entry point under one parent node."""

    __slots__ = ("name", "parent", "children", "count", "total", "child", "items")

    def __init__(self, name: str, parent: Optional["Node"]) -> None:
        self.name = name
        self.parent = parent
        self.children: Dict[str, Node] = {}
        self.count = 0
        self.total = 0.0
        self.child = 0.0
        self.items = 0

    @property
    def self_time(self) -> float:
        return self.total - self.child

    def walk(self):
        yield self
        for node in self.children.values():
            yield from node.walk()

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total,
            "self_s": self.self_time,
            "items": self.items,
            "children": [node.to_dict() for node in self.children.values()],
        }


def _items(layer: str, args: Sequence, result) -> int:
    """Work items an entry point handled, for the count-style metrics."""
    if layer == "placement":
        return len(result)
    if layer == "orchestrator.load":
        return len(result)
    if layer == "schedules":
        return sum(len(tasks) for tasks in result.device_tasks)
    if layer == "batched.sweep":
        durations = args[1]
        return durations.shape[0] if getattr(durations, "ndim", 1) == 2 else 1
    return 0


#: Layers whose wrappers inspect arguments or results to count work items.
_COUNTED = frozenset(("placement", "orchestrator.load", "schedules", "batched.sweep"))


class Tracer:
    """Installs the wrappers and records one span tree per op."""

    def __init__(self) -> None:
        self.roots: List[Node] = []
        self._stack: List[Node] = [Node("idle", None)]
        self._originals: List[Tuple[object, str, object]] = []
        self._installed = False

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._originals = []
        for module_name, path, layer in ENTRY_POINTS:
            owner, attr = _resolve_owner(module_name, path)
            original = _raw_attribute(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._installed = False

    def not_restored(self) -> List[str]:
        """Patched attributes that are not the original object (empty = ok)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._originals
            if _raw_attribute(owner, attr) is not original
        ]

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        counted = layer in _COUNTED

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(layer)
            if node is None:
                node = parent.children[layer] = Node(layer, parent)
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                node.count += 1
                node.total += elapsed
                parent.child += elapsed
            if counted:
                node.items += _items(layer, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- op spans --------------------------------------------------------

    def run_op(self, label: str, op: Callable[[], object]) -> Tuple[object, float]:
        """Run ``op`` under a fresh root span; returns (result, seconds)."""
        root = Node(label, None)
        self._stack.append(root)
        start = time.perf_counter()
        try:
            result = op()
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            root.count = 1
            root.total = elapsed
            self.roots.append(root)
        return result, elapsed


def _resolve_owner(module_name: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _raw_attribute(owner: object, attr: str) -> object:
    """The stored attribute: a class's ``__dict__`` entry, else the global."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)
