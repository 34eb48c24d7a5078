"""Measured profiling: the paper's Section 6 loop, on the real mini-engine.

The analytic profiler predicts unit costs from FLOPs; this module instead
*measures* them, exactly as AdaPipe's search engine does on a real cluster:
run a few warm-up iterations of the actual model, record wall-clock
timestamps around every computation unit's forward and backward, and record
the actual bytes its saved tensors occupy. The output is the same
:class:`~repro.profiler.profiler.LayerProfile` shape, so the two-level DP
(via :class:`~repro.core.isomorphism.StageEvaluator`) consumes measured
numbers without any code change — closing the profile → search → execute
loop end-to-end inside this repository.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.config import ParallelConfig, TrainingConfig
from repro.model.layers import LayerKind
from repro.model.units import units_for_layer
from repro.profiler.memory import MemoryModel
from repro.profiler.profiler import LayerProfile, UnitProfile
from repro.training.modules import TransformerModel, UnitLayer


def _tree_bytes(obj: object) -> float:
    if isinstance(obj, np.ndarray):
        return float(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_tree_bytes(item) for item in obj)
    return 0.0


class MeasuredProfiler:
    """Profiles computation units by timing the real numpy engine.

    Duck-types the analytic :class:`~repro.profiler.profiler.Profiler`
    interface the search engine uses (``profile_layer`` and ``memory``).

    Args:
        model: the mini transformer to measure.
        train: workload configuration (sequence length, micro-batch size).
        parallel: parallelism strategy — used by the memory model; the
            measurement itself runs un-sharded (t=1 semantics, like a
            single-device profiling rank).
        warmup_iterations: un-timed iterations before measurement (JIT-less
            numpy still benefits from allocator warm-up).
        iterations: timed repetitions; the paper uses 5–10.
        seed: input-token seed.
    """

    def __init__(
        self,
        model: TransformerModel,
        train: TrainingConfig,
        parallel: ParallelConfig,
        warmup_iterations: int = 1,
        iterations: int = 5,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.train = train
        self.parallel = parallel
        self.warmup_iterations = warmup_iterations
        self.iterations = iterations
        self.seed = seed
        self.memory = MemoryModel(model.spec, train, parallel)
        self._cache: Dict[LayerKind, LayerProfile] = {}

    def profile_layer(self, kind: LayerKind) -> LayerProfile:
        if kind not in self._cache:
            self._cache[kind] = self._measure(kind)
        return self._cache[kind]

    # -- measurement ----------------------------------------------------

    def _layer_for_kind(self, kind: LayerKind) -> UnitLayer:
        for descriptor, layer in zip(self.model.descriptors, self.model.layers):
            if descriptor.kind == kind:
                return layer
        raise ValueError(f"model has no {kind} layer")

    def _sample_input(self, kind: LayerKind):
        rng = np.random.default_rng(self.seed)
        batch = self.train.micro_batch_size
        seq = self.train.sequence_length
        if kind == LayerKind.EMBEDDING:
            return rng.integers(0, self.model.spec.vocab_size, size=(batch, seq))
        return rng.normal(size=(batch, seq, self.model.spec.hidden_size))

    def _measure(self, kind: LayerKind) -> LayerProfile:
        layer = self._layer_for_kind(kind)
        x = self._sample_input(kind)
        if kind == LayerKind.HEAD:
            rng = np.random.default_rng(self.seed + 1)
            layer.set_targets(
                rng.integers(
                    0,
                    self.model.spec.vocab_size,
                    size=(self.train.micro_batch_size, self.train.sequence_length),
                )
            )
        units = units_for_layer(kind, self.model.spec, self.train, tensor_parallel=1)
        unit_by_name = {unit.name: unit for unit in units}

        forward_times: Dict[str, List[float]] = {n: [] for n in layer.unit_names}
        backward_times: Dict[str, List[float]] = {n: [] for n in layer.unit_names}
        saved_bytes: Dict[str, float] = {}

        for iteration in range(self.warmup_iterations + self.iterations):
            timed = iteration >= self.warmup_iterations
            values = {"__input__": x}
            caches = {}
            # Forward: timestamp around each unit, as the paper's profiler
            # records timestamps "before and after each computation unit".
            for name in layer.unit_names:
                started = time.perf_counter()
                output, cache = layer._run_unit(name, values)
                elapsed = time.perf_counter() - started
                values[name] = output
                caches[name] = cache
                if timed:
                    forward_times[name].append(elapsed)
                saved_bytes[name] = _tree_bytes(output) + _tree_bytes(cache)
            # Backward: reverse walk with the same timing.
            grads = {layer.unit_names[-1]: self._seed_grad(kind, values)}
            for name in reversed(layer.unit_names):
                started = time.perf_counter()
                layer._backward_unit(name, caches[name], grads)
                elapsed = time.perf_counter() - started
                if timed:
                    backward_times[name].append(elapsed)
            layer.zero_grad()

        profiles = []
        for name in layer.unit_names:
            unit = unit_by_name[name]
            profiles.append(
                UnitProfile(
                    unit=unit,
                    time_forward=float(np.median(forward_times[name])),
                    time_backward=float(np.median(backward_times[name])),
                    saved_bytes=saved_bytes[name],
                )
            )
        return LayerProfile(kind=kind, units=tuple(profiles))

    def _seed_grad(self, kind: LayerKind, values) -> object:
        if kind == LayerKind.HEAD:
            return 1.0
        output = values[self._layer_for_kind(kind).unit_names[-1]]
        return np.ones_like(output)


def plan_with_measured_profile(
    model: TransformerModel,
    train: TrainingConfig,
    parallel: ParallelConfig,
    capacity_bytes: float,
    iterations: int = 5,
    method: str = "AdaPipe (measured)",
):
    """Profile the real model, then run the full two-level DP on the
    measurements. Returns the resulting :class:`PipelinePlan`; when no
    partition fits, the infeasible plan of the uniform partition."""
    from repro.core.isomorphism import StageEvaluator
    from repro.core.partition_dp import even_boundaries, optimize_partition
    from repro.core.plan import build_plan

    profiler = MeasuredProfiler(model, train, parallel, iterations=iterations)
    evaluator = StageEvaluator(profiler, model.descriptors, capacity_bytes)
    result = optimize_partition(
        evaluator,
        parallel.pipeline_parallel,
        train.num_micro_batches(parallel),
    )
    boundaries, evals = result.boundaries, result.stage_evals
    if not result.feasible:
        # The uniform partition, so callers still get a full, inspectable
        # (infeasible) plan rather than an empty one.
        boundaries = even_boundaries(len(model.descriptors), parallel.pipeline_parallel)
        evals = tuple(
            evaluator.evaluate(s, lo, hi - 1) for s, (lo, hi) in enumerate(boundaries)
        )
    return build_plan(
        method, parallel, train, model.descriptors, boundaries, evals,
        model.spec.hidden_size,
    )
