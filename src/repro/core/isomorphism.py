"""Stage evaluation with isomorphism caching (Section 5.3).

The partitioning DP needs ``f[s, i, j]`` and ``b[s, i, j]`` — the optimal
forward/backward time of layers ``i..j`` as stage ``s`` — for every stage
and sub-sequence, which naively means O(pL^2) inner-DP runs. But transformer
layer sequences are homogeneous: two sub-sequences with the same layer-kind
multiset (same Attention/FFN counts, same embedding/head membership) are
isomorphic and share one inner-DP solution. Caching on that key reduces the
inner-DP invocations to O(pL), as the paper observes.
:meth:`StageEvaluator.evaluate_ranges` takes all of a stage's candidates
at once and looks each class up once, so the DP's lookups are O(pL) too.
A class is priced from its kind counts alone — count times a per-kind
total, summed in a fixed kind order — so it costs O(kinds) plus the
knapsack, and every member of a class gets the same bits whatever its
layer order.

The same observation extends *across* evaluators: two strategies whose
profiles agree (same model, workload, cluster, tensor- and data-parallel
sizes) produce identical stage evaluations whenever the in-flight
micro-batch count and the layer multiset match, even if their pipeline
sizes differ. :class:`StageEvalCache` keys entries by that full
fingerprint so a strategy sweep — and the several planners run per
strategy — reuse inner-DP solutions instead of recomputing them per
:class:`~repro.core.search.PlannerContext`.

Every entry, local or shared, is the class priced at nominal speed. Of a
pipeline rank, only its DP budget enters the key: the knapsack runs on
nominal unit times, so a rank's compute scale cannot change its answer,
and :meth:`StageEvaluator.evaluate` applies the scale after the lookup
(:meth:`StageEval.scaled`). One knapsack per class and budget then serves
every placement, every part speed and every drift.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.recompute_dp import (
    RecomputeResult,
    UnitItem,
    optimize_stage_recompute,
)
from repro.model.layers import Layer, LayerKind
from repro.profiler.memory import StageMemory
from repro.profiler.profiler import LayerProfile, Profiler


@dataclass(frozen=True)
class StageEval:
    """Optimal cost of one candidate stage (layers ``i..j`` as stage ``s``).

    Attributes:
        feasible: whether the stage fits device memory at all.
        forward: the paper's ``F_{G,s}`` — fixed forward time.
        backward: the paper's ``B_{G,s}`` — backward time including the
            cheapest recomputation meeting the budget.
        saved_unit_counts: saved units per type (always-saved included).
        saved_bytes_per_microbatch: intermediates pinned per micro-batch.
        memory: full stage memory breakdown.
    """

    feasible: bool
    forward: float
    backward: float
    saved_unit_counts: Mapping[str, int]
    saved_bytes_per_microbatch: float
    memory: StageMemory

    def scaled(self, scale: float) -> "StageEval":
        """This stage on a device ``scale`` times slower: times multiplied,
        memory unchanged. At 1.0 the evaluation itself, so nominal ranks
        stay bit-identical by construction."""
        if scale == 1.0:
            return self
        return StageEval(
            self.feasible,
            self.forward * scale,
            self.backward * scale,
            self.saved_unit_counts,
            self.saved_bytes_per_microbatch,
            self.memory,
        )


#: Layer kinds in value order: the order a stage's per-kind totals are
#: summed in and its knapsack items listed in.
KIND_ORDER: Tuple[LayerKind, ...] = tuple(
    sorted(LayerKind, key=lambda kind: kind.value)
)


@dataclass(frozen=True)
class StageTotals:
    """A stage's unit costs, summed from its layer-kind counts.

    Attributes:
        forward: forward time of every unit.
        backward_fixed: backward time with every unit saved.
        always_bytes: bytes the always-saved units pin per micro-batch.
        always_counts: copies of each always-saved unit type.
        items: one knapsack item per optional unit type, valued at its
            recompute time, in kind-then-unit order (the order decides
            knapsack ties).
        optional_value: backward time recomputing every optional unit adds.
    """

    forward: float
    backward_fixed: float
    always_bytes: float
    always_counts: Mapping[str, int]
    items: Tuple[UnitItem, ...]
    optional_value: float


def kind_counts(layers: Sequence[Layer]) -> Dict[LayerKind, int]:
    """How many layers of each kind ``layers`` holds."""
    return dict(Counter(layer.kind for layer in layers))


def stage_totals(profiler: Profiler, counts: Mapping[LayerKind, int]) -> StageTotals:
    """The one aggregation of unit costs every stage pricer starts from.

    A stage holding ``c`` layers of a kind costs ``c`` times that kind's
    :class:`~repro.profiler.profiler.LayerProfile` totals, summed in
    :data:`KIND_ORDER`; an optional unit type's item is priced by its
    first profile. Stages with equal counts get equal bits, whatever their
    layer order.
    """
    forward = 0.0
    backward_fixed = 0.0
    always_bytes = 0.0
    optional_value = 0.0
    always_counts: Dict[str, int] = {}
    optional: Dict[str, UnitItem] = {}
    for kind in KIND_ORDER:
        count = counts.get(kind, 0)
        if not count:
            continue
        profile: LayerProfile = profiler.profile_layer(kind)
        forward += count * profile.time_forward
        backward_fixed += count * profile.time_backward
        always_bytes += count * profile.saved_bytes_always
        optional_value += count * profile.full_recompute_extra
        for name, copies in profile.always_saved_counts:
            always_counts[name] = always_counts.get(name, 0) + count * copies
        for unit, copies in profile.optional_units:
            existing = optional.get(unit.name)
            if existing is None:
                optional[unit.name] = UnitItem(
                    unit.name, unit.time_forward, unit.saved_bytes, count * copies
                )
            else:
                optional[unit.name] = dataclasses.replace(
                    existing, copies=existing.copies + count * copies
                )
    return StageTotals(
        forward=forward,
        backward_fixed=backward_fixed,
        always_bytes=always_bytes,
        always_counts=always_counts,
        items=tuple(optional.values()),
        optional_value=optional_value,
    )


#: Fingerprint marker for evaluators that cannot be fingerprinted (e.g.
#: measured profilers): their entries are process-private and must never be
#: exported, merged, or persisted — the ``id()`` that scopes them is
#: meaningless in any other process.
PRIVATE_FINGERPRINT = "__private__"

#: One exportable cache entry: a flat primitive key plus its evaluation.
CacheEntry = Tuple[Tuple, StageEval]


class StageEvalCache:
    """Cross-strategy (and cross-planner) stage-evaluation cache.

    Entries are keyed by an evaluator *fingerprint* — every input besides
    the candidate layer range that determines a stage evaluation — plus the
    range's full isomorphism class. Sharing one instance across the
    contexts of a strategy sweep lets every planner that evaluates the same
    class reuse the inner recomputation DP's solution.

    Because the key is a pure content digest of every input the evaluation
    depends on, two caches can be **merged** by dict union: colliding keys
    are guaranteed to hold equal values, so merge order never matters. The
    sweep orchestrator leans on this to ship per-worker cache shards back
    to the coordinator and redistribute the union (see
    :mod:`repro.core.orchestrator`).

    Args:
        max_entries: evict FIFO past this many entries (``None`` =
            unbounded, the historical behavior). Worker-side caches in
            long-lived processes should always be bounded.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self._entries: "OrderedDict[Tuple, StageEval]" = OrderedDict()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._journal: Optional[List[CacheEntry]] = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of shared-cache lookups answered without an inner DP."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def get(self, key: Tuple) -> Optional[StageEval]:
        found = self._entries.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def put(self, key: Tuple, value: StageEval) -> None:
        if (
            key not in self._entries
            and self._journal is not None
            and not (key and key[0] == PRIVATE_FINGERPRINT)
        ):
            # The journal is the shareable delta stream: process-private
            # entries never enter it, so slices ship without filtering.
            self._journal.append((key, value))
        self._entries[key] = value
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    # -- shard export / merge-back ------------------------------------

    def enable_journal(self) -> None:
        """Start recording first-seen entries into an append-only journal.

        The journal survives FIFO eviction (it is history, not the live
        table), so offsets into it are stable — the orchestrator uses
        per-worker journal offsets to ship each worker exactly the
        entries it has not seen yet.
        """
        if self._journal is None:
            self._journal = []

    @property
    def journal_length(self) -> int:
        return len(self._journal) if self._journal is not None else 0

    def journal_slice(self, start: int, stop: Optional[int] = None) -> List[CacheEntry]:
        """Entries first seen in journal positions ``[start, stop)``."""
        if self._journal is None:
            return []
        return self._journal[start:stop]

    def export_entries(self) -> List[CacheEntry]:
        """Every live, shareable entry (process-private entries excluded)."""
        return [
            (key, value)
            for key, value in self._entries.items()
            if not (key and key[0] == PRIVATE_FINGERPRINT)
        ]

    def merge_entries(self, entries: Sequence[CacheEntry]) -> int:
        """Union ``entries`` into the cache; returns how many were new.

        Digest keys make this trivially safe: a key collision means both
        sides computed the same deterministic evaluation, so the existing
        entry is kept and the duplicate dropped (no journal churn, no
        re-broadcast).
        """
        merged = 0
        for key, value in entries:
            if key and key[0] == PRIVATE_FINGERPRINT:
                continue
            if key in self._entries:
                continue
            self.put(key, value)
            merged += 1
        return merged


def evaluator_fingerprint(profiler: Profiler, capacity_bytes: float) -> Tuple:
    """Everything outside the layer range that a :class:`StageEval` depends on.

    Unit times depend on (cluster, model, workload, tensor parallel size,
    jitter); the memory model additionally depends on the data-parallel
    size through ZeRO sharding of static state. The pipeline size is
    deliberately absent — it only enters through the in-flight micro-batch
    count, which the per-range key carries — so evaluations are shared
    across strategies that differ only in pipeline depth. The micro-batch
    count ``n`` (which clamps 1F1B's in-flight to ``min(n, p - s)``) is
    pinned by the workload and data-parallel fields already present.

    The robust-sweep inputs (``robust_objective``, ``PerturbationSpec``,
    ``robust_draws``) are **deliberately absent**: robust mode re-ranks
    the already-planned feasible strategies by re-simulating their
    schedules under perturbation, *after* planning. A cached
    :class:`StageEval` holds only nominal per-stage cost/memory DP
    results, which no robust input reaches, so nominal and robust sweeps
    may soundly share one :class:`StageEvalCache`
    (``tests/test_robustness.py`` pins this with a warm-vs-cold cache
    regression test). Adding a perturbation-dependent quantity to
    ``StageEval`` would require extending this fingerprint first.

    Of the cluster, only the fields the nominal pricing model actually
    reads enter the digest: the roofline device and the communication
    terms (intra/inter bandwidth, link latency, devices per node). Fleet
    *shape* — ``num_nodes``, ``name``, ``device_factors``, and the
    heterogeneous ``device_pool`` — is deliberately invisible: of a rank's
    device class, only its DP budget enters the per-range key (see
    :meth:`StageEvaluator._key`), and its compute scale is applied to the
    nominal entry after the lookup. That is what lets an elastic replan on
    a shrunken, grown or drifted cluster reuse the surviving entries
    (:mod:`repro.core.replan`).
    """
    parallel = profiler.parallel
    cluster = profiler.cluster
    # Device/model/workload specs hold dicts (per-op efficiencies), so the
    # dataclasses themselves are unhashable; their reprs are deterministic
    # for identically-constructed frozen instances and hash fine.
    return (
        repr(cluster.device),
        float(cluster.intra_node_bandwidth),
        float(cluster.inter_node_bandwidth),
        float(cluster.link_latency),
        cluster.devices_per_node,
        repr(profiler.spec),
        repr(profiler.train),
        parallel.tensor_parallel,
        parallel.data_parallel,
        profiler.noise,
        profiler.seed,
        float(capacity_bytes),
    )


#: The per-range half of a shared-cache key, in the order
#: :meth:`StageEvaluator._key` builds it; the :func:`evaluator_fingerprint`
#: fields precede it. Persisted cache rows store these fields as columns
#: (:mod:`repro.core.orchestrator`).
RANGE_KEY_FIELDS: Tuple[str, ...] = (
    "in_flight",
    "first",
    "last",
    "attention",
    "ffn",
    "rank_capacity",
)


class StageEvaluator:
    """Evaluates candidate stages, caching by isomorphism class.

    Args:
        profiler: the unit profiler for this (model, workload, strategy).
        layers: the full layer sequence being partitioned.
        capacity_bytes: usable device memory (the paper subtracts a safety
            margin — e.g. it ran GPT-3 with a 70 GB constraint on 80 GB
            devices).
        shared_cache: optional cross-strategy cache; when given, results
            are also keyed by :func:`evaluator_fingerprint` so other
            evaluators with identical inputs reuse them.
        rank_compute_scales: optional per-pipeline-rank compute scale
            factors (heterogeneous placement): stage ``s``'s forward and
            backward times are multiplied by ``rank_compute_scales[s]``.
            ``None`` means nominal (all 1.0). The scale is not part of any
            cache key: both caches hold nominal entries, which
            :meth:`evaluate` scales on the way out, so ranks of equal
            budget share one knapsack per class whatever their speed.
        rank_capacities: optional per-pipeline-rank memory capacities in
            bytes; stage ``s``'s recomputation knapsack runs against
            ``rank_capacities[s]`` instead of ``capacity_bytes``. Part of
            every cache key, so ranks of different budgets never share an
            entry.
    """

    def __init__(
        self,
        profiler: Profiler,
        layers: Sequence[Layer],
        capacity_bytes: float,
        shared_cache: Optional[StageEvalCache] = None,
        rank_compute_scales: Optional[Sequence[float]] = None,
        rank_capacities: Optional[Sequence[float]] = None,
    ) -> None:
        self.profiler = profiler
        self.layers = list(layers)
        self.capacity_bytes = capacity_bytes
        self.rank_compute_scales = (
            tuple(rank_compute_scales) if rank_compute_scales is not None else None
        )
        self.rank_capacities = (
            tuple(rank_capacities) if rank_capacities is not None else None
        )
        self.memory_model = profiler.memory
        self._cache: Dict[Tuple, StageEval] = {}
        self.shared_cache = shared_cache
        self._fingerprint: Optional[Tuple] = None
        if shared_cache is not None:
            try:
                self._fingerprint = evaluator_fingerprint(profiler, capacity_bytes)
            except AttributeError:
                # Profiler variants (e.g. measured profilers) that don't
                # expose the fingerprint fields keep a private partition of
                # the shared cache instead of sharing incorrectly. The
                # marker keeps these entries out of shard exports and
                # persisted cache files (an id() is process-local).
                self._fingerprint = (PRIVATE_FINGERPRINT, id(self))
        self.inner_dp_invocations = 0
        self.cache_hits = 0
        self.cache_misses = 0
        # Prefix counts per layer kind and prefix parameter sums: a range's
        # kind counts and parameters are O(1) differences.
        prefixes: Dict[LayerKind, List[int]] = {}
        for kind in KIND_ORDER:
            prefixes[kind] = list(
                itertools.accumulate(
                    (layer.kind == kind for layer in self.layers), initial=0
                )
            )
        self._kind_prefix = [
            (kind, prefix) for kind, prefix in prefixes.items() if prefix[-1]
        ]
        self._att_prefix = prefixes[LayerKind.ATTENTION]
        self._ffn_prefix = prefixes[LayerKind.FFN]
        self._param_prefix = list(
            itertools.accumulate((layer.params for layer in self.layers), initial=0)
        )
        self._last = len(self.layers) - 1
        # Per stage, the key terms no layer range changes: (in-flight
        # count, rank capacity). Filled on a stage's first key.
        self._stage_terms: Dict[int, Tuple[int, float]] = {}

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def _rank_scale(self, stage: int) -> float:
        if self.rank_compute_scales is not None and stage < len(
            self.rank_compute_scales
        ):
            return self.rank_compute_scales[stage]
        return 1.0

    def _rank_capacity(self, stage: int) -> float:
        if self.rank_capacities is not None and stage < len(self.rank_capacities):
            return self.rank_capacities[stage]
        return self.capacity_bytes

    def _new_stage_terms(self, stage: int) -> Tuple[int, float]:
        terms = (
            self.memory_model.in_flight(stage),
            float(self._rank_capacity(stage)),
        )
        self._stage_terms[stage] = terms
        return terms

    def _key(self, stage: int, i: int, j: int) -> Tuple:
        # Builds the RANGE_KEY_FIELDS, in that order. The stage index
        # (and the memory model's schedule kind) only
        # matters through the in-flight micro-batch count, so keying on
        # that count makes classes line up across pipeline sizes — and
        # across schedule kinds that happen to agree on a stage's count.
        # Of the rank, only its DP budget is part of the key: the
        # knapsack runs on nominal unit times, so entries are nominal and
        # the rank's compute scale is applied after the lookup. Ranks of
        # one budget share an entry whatever their speed.
        in_flight, capacity = (
            self._stage_terms.get(stage) or self._new_stage_terms(stage)
        )
        att = self._att_prefix
        ffn = self._ffn_prefix
        return (
            in_flight,
            i == 0,
            j == self._last,
            att[j + 1] - att[i],
            ffn[j + 1] - ffn[i],
            capacity,
        )

    def evaluate(self, stage: int, i: int, j: int) -> StageEval:
        """Optimal cost of layers ``i..j`` (inclusive) as stage ``stage``:
        the class's nominal entry, scaled by the stage's rank."""
        key = self._key(stage, i, j)
        entry = self._cache.get(key)
        if entry is None and self.shared_cache is not None:
            entry = self.shared_cache.get(self._fingerprint + key)
            if entry is not None:
                self._cache[key] = entry
        if entry is not None:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
            entry = self._evaluate_uncached(key, i, j)
            self._cache[key] = entry
            if self.shared_cache is not None:
                self.shared_cache.put(self._fingerprint + key, entry)
        return entry.scaled(self._rank_scale(stage))

    @functools.cached_property
    def _class_codes(self) -> np.ndarray:
        """The range half of :meth:`_key` (first, last, attention and FFN
        counts) as one int per range: row ``i``, column ``j`` for ``i <= j``.
        The whole sequence, row 0 and column ``L - 1``, has the largest."""
        att = np.asarray(self._att_prefix)
        ffn = np.asarray(self._ffn_prefix)
        codes = (att[None, 1:] - att[:-1, None]) * (ffn[-1] + 1)
        codes += ffn[None, 1:] - ffn[:-1, None]
        codes *= 4
        codes[0, :] += 2
        codes[:, -1] += 1
        return codes

    def evaluate_ranges(
        self, stage: int, starts: np.ndarray, ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward, backward and feasibility of layers ``starts[k]..ends[k]``
        (inclusive) as stage ``stage``, for every ``k``.

        The same as calling :meth:`evaluate` on each range in turn, counters
        and cache traffic included: each isomorphism class is evaluated once,
        at the first range of it, in the order the ranges first meet it, and
        every later member counts the cache hit its own call would have been.
        """
        codes = self._class_codes[starts, ends]
        first = np.full(self._class_codes[0, -1] + 1, codes.size)
        np.minimum.at(first, codes, np.arange(codes.size))
        leader_of = first[codes]  # each range's class's first range
        leaders = sorted(set(leader_of.tolist()))
        values = np.empty((3, codes.size))
        for k in leaders:
            found = self.evaluate(stage, int(starts[k]), int(ends[k]))
            values[:, k] = found.forward, found.backward, found.feasible
        self.cache_hits += codes.size - len(leaders)
        forward, backward, feasible = values[:, leader_of]
        return forward, backward, feasible == 1.0

    @functools.cached_property
    def _buffer_bytes(self) -> float:
        return self.memory_model.recompute_buffer_bytes()

    def _evaluate_uncached(self, key: Tuple, i: int, j: int) -> StageEval:
        """Price the class of ``key`` at nominal speed from its layer kinds'
        totals.

        :func:`stage_totals` sums each kind's count times its totals in
        kind order, so every member of an isomorphism class gets the same
        bits whatever its layer order. ``i..j`` supplies only the counts
        of the kinds the key does not carry and the parameter sum.
        """
        self.inner_dp_invocations += 1
        in_flight, _, _, _, _, capacity = key
        totals = stage_totals(
            self.profiler,
            {kind: prefix[j + 1] - prefix[i] for kind, prefix in self._kind_prefix},
        )
        forward = totals.forward
        static = self.memory_model.static_bytes_of_params(
            self._param_prefix[j + 1] - self._param_prefix[i]
        )
        buffer = self._buffer_bytes
        budget = capacity - static - buffer - in_flight * totals.always_bytes
        result: RecomputeResult = optimize_stage_recompute(
            list(totals.items), budget, in_flight
        )
        # The knapsack runs on nominal unit times: a uniform per-rank scale
        # multiplies every candidate's value identically, so the argmax is
        # scale-invariant and only the resulting stage times need scaling,
        # which evaluate() does after the lookup.
        if not result.feasible:
            return StageEval(
                feasible=False,
                forward=forward,
                backward=float("inf"),
                saved_unit_counts={},
                saved_bytes_per_microbatch=0.0,
                memory=StageMemory(static, buffer, totals.always_bytes, in_flight),
            )

        backward = totals.backward_fixed + totals.optional_value - result.saved_value
        saved_counts = dict(totals.always_counts)
        for name, count in result.saved_counts.items():
            saved_counts[name] = saved_counts.get(name, 0) + count
        saved_bytes = totals.always_bytes + result.saved_bytes
        memory = StageMemory(
            static_bytes=static,
            buffer_bytes=buffer,
            saved_per_microbatch=saved_bytes,
            in_flight_microbatches=in_flight,
        )
        return StageEval(
            feasible=True,
            forward=forward,
            backward=backward,
            saved_unit_counts=saved_counts,
            saved_bytes_per_microbatch=saved_bytes,
            memory=memory,
        )
