"""Distributed sweep orchestration: shards, merge-back, checkpoints.

The strategy sweep's execution layer. :func:`repro.core.sweep.run_sweep`
owns *what* to plan (enumeration, bounds, selection, robust re-ranking);
this module owns *how* the planning work is executed, serially or across
worker processes:

1. **Work-stealing shard dispatch** — the bound-ordered strategy queue is
   carved into shards on demand. Each worker holds exactly one shard at a
   time and requests the next when it finishes (guided self-scheduling:
   shard size shrinks as the queue drains), so an idle worker always
   steals from the shared tail and a straggler planner never serializes
   more than its own shard.
2. **Cache merge-back** — every shard result carries the worker's new
   :class:`~repro.core.isomorphism.StageEvalCache` entries (its journal
   delta). The coordinator merges them — digest keys make the union
   order-independent — and piggybacks everything a worker has not yet
   seen onto its next shard, so worker B never re-runs an inner DP that
   worker A already solved. The merged cache can persist to disk
   (``SweepConfig.cache_path``) for warm starts across runs.
3. **Incumbent broadcast** — the best feasible per-sample time so far
   rides on every dispatched shard, so branch-and-bound pruning happens
   *inside* workers on freshly stolen shards (against the freshest
   incumbent they have), not only on the coordinator at dispatch time.
   Stale incumbents only ever prune less, never incorrectly.
4. **Frontier checkpoints** — a JSON snapshot of completed plan
   documents, pruned indices, the incumbent, and the merged cache shard,
   written atomically every ``checkpoint_every`` completions. A killed
   sweep resumes via ``run_sweep(..., resume_from=path)`` and re-plans
   only the strategies the checkpoint does not cover. A streaming
   :class:`SweepProgress` callback emits best-so-far plans as they land.

Serial-equivalence argument (ALGORITHMS.md §12): none of the four
mechanisms can change the selected plan. Cache entries are deterministic
functions of their digest keys, so merge-back only changes *when* an
evaluation is computed, never its value; incumbent-broadcast pruning only
discards strategies whose admissible bound exceeds an *achieved* feasible
per-sample time (sound against any later, smaller incumbent too); and the
final selection minimises (per-sample time, enumeration index) over
whatever was planned, independent of completion order.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import hashlib
import itertools
import multiprocessing
import operator
import os
import time
import traceback
import typing
from collections import deque
from dataclasses import dataclass, field
from queue import Empty
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.config import ParallelConfig, TrainingConfig
from repro.content import CODEC, CodecError, field_hints, from_json, to_json
from repro.core.isomorphism import (
    RANGE_KEY_FIELDS,
    CacheEntry,
    StageEval,
    StageEvalCache,
)
from repro.core.plan import PipelinePlan
from repro.core.search import PlannerContext
from repro.core.serialize import (
    plan_from_dict,
    plan_to_dict,
    read_json_file,
    write_json_file,
)
from repro.hardware.cluster import ClusterSpec
from repro.model.spec import ModelSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import, no cycle
    from repro.core.sweep import SweepConfig

#: A planner is either a context->plan callable (module-level, so it can be
#: pickled to workers) or the name of a method in the baselines registry.
PlannerRef = Union[str, Callable[[PlannerContext], PipelinePlan]]

CHECKPOINT_FORMAT_VERSION = 5
CACHE_FILE_FORMAT_VERSION = 5

#: How long the coordinator waits on the result queue before checking
#: worker liveness (a worker killed by the OOM killer would otherwise
#: hang the sweep forever).
_POLL_SECONDS = 2.0


class SweepWorkerError(RuntimeError):
    """A sweep worker process failed or died unexpectedly."""


class CheckpointError(ValueError):
    """Raised on malformed, incompatible, or mismatched checkpoint or cache files."""


def resolve_planner(planner: PlannerRef) -> Callable[[PlannerContext], PipelinePlan]:
    """Resolve a :data:`PlannerRef` to a callable.

    Strings name methods in the baselines registry (``"AdaPipe"``,
    ``"DAPPLE-Full"``, ...) and are always safe to ship to workers;
    callables must be module-level to survive pickling.
    """
    if callable(planner):
        return planner
    from repro.baselines.methods import method_spec

    return method_spec(planner).planner


def per_sample_time(plan: PipelinePlan) -> Optional[float]:
    """Selection objective: modelled seconds per sample of the global batch."""
    if not plan.feasible or plan.modeled_iteration_time is None:
        return None
    return plan.modeled_iteration_time / plan.train.global_batch_size


# ---------------------------------------------------------------------------
# Serialization: cache shards and checkpoints
# ---------------------------------------------------------------------------


def _leaf_columns(cls: type, prefix: str = "") -> List[Tuple[str, Any]]:
    """``(attribute path, hint)`` of each field of ``cls`` in field order,
    with a dataclass-valued field replaced by its own fields."""
    columns: List[Tuple[str, Any]] = []
    for f, hint in field_hints(cls):
        if dataclasses.is_dataclass(hint):
            columns.extend(_leaf_columns(hint, f"{prefix}{f.name}."))
        else:
            columns.append((f"{prefix}{f.name}", hint))
    return columns


#: The value columns of a persisted cache row, in file order: the fields
#: of ``StageEval``, with ``memory`` expanded into those of
#: ``StageMemory``. A mapping column (``saved_unit_counts``) is stored as
#: its sorted ``[key, value]`` pairs. The encoder and the decoder both
#: walk this list, so a new field is saved and restored without an edit.
_VALUE_COLUMNS: Tuple[Tuple[str, Any], ...] = tuple(_leaf_columns(StageEval))

#: Every column of a row, in file order: an index into the document's
#: ``fingerprints`` table, the
#: :data:`~repro.core.isomorphism.RANGE_KEY_FIELDS` of the entry's key,
#: then the value columns, each named by its field.
_ROW_COLUMNS: Tuple[str, ...] = (
    "fingerprint",
    *RANGE_KEY_FIELDS,
    *(path.rpartition(".")[2] for path, _ in _VALUE_COLUMNS),
)
_VALUES_AT = 1 + len(RANGE_KEY_FIELDS)
_INF = float("inf")


def _is_mapping(hint: Any) -> bool:
    return typing.get_origin(hint) in (dict, collections.abc.Mapping)


# Each check below takes a whole column and passes only if every value in
# it does; the decoder finds the bad value of a failed column by checking
# each value as a column of one. Whole-column builtins (type sets, min,
# max) keep the per-value cost in C. Types are matched exactly: a bool is
# an int subclass, but neither a count nor a number here.


def _flags(column: Sequence) -> bool:
    return set(map(type, column)) <= {bool}


def _counts(column: Sequence) -> bool:
    return set(map(type, column)) <= {int} and min(column, default=0) >= 0


def _numbers_or_inf(column: Sequence) -> bool:
    # NaN is the one value unequal to itself; it would also defeat min().
    return (
        set(map(type, column)) <= {int, float}
        and not any(map(operator.ne, column, column))
        and min(column, default=0) >= 0
    )


def _numbers(column: Sequence) -> bool:
    return _numbers_or_inf(column) and max(column, default=0) < _INF


def _unit_counts(column: Sequence) -> bool:
    if not set(map(type, column)) <= {list}:
        return False
    pairs = list(itertools.chain.from_iterable(column))
    # A pair is a JSON array, or the encoder's tuple before any JSON trip.
    if not (set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}):
        return False
    names, counts = zip(*pairs) if pairs else ((), ())
    return set(map(type, names)) <= {str} and _counts(counts)


_FLAG = (_flags, "a bool")
_COUNT = (_counts, "a non-negative int")
_NUMBER = (_numbers, "a finite non-negative number")

#: The check each column must pass on load, by column name, with what it
#: wants. The fingerprint index is checked against the table's size.
_COLUMN_CHECKS: Dict[str, Tuple[Callable[[Sequence], bool], str]] = {
    "in_flight": _COUNT,
    "first": _FLAG,
    "last": _FLAG,
    "attention": _COUNT,
    "ffn": _COUNT,
    "rank_capacity": _NUMBER,
    "feasible": _FLAG,
    "forward": _NUMBER,
    # inf is an infeasible stage's backward time, and only that;
    # _decode_rows rejects it in a feasible row.
    "backward": (_numbers_or_inf, "a non-negative number or inf"),
    "saved_bytes_per_microbatch": _NUMBER,
    "static_bytes": _NUMBER,
    "buffer_bytes": _NUMBER,
    "saved_per_microbatch": _NUMBER,
    "in_flight_microbatches": _COUNT,
    "saved_unit_counts": (_unit_counts, "a list of [unit, count] pairs"),
}
# A column derived from a new field fails here, at import, until it has a
# load-time check; two fields of one name would share a check and a
# message, so they fail too.
_unchecked = [name for name in _ROW_COLUMNS[1:] if name not in _COLUMN_CHECKS]
if _unchecked or len(set(_ROW_COLUMNS)) != len(_ROW_COLUMNS):
    raise ImportError(
        f"cache row columns need unique names and a load-time check each in "
        f"_COLUMN_CHECKS; unchecked: {_unchecked}, columns: {_ROW_COLUMNS}"
    )
_ROW_CHECKS = tuple(
    (position, name, _COLUMN_CHECKS[name])
    for position, name in enumerate(_ROW_COLUMNS)
    if name != "fingerprint"
)
_row_values = operator.attrgetter(*(path for path, _ in _VALUE_COLUMNS))
_MAPPING_AT = tuple(
    position for position, (_, hint) in enumerate(_VALUE_COLUMNS) if _is_mapping(hint)
)


def _encode_row(fingerprint: int, range_key: Tuple, value: StageEval) -> List:
    """One cache entry -> one flat row (see :data:`_ROW_COLUMNS`)."""
    values = list(_row_values(value))
    for position in _MAPPING_AT:
        values[position] = sorted(values[position].items())
    return [fingerprint, *range_key, *values]


def _build(cls: type, columns: Iterator[Sequence]) -> List:
    """Objects of ``cls`` from its leaf columns, in :func:`_leaf_columns` order."""
    args: List[Any] = []
    for f, hint in field_hints(cls):
        if dataclasses.is_dataclass(hint):
            args.append(_build(hint, columns))
        elif _is_mapping(hint):
            args.append(map(dict, next(columns)))
        else:
            args.append(next(columns))
    # Positional in field order: the dataclass __init__ order.
    return list(map(cls, *args))


def _check_column(
    column: Sequence, name: str, check: Callable[[Sequence], bool], want: str
) -> None:
    """Raise :class:`CheckpointError` naming the first row ``check`` rejects."""
    if not check(column):
        index = next(i for i, value in enumerate(column) if not check((value,)))
        raise CheckpointError(
            f"cache row {index}: {name} must be {want}, got {column[index]!r}"
        )


def _decode_rows(rows: List, fingerprints: Sequence[Tuple]) -> List[CacheEntry]:
    """Check every row, then rebuild the cache entries.

    Works column by column over ``zip(*rows)``; a rejected value raises
    :class:`CheckpointError` naming its row and column.
    """
    for index, row in enumerate(rows):
        if type(row) is not list or len(row) != len(_ROW_COLUMNS):
            got = len(row) if type(row) is list else type(row).__name__
            raise CheckpointError(
                f"cache row {index}: want a list of {len(_ROW_COLUMNS)} "
                f"columns, got {got}"
            )
    if not rows:
        return []
    columns = list(zip(*rows))
    _check_column(
        columns[0],
        "fingerprint",
        lambda column: _counts(column) and max(column) < len(fingerprints),
        f"an index below {len(fingerprints)}",
    )
    for position, name, (check, want) in _ROW_CHECKS:
        _check_column(columns[position], name, check, want)
    feasible = columns[_ROW_COLUMNS.index("feasible")]
    backward = columns[_ROW_COLUMNS.index("backward")]
    _check_column(
        [b if f else 0.0 for f, b in zip(feasible, backward)],
        "backward",
        _numbers,
        "finite in a feasible row",
    )
    keys = [
        fingerprints[index] + range_key
        for index, range_key in zip(columns[0], zip(*columns[1:_VALUES_AT]))
    ]
    return list(zip(keys, _build(StageEval, iter(columns[_VALUES_AT:]))))


def _encode_entries(entries: Sequence[CacheEntry]) -> Dict:
    """Cache entries -> ``{"fingerprints": [...], "rows": [...]}``.

    A key is an evaluator fingerprint followed by the range-key fields;
    each distinct fingerprint is stored once and rows refer to it by
    index.
    """
    split = len(RANGE_KEY_FIELDS)
    fingerprints: Dict[Tuple, int] = {}
    rows = []
    for key, value in entries:
        index = fingerprints.setdefault(key[:-split], len(fingerprints))
        rows.append(_encode_row(index, key[-split:], value))
    return {"fingerprints": list(fingerprints), "rows": rows}


def _decode_entries(document) -> List[CacheEntry]:
    """The inverse of :func:`_encode_entries`, checking every row.

    The keys of one evaluator's entries share its fingerprint's fields,
    so a loaded cache holds each fingerprint's strings once.
    """
    if not isinstance(document, dict):
        raise CheckpointError("cache entries must be a JSON object")
    fingerprints = document.get("fingerprints")
    rows = document.get("rows")
    if not isinstance(fingerprints, list) or not isinstance(rows, list):
        raise CheckpointError("cache entries need 'fingerprints' and 'rows' lists")
    table: List[Tuple] = []
    for index, fingerprint in enumerate(fingerprints):
        if not isinstance(fingerprint, (list, tuple)) or not all(
            field is None or isinstance(field, (str, int, float))
            for field in fingerprint
        ):
            raise CheckpointError(
                f"fingerprint {index} must be a list of JSON scalars"
            )
        table.append(tuple(fingerprint))
    return _decode_rows(rows, table)


def save_cache_file(cache: StageEvalCache, path: str) -> int:
    """Persist a cache's shareable entries for cross-run warm starts."""
    entries = cache.export_entries()
    write_json_file(
        {"format_version": CACHE_FILE_FORMAT_VERSION, **_encode_entries(entries)},
        path,
        CheckpointError,
    )
    return len(entries)


def _cache_file_from_dict(document: Dict) -> List[CacheEntry]:
    version = document.get("format_version")
    if version != CACHE_FILE_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported cache file version {version} (want {CACHE_FILE_FORMAT_VERSION})"
        )
    return _decode_entries(document)


def load_cache_file(path: str) -> List[CacheEntry]:
    """Load the entries of a persisted cache file (see :func:`save_cache_file`).

    Raises:
        CheckpointError: the file cannot be read or is not valid JSON, has
            another format version, or holds a malformed row.
    """
    return read_json_file(path, _cache_file_from_dict, CheckpointError)


def sweep_fingerprint(
    cluster: ClusterSpec,
    spec: ModelSpec,
    train: TrainingConfig,
    planner: PlannerRef,
    strategies: Sequence[ParallelConfig],
    context_kwargs: Dict,
) -> str:
    """Content digest of everything that defines one sweep's work-list.

    A checkpoint may only resume a sweep with the identical fingerprint —
    same cluster, model, workload, planner, strategy list, and planner
    context arguments — otherwise restored plan documents and pruning
    decisions would be replayed against different inputs.
    """
    if isinstance(planner, str):
        planner_name = planner
    else:
        planner_name = (
            f"{getattr(planner, '__module__', '?')}."
            f"{getattr(planner, '__qualname__', repr(planner))}"
        )
    payload = repr(
        (
            repr(cluster),
            repr(spec),
            repr(train),
            planner_name,
            tuple(strategies),
            sorted((key, repr(value)) for key, value in context_kwargs.items()),
        )
    ).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


@dataclass(frozen=True)
class SweepCheckpoint:
    """One frontier snapshot of an in-flight (or finished) sweep.

    Attributes:
        sweep_digest: :func:`sweep_fingerprint` of the sweep's inputs.
        incumbent: best feasible per-sample time so far (``None`` before
            the first feasible plan lands).
        completed: enumeration index -> serialized plan document, for
            every strategy planned so far.
        walls: enumeration index -> planning wall seconds.
        pruned: enumeration indices branch-and-bound skipped. Pruning is
            justified against an incumbent achieved *before* the prune,
            so it stays sound under any later (smaller) incumbent.
        cache_entries: the merged stage-evaluation cache shard, so a
            resumed sweep re-plans its remaining strategies warm.
    """

    sweep_digest: str
    incumbent: Optional[float]
    completed: Dict[int, Dict]
    walls: Dict[int, float]
    pruned: Tuple[int, ...]
    cache_entries: Tuple[CacheEntry, ...] = field(metadata={
        CODEC: (_encode_entries, lambda document: tuple(_decode_entries(document)))
    })


def checkpoint_to_dict(checkpoint: SweepCheckpoint) -> Dict:
    """Serialise a checkpoint to JSON-compatible data: every field, plus
    the format version. Integer keys become JSON strings."""
    return {"format_version": CHECKPOINT_FORMAT_VERSION, **to_json(checkpoint)}


def checkpoint_from_dict(data: Dict) -> SweepCheckpoint:
    """Reconstruct a checkpoint from :func:`checkpoint_to_dict` output.

    Raises:
        CheckpointError: another format version, a field that is missing,
            unknown or of the wrong JSON type, or a malformed cache row.
    """
    body = dict(data)
    version = body.pop("format_version", None)
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} "
            f"(want {CHECKPOINT_FORMAT_VERSION})"
        )
    try:
        return from_json(SweepCheckpoint, body)
    except CodecError as exc:
        raise CheckpointError(f"malformed checkpoint document: {exc}") from exc


def save_checkpoint(checkpoint: SweepCheckpoint, path: str) -> None:
    """Atomically write a checkpoint file."""
    write_json_file(checkpoint_to_dict(checkpoint), path, CheckpointError)


def load_checkpoint(path: str) -> SweepCheckpoint:
    """Read a checkpoint file written by :func:`save_checkpoint`."""
    return read_json_file(path, checkpoint_from_dict, CheckpointError)


# ---------------------------------------------------------------------------
# Progress streaming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepProgress:
    """One streamed sweep event: a strategy was planned or pruned.

    Emitted in completion order (which, under parallel execution, is
    scheduling-dependent — only the *content* of each event and the final
    selection are deterministic). ``improved`` marks frontier events:
    this plan became the best-so-far, and ``plan`` carries it.
    """

    kind: str  # "planned" | "pruned"
    index: int
    parallel: ParallelConfig
    per_sample_time: Optional[float]
    improved: bool
    best_per_sample_time: Optional[float]
    best_index: Optional[int]
    completed: int
    total: int
    wall_seconds: float = 0.0
    plan: Optional[PipelinePlan] = None


ProgressCallback = Callable[[SweepProgress], None]


# ---------------------------------------------------------------------------
# Worker protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerInit:
    """The invariant planning context, shipped once per worker process.

    Replaces the old pool path's habit of re-pickling (cluster, spec,
    train, context kwargs) into every task tuple.
    """

    planner: PlannerRef
    cluster: ClusterSpec
    spec: ModelSpec
    train: TrainingConfig
    context_kwargs: Dict
    share_cache: bool
    cache_max_entries: Optional[int]
    prune: bool


@dataclass(frozen=True)
class ShardTask:
    """One stolen shard: strategies to plan plus the freshest shared state."""

    indices: Tuple[int, ...]
    strategies: Tuple[ParallelConfig, ...]
    bounds: Tuple[float, ...]
    incumbent: float
    cache_entries: Tuple[CacheEntry, ...]


@dataclass(frozen=True)
class ShardResult:
    """What a worker sends back: plans, prunes, and its cache delta."""

    planned: Tuple[Tuple[int, Dict, float], ...]  # (index, plan doc, wall)
    pruned: Tuple[int, ...]
    cache_entries: Tuple[CacheEntry, ...]
    cache_hits: int
    cache_misses: int


@dataclass(frozen=True)
class ShardFailure:
    """A worker's traceback, surfaced as :class:`SweepWorkerError`."""

    traceback: str


def run_shard(
    planner_fn: Callable[[PlannerContext], PipelinePlan],
    init: _WorkerInit,
    cache: Optional[StageEvalCache],
    task: ShardTask,
) -> ShardResult:
    """Plan one shard against the broadcast incumbent and cache delta.

    The incumbent starts from the coordinator's broadcast value and
    tightens as the shard's own feasible plans land, so later shard
    members are pruned against the freshest bound available anywhere.
    """
    journal_base = 0
    hits_base = misses_base = 0
    if cache is not None:
        cache.merge_entries(task.cache_entries)
        # Entries merged from the broadcast are *received*, not produced:
        # the delta exported below starts after them.
        journal_base = cache.journal_length
        hits_base, misses_base = cache.hits, cache.misses
    incumbent = task.incumbent
    planned: List[Tuple[int, Dict, float]] = []
    pruned: List[int] = []
    for index, parallel, bound in zip(task.indices, task.strategies, task.bounds):
        if init.prune and bound > incumbent:
            pruned.append(index)
            continue
        ctx = PlannerContext(
            init.cluster,
            init.spec,
            init.train,
            parallel,
            eval_cache=cache,
            **init.context_kwargs,
        )
        started = time.perf_counter()  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
        plan = planner_fn(ctx)
        wall = time.perf_counter() - started  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
        planned.append((index, plan_to_dict(plan), wall))
        achieved = per_sample_time(plan)
        if achieved is not None and achieved < incumbent:
            incumbent = achieved
    cache_entries: Tuple[CacheEntry, ...] = ()
    cache_hits = cache_misses = 0
    if cache is not None:
        cache_entries = tuple(cache.journal_slice(journal_base))
        cache_hits = cache.hits - hits_base
        cache_misses = cache.misses - misses_base
    return ShardResult(
        planned=tuple(planned),
        pruned=tuple(pruned),
        cache_entries=cache_entries,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )


def _worker_main(worker_id: int, init: _WorkerInit, tasks, results) -> None:
    """Worker loop: steal a shard, plan it, report, repeat until shutdown.

    The worker cache is size-bounded FIFO (unlike the old per-process
    ``_WORKER_CACHE`` global, which grew without bound across sweeps in a
    long-lived process) and journaled so each shard exports exactly its
    newly computed entries.
    """
    cache: Optional[StageEvalCache] = None
    if init.share_cache:
        cache = StageEvalCache(max_entries=init.cache_max_entries)
        cache.enable_journal()
    try:
        planner_fn = resolve_planner(init.planner)
        while True:
            task = tasks.get()
            if task is None:
                break
            results.put((worker_id, run_shard(planner_fn, init, cache, task)))
    except BaseException:
        results.put((worker_id, ShardFailure(traceback.format_exc())))


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


@dataclass
class ExecutionOutcome:
    """Everything the execution layer hands back to :func:`run_sweep`."""

    plans_by_index: Dict[int, PipelinePlan] = field(default_factory=dict)
    walls: Dict[int, float] = field(default_factory=dict)
    pruned: Set[int] = field(default_factory=set)
    resumed_planned: Set[int] = field(default_factory=set)
    resumed_pruned: Set[int] = field(default_factory=set)
    worker_cache_hits: int = 0
    worker_cache_misses: int = 0
    incumbent_prunes: int = 0
    coordinator_prunes: int = 0
    shards_dispatched: int = 0
    cache_entries_merged: int = 0
    cache_entries_loaded: int = 0


class _Coordinator:
    """Shared state of one sweep execution: incumbent, cache, checkpoints."""

    def __init__(
        self,
        *,
        cluster: ClusterSpec,
        spec: ModelSpec,
        train: TrainingConfig,
        strategies: Sequence[ParallelConfig],
        bounds: Sequence[float],
        order: Sequence[int],
        planner: PlannerRef,
        config: "SweepConfig",
        context_kwargs: Dict,
        cache: Optional[StageEvalCache],
        resume_from: Optional[str],
        progress: Optional[ProgressCallback],
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.train = train
        self.strategies = strategies
        self.bounds = bounds
        self.planner = planner
        self.config = config
        self.context_kwargs = context_kwargs
        self.cache = cache
        self.progress = progress
        self.outcome = ExecutionOutcome()
        self.best_key: Optional[Tuple[float, int]] = None
        self.digest = sweep_fingerprint(
            cluster, spec, train, planner, strategies, context_kwargs
        )
        self._since_checkpoint = 0

        if cache is not None:
            cache.enable_journal()
            if config.cache_path and os.path.exists(config.cache_path):
                self.outcome.cache_entries_loaded = cache.merge_entries(
                    load_cache_file(config.cache_path)
                )
        if resume_from:
            self._restore(load_checkpoint(resume_from))
        self.remaining: Deque[int] = deque(
            index
            for index in order
            if index not in self.outcome.plans_by_index
            and index not in self.outcome.pruned
        )

    # -- resume --------------------------------------------------------

    def _restore(self, checkpoint: SweepCheckpoint) -> None:
        if checkpoint.sweep_digest != self.digest:
            raise CheckpointError(
                "checkpoint does not match this sweep (different cluster, "
                f"model, workload, planner, or strategies): checkpoint "
                f"digest {checkpoint.sweep_digest}, sweep digest {self.digest}"
            )
        outcome = self.outcome
        for index, document in checkpoint.completed.items():
            plan = plan_from_dict(document)
            outcome.plans_by_index[index] = plan
            outcome.walls[index] = checkpoint.walls.get(index, 0.0)
            outcome.resumed_planned.add(index)
            self._observe(index, plan)
        outcome.pruned.update(checkpoint.pruned)
        outcome.resumed_pruned.update(checkpoint.pruned)
        if self.cache is not None:
            self.cache.merge_entries(checkpoint.cache_entries)

    # -- incumbent / frontier ------------------------------------------

    @property
    def incumbent(self) -> float:
        return self.best_key[0] if self.best_key is not None else float("inf")

    def _observe(self, index: int, plan: PipelinePlan) -> bool:
        """Fold one planned strategy into the frontier; True on improvement."""
        achieved = per_sample_time(plan)
        if achieved is None:
            return False
        key = (achieved, index)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            return True
        return False

    @property
    def completed_count(self) -> int:
        return len(self.outcome.plans_by_index) + len(self.outcome.pruned)

    def _emit(
        self,
        kind: str,
        index: int,
        plan: Optional[PipelinePlan],
        wall: float,
        improved: bool,
    ) -> None:
        if self.progress is None:
            return
        best_time = best_index = None
        if self.best_key is not None:
            best_time, best_index = self.best_key
        self.progress(
            SweepProgress(
                kind=kind,
                index=index,
                parallel=self.strategies[index],
                per_sample_time=per_sample_time(plan) if plan else None,
                improved=improved,
                best_per_sample_time=best_time,
                best_index=best_index,
                completed=self.completed_count,
                total=len(self.strategies),
                wall_seconds=wall,
                plan=plan if improved else None,
            )
        )

    # -- bookkeeping shared by both execution paths --------------------

    def record_planned(self, index: int, plan: PipelinePlan, wall: float) -> bool:
        self.outcome.plans_by_index[index] = plan
        self.outcome.walls[index] = wall
        self._since_checkpoint += 1
        return self._observe(index, plan)

    def record_pruned(self, index: int, by_worker: bool) -> None:
        self.outcome.pruned.add(index)
        if by_worker:
            self.outcome.incumbent_prunes += 1
        else:
            self.outcome.coordinator_prunes += 1
        self._since_checkpoint += 1

    def prune_remaining_front(self) -> List[int]:
        """Coordinator-side branch and bound over the bound-ordered queue.

        ``remaining`` ascends in bound, so the moment its head exceeds
        the incumbent every queued strategy is provably hopeless.
        """
        if not self.config.prune or not self.remaining:
            return []
        if self.bounds[self.remaining[0]] <= self.incumbent:
            return []
        dropped = list(self.remaining)
        self.remaining.clear()
        for index in dropped:
            self.record_pruned(index, by_worker=False)
        return dropped

    # -- checkpointing -------------------------------------------------

    def _snapshot(self) -> SweepCheckpoint:
        cache_entries: Tuple[CacheEntry, ...] = ()
        if self.cache is not None:
            cache_entries = tuple(self.cache.export_entries())
        best_time = self.best_key[0] if self.best_key is not None else None
        return SweepCheckpoint(
            sweep_digest=self.digest,
            incumbent=best_time,
            completed={
                index: plan_to_dict(plan)
                for index, plan in self.outcome.plans_by_index.items()
            },
            walls=dict(self.outcome.walls),
            pruned=tuple(sorted(self.outcome.pruned)),
            cache_entries=cache_entries,
        )

    def maybe_checkpoint(self) -> None:
        if not self.config.checkpoint_path:
            return
        if self._since_checkpoint < max(1, self.config.checkpoint_every):
            return
        save_checkpoint(self._snapshot(), self.config.checkpoint_path)
        self._since_checkpoint = 0

    def finalize(self) -> None:
        """Final checkpoint + persistent cache write after a complete sweep."""
        if self.config.checkpoint_path:
            save_checkpoint(self._snapshot(), self.config.checkpoint_path)
        if self.config.cache_path and self.cache is not None:
            save_cache_file(self.cache, self.config.cache_path)

    # -- shard carving -------------------------------------------------

    def next_shard(self) -> Optional[ShardTask]:
        pruned_now = self.prune_remaining_front()
        if pruned_now:
            self.maybe_checkpoint()
            for index in pruned_now:
                self._emit("pruned", index, None, 0.0, improved=False)
        if not self.remaining:
            return None
        # Guided self-scheduling: hand out 1/(2w) of what's left, so early
        # shards amortise dispatch overhead and the tail breaks into single
        # strategies that idle workers steal.
        size = max(1, len(self.remaining) // (2 * max(1, self.config_workers)))
        indices = tuple(
            self.remaining.popleft() for _ in range(min(size, len(self.remaining)))
        )
        self.outcome.shards_dispatched += 1
        return ShardTask(
            indices=indices,
            strategies=tuple(self.strategies[index] for index in indices),
            bounds=tuple(self.bounds[index] for index in indices),
            incumbent=self.incumbent,
            cache_entries=(),
        )

    config_workers: int = 1


def execute_sweep(
    *,
    cluster: ClusterSpec,
    spec: ModelSpec,
    train: TrainingConfig,
    strategies: Sequence[ParallelConfig],
    contexts: Sequence[PlannerContext],
    bounds: Sequence[float],
    order: Sequence[int],
    planner: PlannerRef,
    config: "SweepConfig",
    workers: int,
    context_kwargs: Dict,
    shared_cache: Optional[StageEvalCache],
    resume_from: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
) -> ExecutionOutcome:
    """Execute a sweep's planning work serially or across worker processes.

    ``bounds`` are per-sample admissible lower bounds aligned to
    ``strategies``; ``order`` is the bound-ascending visit order. The
    caller owns enumeration and final selection — this function only
    decides execution, pruning, checkpointing, and cache movement.
    """
    if config.cache_path and shared_cache is None:
        raise ValueError("SweepConfig.cache_path requires share_cache=True")
    coordinator = _Coordinator(
        cluster=cluster,
        spec=spec,
        train=train,
        strategies=strategies,
        bounds=bounds,
        order=order,
        planner=planner,
        config=config,
        context_kwargs=context_kwargs,
        cache=shared_cache,
        resume_from=resume_from,
        progress=progress,
    )
    coordinator.config_workers = workers
    if coordinator.remaining:
        if workers > 1:
            _execute_parallel(coordinator, workers)
        else:
            _execute_serial(coordinator, contexts)
    coordinator.finalize()
    return coordinator.outcome


def _execute_serial(
    coordinator: _Coordinator, contexts: Sequence[PlannerContext]
) -> None:
    """In-process execution: one strategy at a time, checkpointing as it goes."""
    planner_fn = resolve_planner(coordinator.planner)
    while coordinator.remaining:
        dropped = coordinator.prune_remaining_front()
        if dropped:
            # prune_remaining_front recorded them; checkpoint before the
            # events fire so an aborting callback finds them on disk.
            coordinator.maybe_checkpoint()
            for index in dropped:
                coordinator._emit("pruned", index, None, 0.0, improved=False)
            break
        index = coordinator.remaining.popleft()
        started = time.perf_counter()  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
        plan = planner_fn(contexts[index])
        wall = time.perf_counter() - started  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
        improved = coordinator.record_planned(index, plan, wall)
        coordinator.maybe_checkpoint()
        coordinator._emit("planned", index, plan, wall, improved)


def _execute_parallel(coordinator: _Coordinator, workers: int) -> None:
    """Work-stealing execution over ``workers`` processes.

    Dispatch is request-driven: each worker holds one shard; returning a
    result is its request for the next. Every dispatch carries the
    freshest incumbent and exactly the cache entries that worker has not
    seen (tracked as per-worker offsets into the coordinator cache's
    append-only journal).
    """
    config = coordinator.config
    cache = coordinator.cache
    mp = multiprocessing.get_context()
    init = _WorkerInit(
        planner=coordinator.planner,
        cluster=coordinator.cluster,
        spec=coordinator.spec,
        train=coordinator.train,
        context_kwargs=dict(coordinator.context_kwargs),
        share_cache=config.share_cache,
        cache_max_entries=config.cache_max_entries,
        prune=config.prune,
    )
    result_queue = mp.Queue()
    task_queues = [mp.Queue() for _ in range(workers)]
    processes = [
        mp.Process(
            target=_worker_main,
            args=(worker_id, init, task_queues[worker_id], result_queue),
            daemon=True,
        )
        for worker_id in range(workers)
    ]
    # None = never synced: first dispatch ships the full cache export.
    sync_offsets: List[Optional[int]] = [None] * workers
    active = [False] * workers
    outstanding = 0

    def dispatch(worker_id: int, journal_cut: Optional[int] = None) -> bool:
        nonlocal outstanding
        task = coordinator.next_shard()
        if task is None:
            if active[worker_id]:
                task_queues[worker_id].put(None)
                active[worker_id] = False
            return False
        if cache is not None:
            cut = cache.journal_length if journal_cut is None else journal_cut
            offset = sync_offsets[worker_id]
            if offset is None:
                entries = tuple(cache.export_entries())
            else:
                entries = tuple(cache.journal_slice(offset, cut))
            sync_offsets[worker_id] = cache.journal_length
            task = ShardTask(
                indices=task.indices,
                strategies=task.strategies,
                bounds=task.bounds,
                incumbent=task.incumbent,
                cache_entries=entries,
            )
        task_queues[worker_id].put(task)
        outstanding += 1
        return True

    try:
        for process in processes:
            process.start()
        for worker_id in range(workers):
            active[worker_id] = True
            # dispatch() sends the shutdown sentinel itself when the queue
            # is already exhausted (e.g. fewer shards than workers).
            dispatch(worker_id)
        while outstanding:
            try:
                worker_id, payload = result_queue.get(timeout=_POLL_SECONDS)
            except Empty:
                for process in processes:
                    if process.exitcode is not None and process.exitcode != 0:
                        raise SweepWorkerError(
                            f"sweep worker {process.name} died with exit code "
                            f"{process.exitcode} before finishing its shard"
                        )
                continue
            if isinstance(payload, ShardFailure):
                raise SweepWorkerError(
                    f"sweep worker {worker_id} failed:\n{payload.traceback}"
                )
            outstanding -= 1
            result: ShardResult = payload
            journal_cut = cache.journal_length if cache is not None else None
            if cache is not None and result.cache_entries:
                coordinator.outcome.cache_entries_merged += cache.merge_entries(
                    result.cache_entries
                )
            coordinator.outcome.worker_cache_hits += result.cache_hits
            coordinator.outcome.worker_cache_misses += result.cache_misses
            events: List[Tuple[str, int, Optional[PipelinePlan], float, bool]] = []
            for index in result.pruned:
                coordinator.record_pruned(index, by_worker=True)
                events.append(("pruned", index, None, 0.0, False))
            for index, document, wall in result.planned:
                plan = plan_from_dict(document)
                improved = coordinator.record_planned(index, plan, wall)
                events.append(("planned", index, plan, wall, improved))
            coordinator.maybe_checkpoint()
            for kind, index, plan, wall, improved in events:
                coordinator._emit(kind, index, plan, wall, improved)
            dispatch(worker_id, journal_cut=journal_cut)
    finally:
        for worker_id in range(workers):
            if active[worker_id]:
                try:
                    task_queues[worker_id].put_nowait(None)
                except Exception:
                    pass
        for process in processes:
            process.join(timeout=_POLL_SECONDS)
            if process.is_alive():
                process.terminate()
                process.join(timeout=_POLL_SECONDS)
