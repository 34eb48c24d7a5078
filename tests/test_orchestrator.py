"""Tests for the sweep orchestration layer.

Covers the four orchestrator mechanisms against the sweep's pinned
invariant (bit-identical best plan to the serial exhaustive sweep):
work-stealing shard execution, cache merge-back (including the persisted
cache file), incumbent-broadcast pruning inside workers, and frontier
checkpoint/resume — including a real SIGKILL mid-sweep.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.isomorphism import (
    PRIVATE_FINGERPRINT,
    RANGE_KEY_FIELDS,
    StageEval,
    StageEvalCache,
)
from repro.core.orchestrator import (
    CACHE_FILE_FORMAT_VERSION,
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    ShardTask,
    SweepCheckpoint,
    SweepProgress,
    _ROW_COLUMNS,
    _WorkerInit,
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_cache_file,
    load_checkpoint,
    per_sample_time,
    resolve_planner,
    run_shard,
    save_cache_file,
    save_checkpoint,
    sweep_fingerprint,
)
from repro.core.search import PlannerContext, enumerate_parallel_strategies
from repro.core.serialize import (
    atomic_write_json,
    dump_plan,
    load_plan,
    plan_signature,
)
from repro.core.sweep import SweepConfig, run_sweep, strategy_lower_bound
from repro.experiments.cli import main as cli_main
from repro.hardware.cluster import cluster_a
from repro.profiler.memory import StageMemory

LIMIT = 8 * 1024**2

SERIAL = SweepConfig(workers=1, prune=False, share_cache=False)


@pytest.fixture
def sweep_args(tiny_spec, tiny_train):
    """Tiny-GPT sweep over cluster A's one-node 8-device strategy space."""
    return dict(
        cluster=cluster_a(1),
        spec=tiny_spec,
        train=tiny_train,
        num_devices=8,
        memory_limit_bytes=LIMIT,
    )


class _Abort(Exception):
    """Raised by a progress callback to cut a sweep short mid-flight."""


def _aborting_after(n):
    """Progress callback raising _Abort once ``n`` events have fired."""
    seen = []

    def callback(event: SweepProgress) -> None:
        seen.append(event)
        if len(seen) >= n:
            raise _Abort

    return callback, seen


class TestCheckpointResume:
    def test_abort_and_resume_identical_best(self, sweep_args, tmp_path):
        """Kill a sweep via its callback mid-flight; the resumed sweep must
        select the bit-identical best plan while re-planning strictly
        fewer strategies than it restores + plans in total."""
        serial = run_sweep(config=SERIAL, **sweep_args)
        path = str(tmp_path / "frontier.json")
        callback, seen = _aborting_after(3)
        with pytest.raises(_Abort):
            run_sweep(
                config=SweepConfig(
                    workers=1, checkpoint_path=path, checkpoint_every=1
                ),
                progress=callback,
                **sweep_args,
            )
        assert os.path.exists(path)
        resumed = run_sweep(
            config=SweepConfig(workers=1, checkpoint_path=path, checkpoint_every=1),
            resume_from=path,
            **sweep_args,
        )
        assert plan_signature(resumed.best) == plan_signature(serial.best)
        stats = resumed.stats
        # Everything the abort covered was restored, not recomputed.
        assert stats.strategies_resumed >= len(
            [e for e in seen if e.kind == "planned"]
        )
        fresh = stats.strategies_planned - stats.strategies_resumed
        assert fresh < serial.stats.strategies_planned
        assert stats.strategies_planned + stats.strategies_pruned == (
            stats.strategies_total
        )

    def test_resume_completed_checkpoint_plans_nothing(self, sweep_args, tmp_path):
        path = str(tmp_path / "frontier.json")
        first = run_sweep(
            config=SweepConfig(workers=1, checkpoint_path=path), **sweep_args
        )
        resumed = run_sweep(
            config=SweepConfig(workers=1, checkpoint_path=path),
            resume_from=path,
            **sweep_args,
        )
        assert plan_signature(resumed.best) == plan_signature(first.best)
        assert resumed.stats.strategies_resumed == (
            resumed.stats.strategies_planned
        )

    def test_checkpoint_written_before_progress_event(self, sweep_args, tmp_path):
        """The checkpoint covering an event is on disk before the event
        fires — an abort (or kill) inside the callback loses nothing."""
        path = str(tmp_path / "frontier.json")
        callback, seen = _aborting_after(1)
        with pytest.raises(_Abort):
            run_sweep(
                config=SweepConfig(
                    workers=1, checkpoint_path=path, checkpoint_every=1
                ),
                progress=callback,
                **sweep_args,
            )
        checkpoint = load_checkpoint(path)
        (event,) = seen
        assert event.index in checkpoint.completed

    def test_digest_mismatch_rejected(self, sweep_args, tmp_path):
        path = str(tmp_path / "frontier.json")
        run_sweep(
            config=SweepConfig(workers=1, checkpoint_path=path), **sweep_args
        )
        other = dict(sweep_args)
        other["memory_limit_bytes"] = LIMIT * 2
        with pytest.raises(CheckpointError, match="does not match"):
            run_sweep(
                config=SweepConfig(workers=1),
                resume_from=path,
                **other,
            )

    def test_malformed_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(str(path))
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_malformed_cache_file_rejected(self, tmp_path):
        path = tmp_path / "evals.json"
        path.write_text('{"format_version": 2, "fingerprints": [')
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_cache_file(str(path))
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_cache_file(str(path))

    def test_checkpoint_round_trip(self, sweep_args, tmp_path):
        path = str(tmp_path / "frontier.json")
        run_sweep(
            config=SweepConfig(workers=1, checkpoint_path=path), **sweep_args
        )
        checkpoint = load_checkpoint(path)
        assert checkpoint_from_dict(checkpoint_to_dict(checkpoint)) == checkpoint
        assert checkpoint.completed
        assert checkpoint.incumbent is not None

    def test_sigkill_and_resume(self, sweep_args, tmp_path):
        """A worker-style hard kill (SIGKILL from inside the progress
        callback, no cleanup, no atexit) leaves a checkpoint the next run
        resumes to the bit-identical best plan."""
        serial = run_sweep(config=SERIAL, **sweep_args)
        path = str(tmp_path / "frontier.json")
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.config import TrainingConfig
            from repro.core.sweep import SweepConfig, run_sweep
            from repro.hardware.cluster import cluster_a
            from repro.model.spec import tiny_gpt

            events = []

            def killer(event):
                events.append(event)
                if len(events) >= 2:
                    os.kill(os.getpid(), signal.SIGKILL)

            run_sweep(
                cluster_a(1),
                tiny_gpt(num_layers=3, hidden_size=32, vocab_size=50),
                TrainingConfig(
                    sequence_length=8, global_batch_size=4, micro_batch_size=1,
                    sequence_parallel=False, flash_attention=False,
                ),
                8,
                config=SweepConfig(
                    workers=1, checkpoint_path={path!r}, checkpoint_every=1
                ),
                progress=killer,
                memory_limit_bytes={LIMIT},
            )
            raise SystemExit("the kill never fired")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        killed = load_checkpoint(path)
        assert len(killed.completed) >= 2
        resumed = run_sweep(
            config=SweepConfig(workers=1, checkpoint_path=path, checkpoint_every=1),
            resume_from=path,
            **sweep_args,
        )
        assert plan_signature(resumed.best) == plan_signature(serial.best)
        fresh = resumed.stats.strategies_planned - resumed.stats.strategies_resumed
        assert resumed.stats.strategies_resumed >= 2
        assert fresh < serial.stats.strategies_planned


class TestCacheMergeBack:
    def test_merged_cache_sweep_bit_identical_to_cold(self, sweep_args):
        """Two disjoint half-sweeps' cache shards, merged, must drive a
        full sweep to the bit-identical plans of a cold sweep."""
        strategies = enumerate_parallel_strategies(
            sweep_args["num_devices"],
            sweep_args["cluster"],
            sweep_args["spec"],
            sweep_args["train"],
        )
        assert len(strategies) >= 2
        half = len(strategies) // 2
        shard_a, shard_b = StageEvalCache(), StageEvalCache()
        run_sweep(
            strategies=strategies[:half],
            config=SweepConfig(workers=1, prune=False),
            eval_cache=shard_a,
            **sweep_args,
        )
        run_sweep(
            strategies=strategies[half:],
            config=SweepConfig(workers=1, prune=False),
            eval_cache=shard_b,
            **sweep_args,
        )
        merged = StageEvalCache()
        assert merged.merge_entries(shard_a.export_entries()) == len(
            shard_a.export_entries()
        )
        merged.merge_entries(shard_b.export_entries())
        # Merging again is a no-op: digest keys make the union idempotent.
        assert merged.merge_entries(shard_a.export_entries()) == 0

        cold = run_sweep(config=SERIAL, **sweep_args)
        warm = run_sweep(
            config=SweepConfig(workers=1, prune=False),
            eval_cache=merged,
            **sweep_args,
        )
        assert plan_signature(warm.best) == plan_signature(cold.best)
        for a, b in zip(cold.plans, warm.plans):
            assert plan_signature(a) == plan_signature(b)

    def test_parallel_sweep_merges_worker_entries(self, sweep_args):
        cache = StageEvalCache()
        result = run_sweep(
            config=SweepConfig(workers=2, min_parallel=1, prune=False),
            eval_cache=cache,
            **sweep_args,
        )
        assert result.stats.workers == 2
        assert result.stats.shards_dispatched >= 2
        assert result.stats.cache_entries_merged > 0
        # The coordinator cache ends up holding the workers' evaluations.
        assert len(cache) >= result.stats.cache_entries_merged
        total = result.stats.worker_cache_hits + result.stats.worker_cache_misses
        assert total > 0

    def test_cache_file_round_trip(self, sweep_args, tmp_path):
        path = str(tmp_path / "evals.json")
        cold = run_sweep(
            config=SweepConfig(workers=1, cache_path=path), **sweep_args
        )
        assert os.path.exists(path)
        entries = load_cache_file(path)
        assert entries
        # Values round-trip exactly (including inf backward times, which
        # JSON carries as Infinity literals).
        probe = StageEvalCache()
        assert probe.merge_entries(entries) == len(entries)
        warm = run_sweep(
            config=SweepConfig(workers=1, cache_path=path), **sweep_args
        )
        assert warm.stats.cache_entries_loaded == len(entries)
        assert plan_signature(warm.best) == plan_signature(cold.best)

    def test_cache_path_requires_share_cache(self, sweep_args, tmp_path):
        with pytest.raises(ValueError, match="share_cache"):
            run_sweep(
                config=SweepConfig(
                    workers=1, share_cache=False, cache_path=str(tmp_path / "c.json")
                ),
                **sweep_args,
            )

    def test_private_entries_never_exported(self):
        cache = StageEvalCache()
        cache.enable_journal()
        private = (PRIVATE_FINGERPRINT, 1234, "k")
        cache.put(private, "secret")
        cache.put(("fp", "k"), "shared")
        assert cache.get(private) == "secret"
        exported = cache.export_entries()
        assert [key for key, _ in exported] == [("fp", "k")]
        assert [key for key, _ in cache.journal_slice(0)] == [("fp", "k")]
        sink = StageEvalCache()
        assert sink.merge_entries([(private, "secret")]) == 0


class TestBoundedWorkerCache:
    def test_fifo_eviction(self):
        cache = StageEvalCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("c",), 3)
        assert len(cache) == 2
        assert cache.get(("a",)) is None  # first in, first out
        assert cache.get(("b",)) == 2
        assert cache.get(("c",)) == 3

    def test_journal_survives_eviction(self):
        cache = StageEvalCache(max_entries=1)
        cache.enable_journal()
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert len(cache) == 1
        assert [key for key, _ in cache.journal_slice(0)] == [("a",), ("b",)]
        assert cache.journal_length == 2
        # Stable offsets: a later slice sees only later entries.
        cache.put(("c",), 3)
        assert [key for key, _ in cache.journal_slice(2)] == [("c",)]

    def test_rewriting_same_key_does_not_grow_journal(self):
        cache = StageEvalCache()
        cache.enable_journal()
        cache.put(("a",), 1)
        cache.put(("a",), 1)
        assert cache.journal_length == 1


class TestIncumbentBroadcast:
    def test_run_shard_prunes_against_broadcast_incumbent(self, sweep_args):
        """A shard whose bounds exceed the broadcast incumbent is pruned
        inside the worker without planning anything."""
        strategies = enumerate_parallel_strategies(
            sweep_args["num_devices"],
            sweep_args["cluster"],
            sweep_args["spec"],
            sweep_args["train"],
        )
        contexts = [
            PlannerContext(
                sweep_args["cluster"],
                sweep_args["spec"],
                sweep_args["train"],
                parallel,
                memory_limit_bytes=LIMIT,
            )
            for parallel in strategies
        ]
        per_sample = 1.0 / sweep_args["train"].global_batch_size
        bounds = [strategy_lower_bound(ctx) * per_sample for ctx in contexts]
        init = _WorkerInit(
            planner="AdaPipe",
            cluster=sweep_args["cluster"],
            spec=sweep_args["spec"],
            train=sweep_args["train"],
            context_kwargs={"memory_limit_bytes": LIMIT},
            share_cache=True,
            cache_max_entries=None,
            prune=True,
        )
        planner_fn = resolve_planner("AdaPipe")
        cache = StageEvalCache()
        cache.enable_journal()
        # Incumbent below every bound: the whole shard must be pruned.
        task = ShardTask(
            indices=tuple(range(len(strategies))),
            strategies=tuple(strategies),
            bounds=tuple(bounds),
            incumbent=min(bounds) / 2.0,
            cache_entries=(),
        )
        result = run_shard(planner_fn, init, cache, task)
        assert result.planned == ()
        assert set(result.pruned) == set(range(len(strategies)))
        assert result.cache_entries == ()

    def test_run_shard_tightens_incumbent_within_shard(self, sweep_args):
        """With no broadcast incumbent, the shard's own first feasible
        plans establish one that prunes its later, worse members."""
        strategies = enumerate_parallel_strategies(
            sweep_args["num_devices"],
            sweep_args["cluster"],
            sweep_args["spec"],
            sweep_args["train"],
        )
        contexts = [
            PlannerContext(
                sweep_args["cluster"],
                sweep_args["spec"],
                sweep_args["train"],
                parallel,
                memory_limit_bytes=LIMIT,
            )
            for parallel in strategies
        ]
        per_sample = 1.0 / sweep_args["train"].global_batch_size
        bounds = [strategy_lower_bound(ctx) * per_sample for ctx in contexts]
        order = sorted(range(len(strategies)), key=lambda i: (bounds[i], i))
        init = _WorkerInit(
            planner="AdaPipe",
            cluster=sweep_args["cluster"],
            spec=sweep_args["spec"],
            train=sweep_args["train"],
            context_kwargs={"memory_limit_bytes": LIMIT},
            share_cache=True,
            cache_max_entries=None,
            prune=True,
        )
        task = ShardTask(
            indices=tuple(order),
            strategies=tuple(strategies[i] for i in order),
            bounds=tuple(bounds[i] for i in order),
            incumbent=float("inf"),
            cache_entries=(),
        )
        cache = StageEvalCache()
        cache.enable_journal()
        result = run_shard(resolve_planner("AdaPipe"), init, cache, task)
        reference = run_sweep(
            config=SweepConfig(workers=1, prune=True), **sweep_args
        )
        # The whole bound-ordered space as one shard IS the serial pruned
        # sweep: same planned/pruned split, and the cache delta holds
        # every exported evaluation.
        assert len(result.planned) == reference.stats.strategies_planned
        assert len(result.pruned) == reference.stats.strategies_pruned
        assert len(result.cache_entries) > 0

    def test_pruning_stats_split_by_origin(self, sweep_args):
        result = run_sweep(
            config=SweepConfig(workers=2, min_parallel=1, prune=True),
            **sweep_args,
        )
        stats = result.stats
        assert stats.strategies_pruned == (
            stats.incumbent_prunes + stats.coordinator_prunes
        )
        assert stats.strategies_planned + stats.strategies_pruned == (
            stats.strategies_total
        )


class TestProgressStreaming:
    def test_every_strategy_emits_exactly_one_event(self, sweep_args):
        events = []
        result = run_sweep(
            config=SweepConfig(workers=1, prune=True),
            progress=events.append,
            **sweep_args,
        )
        assert len(events) == result.stats.strategies_total
        assert sorted(e.index for e in events) == list(
            range(result.stats.strategies_total)
        )
        planned = [e for e in events if e.kind == "planned"]
        pruned = [e for e in events if e.kind == "pruned"]
        assert len(planned) == result.stats.strategies_planned
        assert len(pruned) == result.stats.strategies_pruned

    def test_frontier_events_carry_best_plan(self, sweep_args):
        events = []
        result = run_sweep(
            config=SweepConfig(workers=1, prune=True),
            progress=events.append,
            **sweep_args,
        )
        improvements = [e for e in events if e.improved]
        assert improvements
        for event in improvements:
            assert event.plan is not None
            assert per_sample_time(event.plan) == event.per_sample_time
        # The last improvement is the sweep's selected best.
        final = improvements[-1]
        assert plan_signature(final.plan) == plan_signature(result.best)
        # Best-so-far only decreases along the stream.
        times = [e.best_per_sample_time for e in events if e.best_per_sample_time]
        assert times == sorted(times, reverse=True)

    def test_parallel_stream_counts_match(self, sweep_args):
        events = []
        result = run_sweep(
            config=SweepConfig(workers=2, min_parallel=1, prune=True),
            progress=events.append,
            **sweep_args,
        )
        assert result.stats.workers == 2
        assert len(events) == result.stats.strategies_total


class TestFingerprint:
    def test_fingerprint_moves_with_inputs(self, sweep_args):
        strategies = enumerate_parallel_strategies(
            sweep_args["num_devices"],
            sweep_args["cluster"],
            sweep_args["spec"],
            sweep_args["train"],
        )
        base = sweep_fingerprint(
            sweep_args["cluster"],
            sweep_args["spec"],
            sweep_args["train"],
            "AdaPipe",
            strategies,
            {"memory_limit_bytes": LIMIT},
        )
        assert base == sweep_fingerprint(
            sweep_args["cluster"],
            sweep_args["spec"],
            sweep_args["train"],
            "AdaPipe",
            strategies,
            {"memory_limit_bytes": LIMIT},
        )
        for planner, kwargs, subset in [
            ("Even Partitioning", {"memory_limit_bytes": LIMIT}, strategies),
            ("AdaPipe", {"memory_limit_bytes": LIMIT * 2}, strategies),
            ("AdaPipe", {"memory_limit_bytes": LIMIT}, strategies[:-1]),
        ]:
            assert base != sweep_fingerprint(
                sweep_args["cluster"],
                sweep_args["spec"],
                sweep_args["train"],
                planner,
                subset,
                kwargs,
            )

    def test_save_and_load_cache_file_roundtrip_values(self, sweep_args, tmp_path):
        cache = StageEvalCache()
        run_sweep(
            config=SweepConfig(workers=1, prune=False),
            eval_cache=cache,
            **sweep_args,
        )
        path = str(tmp_path / "evals.json")
        saved = save_cache_file(cache, path)
        loaded = dict(load_cache_file(path))
        assert saved == len(loaded)
        for key, value in cache.export_entries():
            assert loaded[key] == value


# ---------------------------------------------------------------------------
# Cache file format v3: a fingerprint table, flat rows, checks on load
# ---------------------------------------------------------------------------

_FINGERPRINT = ("DeviceSpec(name='A100-80GB', ...)", 600e9, 8, 1, 0.0, None)


def _stage_eval(feasible=True, units=None, in_flight=2):
    return StageEval(
        feasible=feasible,
        forward=1.5,
        backward=3.0 if feasible else float("inf"),
        saved_unit_counts={"attn.qkv": 2, "ffn.fc1": 1} if units is None else units,
        saved_bytes_per_microbatch=1024.0,
        memory=StageMemory(4096.0, 512.0, 1024.0, in_flight),
    )


def _entries():
    """Row 0 is feasible, row 1 infeasible (inf backward, no saved units)."""
    return [
        (_FINGERPRINT + (2, True, False, 1, 1, 8.0e9), _stage_eval()),
        (
            _FINGERPRINT + (1, False, True, 2, 1, 8.0e9),
            _stage_eval(feasible=False, units={}, in_flight=1),
        ),
    ]


def _write_cache_file(path, mutate=None):
    """Save :func:`_entries`, then let ``mutate`` edit the JSON document."""
    cache = StageEvalCache()
    cache.merge_entries(_entries())
    save_cache_file(cache, str(path))
    if mutate is not None:
        document = json.loads(path.read_text())
        mutate(document)
        path.write_text(json.dumps(document))


_NUMBER = "a finite non-negative number"
_COUNT = "a non-negative int"
_FLAG = "a bool"
_UNITS = "a list of [unit, count] pairs"

#: (row, column, bad value, what the error says the column wants).
_BAD_CELLS = [
    (1, "forward", float("nan"), _NUMBER),
    (0, "backward", -5.0, "a non-negative number or inf"),
    (0, "forward", "x", _NUMBER),
    (0, "forward", True, _NUMBER),
    (0, "forward", float("inf"), _NUMBER),
    (0, "backward", float("inf"), "finite in a feasible row"),
    (1, "backward", float("nan"), "a non-negative number or inf"),
    (1, "rank_capacity", float("inf"), _NUMBER),
    (0, "saved_bytes_per_microbatch", -1.0, _NUMBER),
    (0, "static_bytes", None, _NUMBER),
    (1, "buffer_bytes", -512.0, _NUMBER),
    (0, "saved_per_microbatch", float("nan"), _NUMBER),
    (0, "feasible", 1, _FLAG),
    (0, "first", 0, _FLAG),
    (1, "last", None, _FLAG),
    (0, "in_flight", -1, _COUNT),
    (0, "in_flight", 1.5, _COUNT),
    (0, "attention", "2", _COUNT),
    (1, "ffn", True, _COUNT),
    (0, "in_flight_microbatches", -2, _COUNT),
    (0, "saved_unit_counts", [["attn.qkv", -1]], _UNITS),
    (0, "saved_unit_counts", [["attn.qkv", 1.0]], _UNITS),
    (0, "saved_unit_counts", [[3, 1]], _UNITS),
    (0, "saved_unit_counts", [["attn.qkv", 1, 2]], _UNITS),
    (1, "saved_unit_counts", {"attn.qkv": 1}, _UNITS),
    (1, "fingerprint", 1, "an index below 1"),
    (0, "fingerprint", -1, "an index below 1"),
    (0, "fingerprint", True, "an index below 1"),
]

_FINGERPRINTS = st.tuples(
    st.text(max_size=40),
    st.floats(0.0, 1e13),
    st.integers(1, 64),
    st.one_of(st.none(), st.integers(0, 2**32)),
)
_RANGE_KEYS = st.tuples(
    st.integers(0, 32),
    st.booleans(),
    st.booleans(),
    st.integers(0, 96),
    st.integers(0, 96),
    st.floats(1e9, 1e11),
)
_SIZES = st.floats(0.0, 1e15)
_UNIT_COUNTS = st.dictionaries(
    st.sampled_from(["attn.qkv", "attn.core", "ffn.fc1", "ffn.act", "norm"]),
    st.integers(0, 64),
    max_size=5,
)


@st.composite
def _stage_evals(draw):
    feasible = draw(st.booleans())
    return StageEval(
        feasible=feasible,
        forward=draw(_SIZES),
        backward=draw(_SIZES) if feasible else float("inf"),
        saved_unit_counts=draw(_UNIT_COUNTS),
        saved_bytes_per_microbatch=draw(_SIZES),
        memory=StageMemory(
            draw(_SIZES), draw(_SIZES), draw(_SIZES), draw(st.integers(0, 32))
        ),
    )


@st.composite
def _cache_entries(draw):
    """Entries of one to three evaluators, feasible and infeasible."""
    fingerprints = draw(st.lists(_FINGERPRINTS, min_size=1, max_size=3, unique=True))
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(fingerprints), _RANGE_KEYS, _stage_evals()),
            min_size=1,
            max_size=25,
        )
    )
    return [(fingerprint + key, value) for fingerprint, key, value in rows]


class TestCacheFileFormat:
    @settings(max_examples=60, deadline=None)
    @given(entries=_cache_entries())
    def test_round_trip_keeps_every_entry(self, entries):
        cache = StageEvalCache()
        cache.merge_entries(entries)
        saved = cache.export_entries()
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "evals.json")
            assert save_cache_file(cache, path) == len(saved)
            with open(path) as handle:
                document = json.load(handle)
            loaded = load_cache_file(path)
        assert loaded == saved
        split = len(RANGE_KEY_FIELDS)
        distinct = {key[:-split] for key, _ in saved}
        assert len(document["fingerprints"]) == len(distinct)
        # The entries of one evaluator share its fingerprint's fields.
        first_key = {}
        for key, _ in loaded:
            seen = first_key.setdefault(key[:-split], key)
            assert all(a is b for a, b in zip(seen[:-split], key[:-split]))

    def test_rows_are_flat_and_reference_one_fingerprint(self, tmp_path):
        path = tmp_path / "evals.json"
        _write_cache_file(path)
        document = json.loads(path.read_text())
        assert document["format_version"] == CACHE_FILE_FORMAT_VERSION == 5
        assert document["fingerprints"] == [list(_FINGERPRINT)]
        feasible, infeasible = document["rows"]
        assert len(feasible) == len(_ROW_COLUMNS)
        assert feasible[: 1 + len(RANGE_KEY_FIELDS)] == [
            0, 2, True, False, 1, 1, 8.0e9
        ]
        # The value columns are the StageEval fields in order, with
        # memory expanded into the StageMemory fields.
        assert feasible[1 + len(RANGE_KEY_FIELDS):] == [
            True, 1.5, 3.0, [["attn.qkv", 2], ["ffn.fc1", 1]], 1024.0,
            4096.0, 512.0, 1024.0, 2,
        ]
        assert infeasible[_ROW_COLUMNS.index("backward")] == float("inf")
        assert infeasible[_ROW_COLUMNS.index("saved_unit_counts")] == []

    @pytest.mark.parametrize("row, column, value, want", _BAD_CELLS)
    def test_bad_value_names_row_and_column(self, tmp_path, row, column, value, want):
        path = tmp_path / "evals.json"

        def mutate(document):
            document["rows"][row][_ROW_COLUMNS.index(column)] = value

        _write_cache_file(path, mutate)
        with pytest.raises(CheckpointError) as raised:
            load_cache_file(str(path))
        assert str(raised.value).startswith(
            f"{path}: cache row {row}: {column} must be {want}, got "
        )

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda d: d["rows"][1].pop(),
                "cache row 1: want a list of 16 columns, got 15",
            ),
            (
                lambda d: d["rows"].__setitem__(0, {}),
                "cache row 0: want a list of 16 columns, got dict",
            ),
            (
                lambda d: d.pop("rows"),
                "cache entries need 'fingerprints' and 'rows' lists",
            ),
            (
                lambda d: d["fingerprints"][0].append([1]),
                "fingerprint 0 must be a list of JSON scalars",
            ),
        ],
    )
    def test_malformed_rows_rejected(self, tmp_path, mutate, message):
        path = tmp_path / "evals.json"
        _write_cache_file(path, mutate)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_cache_file(str(path))

    def test_checkpoint_rows_are_checked(self, tmp_path):
        path = tmp_path / "frontier.json"
        save_checkpoint(SweepCheckpoint("digest", None, {}, {}, (), tuple(_entries())), str(path))
        assert load_checkpoint(str(path)).cache_entries == tuple(_entries())
        document = json.loads(path.read_text())
        document["cache_entries"]["rows"][1][_ROW_COLUMNS.index("forward")] = float("nan")
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="cache row 1: forward must be"):
            load_checkpoint(str(path))

    def test_v1_documents_rejected_naming_both_versions(self, tmp_path):
        v1_entry = [
            list(_FINGERPRINT) + [2, True, False, 1, 1, 1.0, 8.0e9],
            {
                "feasible": True, "forward": 1.5, "backward": 3.0,
                "saved_unit_counts": {"attn.qkv": 2},
                "saved_bytes_per_microbatch": 1024.0,
                "memory": {
                    "static_bytes": 4096.0, "buffer_bytes": 512.0,
                    "saved_per_microbatch": 1024.0, "in_flight_microbatches": 2,
                },
            },
        ]
        cache_path = tmp_path / "evals.json"
        cache_path.write_text(json.dumps({"format_version": 1, "entries": [v1_entry]}))
        with pytest.raises(
            CheckpointError,
            match=rf"cache file version 1 \(want {CACHE_FILE_FORMAT_VERSION}\)",
        ):
            load_cache_file(str(cache_path))
        checkpoint = checkpoint_to_dict(SweepCheckpoint("digest", None, {}, {}, (), ()))
        checkpoint.update(format_version=1, cache_entries=[v1_entry])
        checkpoint_path = tmp_path / "frontier.json"
        checkpoint_path.write_text(json.dumps(checkpoint))
        with pytest.raises(
            CheckpointError,
            match=rf"checkpoint version 1 \(want {CHECKPOINT_FORMAT_VERSION}\)",
        ):
            load_checkpoint(str(checkpoint_path))

    def test_unencodable_document_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "evals.json"
        _write_cache_file(path)
        before = path.read_text()
        with pytest.raises(TypeError):
            atomic_write_json({"rows": [object()]}, str(path))
        assert path.read_text() == before
        assert not (tmp_path / "evals.json.tmp").exists()


class TestCacheFileCli:
    """``plan --sweep-cache`` and ``replan --cache`` through ``cli.main``."""

    PLAN = [
        "plan", "--model", "bert-large", "--devices", "3",
        "--device-pool", "a100:2,a100*1.3", "--memory-limit-gib", "8",
        "--seq", "512", "--batch", "8", "--no-simulate", "--sweep-workers", "1",
    ]

    def test_warm_replans_then_old_files_exit_2(self, tmp_path, capsys):
        cache = str(tmp_path / "evals.json")
        plan = str(tmp_path / "plan.json")
        assert cli_main([*self.PLAN, "--sweep-cache", cache, "--output", plan]) == 0
        replan = [
            "replan", "--plan", plan, "--model", "bert-large",
            "--device-pool", "a100:2", "--cache", cache, "--memory-limit-gib", "8",
        ]
        assert cli_main(replan) == 0
        assert cli_main(replan) == 0
        out = capsys.readouterr().out
        loaded = re.findall(r"\((\d+) cached evaluations loaded\)", out)
        assert len(loaded) == 2 and int(loaded[1]) > 0

        old = tmp_path / "old.json"
        for document in (
            {"format_version": 1, "entries": []},
            {"format_version": 2, "fingerprints": [], "rows": []},
            {"format_version": 3, "fingerprints": [], "rows": []},
            {"format_version": 4, "fingerprints": [], "rows": []},
        ):
            old.write_text(json.dumps(document))
            for argv in (
                [*replan[:-4], "--cache", str(old), "--memory-limit-gib", "8"],
                [*self.PLAN, "--sweep-cache", str(old)],
                [*self.PLAN, "--sweep-resume", str(old)],
            ):
                assert cli_main(argv) == 2
                err = capsys.readouterr().err.strip()
                assert "\n" not in err
                assert err.startswith(f"error: {old}: unsupported ")
                assert f"version {document['format_version']} (want 5)" in err
                assert "deleting the file makes the next run start cold" in err

    def test_unreadable_plan_cache_and_checkpoint_files_exit_2(self, tmp_path, capsys):
        """Typed errors, exit 2 and one line; plan writes are atomic."""
        plan = str(tmp_path / "plan.json")
        assert cli_main([*self.PLAN, "--output", plan]) == 0
        text = open(plan).read()
        truncated = tmp_path / "cut.json"
        truncated.write_text(text[: len(text) // 2])
        version0 = tmp_path / "v0.json"
        version0.write_text(json.dumps({**json.loads(text), "format_version": 0}))
        missing = str(tmp_path / "missing.json")

        def replan(plan_path, *extra):
            return [
                "replan", "--plan", plan_path, "--model", "bert-large",
                "--device-pool", "a100:2", "--memory-limit-gib", "8", *extra,
            ]

        for argv, reason in (
            (replan(str(truncated)), f"{truncated}: not valid JSON"),
            (replan(str(version0)), "unsupported plan format version 0"),
            (replan(missing), f"{missing}: cannot read"),
            (replan(plan, "--cache", str(tmp_path)), f"{tmp_path}: cannot read"),
            ([*self.PLAN, "--sweep-resume", missing], f"{missing}: cannot read"),
        ):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err.strip()
            assert "\n" not in err
            assert err.startswith("error: ") and reason in err
            # Nothing to delete: the advice is for files that exist.
            assert "deleting the file" not in err

        # Plans are encoded in full before a temp file is written.
        with pytest.raises(TypeError):
            dump_plan(load_plan(plan).with_metadata(handle=object()), plan)
        assert open(plan).read() == text
        assert not os.path.exists(f"{plan}.tmp")

    def test_unwritable_checkpoint_or_cache_exits_2(self, tmp_path, capsys):
        """A checkpoint or cache path that cannot be written: one line,
        exit 2, and no ``PATH.tmp`` left behind."""
        plan = str(tmp_path / "plan.json")
        assert cli_main([*self.PLAN, "--output", plan]) == 0
        capsys.readouterr()
        directory = tmp_path / "checkpoints"
        directory.mkdir()
        no_parent = tmp_path / "missing" / "evals.json"
        replan = [
            "replan", "--plan", plan, "--model", "bert-large",
            "--device-pool", "a100:2", "--memory-limit-gib", "8",
        ]
        for argv, path in (
            ([*self.PLAN, "--sweep-checkpoint", str(directory)], directory),
            ([*replan, "--cache", str(no_parent)], no_parent),
        ):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err.strip()
            assert "\n" not in err
            assert err.startswith(f"error: {path}: cannot write: ")
            assert "deleting the file" not in err
            assert not os.path.exists(f"{path}.tmp")
        assert directory.is_dir()

    def test_unwritable_plan_output_exits_2(self, tmp_path, capsys):
        """``--output DIR`` after a whole search, through each of the three
        commands that write a plan: one line, exit 2, no ``PATH.tmp``."""
        plan = str(tmp_path / "plan.json")
        assert cli_main([*self.PLAN, "--output", plan]) == 0
        capsys.readouterr()
        directory = tmp_path / "plans"
        directory.mkdir()
        single = [
            "plan", "--model", "bert-large", "--devices", "2", "--tp", "1",
            "--pp", "2", "--dp", "1", "--memory-limit-gib", "8",
            "--seq", "512", "--batch", "8", "--no-simulate",
        ]
        replan = [
            "replan", "--plan", plan, "--model", "bert-large",
            "--device-pool", "a100:2", "--memory-limit-gib", "8",
        ]
        for argv in (single, self.PLAN, replan):
            assert cli_main([*argv, "--output", str(directory)]) == 2
            err = capsys.readouterr().err.strip()
            assert "\n" not in err
            assert err.startswith(f"error: {directory}: cannot write: ")
            assert "deleting the file" not in err
            assert not os.path.exists(f"{directory}.tmp")
        assert directory.is_dir()
