"""Digests and codecs that walk dataclass fields (repro.content).

Each test enumerates ``dataclasses.fields`` when it runs, so a field added
to a digested or encoded class is exercised without editing a test.
"""

import dataclasses
import enum
import json
import typing
from dataclasses import dataclass, field

import pytest

from repro.config import ParallelConfig, TrainingConfig
from repro.content import content_digest, field_hints, omit, shape_free
from repro.core.isomorphism import StageEval, evaluator_fingerprint
from repro.core.orchestrator import SweepCheckpoint, load_checkpoint, save_checkpoint
from repro.core.plan import PipelinePlan, StagePlan
from repro.core.serialize import (
    PlanFormatError,
    dump_plan,
    load_plan,
    plan_from_dict,
    plan_to_dict,
)
from repro.hardware.cluster import cluster_a
from repro.hardware.device import derated
from repro.model.spec import tiny_gpt
from repro.pipeline.batched import shape_digest
from repro.pipeline.perturb import LinkDegradation, PerturbationSpec, TransientStall
from repro.pipeline.simulator import schedule_digest
from repro.pipeline.tasks import Schedule, StageCosts, Task, TaskKey
from repro.pipeline.schedules import one_f_one_b_schedule
from repro.profiler.memory import StageMemory
from repro.profiler.profiler import Profiler

# ---------------------------------------------------------------------------
# A different value of the same type, derived from the type hint
# ---------------------------------------------------------------------------


def _sample(hint):
    """Some non-empty value of type ``hint``."""
    if hint is bool:
        return True
    if hint is int:
        return 1
    if hint is float:
        return 1.5
    if hint is str:
        return "x"
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return list(hint)[-1]
    if dataclasses.is_dataclass(hint):
        return hint(**{
            f.name: _sample(h)
            for f, h in field_hints(hint)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        })
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return _sample(next(a for a in args if a is not type(None)))
    if origin is dict:
        return {_sample(args[0]): _sample(args[1])}
    if origin is tuple and args[-1] is not ...:
        return tuple(_sample(a) for a in args)
    if origin in (tuple, list):
        return origin([_sample(args[0])])
    raise AssertionError(f"no sample for {hint}")


def _changed(value, hint):
    """A value of type ``hint`` that differs from ``value``."""
    if hint is bool:
        return not value
    if hint in (int, float):
        return value + 1
    if hint is str:
        return value + "'"
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        members = list(hint)
        return members[(members.index(value) + 1) % len(members)]
    if dataclasses.is_dataclass(hint):
        f, field_hint = field_hints(hint)[0]
        return dataclasses.replace(
            value, **{f.name: _changed(getattr(value, f.name), field_hint)}
        )
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return _sample(hint) if value is None else None
    if origin in (tuple, list):
        return origin(list(value) + [_sample(args[0])])
    raise AssertionError(f"cannot change a {hint}")


#: The metadata key each declaration writes.
_DECLARATION_KEYS = {
    "omit": next(iter(omit("a reason"))),
    "shape_free": next(iter(shape_free("a reason"))),
}


def _declared(cls):
    """``{field: "omit" | "shape_free" | None}`` read off the field metadata."""
    declared = {}
    for f in dataclasses.fields(cls):
        kinds = [k for k, key in _DECLARATION_KEYS.items() if key in f.metadata]
        declared[f.name] = kinds[0] if kinds else None
    return declared


def _schedule():
    costs = [StageCosts(1.0, 2.0, activation_bytes=3.0, static_bytes=4.0,
                        buffer_bytes=0.5) for _ in range(2)]
    return one_f_one_b_schedule(costs, 2, hop_time=0.25)


def _with_task(schedule, task):
    device_tasks = [list(tasks) for tasks in schedule.device_tasks]
    device_tasks[0][0] = task
    return dataclasses.replace(schedule, device_tasks=device_tasks)


def _schedule_variants():
    """``(class, field, base schedule, schedule with that field changed)``."""
    base = _schedule()
    task = base.device_tasks[0][0]
    for f, hint in field_hints(Schedule):
        yield Schedule, f.name, base, dataclasses.replace(
            base, **{f.name: _changed(getattr(base, f.name), hint)}
        )
    for f, hint in field_hints(Task):
        changed = dataclasses.replace(
            task, **{f.name: _changed(getattr(task, f.name), hint)}
        )
        yield Task, f.name, base, _with_task(base, changed)
    for f, hint in field_hints(TaskKey):
        key = dataclasses.replace(
            task.key, **{f.name: _changed(getattr(task.key, f.name), hint)}
        )
        yield TaskKey, f.name, base, _with_task(base, dataclasses.replace(task, key=key))


def _spec_variants():
    base = PerturbationSpec.build(
        {0: 1.25}, jitter_sigma=0.125, seed=3,
        stalls=[TransientStall(1, 0.5, first_task=1, length=2)],
        links=[LinkDegradation(0, 1, 2.0, 0.25)],
    )
    for f, hint in field_hints(PerturbationSpec):
        yield PerturbationSpec, f.name, base, dataclasses.replace(
            base, **{f.name: _changed(getattr(base, f.name), hint)}
        )
    for cls, attr in ((TransientStall, "stalls"), (LinkDegradation, "links")):
        item = getattr(base, attr)[0]
        for f, hint in field_hints(cls):
            changed = dataclasses.replace(
                item, **{f.name: _changed(getattr(item, f.name), hint)}
            )
            yield cls, f.name, base, dataclasses.replace(base, **{attr: (changed,)})


_VARIANTS = list(_schedule_variants()) + list(_spec_variants())


class TestDigestByConstruction:
    @pytest.mark.parametrize(
        "cls, name, base, changed",
        _VARIANTS,
        ids=[f"{cls.__name__}.{name}" for cls, name, _, _ in _VARIANTS],
    )
    def test_each_field_moves_the_digest_unless_declared_out(
        self, cls, name, base, changed
    ):
        declared = _declared(cls)[name]
        assert (content_digest(changed) != content_digest(base)) == (
            declared != "omit"
        )
        assert (
            content_digest(changed, shape=True) != content_digest(base, shape=True)
        ) == (declared is None)

    def test_declared_omissions(self):
        # Adding a declaration is a decision; this pins the current ones.
        declared = {
            f"{cls.__name__}.{name}": kind
            for cls in (Schedule, Task, TaskKey, PerturbationSpec,
                        TransientStall, LinkDegradation)
            for name, kind in _declared(cls).items()
            if kind
        }
        assert declared == {
            "Schedule.name": "omit",
            "Schedule.num_micro_batches": "omit",
            "Schedule.device_static_bytes": "shape_free",
            "Schedule.device_buffer_bytes": "shape_free",
            "Task.duration": "shape_free",
            "Task.activation_bytes": "shape_free",
            "Task.weight": "shape_free",
        }

    def test_link_hops_moves_both_digests(self):
        # The historic bug: a link-only change aliased the nominal entry.
        base = _schedule()
        degraded = dataclasses.replace(base, link_hops={(0, 1): 1.0})
        assert schedule_digest(degraded) != schedule_digest(base)
        assert shape_digest(degraded.compiled()) != shape_digest(base.compiled())
        empty = dataclasses.replace(base, link_hops={})
        assert schedule_digest(empty) == schedule_digest(base)

    def test_named_digests_are_the_generic_walk(self):
        schedule = _schedule()
        assert schedule_digest(schedule) == content_digest(schedule)
        assert shape_digest(schedule.compiled()) == content_digest(schedule, shape=True)
        spec = PerturbationSpec.build({1: 1.5})
        assert spec.content_digest() == content_digest(spec)

    @pytest.mark.parametrize("declare", [omit, shape_free])
    @pytest.mark.parametrize("reason", ["", "   "], ids=["empty", "blank"])
    def test_a_declaration_needs_a_reason(self, declare, reason):
        with pytest.raises(ValueError, match="needs a reason"):
            @dataclass
            class Point:
                x: int = field(metadata=declare(reason))


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------


def _assert_not_defaults(obj):
    """Every field of ``obj`` (and of its dataclass fields) is set away from
    its default, so a round trip can tell whether the field was carried."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.default is not dataclasses.MISSING:
            assert value != f.default, f"{type(obj).__name__}.{f.name}"
        if f.default_factory is not dataclasses.MISSING:
            assert value != f.default_factory(), f"{type(obj).__name__}.{f.name}"
        if dataclasses.is_dataclass(value):
            _assert_not_defaults(value)


def _full_plan():
    stages = tuple(
        StagePlan(
            stage=i,
            layer_start=3 * i,
            layer_end=3 * i + 3,
            saved_unit_counts={"attn.qkv": i + 1, "ffn.act": 2},
            forward_time=0.25 + i,
            backward_time=0.75 + i,
            memory=StageMemory(4096.0 + i, 512.5, 1024.25, 3 - i),
            params=1000 + i,
        )
        for i in range(2)
    )
    return PipelinePlan(
        method="AdaPipe",
        parallel=ParallelConfig(2, 2, 3),
        train=TrainingConfig(
            sequence_length=2048,
            global_batch_size=48,
            micro_batch_size=2,
            bytes_per_value=4,
            optimizer_state_factor=12,
            master_weight_bytes=0,
            sequence_parallel=False,
            flash_attention=False,
            zero_stage=2,
            hidden_dropout=0.125,
            attention_dropout=0.25,
        ),
        stages=stages,
        modeled_iteration_time=12.5,
        feasible=False,
        hidden_size=256,
        metadata={"inner_dp_invocations": 7, "note": "x"},
    )


def _full_stage_eval():
    return StageEval(
        feasible=False,
        forward=1.25,
        backward=float("inf"),
        saved_unit_counts={"attn.qkv": 2, "ffn.fc1": 5},
        saved_bytes_per_microbatch=3.75,
        memory=StageMemory(5.0, 6.25, 7.5, 3),
    )


_KEY = ("fingerprint", 600e9, 8, None) + (2, True, False, 1, 1, 8.0e9)


class TestCodecRoundTrips:
    def test_plan_round_trips_every_field(self, tmp_path):
        plan = _full_plan()
        _assert_not_defaults(plan)
        for stage in plan.stages:
            _assert_not_defaults(stage)
        path = tmp_path / "plan.json"
        dump_plan(plan, str(path))
        assert load_plan(str(path)) == plan
        assert not (tmp_path / "plan.json.tmp").exists()

    def test_checkpoint_round_trips_every_field(self, tmp_path):
        # Its cache shard carries a StageEval through the cache-row codec.
        checkpoint = SweepCheckpoint(
            sweep_digest="abc",
            incumbent=0.5,
            completed={3: plan_to_dict(_full_plan()), 11: {"method": "x"}},
            walls={3: 1.25, 11: 0.5},
            pruned=(1, 4),
            cache_entries=((_KEY, _full_stage_eval()),),
        )
        _assert_not_defaults(checkpoint)
        path = tmp_path / "frontier.json"
        save_checkpoint(checkpoint, str(path))
        assert load_checkpoint(str(path)) == checkpoint
        document = json.loads(path.read_text())
        assert sorted(document["completed"]) == ["11", "3"]


class TestFromJsonErrors:
    @pytest.fixture
    def document(self):
        return json.loads(json.dumps(plan_to_dict(_full_plan())))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("method"), "PipelinePlan.method: missing required field"),
            (lambda d: d["stages"][1].pop("memory"),
             "PipelinePlan.stages[1].memory: missing required field"),
            (lambda d: d["stages"][0].update(bogus=1),
             "PipelinePlan.stages[0].bogus: unknown field"),
            (lambda d: d["parallel"].update(tensor_parallel=True),
             "PipelinePlan.parallel.tensor_parallel: want an int, got True"),
            (lambda d: d["stages"][0]["memory"].update(static_bytes="1"),
             "PipelinePlan.stages[0].memory.static_bytes: want a number, got '1'"),
            (lambda d: d["stages"][0]["saved_unit_counts"].update({"ffn.act": 2.0}),
             "PipelinePlan.stages[0].saved_unit_counts['ffn.act']: want an int"),
            (lambda d: d.update(stages={}),
             "PipelinePlan.stages: want a JSON array, got dict"),
            (lambda d: d.update(feasible=1), "PipelinePlan.feasible: want a bool, got 1"),
        ],
        ids=["missing", "missing-nested", "unknown", "bool-as-int", "str-as-number",
             "float-as-int", "object-as-array", "int-as-bool"],
    )
    def test_names_the_dotted_path(self, document, mutate, message):
        mutate(document)
        with pytest.raises(PlanFormatError) as raised:
            plan_from_dict(document)
        assert message in str(raised.value)

    def test_missing_optional_fields_take_their_defaults(self, document):
        for name in ("modeled_iteration_time", "feasible", "hidden_size", "metadata"):
            del document[name]
        for stage in document["stages"]:
            del stage["params"]
        plan = plan_from_dict(document)
        assert plan.modeled_iteration_time is None and plan.feasible
        assert plan.hidden_size == 0 and plan.metadata == {}
        assert all(stage.params == 0 for stage in plan.stages)

# ---------------------------------------------------------------------------
# The evaluator fingerprint
# ---------------------------------------------------------------------------

#: ClusterSpec fields the fingerprint leaves out on purpose: fleet shape,
#: which reaches a stage evaluation through the per-range key instead.
_FLEET_SHAPE = {"name", "num_nodes", "device_factors", "device_pool"}


def _cluster_alternatives(cluster):
    device = cluster.device
    return {
        "name": "A2",
        "device": derated(device, 1.3),
        "num_nodes": cluster.num_nodes + 1,
        "devices_per_node": cluster.devices_per_node // 2,
        "intra_node_bandwidth": cluster.intra_node_bandwidth * 2,
        "inter_node_bandwidth": cluster.inter_node_bandwidth * 2,
        "link_latency": cluster.link_latency * 2,
        "device_factors": (1.2, 1.0),
        "device_pool": (device, derated(device, 1.3)),
    }


def _fingerprint(cluster=None, train=None, parallel=None, noise=0.0, seed=0,
                 capacity=8e9, spec=None):
    profiler = Profiler(
        cluster or cluster_a(1),
        spec or tiny_gpt(),
        train or TrainingConfig(sequence_length=16, global_batch_size=8),
        parallel or ParallelConfig(2, 2, 2),
        noise=noise,
        seed=seed,
    )
    return evaluator_fingerprint(profiler, capacity)


class TestEvaluatorFingerprint:
    def test_each_cluster_field_moves_it_or_is_fleet_shape(self):
        cluster = cluster_a(1)
        alternatives = _cluster_alternatives(cluster)
        assert set(alternatives) == {f.name for f in dataclasses.fields(cluster)}
        base = _fingerprint(cluster)
        for name, value in alternatives.items():
            moved = _fingerprint(dataclasses.replace(cluster, **{name: value})) != base
            assert moved == (name not in _FLEET_SHAPE), name

    def test_planner_inputs_move_it_and_pipeline_depth_does_not(self):
        base = _fingerprint()
        assert _fingerprint(spec=tiny_gpt(num_layers=6)) != base
        assert _fingerprint(
            train=TrainingConfig(sequence_length=32, global_batch_size=8)
        ) != base
        assert _fingerprint(parallel=ParallelConfig(4, 2, 2)) != base
        assert _fingerprint(parallel=ParallelConfig(2, 2, 4)) != base
        assert _fingerprint(noise=0.1) != base
        assert _fingerprint(seed=1) != base
        assert _fingerprint(capacity=9e9) != base
        assert _fingerprint(parallel=ParallelConfig(2, 4, 2)) == base
