"""Tests for plan JSON serialization."""

import json
import math
import os
import re

import pytest

from repro.config import ParallelConfig, TrainingConfig
from repro.core import serialize
from repro.core.search import PlannerContext, plan_adapipe, plan_policy
from repro.core.serialize import (
    PlanFormatError,
    atomic_write_json,
    dump_plan,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    validate_plan,
)
from repro.core.strategies import RecomputePolicy
from repro.experiments.cli import main as cli_main
from repro.hardware.cluster import cluster_a
from repro.model.spec import bert_large


class TestRoundTrip:
    def test_adapipe_plan_round_trips(self, gpt3_ctx, tmp_path):
        plan = plan_adapipe(gpt3_ctx)
        path = tmp_path / "plan.json"
        dump_plan(plan, str(path))
        loaded = load_plan(str(path))
        assert loaded.method == plan.method
        assert loaded.parallel == plan.parallel
        assert loaded.train == plan.train
        assert loaded.layer_counts() == plan.layer_counts()
        assert loaded.saved_unit_counts() == plan.saved_unit_counts()
        assert loaded.modeled_iteration_time == plan.modeled_iteration_time
        assert loaded.hidden_size == plan.hidden_size

    def test_stage_memory_preserved(self, gpt3_ctx):
        plan = plan_policy(gpt3_ctx, RecomputePolicy.FULL, "DAPPLE-Full")
        loaded = plan_from_dict(plan_to_dict(plan))
        for original, restored in zip(plan.stages, loaded.stages):
            assert restored.memory.total_bytes == original.memory.total_bytes

    def test_document_is_plain_json(self, gpt3_ctx):
        plan = plan_adapipe(gpt3_ctx)
        text = json.dumps(plan_to_dict(plan))
        assert "AdaPipe" in text


class TestValidation:
    def test_rejects_wrong_version(self, gpt3_ctx):
        data = plan_to_dict(plan_adapipe(gpt3_ctx))
        data["format_version"] = 99
        with pytest.raises(PlanFormatError, match="version"):
            plan_from_dict(data)

    def test_rejects_missing_fields(self):
        with pytest.raises(PlanFormatError, match="malformed"):
            plan_from_dict({"format_version": 1})

    def test_rejects_non_contiguous_stages(self, gpt3_ctx):
        data = plan_to_dict(plan_adapipe(gpt3_ctx))
        data["stages"][1]["layer_start"] += 1
        with pytest.raises(PlanFormatError, match="starts at layer"):
            plan_from_dict(data)

    def test_rejects_empty_stage(self, gpt3_ctx):
        data = plan_to_dict(plan_adapipe(gpt3_ctx))
        data["stages"][0]["layer_end"] = data["stages"][0]["layer_start"]
        with pytest.raises(PlanFormatError):
            plan_from_dict(data)

    def test_rejects_misnumbered_stage(self, gpt3_ctx):
        data = plan_to_dict(plan_adapipe(gpt3_ctx))
        data["stages"][2]["stage"] = 7
        with pytest.raises(PlanFormatError, match="stage index"):
            plan_from_dict(data)

    def test_validate_accepts_good_plan(self, gpt3_ctx):
        validate_plan(plan_adapipe(gpt3_ctx))


@pytest.fixture(scope="module")
def bert_document():
    """A feasible two-stage BERT-large plan, as a plan document."""
    ctx = PlannerContext(
        cluster_a(1),
        bert_large(),
        TrainingConfig(sequence_length=512, global_batch_size=8),
        ParallelConfig(1, 2, 1),
        memory_limit_bytes=8 * 1024**3,
    )
    plan = plan_adapipe(ctx)
    assert plan.feasible
    return plan_to_dict(plan)


def _with(document, path, value):
    """A copy of ``document`` with the dotted ``path`` set to ``value``."""
    mutated = json.loads(json.dumps(document))
    *parents, leaf = path.replace("[", ".").replace("]", "").split(".")
    node = mutated
    for part in parents:
        node = node[int(part)] if part.isdigit() else node[part]
    node[leaf] = value
    return mutated


class TestRangeChecks:
    """NaN, negative and (in a feasible plan) infinite times and byte
    counts are rejected on load, naming the field's dotted path."""

    BAD = (
        ("stages[0].forward_time", math.nan),
        ("stages[1].backward_time", -5.0),
        ("stages[0].memory.static_bytes", math.inf),
        ("stages[1].memory.buffer_bytes", -1.0),
        ("stages[0].memory.saved_per_microbatch", math.nan),
        ("modeled_iteration_time", -0.5),
    )

    @pytest.mark.parametrize("path,value", BAD)
    def test_load_plan_names_the_bad_field(self, bert_document, tmp_path, path, value):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(_with(bert_document, path, value)))
        with pytest.raises(PlanFormatError, match=rf"^{plan_path}: {re.escape(path)} must be"):
            load_plan(str(plan_path))

    def test_replan_exits_2_with_one_line(self, bert_document, tmp_path, capsys):
        for path, value in self.BAD[:3]:
            plan_path = tmp_path / "plan.json"
            plan_path.write_text(json.dumps(_with(bert_document, path, value)))
            argv = [
                "replan", "--plan", str(plan_path), "--model", "bert-large",
                "--device-pool", "a100:2", "--memory-limit-gib", "8",
            ]
            assert cli_main(argv) == 2
            err = capsys.readouterr().err.strip()
            assert "\n" not in err
            assert err.startswith(f"error: {plan_path}: {path} must be")

    def test_inf_is_legal_only_in_an_infeasible_plan(self, bert_document):
        infinite = _with(bert_document, "stages[1].backward_time", math.inf)
        with pytest.raises(PlanFormatError, match=r"stages\[1\]\.backward_time"):
            plan_from_dict(infinite)
        infinite["feasible"] = False
        assert plan_from_dict(infinite).stages[1].backward_time == math.inf
        nan = _with(infinite, "stages[0].forward_time", math.nan)
        with pytest.raises(PlanFormatError, match=r"stages\[0\]\.forward_time"):
            plan_from_dict(nan)


class TestAtomicWrite:
    """A failed write or rename leaves no ``PATH.tmp`` behind."""

    def test_failed_rename_removes_the_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            atomic_write_json({"a": 1}, str(target))
        assert target.is_dir()
        assert not os.path.exists(f"{target}.tmp")

    def test_failed_write_removes_the_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        path.write_text("old\n")
        real_open = open

        class FullDisk:
            def __init__(self, name, mode):
                self.handle = real_open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(serialize, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space left"):
            atomic_write_json({"a": 1}, str(path))
        assert path.read_text() == "old\n"
        assert not os.path.exists(f"{path}.tmp")


class TestFuzzedDocuments:
    """Random corruptions of a valid plan document must never produce a
    silently-wrong plan: either the round-trip is unchanged or a
    PlanFormatError is raised."""

    @pytest.fixture(scope="class")
    def valid_document(self, request):
        import json

        from repro.config import ParallelConfig, TrainingConfig
        from repro.core.search import PlannerContext, plan_adapipe
        from repro.hardware.cluster import cluster_a
        from repro.model.spec import tiny_gpt

        ctx = PlannerContext(
            cluster_a(1),
            tiny_gpt(num_layers=3, hidden_size=32, vocab_size=50),
            TrainingConfig(
                sequence_length=8,
                global_batch_size=4,
                micro_batch_size=1,
                sequence_parallel=False,
                flash_attention=False,
            ),
            ParallelConfig(1, 2, 1),
            memory_limit_bytes=8 * 1024**2,
        )
        return json.loads(json.dumps(plan_to_dict(plan_adapipe(ctx))))

    def test_dropping_any_top_level_key_raises(self, valid_document):
        import copy

        optional = ("modeled_iteration_time", "feasible", "hidden_size", "metadata")
        for key in list(valid_document):
            if key in optional:
                continue  # optional with defaults
            mutated = copy.deepcopy(valid_document)
            del mutated[key]
            with pytest.raises(PlanFormatError):
                plan_from_dict(mutated)

    def test_dropping_any_stage_key_raises(self, valid_document):
        import copy

        for key in list(valid_document["stages"][0]):
            if key == "params":
                continue  # optional: pre-metadata documents omit it
            mutated = copy.deepcopy(valid_document)
            del mutated["stages"][0][key]
            with pytest.raises(PlanFormatError):
                plan_from_dict(mutated)

    def test_numeric_field_type_confusion_raises(self, valid_document):
        import copy

        mutated = copy.deepcopy(valid_document)
        mutated["parallel"]["pipeline_parallel"] = "eight"
        with pytest.raises(Exception):
            plan_from_dict(mutated)

    def test_unmutated_document_round_trips(self, valid_document):
        plan = plan_from_dict(valid_document)
        assert plan_to_dict(plan) == valid_document
