"""Schedule-aware in-flight accounting and the model-vs-simulator audit.

Covers the two halves of the bugfix:

* the per-schedule in-flight formulas of
  :func:`repro.profiler.memory.in_flight_micro_batches` against the
  simulator's measured activation-liveness peaks (exact for 1F1B, GPipe
  and interleaved; conservative for the Chimera variants);
* the differential audit (:mod:`repro.pipeline.memory_audit`) and the
  regression the old hardwired ``p - s`` produced — a 1F1B-priced plan
  the GPipe simulator OOMs, and the converse, where clamping to
  ``min(n, p - s)`` frees budget and admits a strictly faster plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ParallelConfig, TrainingConfig
from repro.core.evaluate import build_schedule_for_plan, evaluate_plan
from repro.experiments.cli import main
from repro.core.search import PlannerContext, plan_adapipe
from repro.hardware.cluster import cluster_a
from repro.model.spec import tiny_gpt
from repro.pipeline.memory_audit import (
    audit_plan_over_schedules,
    audit_schedule_memory,
    modeled_device_peaks,
)
from repro.pipeline.schedules import (
    SCHEDULE_FAMILIES,
    SCHEDULE_KINDS,
    chimera_schedule,
    gpipe_schedule,
    interleaved_1f1b_schedule,
    one_f_one_b_2bp,
    one_f_one_b_overlapped,
    one_f_one_b_schedule,
)
from repro.pipeline.simulator import simulate
from repro.pipeline.tasks import StageCosts
from repro.pipeline.tracing import stage_in_flight_micro_batch_peaks
from repro.profiler.memory import MemoryModel, in_flight_micro_batches


def _costs(p, activation=100.0, rng=None):
    """Per-stage costs; random durations when an rng is given."""
    out = []
    for s in range(p):
        f = 1.0 + (rng.uniform(0.0, 1.0) if rng is not None else 0.1 * s)
        b = 2.0 + (rng.uniform(0.0, 1.0) if rng is not None else 0.05 * s)
        act = activation * (1.0 + (rng.uniform(0.0, 1.0) if rng is not None else 0.0))
        out.append(
            StageCosts(
                forward=f,
                backward=b,
                activation_bytes=act,
                static_bytes=7.0,
                buffer_bytes=3.0,
            )
        )
    return out


class TestInFlightFormulas:
    def test_1f1b_is_clamped(self):
        assert in_flight_micro_batches("1f1b", 0, 4, 8) == 4
        assert in_flight_micro_batches("1f1b", 3, 4, 8) == 1
        # The fixed bug: n < p must clamp to n, not report p - s.
        assert in_flight_micro_batches("1f1b", 0, 8, 3) == 3
        assert in_flight_micro_batches("1f1b", 6, 8, 3) == 2

    def test_gpipe_holds_everything(self):
        for s in range(4):
            assert in_flight_micro_batches("gpipe", s, 4, 9) == 9

    def test_chimera_window(self):
        # p=4, n=8: 4 entities per direction, window min(p - s, p/2).
        assert in_flight_micro_batches("chimera", 0, 4, 8) == 2
        assert in_flight_micro_batches("chimera", 3, 4, 8) == 1
        # ChimeraD counts micro-batches: doubled entities pin 2 each.
        assert in_flight_micro_batches("chimerad", 0, 4, 8) == 4
        assert in_flight_micro_batches("chimerad", 3, 4, 8) == 2

    def test_memory_model_delegates(self, tiny_ctx):
        model = tiny_ctx.profiler.memory
        n = tiny_ctx.num_micro_batches
        p = tiny_ctx.parallel.pipeline_parallel
        assert [model.in_flight(s) for s in range(p)] == [
            min(n, p - s) for s in range(p)
        ]
        gpipe_model = model.with_schedule("gpipe")
        assert [gpipe_model.in_flight(s) for s in range(p)] == [n] * p
        with pytest.raises(ValueError):
            model.with_schedule("no-such-schedule")

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            in_flight_micro_batches("1f1b", 4, 4, 2)
        with pytest.raises(ValueError):
            in_flight_micro_batches("1f1b", 0, 4, 0)
        with pytest.raises(ValueError):
            in_flight_micro_batches("interleaved", 0, 8, 8)  # no num_devices
        with pytest.raises(ValueError):
            in_flight_micro_batches("mystery", 0, 4, 2)


class TestInterleavedExactness:
    @pytest.mark.parametrize(
        "p,v,n",
        [
            (2, 1, 2),
            (2, 1, 4),
            (4, 1, 8),
            (2, 2, 4),
            (4, 2, 8),
            (4, 3, 8),
            (3, 2, 6),
            (2, 4, 8),
        ],
    )
    def test_analytic_matches_simulated(self, p, v, n):
        costs = _costs(p * v)
        result = simulate(interleaved_1f1b_schedule(costs, n, p, hop_time=0.01))
        measured = stage_in_flight_micro_batch_peaks(result)
        for stage in range(p * v):
            assert (
                in_flight_micro_batches("interleaved", stage, p * v, n, num_devices=p)
                == measured[(0, stage)]
            )

    def test_single_chunk_exceeds_plain_1f1b(self):
        # Megatron's interleaved warmup is 2(p - d - 1) virtual forwards
        # even at v=1, so its in-flight counts are >= plain 1F1B's (and
        # strictly greater for early stages once n allows) — one more
        # reason per-schedule accounting can't be approximated by p - s.
        for p, n in ((2, 4), (4, 2), (4, 8)):
            for s in range(p):
                interleaved = in_flight_micro_batches(
                    "interleaved", s, p, n, num_devices=p
                )
                assert interleaved >= in_flight_micro_batches("1f1b", s, p, n)
                assert interleaved == min(n, 2 * (p - s) - 1)


class TestMeasuredPeakOracles:
    """`stage_in_flight_micro_batch_peaks` against the analytic formulas
    (satellite)."""

    def test_1f1b_n_at_least_p(self):
        p, n = 4, 9
        peaks = stage_in_flight_micro_batch_peaks(
            simulate(one_f_one_b_schedule(_costs(p), n))
        )
        assert {s: peaks[(0, s)] for s in range(p)} == {
            s: p - s for s in range(p)
        }

    def test_1f1b_n_below_p(self):
        p, n = 6, 3
        peaks = stage_in_flight_micro_batch_peaks(
            simulate(one_f_one_b_schedule(_costs(p), n))
        )
        assert {s: peaks[(0, s)] for s in range(p)} == {
            s: min(n, p - s) for s in range(p)
        }

    def test_gpipe_holds_all(self):
        p, n = 4, 7
        peaks = stage_in_flight_micro_batch_peaks(
            simulate(gpipe_schedule(_costs(p), n))
        )
        assert all(peaks[(0, s)] == n for s in range(p))

    def test_weighted_peaks_match_unweighted_for_unit_weights(self):
        # Unit weights: the weighted peak is the plain count of live
        # micro-batches, min(n, p - s) under 1F1B.
        p, n = 5, 7
        result = simulate(one_f_one_b_schedule(_costs(p), n))
        assert stage_in_flight_micro_batch_peaks(result) == {
            (0, s): min(n, p - s) for s in range(p)
        }

    def test_chimerad_weighted_peaks_double_entities(self):
        # ChimeraD's doubled forwards weigh 2: twice the live-entity peaks
        # (2, 2, 2, 1 per pipe from stage 0).
        result = simulate(
            chimera_schedule(_costs(4), 8, forward_doubling=True)
        )
        weighted = stage_in_flight_micro_batch_peaks(result)
        assert weighted == {
            (pipe, stage): 2 * count
            for pipe in (0, 1)
            for stage, count in enumerate((2, 2, 2, 1))
        }


class TestAuditConservativeness:
    """Randomized costs x the schedule zoo: modelled >= simulated."""

    KINDS = (
        "1f1b",
        "2bp",
        "overlap",
        "gpipe",
        "chimera",
        "chimerad",
        "interleaved",
    )

    def _build(self, kind, costs, n, p):
        if kind == "1f1b":
            return one_f_one_b_schedule(costs, n)
        if kind == "2bp":
            return one_f_one_b_2bp(costs, n)
        if kind == "overlap":
            return one_f_one_b_overlapped(
                costs, n, recompute_times=[0.25 * c.backward for c in costs]
            )
        if kind == "gpipe":
            return gpipe_schedule(costs, n)
        if kind == "chimera":
            return chimera_schedule(costs, n)
        if kind == "chimerad":
            return chimera_schedule(costs, n, forward_doubling=True)
        return interleaved_1f1b_schedule(costs * 2, n, p)

    def test_kinds_cover_every_schedule_family(self):
        assert {family.name for family in SCHEDULE_FAMILIES} <= set(self.KINDS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_randomized_schedules_are_conservative(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for trial in range(6):
            p = int(rng.choice([2, 4]))
            n = int(rng.choice([1, 2, 3])) * 4
            costs = _costs(p, rng=rng)
            schedule = self._build(kind, costs, n, p)
            report = audit_schedule_memory(schedule, kind)
            assert report.conservative, (
                f"{kind} p={p} n={n} trial={trial}:\n{report.describe()}"
            )

    def test_homogeneous_1f1b_is_tight(self):
        for p, n in ((2, 4), (4, 4), (4, 12), (6, 3)):
            costs = [
                StageCosts(
                    forward=1.0,
                    backward=2.0,
                    activation_bytes=50.0,
                    static_bytes=10.0,
                    buffer_bytes=2.0,
                )
                for _ in range(p)
            ]
            report = audit_schedule_memory(
                one_f_one_b_schedule(costs, n), "1f1b"
            )
            assert report.conservative
            assert report.max_abs_rel_gap <= 1e-6
            assert all(stage.exact for stage in report.stages)

    @pytest.mark.parametrize("kind", ("2bp", "overlap"))
    def test_new_families_are_exact_not_just_conservative(self, kind):
        # The ISSUE's acceptance bar: the audit must report the 2BP and
        # overlapped families "exact" — modelled in-flight equal to the
        # simulator's measured liveness on every stage, peaks matching to
        # float tolerance — not merely conservative.
        rng = np.random.default_rng(hash(kind) % 2**32 + 1)
        for p, n in ((2, 4), (4, 4), (4, 12), (6, 3)):
            costs = _costs(p, rng=rng)
            report = audit_schedule_memory(self._build(kind, costs, n, p), kind)
            assert report.conservative
            assert all(stage.exact for stage in report.stages), (
                f"{kind} p={p} n={n}:\n{report.describe()}"
            )
            assert report.max_abs_rel_gap <= 1e-6

    def test_modeled_device_peaks_include_statics(self):
        costs = _costs(3)
        schedule = one_f_one_b_schedule(costs, 5)
        peaks = modeled_device_peaks(schedule, "1f1b")
        assert peaks == list(
            simulate(schedule).device_peak_bytes
        )  # homogeneous per-device layout: model is exact


class TestScheduleFamilyTable:
    """Every row of the family table builds, and its in-flight rule is
    conservative everywhere and exact wherever the row claims it."""

    @pytest.mark.parametrize(
        "family", SCHEDULE_FAMILIES, ids=lambda family: family.name
    )
    def test_family_builds_and_keeps_its_in_flight_claim(self, family):
        p, n = 4, 8
        costs = _costs(2 * p if family.chunked else p, rng=np.random.default_rng(7))
        schedule = family.build(costs, n, 0.01, "fixture", p)
        assert (schedule.num_devices, schedule.num_micro_batches) == (p, n)
        report = audit_schedule_memory(schedule, family.name)
        assert report.conservative, report.describe()
        if family.exact_in_flight:
            assert all(stage.exact for stage in report.stages), report.describe()

    def test_unknown_kind_is_one_error_naming_the_known_kinds(self, tiny_ctx):
        plan = plan_adapipe(tiny_ctx)
        model = tiny_ctx.profiler.memory
        calls = (
            lambda: build_schedule_for_plan(plan, tiny_ctx.cluster, "zigzag"),
            lambda: in_flight_micro_batches("zigzag", 0, 4, 8),
            lambda: model.with_schedule("zigzag"),
        )
        for call in calls:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == (
                f"unknown schedule kind 'zigzag'; pick from {SCHEDULE_KINDS}"
            )


class TestAuditCli:
    def test_misspelled_kind_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--schedules", "1fb1", "gpip"])
        assert excinfo.value.code == 2
        assert "invalid choice: '1fb1'" in capsys.readouterr().err

    def test_nothing_audited_is_a_failure(self, capsys):
        # Chimera needs an even stage count, so --pp 3 skips both kinds.
        code = main(["audit", "--pp", "3", "--schedules", "chimera", "chimerad"])
        out = capsys.readouterr().out
        assert code == 2
        assert out.count("skipped") == 2
        assert "no schedule could be audited" in out


class TestPlanIntegration:
    def test_evaluate_plan_metadata_keys(self, tiny_ctx):
        evaluation = evaluate_plan(
            plan_adapipe(tiny_ctx), tiny_ctx.cluster, "1f1b"
        )
        meta = evaluation.plan.metadata
        assert meta["mem_model_conservative"] is True
        assert meta["mem_model_peak_bytes"] >= meta["mem_sim_peak_bytes"]
        assert 0.0 <= meta["mem_model_max_rel_gap"] <= 1e-6

    def test_peak_memory_repricing(self, tiny_ctx):
        plan = plan_adapipe(tiny_ctx)
        baked = plan.peak_memory_bytes()
        assert plan.peak_memory_bytes("1f1b") == baked
        n = tiny_ctx.num_micro_batches
        for s, (gpipe_total, base_total) in enumerate(
            zip(plan.peak_memory_bytes("gpipe"), baked)
        ):
            assert gpipe_total >= base_total  # n >= min(n, p - s)
            expected = (
                plan.stages[s].memory.static_bytes
                + plan.stages[s].memory.buffer_bytes
                + plan.stages[s].memory.saved_per_microbatch * n
            )
            assert gpipe_total == pytest.approx(expected)

    def test_audit_plan_over_schedules_skips_invalid(self, tiny_ctx):
        plan = plan_adapipe(tiny_ctx)
        reports = audit_plan_over_schedules(plan, tiny_ctx.cluster)
        assert set(reports) == {
            "1f1b",
            "2bp",
            "overlap",
            "gpipe",
            "chimera",
            "chimerad",
        }
        assert all(r.conservative for r in reports.values())
        # n=4 splits for ChimeraD here; a 6-micro-batch workload would not.


def _regression_context(memory_limit_bytes):
    """n=2 < p=4 — the regime the hardwired ``p - s`` got wrong."""
    spec = tiny_gpt(num_layers=16, hidden_size=32, vocab_size=40)
    train = TrainingConfig(
        sequence_length=64,
        global_batch_size=2,
        micro_batch_size=1,
        sequence_parallel=False,
        flash_attention=False,
    )
    return PlannerContext(
        cluster_a(1),
        spec,
        train,
        ParallelConfig(1, 4, 1),
        memory_limit_bytes=memory_limit_bytes,
    )


_REGRESSION_CAP = 1280 * 1024


def _legacy_in_flight(self, stage):
    """The pre-fix hardwired rule: ``p - s``, schedule-blind."""
    return self.parallel.pipeline_parallel - stage


class TestScheduleAwareRegression:
    """The acceptance-criteria regression pair, one tuned configuration."""

    def test_legacy_accounting_admits_plan_gpipe_ooms(self, monkeypatch):
        with monkeypatch.context() as patched:
            patched.setattr(MemoryModel, "in_flight", _legacy_in_flight)
            ctx = _regression_context(_REGRESSION_CAP)
            legacy_plan = plan_adapipe(ctx)
        assert legacy_plan.feasible  # the old model declared it fits
        # ... and its own (baked, 1F1B-priced) totals stay under the cap:
        assert all(b <= _REGRESSION_CAP for b in legacy_plan.peak_memory_bytes())

        # The simulator's memory tracker OOMs it under GPipe:
        cluster = cluster_a(1)
        evaluation = evaluate_plan(
            legacy_plan, cluster, "gpipe", enforce_memory=False
        )
        sim_peaks = evaluation.simulation.device_peak_bytes
        assert any(peak > _REGRESSION_CAP for peak in sim_peaks)

        # The schedule-aware pricing now catches it without simulating:
        gpipe_priced = legacy_plan.peak_memory_bytes("gpipe")
        assert any(b > _REGRESSION_CAP for b in gpipe_priced)
        # ... and the audit confirms the model stays conservative, i.e. the
        # re-priced totals really cover the simulated peaks.
        schedule = build_schedule_for_plan(legacy_plan, cluster, "gpipe")
        report = audit_schedule_memory(schedule, "gpipe")
        assert report.conservative

    def test_clamp_admits_strictly_faster_plan(self, monkeypatch):
        with monkeypatch.context() as patched:
            patched.setattr(MemoryModel, "in_flight", _legacy_in_flight)
            legacy_plan = plan_adapipe(_regression_context(_REGRESSION_CAP))
        ctx = _regression_context(_REGRESSION_CAP)
        clamped_plan = plan_adapipe(ctx)
        assert legacy_plan.feasible and clamped_plan.feasible
        # min(n, p - s) < p - s frees budget -> more units saved -> less
        # recomputation in the backward pass -> strictly faster.
        assert (
            clamped_plan.modeled_iteration_time
            < legacy_plan.modeled_iteration_time - 1e-12
        )
        assert sum(clamped_plan.saved_unit_counts()) > sum(
            legacy_plan.saved_unit_counts()
        )
        # The extra saving is genuine: the 1F1B simulation does not OOM.
        evaluation = evaluate_plan(clamped_plan, ctx.cluster, "1f1b")
        assert not evaluation.oom
        assert all(
            peak <= _REGRESSION_CAP
            for peak in evaluation.simulation.device_peak_bytes
        )
        assert evaluation.plan.metadata["mem_model_conservative"] is True
