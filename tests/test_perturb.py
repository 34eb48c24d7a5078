"""Tests for repro.pipeline.perturb — the perturbation lowering.

The contract under test: a PerturbationSpec lowers onto a schedule as a
pure duration/hop transform (DAG untouched), identity specs return the
schedule object itself, the jitter draw depends only on (seed, task key),
and every knob that moves a simulated number also moves the schedule
digest (cache soundness).
"""

import pytest

from repro.hardware.device import a100_80gb, derated
from repro.pipeline.perturb import (
    LinkDegradation,
    PerturbationSpec,
    TransientStall,
    jitter_multiplier,
    perturb_schedule,
)
from repro.pipeline.schedules import one_f_one_b_schedule
from repro.pipeline.simulator import schedule_digest, simulate
from repro.pipeline.tasks import StageCosts, TaskKey, TaskKind

NAN, INF = float("nan"), float("inf")


def _schedule(p=3, n=4, hop=0.25):
    costs = [
        StageCosts(forward=1.0, backward=2.0, activation_bytes=1.0)
        for _ in range(p)
    ]
    return one_f_one_b_schedule(costs, n, hop_time=hop)


class TestSpecConstruction:
    def test_build_from_mapping_sorts_pairs(self):
        spec = PerturbationSpec.build({2: 1.5, 0: 2.0})
        assert spec.device_factors == ((0, 2.0), (2, 1.5))

    def test_build_from_sequence_is_dense(self):
        spec = PerturbationSpec.build([1.0, 1.25, 1.5])
        assert spec.device_factors == ((0, 1.0), (1, 1.25), (2, 1.5))

    def test_factor_for_defaults_to_nominal(self):
        spec = PerturbationSpec.build({1: 1.5})
        assert spec.factor_for(1) == 1.5
        assert spec.factor_for(0) == 1.0
        assert spec.factor_for(99) == 1.0

    def test_with_device_factor_replaces(self):
        spec = PerturbationSpec.build({1: 1.5}).with_device_factor(1, 2.0)
        assert spec.factor_for(1) == 2.0
        assert spec.with_device_factor(0, 3.0).factor_for(0) == 3.0

    def test_reseeded_shifts_seed_only(self):
        spec = PerturbationSpec.build({0: 1.5}, jitter_sigma=0.1, seed=7)
        assert spec.reseeded(0) is spec
        shifted = spec.reseeded(3)
        assert shifted.seed == 10
        assert shifted.device_factors == spec.device_factors

    def test_specs_are_hashable(self):
        a = PerturbationSpec.build({0: 1.5}, stalls=[TransientStall(0, 1.0)])
        b = PerturbationSpec.build({0: 1.5}, stalls=[TransientStall(0, 1.0)])
        assert hash(a) == hash(b) and a == b

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: PerturbationSpec.build({0: 0.0}),
            lambda: PerturbationSpec.build({0: -1.0}),
            lambda: PerturbationSpec.build(jitter_sigma=-0.1),
            lambda: TransientStall(0, delay=-1.0),
            lambda: TransientStall(0, delay=1.0, length=0),
            lambda: TransientStall(0, delay=1.0, first_task=-1),
            lambda: LinkDegradation(0, 1, factor=-0.5),
            lambda: LinkDegradation(0, 1, added_latency=-1e-9),
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()

    @pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda v: PerturbationSpec.build({0: v}), "device_factors"),
            (lambda v: PerturbationSpec.build([1.0, v]), "device_factors"),
            (lambda v: PerturbationSpec.build(jitter_sigma=v), "jitter_sigma"),
            (lambda v: TransientStall(0, v), "delay"),
            (lambda v: LinkDegradation(0, 1, v), "factor"),
            (lambda v: LinkDegradation(0, 1, 1.0, v), "added_latency"),
            (lambda v: derated(a100_80gb(), v), "slowdown"),
        ],
        ids=["factor-map", "factor-seq", "sigma", "stall", "link-factor",
             "link-latency", "derated"],
    )
    def test_non_finite_inputs_rejected_naming_the_field(self, make, field, value):
        with pytest.raises(ValueError, match=f"{field}.*must be finite"):
            make(value)

    def test_content_digest_separates_specs(self):
        specs = [
            PerturbationSpec.build(),
            PerturbationSpec.build({0: 1.5}),
            PerturbationSpec.build({0: 1.5}, jitter_sigma=0.1),
            PerturbationSpec.build({0: 1.5}, jitter_sigma=0.1, seed=1),
            PerturbationSpec.build(stalls=[TransientStall(0, 1.0)]),
            PerturbationSpec.build(links=[LinkDegradation(0, 1, 2.0)]),
        ]
        digests = {spec.content_digest() for spec in specs}
        assert len(digests) == len(specs)


class TestIdentity:
    def test_empty_spec_returns_same_object(self):
        schedule = _schedule()
        assert perturb_schedule(schedule, PerturbationSpec()) is schedule

    def test_provably_inert_knobs_are_identity(self):
        spec = PerturbationSpec.build(
            {0: 1.0, 2: 1.0},
            stalls=[TransientStall(1, 0.0, length=3)],
            links=[LinkDegradation(0, 1, factor=1.0, added_latency=0.0)],
        )
        assert spec.is_identity()
        schedule = _schedule()
        assert perturb_schedule(schedule, spec) is schedule

    def test_any_active_knob_is_not_identity(self):
        assert not PerturbationSpec.build({0: 1.01}).is_identity()
        assert not PerturbationSpec.build(jitter_sigma=0.01).is_identity()
        assert not PerturbationSpec.build(
            stalls=[TransientStall(0, 0.5)]
        ).is_identity()
        assert not PerturbationSpec.build(
            links=[LinkDegradation(0, 1, added_latency=0.1)]
        ).is_identity()


class TestDeviceFactors:
    def test_only_targeted_device_scales(self):
        schedule = _schedule()
        perturbed = perturb_schedule(schedule, PerturbationSpec.build({1: 1.5}))
        for device, (old, new) in enumerate(
            zip(schedule.device_tasks, perturbed.device_tasks)
        ):
            scale = 1.5 if device == 1 else 1.0
            for a, b in zip(old, new):
                assert b.duration == a.duration * scale

    def test_untouched_tasks_are_reused(self):
        # The DAG is shared: tasks whose duration is unchanged stay the
        # same objects, so keys/deps/bytes provably cannot drift.
        schedule = _schedule()
        perturbed = perturb_schedule(schedule, PerturbationSpec.build({1: 1.5}))
        assert perturbed.device_tasks[0] == schedule.device_tasks[0]
        assert all(
            b is a
            for a, b in zip(schedule.device_tasks[0], perturbed.device_tasks[0])
        )

    def test_dag_structure_untouched(self):
        schedule = _schedule()
        spec = PerturbationSpec.build(
            {0: 2.0}, jitter_sigma=0.3, seed=9,
            stalls=[TransientStall(1, 0.7, first_task=2, length=2)],
        )
        perturbed = perturb_schedule(schedule, spec)
        for old, new in zip(schedule.device_tasks, perturbed.device_tasks):
            for a, b in zip(old, new):
                assert b.key == a.key
                assert b.device == a.device
                assert b.deps == a.deps
                assert b.activation_bytes == a.activation_bytes


class TestJitter:
    KEY = TaskKey(0, 1, 2, TaskKind.FORWARD)

    def test_zero_sigma_is_exactly_one(self):
        assert jitter_multiplier(0, self.KEY, 0.0) == 1.0

    def test_deterministic_per_key_and_seed(self):
        a = jitter_multiplier(3, self.KEY, 0.2)
        assert jitter_multiplier(3, self.KEY, 0.2) == a
        assert jitter_multiplier(4, self.KEY, 0.2) != a
        other = TaskKey(0, 1, 3, TaskKind.FORWARD)
        assert jitter_multiplier(3, other, 0.2) != a

    def test_multiplier_is_positive(self):
        for seed in range(30):
            assert jitter_multiplier(seed, self.KEY, 0.5) > 0.0

    def test_order_independence(self):
        # A task's jittered duration is unaffected by perturbing others:
        # jitter is keyed off (seed, task key), never iteration state.
        schedule = _schedule()
        alone = perturb_schedule(
            schedule, PerturbationSpec.build(jitter_sigma=0.2, seed=1)
        )
        with_more = perturb_schedule(
            schedule,
            PerturbationSpec.build(
                {2: 1.0},  # extra (inert) entries must not shift draws
                jitter_sigma=0.2,
                seed=1,
                links=[LinkDegradation(0, 1, added_latency=0.1)],
            ),
        )
        for old, new in zip(alone.device_tasks, with_more.device_tasks):
            for a, b in zip(old, new):
                assert b.duration == a.duration


class TestStalls:
    def test_delay_lands_on_the_window(self):
        schedule = _schedule()
        spec = PerturbationSpec.build(
            stalls=[TransientStall(1, 0.5, first_task=1, length=2)]
        )
        perturbed = perturb_schedule(schedule, spec)
        for position, (a, b) in enumerate(
            zip(schedule.device_tasks[1], perturbed.device_tasks[1])
        ):
            extra = 0.5 if position in (1, 2) else 0.0
            assert b.duration == a.duration + extra

    def test_overlapping_stalls_sum(self):
        schedule = _schedule()
        spec = PerturbationSpec.build(
            stalls=[TransientStall(0, 0.5), TransientStall(0, 0.25)]
        )
        perturbed = perturb_schedule(schedule, spec)
        assert perturbed.device_tasks[0][0].duration == (
            schedule.device_tasks[0][0].duration + 0.75
        )

    def test_window_beyond_task_list_is_inert(self):
        schedule = _schedule(p=2, n=2)
        spec = PerturbationSpec.build(
            stalls=[TransientStall(0, 1.0, first_task=100)]
        )
        perturbed = perturb_schedule(schedule, spec)
        assert [t.duration for t in perturbed.device_tasks[0]] == [
            t.duration for t in schedule.device_tasks[0]
        ]

    def test_out_of_range_device_rejected(self):
        schedule = _schedule(p=2)
        spec = PerturbationSpec.build(stalls=[TransientStall(5, 1.0)])
        with pytest.raises(ValueError, match="targets device 5"):
            perturb_schedule(schedule, spec)


class TestLinkDegradation:
    def test_hop_override_applies_to_the_directed_link(self):
        schedule = _schedule(hop=0.2)
        spec = PerturbationSpec.build(
            links=[LinkDegradation(0, 1, factor=3.0, added_latency=0.05)]
        )
        perturbed = perturb_schedule(schedule, spec)
        assert perturbed.hop_for(0, 1) == 0.2 * 3.0 + 0.05
        # The reverse direction and other links stay nominal.
        assert perturbed.hop_for(1, 0) == 0.2
        assert perturbed.hop_for(1, 2) == 0.2

    def test_degradations_compound_on_existing_overrides(self):
        schedule = _schedule(hop=0.2)
        once = perturb_schedule(
            schedule,
            PerturbationSpec.build(links=[LinkDegradation(0, 1, factor=2.0)]),
        )
        twice = perturb_schedule(
            once,
            PerturbationSpec.build(links=[LinkDegradation(0, 1, factor=3.0)]),
        )
        assert twice.hop_for(0, 1) == 0.2 * 2.0 * 3.0

    def test_link_degradation_slows_the_simulation(self):
        schedule = _schedule(hop=0.2)
        spec = PerturbationSpec.build(
            links=[LinkDegradation(0, 1, added_latency=5.0)]
        )
        base = simulate(schedule, cache=False).iteration_time
        degraded = simulate(perturb_schedule(schedule, spec), cache=False)
        assert degraded.iteration_time > base

    def test_link_only_perturbation_moves_digest(self):
        # Regression for the cache-soundness fix: durations were always
        # digest-covered, per-link hop overrides were not — a link-only
        # perturbation used to alias the nominal cache entry.
        schedule = _schedule()
        spec = PerturbationSpec.build(links=[LinkDegradation(0, 1, 2.0)])
        perturbed = perturb_schedule(schedule, spec)
        assert [t.duration for d in perturbed.device_tasks for t in d] == [
            t.duration for d in schedule.device_tasks for t in d
        ]
        assert schedule_digest(perturbed) != schedule_digest(schedule)


class TestDigestCoverage:
    @pytest.mark.parametrize(
        "spec",
        [
            PerturbationSpec.build({0: 1.5}),
            PerturbationSpec.build(jitter_sigma=0.2, seed=11),
            PerturbationSpec.build(stalls=[TransientStall(1, 0.4)]),
            PerturbationSpec.build(links=[LinkDegradation(1, 2, 4.0)]),
        ],
    )
    def test_every_active_knob_moves_the_digest(self, spec):
        schedule = _schedule()
        assert schedule_digest(perturb_schedule(schedule, spec)) != (
            schedule_digest(schedule)
        )

    def test_same_spec_twice_is_digest_identical(self):
        schedule = _schedule()
        spec = PerturbationSpec.build(
            {0: 1.5}, jitter_sigma=0.2, seed=3,
            stalls=[TransientStall(1, 0.4)],
            links=[LinkDegradation(0, 1, 2.0)],
        )
        assert schedule_digest(perturb_schedule(schedule, spec)) == (
            schedule_digest(perturb_schedule(schedule, spec))
        )
