"""Batched vectorized simulation: bit-equivalence, caching, batching.

The batched executor's contract is *exactness*, not approximation: every
row of a batched ensemble must equal a ``simulate_reference`` run of the
equivalent perturbed schedule bit for bit. These tests pin that contract —
including a differential fuzz over drawn PerturbationSpecs and every
schedule kind, against the per-draw oracle
``evaluate_robustness_reference`` — plus the one perturbation transform
against the per-task loop it replaced, the purity of the transforms, the
ensemble-cache digest isolation and the shape-grouped batching of
``evaluate_robustness_many``.
"""

import copy
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.robust import (
    ensemble_digest,
    evaluate_robustness,
    evaluate_robustness_many,
    evaluate_robustness_reference,
    global_ensemble_cache,
)
from repro.pipeline.batched import BatchedSchedule, batched_simulator, shape_digest
from repro.pipeline.compiled import SimulationError
from repro.pipeline.perturb import (
    LinkDegradation,
    PerturbationSpec,
    TransientStall,
    _stall_delays,
    jitter_multiplier,
    lower_spec_components,
    lowered_link_hops,
    perturb_duration,
    perturb_schedule,
)
from repro.pipeline.schedules import (
    SCHEDULE_FAMILIES,
    chimera_schedule,
    gpipe_schedule,
    interleaved_1f1b_schedule,
    one_f_one_b_2bp,
    one_f_one_b_overlapped,
    one_f_one_b_schedule,
)
from repro.pipeline.simulator import (
    SimulationCache,
    global_simulation_cache,
    simulate_reference,
)
from repro.pipeline.tasks import Schedule, StageCosts, Task, TaskKey, TaskKind

_KINDS = (
    "1f1b",
    "gpipe",
    "chimera",
    "chimerad",
    "interleaved",
    "2bp",
    "overlap",
    "overlap-fused",
)
_DEVICES = 4


def test_kinds_cover_every_schedule_family():
    assert {family.name for family in SCHEDULE_FAMILIES} <= set(_KINDS)


def _random_costs(rng, p):
    return [
        StageCosts(
            forward=rng.uniform(0.5, 3.0),
            backward=rng.uniform(0.5, 5.0),
            activation_bytes=rng.choice([0.0, rng.uniform(1.0, 16.0)]),
        )
        for _ in range(p)
    ]


def _builders(rng, p, n):
    hop = rng.uniform(0.01, 0.5)
    schedules = {
        "1f1b": one_f_one_b_schedule(_random_costs(rng, p), n, hop_time=hop),
        "gpipe": gpipe_schedule(_random_costs(rng, p), n, hop_time=hop),
        "chimera": chimera_schedule(_random_costs(rng, p), n, hop_time=hop),
        "chimerad": chimera_schedule(
            _random_costs(rng, p), n, hop_time=hop, forward_doubling=True
        ),
        "interleaved": interleaved_1f1b_schedule(
            _random_costs(rng, 2 * p), n, p, hop_time=hop
        ),
    }
    # New families appended after the dict literal so the earlier kinds'
    # rng streams (and therefore their pinned fuzz schedules) stay
    # unchanged. Recompute times are pinned at a nonzero fraction of each
    # backward so the overlap machinery is always exercised (the default
    # clamp can degenerate to plain 1F1B on random costs).
    schedules["2bp"] = one_f_one_b_2bp(_random_costs(rng, p), n, hop_time=hop)
    overlap_costs = _random_costs(rng, p)
    schedules["overlap"] = one_f_one_b_overlapped(
        overlap_costs,
        n,
        hop_time=hop,
        recompute_times=[0.25 * c.backward for c in overlap_costs],
    )
    fused_costs = _random_costs(rng, p)
    schedules["overlap-fused"] = one_f_one_b_overlapped(
        fused_costs,
        n,
        hop_time=hop,
        recompute_times=[0.25 * c.backward for c in fused_costs],
        fused=True,
    )
    return schedules


_FUZZ_SCHEDULES = {}


def _fuzz_schedule(kind):
    if kind not in _FUZZ_SCHEDULES:
        _FUZZ_SCHEDULES[kind] = _builders(random.Random(0xBA7C), _DEVICES, 8)[kind]
    return _FUZZ_SCHEDULES[kind]


def _finite(low, high):
    return st.floats(
        min_value=low, max_value=high, allow_nan=False, allow_infinity=False
    )


_SPEC_STRATEGY = st.builds(
    PerturbationSpec.build,
    device_factors=st.dictionaries(
        st.integers(0, _DEVICES - 1), _finite(0.25, 4.0), max_size=_DEVICES
    ),
    jitter_sigma=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
    seed=st.integers(0, 2**16),
    stalls=st.lists(
        st.builds(
            TransientStall,
            device=st.integers(0, _DEVICES - 1),
            delay=_finite(0.0, 5.0),
            first_task=st.integers(0, 8),
            length=st.integers(1, 4),
        ),
        max_size=2,
    ),
    links=st.lists(
        st.builds(
            LinkDegradation,
            src=st.integers(0, _DEVICES - 1),
            dst=st.integers(0, _DEVICES - 1),
            factor=_finite(0.0, 8.0),
            added_latency=_finite(0.0, 1.0),
        ),
        max_size=3,
    ),
)


class TestTopologicalOrder:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_order_is_topological_and_memoized(self, kind):
        compiled = _fuzz_schedule(kind).compiled()
        order = compiled.topological_order()
        assert sorted(order) == list(range(compiled.num_tasks))
        position = {task: pos for pos, task in enumerate(order)}
        for j in range(compiled.num_tasks):
            for e in range(compiled.succ_ptr[j], compiled.succ_ptr[j + 1]):
                assert position[j] < position[compiled.succ_idx[e]]
        assert compiled.topological_order() is order

    def test_cycle_raises_simulation_error(self):
        a_key = TaskKey(0, 0, 0, TaskKind.FORWARD)
        b_key = TaskKey(0, 1, 0, TaskKind.FORWARD)
        a = Task(key=a_key, device=0, duration=1.0, deps=(b_key,))
        b = Task(key=b_key, device=1, duration=1.0, deps=(a_key,))
        schedule = Schedule(name="dead", num_devices=2, device_tasks=[[a], [b]])
        with pytest.raises(SimulationError, match="deadlock"):
            schedule.compiled().topological_order()
        with pytest.raises(SimulationError):
            batched_simulator(schedule)


class TestExecutorExactness:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_nominal_row_matches_scalar_engine(self, kind):
        schedule = _fuzz_schedule(kind)
        scalar = simulate_reference(schedule)
        sim = batched_simulator(schedule)
        assert isinstance(sim, BatchedSchedule)
        assert batched_simulator(schedule) is sim  # memoized on the schedule
        times = sim.iteration_times(sim.raw_durations)
        assert times.shape == (1,)
        assert float(times[0]) == scalar.iteration_time
        finish = sim.finish_matrix(sim.raw_durations)[0]
        starts, timeline_finish, iteration = sim.timeline()
        assert timeline_finish.tolist() == finish.tolist()
        assert iteration == scalar.iteration_time
        for i, key in enumerate(schedule.compiled().keys):
            assert finish[i] == scalar.end_times[key]
            assert starts[i] == scalar.start_times[key]

    @pytest.mark.parametrize("kind", _KINDS)
    @given(spec=_SPEC_STRATEGY)
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fuzz_rows_bit_identical_to_scalar_perturbed_runs(self, kind, spec):
        """Differential fuzz: batched row k ==
        simulate_reference(perturb(reseeded(k)))."""
        schedule = _fuzz_schedule(kind)
        compiled = schedule.compiled()
        sim = batched_simulator(schedule)
        draws = 3
        factors, delays = lower_spec_components(compiled, spec)
        jitters = np.stack([
            sim.jitter_vector(spec.seed + k, spec.jitter_sigma)
            for k in range(draws)
        ])
        rows = perturb_duration(sim.raw_durations, factors, jitters, delays)
        hops = lowered_link_hops(spec, schedule)
        batched_times = sim.iteration_times(rows, link_hops=hops)
        for k in range(draws):
            perturbed = perturb_schedule(schedule, spec.reseeded(k))
            scalar = simulate_reference(perturbed)
            assert float(batched_times[k]) == scalar.iteration_time
            # The lowered duration vector is the perturbed schedule's
            # durations, bitwise.
            durations = [task.duration for task in perturbed.all_tasks()]
            assert rows[k].tolist() == durations

    @pytest.mark.parametrize("kind", _KINDS)
    @given(spec=_SPEC_STRATEGY)
    @settings(
        max_examples=10,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fuzz_reports_identical_across_engines(self, kind, spec):
        schedule = _fuzz_schedule(kind)
        batched = evaluate_robustness(schedule, spec, draws=2, cache=False)
        reference = evaluate_robustness_reference(schedule, spec, draws=2)
        assert batched == reference

    def test_duration_matrix_shape_is_validated(self):
        sim = batched_simulator(_fuzz_schedule("1f1b"))
        with pytest.raises(ValueError, match="duration matrix"):
            sim.iteration_times(np.zeros((2, sim.num_tasks + 1)))

    def test_jitter_vector_memoized_and_read_only(self):
        sim = batched_simulator(_fuzz_schedule("1f1b"))
        first = sim.jitter_vector(7, 0.1)
        assert sim.jitter_vector(7, 0.1) is first
        assert not first.flags.writeable
        assert sim.jitter_vector(8, 0.1) is not first
        assert np.all(sim.jitter_vector(7, 0.0) == 1.0)


def reference_perturbed_durations(schedule, spec):
    """The per-task loop ``perturb_duration`` replaced, kept as its oracle.

    Factor, then jitter, then stall delay, written out per task in
    ``all_tasks()`` order — a jitter-free or stall-free task skips that
    step, as ``perturb_schedule`` did.
    """
    stalls = _stall_delays(spec, schedule.num_devices)
    sigma = spec.jitter_sigma
    seed = spec.seed
    durations = []
    for device, tasks in enumerate(schedule.device_tasks):
        factor = spec.factor_for(device)
        device_stalls = stalls.get(device, {})
        for position, task in enumerate(tasks):
            duration = task.duration * factor
            if sigma:
                duration *= jitter_multiplier(seed, task.key, sigma)
            delay = device_stalls.get(position, 0.0)
            if delay:
                duration += delay
            durations.append(duration)
    return durations


def _bits(values):
    return [float(value).hex() for value in values]


class TestOneTransform:
    """``perturb_duration`` is the only copy of the factor -> jitter ->
    delay order: per task (``perturb_schedule``) and per vector (the
    ensemble rows) it matches the per-task loop bit for bit."""

    @pytest.mark.parametrize("kind", _KINDS)
    @given(spec=_SPEC_STRATEGY)
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_transform_matches_per_task_loop(self, kind, spec):
        schedule = _fuzz_schedule(kind)
        expected = _bits(reference_perturbed_durations(schedule, spec))
        perturbed = perturb_schedule(schedule, spec)
        assert _bits(task.duration for task in perturbed.all_tasks()) == expected

        sim = batched_simulator(schedule)
        factors, delays = lower_spec_components(schedule.compiled(), spec)
        row = perturb_duration(
            sim.raw_durations,
            factors,
            sim.jitter_vector(spec.seed, spec.jitter_sigma)
            if spec.jitter_sigma
            else None,
            delays if delays.any() else None,
        )
        assert _bits(row) == expected


_PURITY_SCHEDULES = {}


class TestTransformPurity:
    """The transforms leave their inputs as they found them and answer the
    same twice. Deep copies are compared field by field (``==``), not the
    memoized ``Schedule.digest()``, which an in-place edit would not move."""

    @pytest.mark.parametrize("kind", _KINDS)
    @given(spec=_SPEC_STRATEGY)
    @settings(
        max_examples=10,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_transforms_leave_inputs_unchanged(self, kind, spec):
        if kind not in _PURITY_SCHEDULES:
            _PURITY_SCHEDULES[kind] = _builders(
                random.Random(0xBA7C), _DEVICES, 8
            )[kind]
        schedule = _PURITY_SCHEDULES[kind]
        compiled = schedule.compiled()
        schedule_before = copy.deepcopy(schedule)
        spec_before = copy.deepcopy(spec)

        perturbed = perturb_schedule(schedule, spec)
        factors, delays = lower_spec_components(compiled, spec)
        hops = lowered_link_hops(spec, schedule)
        assert schedule == schedule_before
        assert spec == spec_before

        assert perturb_schedule(schedule, spec) == perturbed
        again_factors, again_delays = lower_spec_components(compiled, spec)
        assert np.array_equal(again_factors, factors)
        assert np.array_equal(again_delays, delays)
        assert lowered_link_hops(spec, schedule) == hops
        assert schedule == schedule_before
        assert spec == spec_before


class TestSharedDeterministicBaseline:
    def test_deterministic_lowering_happens_once_per_report(self, monkeypatch):
        """The p criticality bumps reuse one deterministic lowering.

        The scalar path rebuilt the full baseline spec (and re-perturbed
        the schedule) once per device; the batched path lowers the
        deterministic components exactly once and derives every bump row
        from them — and never materialises a perturbed Schedule at all.
        """
        import repro.core.robust as robust_module

        schedule = _builders(random.Random(5), _DEVICES, 8)["1f1b"]
        spec = PerturbationSpec.build(
            {1: 1.5}, jitter_sigma=0.1, seed=3,
            stalls=(TransientStall(device=0, delay=0.5),),
        )
        lower_calls = []
        real_lower = robust_module.lower_spec_components

        def counting_lower(compiled, lowered_spec):
            lower_calls.append(lowered_spec)
            return real_lower(compiled, lowered_spec)

        def forbidden_perturb(*args, **kwargs):
            raise AssertionError(
                "batched robustness must not materialise perturbed schedules"
            )

        monkeypatch.setattr(
            robust_module, "lower_spec_components", counting_lower
        )
        monkeypatch.setattr(
            robust_module, "perturb_schedule", forbidden_perturb
        )
        report = evaluate_robustness(schedule, spec, draws=4, cache=False)
        assert len(lower_calls) == 1
        assert lower_calls[0].jitter_sigma == 0.0  # the deterministic spec
        assert len(report.device_criticality) == _DEVICES

    def test_bump_rows_match_scalar_criticality(self):
        # The shared-baseline rewrite must not change the numbers: pin
        # criticality equality against the scalar oracle on a spec with
        # every component active.
        schedule = _fuzz_schedule("chimera")
        spec = PerturbationSpec.build(
            {0: 1.2, 3: 2.0}, jitter_sigma=0.05, seed=1,
            stalls=(TransientStall(device=2, delay=1.0, first_task=1, length=2),),
            links=(LinkDegradation(src=1, dst=2, factor=3.0, added_latency=0.1),),
        )
        batched = evaluate_robustness(schedule, spec, draws=0, cache=False)
        scalar = evaluate_robustness_reference(schedule, spec, draws=0)
        assert batched.device_criticality == scalar.device_criticality
        assert batched.deterministic_time == scalar.deterministic_time


class TestEnsembleDigest:
    def _schedule(self, seed=0):
        return _builders(random.Random(seed), _DEVICES, 8)["1f1b"]

    def test_digest_moves_iff_content_moves(self):
        schedule = self._schedule()
        spec = PerturbationSpec.build({1: 1.5}, jitter_sigma=0.1, seed=2)
        base = ensemble_digest(schedule, spec, 8)
        # Same content => same digest (idempotent, identity-independent).
        assert ensemble_digest(schedule, spec, 8) == base
        # Any input's content change moves the digest.
        assert ensemble_digest(self._schedule(seed=1), spec, 8) != base
        assert ensemble_digest(schedule, spec.reseeded(1), 8) != base
        assert ensemble_digest(schedule, spec, 9) != base
        assert ensemble_digest(schedule, spec, 8, criticality_epsilon=0.5) != base
        # Perturbed durations are schedule content.
        perturbed = perturb_schedule(schedule, PerturbationSpec.build({0: 2.0}))
        assert ensemble_digest(perturbed, spec, 8) != base

    def test_digest_isolation_in_cache(self):
        schedule = self._schedule()
        spec = PerturbationSpec.build(jitter_sigma=0.2, seed=0)
        cache = SimulationCache()
        a = evaluate_robustness(schedule, spec, draws=4, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert evaluate_robustness(schedule, spec, draws=4, cache=cache) is a
        assert (cache.hits, cache.misses) == (1, 1)
        # Different draw count misses: same schedule/spec, new ensemble.
        evaluate_robustness(schedule, spec, draws=5, cache=cache)
        assert (cache.hits, cache.misses) == (1, 2)
        assert len(cache) == 2

    def test_fifo_eviction_and_clear(self):
        cache = SimulationCache(max_entries=2)
        schedule = self._schedule()
        for draws in (1, 2, 3):
            evaluate_robustness(
                schedule, PerturbationSpec.build(jitter_sigma=0.1),
                draws=draws, cache=cache,
            )
        assert len(cache) == 2  # draws=1 evicted FIFO
        evaluate_robustness(
            schedule, PerturbationSpec.build(jitter_sigma=0.1),
            draws=1, cache=cache,
        )
        assert cache.misses == 4 and cache.hits == 0
        cache.clear()
        assert len(cache) == 0 and cache.lookups == 0

    def test_one_cache_class_serves_both_global_caches(self):
        ensembles = global_ensemble_cache()
        simulations = global_simulation_cache()
        assert type(ensembles) is type(simulations) is SimulationCache
        assert ensembles is not simulations

    def test_cache_true_uses_global_cache(self):
        schedule = self._schedule()
        spec = PerturbationSpec.build(jitter_sigma=0.3, seed=5)
        cache = global_ensemble_cache()
        cache.clear()
        first = evaluate_robustness(schedule, spec, draws=2, cache=True)
        assert evaluate_robustness(schedule, spec, draws=2, cache=True) is first
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()

    def test_global_cache_honours_disable_env(self, monkeypatch):
        schedule = self._schedule()
        spec = PerturbationSpec.build(jitter_sigma=0.3, seed=9)
        cache = global_ensemble_cache()
        cache.clear()
        evaluate_robustness(schedule, spec, draws=2)
        assert len(cache) == 1
        monkeypatch.setenv("REPRO_SIM_CACHE", "0")
        before = cache.lookups
        evaluate_robustness(schedule, spec, draws=2)
        assert cache.lookups == before  # never consulted
        cache.clear()


class TestShapeDigest:
    def test_duration_changes_preserve_shape(self):
        schedule = _fuzz_schedule("1f1b")
        perturbed = perturb_schedule(schedule, PerturbationSpec.build({0: 3.0}))
        assert shape_digest(perturbed.compiled()) == shape_digest(
            schedule.compiled()
        )
        # ... while the content digest (and hence ensemble digests) move.
        assert perturbed.digest() != schedule.digest()

    def test_structure_changes_move_shape(self):
        rng = random.Random(3)
        base = _builders(rng, _DEVICES, 8)
        digests = {shape_digest(s.compiled()) for s in base.values()}
        assert len(digests) == len(base)  # every kind has its own shape
        hop_changed = _builders(random.Random(3), _DEVICES, 8)["1f1b"]
        hop_changed.hop_time += 1.0
        assert shape_digest(hop_changed.compiled()) not in digests

    def test_link_override_changes_move_shape(self):
        schedule = _fuzz_schedule("gpipe")
        degraded = perturb_schedule(
            schedule,
            PerturbationSpec.build(
                links=(LinkDegradation(src=0, dst=1, factor=2.0),)
            ),
        )
        assert shape_digest(degraded.compiled()) != shape_digest(
            schedule.compiled()
        )


class TestEvaluateRobustnessMany:
    def test_matches_per_schedule_reports_across_mixed_shapes(self):
        spec = PerturbationSpec.build(
            {0: 1.4}, jitter_sigma=0.1, seed=6,
            links=(LinkDegradation(src=0, dst=1, factor=2.0),),
        )
        schedules = []
        for seed in (0, 1, 2):
            schedules.extend(_builders(random.Random(seed), _DEVICES, 8).values())
        many = evaluate_robustness_many(schedules, spec, draws=4, cache=False)
        assert len(many) == len(schedules)
        for schedule, report in zip(schedules, many):
            assert report == evaluate_robustness_reference(schedule, spec, draws=4)

    def test_shape_groups_share_one_lowering(self, monkeypatch):
        import repro.core.robust as robust_module

        spec = PerturbationSpec.build(jitter_sigma=0.2, seed=0)
        # 3 schedules, all the same 1f1b shape (same hop), different
        # stage durations — the robust-sweep candidate pattern.
        schedules = [
            one_f_one_b_schedule(
                _random_costs(random.Random(seed), _DEVICES), 8, hop_time=0.1
            )
            for seed in (10, 11, 12)
        ]
        assert len({shape_digest(s.compiled()) for s in schedules}) == 1
        calls = []
        real_lower = robust_module.lower_spec_components

        def counting_lower(compiled, lowered_spec):
            calls.append(compiled)
            return real_lower(compiled, lowered_spec)

        monkeypatch.setattr(robust_module, "lower_spec_components", counting_lower)
        evaluate_robustness_many(schedules, spec, draws=4, cache=False)
        assert len(calls) == 1  # one lowering for the whole shape group

    def test_cache_short_circuits_members(self):
        spec = PerturbationSpec.build(jitter_sigma=0.15, seed=4)
        schedules = [
            _builders(random.Random(seed), _DEVICES, 8)["gpipe"]
            for seed in (20, 21)
        ]
        cache = SimulationCache()
        first = evaluate_robustness_many(schedules, spec, draws=3, cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        second = evaluate_robustness_many(schedules, spec, draws=3, cache=cache)
        assert second == first
        assert cache.hits == 2
        # The per-draw oracle over the same inputs agrees exactly.
        scalar = [
            evaluate_robustness_reference(schedule, spec, draws=3)
            for schedule in schedules
        ]
        assert scalar == first

    def test_lone_schedule_skips_shape_grouping(self, monkeypatch):
        """One schedule, or one cache miss among hits, is its own group:
        it never pays for a shape digest."""
        import repro.core.robust as robust_module

        def forbidden_digest(compiled):
            raise AssertionError("a lone schedule needs no shape digest")

        monkeypatch.setattr(robust_module, "shape_digest", forbidden_digest)
        spec = PerturbationSpec.build({1: 1.5}, jitter_sigma=0.1, seed=2)
        schedules = [
            _builders(random.Random(seed), _DEVICES, 8)["1f1b"]
            for seed in (30, 31)
        ]
        report = evaluate_robustness(schedules[0], spec, draws=3, cache=False)
        assert report == evaluate_robustness_reference(schedules[0], spec, draws=3)
        cache = SimulationCache()
        assert evaluate_robustness(schedules[0], spec, draws=3, cache=cache) == report
        many = evaluate_robustness_many(schedules, spec, draws=3, cache=cache)
        assert (cache.hits, cache.misses) == (1, 2)
        assert many[1] == evaluate_robustness_reference(schedules[1], spec, draws=3)


# -- Heterogeneous device pools ---------------------------------------------

_POOL_STRATEGY = st.lists(
    st.one_of(
        st.sampled_from([1.0, 1.21875, 1.3, 1.6, 2.0]),
        st.floats(
            min_value=0.5,
            max_value=3.0,
            allow_nan=False,
            allow_infinity=False,
        ),
    ),
    min_size=_DEVICES,
    max_size=_DEVICES,
)


class TestHeterogeneousPoolFuzz:
    """Batched rows under drawn heterogeneous fleets must stay bit-equal
    to the reference engine: per-rank slowdowns lower via
    ``cluster_perturbation`` exactly like hand-built PerturbationSpecs."""

    @pytest.mark.parametrize("kind", _KINDS)
    @given(factors=_POOL_STRATEGY, jitter=st.sampled_from([0.0, 0.05]))
    @settings(
        max_examples=10,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_pool_reports_identical_across_engines(self, kind, factors, jitter):
        from repro.core.robust import cluster_perturbation
        from repro.hardware.cluster import cluster_a

        cluster = cluster_a(1).with_device_factors(factors)
        spec = cluster_perturbation(cluster, _DEVICES, jitter_sigma=jitter)
        schedule = _fuzz_schedule(kind)
        batched = evaluate_robustness(schedule, spec, draws=2, cache=False)
        reference = evaluate_robustness_reference(schedule, spec, draws=2)
        assert batched == reference
