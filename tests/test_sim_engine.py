"""``simulate`` vs the reference oracle: bit-identical equivalence + cache.

``simulate`` (the batched wavefront at R = 1) must reproduce the reference
polling engine's floats exactly — not approximately — on every schedule
kind the generators emit (see the longest-path argument in batched.py's
module docstring). These tests drive both engines over randomized costs
with nonzero hop times, and over zero-duration costs whose equal
timestamps exercise the memory tie-break, and compare with ``==``.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pipeline.batched import batched_simulator
from repro.pipeline.perturb import (
    LinkDegradation,
    PerturbationSpec,
    TransientStall,
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
    SimulationError,
    global_simulation_cache,
    schedule_digest,
    simulate,
    simulate_reference,
    simulate_with_info,
)
from repro.pipeline.tasks import Schedule, StageCosts, Task, TaskKey, TaskKind


def _random_costs(rng, p):
    return [
        StageCosts(
            forward=rng.uniform(0.5, 3.0),
            backward=rng.uniform(0.5, 5.0),
            activation_bytes=rng.choice([0.0, rng.uniform(1.0, 16.0)]),
            static_bytes=rng.uniform(0.0, 64.0),
            buffer_bytes=rng.uniform(0.0, 4.0),
        )
        for _ in range(p)
    ]


#: Durations of the tie grid; zero is drawn half the time.
_TIE_DURATIONS = (0.0, 0.0, 0.5, 1.0)


def _tie_costs(rng, p):
    """Costs on a coarse grid: zero-duration tasks and equal timestamps,
    so frees and allocations tie and the memory pass's order decides."""
    return [
        StageCosts(
            forward=rng.choice(_TIE_DURATIONS),
            backward=rng.choice(_TIE_DURATIONS),
            activation_bytes=rng.choice([0.0, 2.0, 5.0]),
            static_bytes=rng.choice([0.0, 8.0]),
            buffer_bytes=rng.choice([0.0, 1.0]),
        )
        for _ in range(p)
    ]


def _tie_hop(rng):
    return rng.choice([0.0, 0.5])


def _builders(rng, p, n, costs=_random_costs, draw_hop=None):
    """One schedule per family. The defaults draw the pinned randomized
    streams; ``costs=_tie_costs, draw_hop=_tie_hop`` draws the tie grid."""
    hop = rng.uniform(0.01, 0.5) if draw_hop is None else draw_hop(rng)
    schedules = {
        "1f1b": one_f_one_b_schedule(costs(rng, p), n, hop_time=hop),
        "gpipe": gpipe_schedule(costs(rng, p), n, hop_time=hop),
        "chimera": chimera_schedule(costs(rng, p), n, hop_time=hop),
        "chimerad": chimera_schedule(
            costs(rng, p), n, hop_time=hop, forward_doubling=True
        ),
        "interleaved": interleaved_1f1b_schedule(
            costs(rng, 2 * p), n, p, hop_time=hop
        ),
    }
    # New families appended after the dict literal so the earlier kinds'
    # rng streams (and therefore their pinned fuzz schedules) stay
    # unchanged. Recompute times are pinned at a nonzero fraction of each
    # backward so the overlap machinery is always exercised (the default
    # clamp can degenerate to plain 1F1B on random costs).
    schedules["2bp"] = one_f_one_b_2bp(costs(rng, p), n, hop_time=hop)
    overlap_costs = costs(rng, p)
    schedules["overlap"] = one_f_one_b_overlapped(
        overlap_costs,
        n,
        hop_time=hop,
        recompute_times=[0.25 * c.backward for c in overlap_costs],
    )
    fused_costs = costs(rng, p)
    schedules["overlap-fused"] = one_f_one_b_overlapped(
        fused_costs,
        n,
        hop_time=hop,
        recompute_times=[0.25 * c.backward for c in fused_costs],
        fused=True,
    )
    return schedules


def _simulate_uncached(schedule):
    return simulate(schedule, cache=False)


#: The oracle and the fast path, for tests that check both.
_ENGINES = (simulate_reference, _simulate_uncached)


def _assert_identical(schedule):
    """Exact equality of ``simulate`` and the reference oracle on all six
    result fields — bit-for-bit, not approx."""
    reference = simulate_reference(schedule)
    fast = _simulate_uncached(schedule)
    assert fast.iteration_time == reference.iteration_time
    assert fast.start_times == reference.start_times
    assert fast.end_times == reference.end_times
    assert fast.device_busy_time == reference.device_busy_time
    assert fast.device_peak_bytes == reference.device_peak_bytes
    assert (
        fast.device_micro_batch_passes
        == reference.device_micro_batch_passes
    )


def _cross_device_release_schedule():
    """Hand-built: each backward runs on the *other* device from its
    forward, so its release frees the forward's device's memory while
    running elsewhere. ``Schedule.validate`` rejects this; the engines
    must still agree on it."""
    tasks = [[], []]
    for m in range(2):
        fwd = TaskKey(0, 0, m, TaskKind.FORWARD)
        bwd = TaskKey(0, 0, m, TaskKind.BACKWARD)
        tasks[m].append(
            Task(key=fwd, device=m, duration=1.0, activation_bytes=3.0 + m)
        )
        tasks[1 - m].append(
            Task(key=bwd, device=1 - m, duration=0.5 * m, deps=(fwd,))
        )
    return Schedule(
        name="cross", num_devices=2, device_tasks=tasks, hop_time=0.25,
        device_static_bytes=[1.0, 2.0],
    )


def _release_before_forward_schedule():
    """Hand-built: micro-batch 1's backward runs on device 0 with no
    dependencies, so it finishes before its forward runs on device 1. Its
    release still frees device 1's memory (the activations live where the
    forward ran), which keeps micro-batch 2's pin from stacking on top."""
    f1, f2 = (TaskKey(0, 0, m, TaskKind.FORWARD) for m in (1, 2))
    b1, b2 = (TaskKey(0, 0, m, TaskKind.BACKWARD) for m in (1, 2))
    tasks = [
        [Task(key=b1, device=0, duration=0.5)],
        [
            Task(key=f1, device=1, duration=1.0, activation_bytes=4.0),
            Task(key=f2, device=1, duration=1.0, activation_bytes=4.0),
            Task(key=b2, device=1, duration=1.0, deps=(f2,)),
        ],
    ]
    return Schedule(
        name="release-first", num_devices=2, device_tasks=tasks, hop_time=0.25
    )


_ENGINE_KINDS = [
    "1f1b",
    "gpipe",
    "chimera",
    "chimerad",
    "interleaved",
    "2bp",
    "overlap",
    "overlap-fused",
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("kind", _ENGINE_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_on_randomized_costs(self, kind, seed):
        rng = random.Random(1000 * seed + 7)
        p, n = rng.choice([(2, 4), (4, 8), (4, 16)])
        _assert_identical(_builders(rng, p, n)[kind])
        # The same family on the tie grid: zero durations and hops make
        # frees and allocations share timestamps.
        ties = _builders(
            random.Random(seed), p, n, costs=_tie_costs, draw_hop=_tie_hop
        )
        _assert_identical(ties[kind])

    @pytest.mark.parametrize(
        "build, peaks",
        [
            (_cross_device_release_schedule, [4.0, 6.0]),
            (_release_before_forward_schedule, [0.0, 4.0]),
        ],
        ids=["forward-first", "release-first"],
    )
    def test_bit_identical_on_cross_device_release(self, build, peaks):
        schedule = build()
        with pytest.raises(ValueError, match="different devices"):
            schedule.validate()
        _assert_identical(schedule)
        # Each release frees its forward's device, wherever it runs.
        assert simulate_reference(schedule).device_peak_bytes == peaks

    def test_bit_identical_when_overlap_exceeds_hop(self):
        # A device's first task whose only input lands before t = 0 (an
        # overlap window wider than the hop plus the producer's finish)
        # still starts at 0.0: the reference seeds every ready time with
        # the device's free time, which ``simulate`` keeps as the device
        # start.
        a = TaskKey(0, 0, 0, TaskKind.FORWARD)
        b = TaskKey(0, 1, 0, TaskKind.FORWARD)
        schedule = Schedule(
            name="wide-overlap", num_devices=2, hop_time=0.5,
            device_tasks=[
                [Task(key=a, device=0, duration=0.0)],
                [Task(key=b, device=1, duration=2.0, deps=(a,), overlap=1.0)],
            ],
        )
        _assert_identical(schedule)
        assert simulate(schedule, cache=False).start_times[b] == 0.0

    def test_nan_duration_propagates_to_iteration_time(self):
        # A NaN stage cost must never read as a fast plan (planners keep
        # the minimum time). ``simulate`` says NaN, as the ensemble rows
        # do; the oracle's Python ``max`` drops a NaN or keeps it
        # depending on operand order, so it is no reference here.
        # StageCosts rejects NaN, so the NaN enters through a Task.
        nan = float("nan")
        costs = [StageCosts(forward=1.0, backward=2.0) for _ in range(2)]
        base = one_f_one_b_schedule(costs, 4, hop_time=0.5)
        schedule = dataclasses.replace(base, device_tasks=[
            [
                dataclasses.replace(task, duration=nan)
                if task.device == 1 and task.key.kind is TaskKind.FORWARD
                else task
                for task in tasks
            ]
            for tasks in base.device_tasks
        ])
        assert math.isnan(simulate(schedule, cache=False).iteration_time)
        sim = batched_simulator(schedule)
        assert math.isnan(sim.iteration_times(sim.raw_durations)[0])

    def test_chimerad_weighted_passes_match_chimera(self):
        # ChimeraD halves the forward count but doubles each one's weight,
        # so the weighted useful work equals plain Chimera's.
        costs = [StageCosts(forward=1.0, backward=2.0) for _ in range(4)]
        plain = simulate(chimera_schedule(costs, 8), cache=False)
        doubled = simulate(
            chimera_schedule(costs, 8, forward_doubling=True), cache=False
        )
        assert doubled.device_micro_batch_passes == plain.device_micro_batch_passes
        assert doubled.micro_batch_passes == plain.micro_batch_passes

    def test_free_before_alloc_tie_break(self):
        # One stage, two micro-batches, F=1 B=2: mb1's forward starts at
        # t=3.0, the instant mb0's backward frees its activation. The free
        # must apply first, keeping the peak at exactly one activation.
        costs = [StageCosts(forward=1.0, backward=2.0, activation_bytes=5.0)]
        schedule = one_f_one_b_schedule(costs, 2)
        for run in _ENGINES:
            assert run(schedule).device_peak_bytes == [5.0]

    def test_zero_duration_peaks_depend_on_durations(self):
        # The oracle's peaks are not a function of task order alone. With
        # F = B = 0 every event lands at t = 0, frees sort first, and the
        # peak is 0.0. A 1.0 s stall on the first forward moves everything
        # after it to t = 1, leaving that forward's pin alone at t = 0.
        costs = [StageCosts(forward=0.0, backward=0.0, activation_bytes=5.0)]
        schedule = one_f_one_b_schedule(costs, 2)
        stalled = perturb_schedule(
            schedule,
            PerturbationSpec.build(
                stalls=[TransientStall(device=0, delay=1.0, first_task=0)]
            ),
        )
        for run in _ENGINES:
            assert run(schedule).device_peak_bytes == [0.0]
            assert run(stalled).device_peak_bytes == [5.0]


_FUZZ_KINDS = (
    "1f1b",
    "gpipe",
    "chimera",
    "chimerad",
    "interleaved",
    "2bp",
    "overlap",
    "overlap-fused",
)
_FUZZ_DEVICES = 4
_FUZZ_SCHEDULES = {}


def test_kind_lists_cover_every_schedule_family():
    families = {family.name for family in SCHEDULE_FAMILIES}
    assert families <= set(_ENGINE_KINDS)
    assert families <= set(_FUZZ_KINDS)


def _fuzz_schedule(kind):
    if kind not in _FUZZ_SCHEDULES:
        # One fixed base schedule per kind; the fuzzing happens in the
        # drawn PerturbationSpec, not in the schedule itself.
        _FUZZ_SCHEDULES[kind] = _builders(
            random.Random(0xADA), _FUZZ_DEVICES, 8
        )[kind]
    return _FUZZ_SCHEDULES[kind]


_FUZZ_TIE_SCHEDULES = {}


def _fuzz_tie_schedule(kind):
    if kind not in _FUZZ_TIE_SCHEDULES:
        _FUZZ_TIE_SCHEDULES[kind] = _builders(
            random.Random(0xADA), _FUZZ_DEVICES, 8,
            costs=_tie_costs, draw_hop=_tie_hop,
        )[kind]
    return _FUZZ_TIE_SCHEDULES[kind]


def _finite(low, high):
    return st.floats(
        min_value=low, max_value=high, allow_nan=False, allow_infinity=False
    )


_SPEC_STRATEGY = st.builds(
    PerturbationSpec.build,
    device_factors=st.dictionaries(
        st.integers(0, _FUZZ_DEVICES - 1), _finite(0.25, 4.0),
        max_size=_FUZZ_DEVICES,
    ),
    jitter_sigma=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
    seed=st.integers(0, 2**16),
    stalls=st.lists(
        st.builds(
            TransientStall,
            device=st.integers(0, _FUZZ_DEVICES - 1),
            delay=_finite(0.0, 5.0),
            first_task=st.integers(0, 8),
            length=st.integers(1, 4),
        ),
        max_size=2,
    ),
    links=st.lists(
        st.builds(
            LinkDegradation,
            src=st.integers(0, _FUZZ_DEVICES - 1),
            dst=st.integers(0, _FUZZ_DEVICES - 1),
            factor=_finite(0.0, 8.0),
            added_latency=_finite(0.0, 1.0),
        ),
        max_size=3,
    ),
)


def _content_changed(schedule, perturbed):
    if perturbed is schedule:
        return False
    for old, new in zip(schedule.device_tasks, perturbed.device_tasks):
        if any(a.duration != b.duration for a, b in zip(old, new)):
            return True
    return (perturbed.link_hops or {}) != (schedule.link_hops or {})


class TestPerturbationFuzz:
    """Differential fuzz: 40 drawn PerturbationSpecs per schedule kind
    (200 total) must keep the engines bit-identical on the perturbed
    schedule and keep the digest cache sound (any content change moves
    the digest; identity specs return the schedule object itself)."""

    @pytest.mark.parametrize("kind", _FUZZ_KINDS)
    @given(spec=_SPEC_STRATEGY)
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_bit_identical_under_drawn_perturbations(self, kind, spec):
        _assert_identical(perturb_schedule(_fuzz_tie_schedule(kind), spec))
        schedule = _fuzz_schedule(kind)
        perturbed = perturb_schedule(schedule, spec)
        _assert_identical(perturbed)
        if spec.is_identity():
            assert perturbed is schedule
        if _content_changed(schedule, perturbed):
            assert schedule_digest(perturbed) != schedule_digest(schedule)
        else:
            assert schedule_digest(perturbed) == schedule_digest(schedule)

    @given(spec=_SPEC_STRATEGY)
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_lowering_is_deterministic(self, spec):
        schedule = _fuzz_schedule("1f1b")
        once = perturb_schedule(schedule, spec)
        twice = perturb_schedule(schedule, spec)
        assert schedule_digest(once) == schedule_digest(twice)
        assert simulate(once, cache=False).iteration_time == (
            simulate(twice, cache=False).iteration_time
        )


class TestDeadlockDiagnostics:
    def test_message_names_unmet_dependencies(self):
        a_key = TaskKey(0, 0, 0, TaskKind.FORWARD)
        b_key = TaskKey(0, 1, 0, TaskKind.FORWARD)
        a = Task(key=a_key, device=0, duration=1.0, deps=(b_key,))
        b = Task(key=b_key, device=1, duration=1.0, deps=(a_key,))
        schedule = Schedule(name="dead", num_devices=2, device_tasks=[[a], [b]])
        messages = []
        for run in _ENGINES:
            with pytest.raises(SimulationError) as excinfo:
                run(schedule)
            message = str(excinfo.value)
            # Each stuck task is reported with the dependency it waits on.
            assert str(a_key) in message
            assert str(b_key) in message
            assert "waiting on" in message
            messages.append(message)
        assert messages[0] == messages[1]


class TestSimulationCache:
    def _schedule(self, f=1.0, name="1F1B"):
        costs = [StageCosts(forward=f, backward=2.0, activation_bytes=1.0)]
        return one_f_one_b_schedule(costs, 2, name=name)

    def test_hit_on_same_schedule_object(self):
        cache = SimulationCache()
        schedule = self._schedule()
        first, info1 = simulate_with_info(schedule, cache=cache)
        second, info2 = simulate_with_info(schedule, cache=cache)
        assert not info1["cache_hit"] and info2["cache_hit"]
        assert cache.hits == 1 and cache.misses == 1
        assert second.iteration_time == first.iteration_time
        assert second.schedule is schedule

    def test_hit_on_rebuilt_schedule(self):
        # Content-keyed: a structurally identical schedule built from
        # scratch replays the memoized result.
        cache = SimulationCache()
        simulate(self._schedule(), cache=cache)
        result, info = simulate_with_info(self._schedule(), cache=cache)
        assert info["cache_hit"]
        assert result.iteration_time == simulate(self._schedule(), cache=False).iteration_time

    def test_name_excluded_from_digest(self):
        a = self._schedule(name="A")
        b = self._schedule(name="B")
        assert schedule_digest(a) == schedule_digest(b)

    def test_costs_move_digest(self):
        assert schedule_digest(self._schedule(f=1.0)) != schedule_digest(
            self._schedule(f=2.0)
        )

    def test_cache_true_uses_global_cache(self):
        # Regression: ``cache=True`` used to reach ``True.get``.
        cache = global_simulation_cache()
        cache.clear()
        schedule = self._schedule()
        simulate(schedule, cache=True)
        _, info = simulate_with_info(schedule, cache=True)
        assert info["cache_hit"]
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()

    def test_cache_false_bypasses(self):
        schedule = self._schedule()
        _, info = simulate_with_info(schedule, cache=False)
        assert not info["cache_hit"]
        assert info["cache_hits"] == 0 and info["cache_misses"] == 0

    def test_env_flag_disables_global_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", "0")
        _, info = simulate_with_info(self._schedule())
        assert not info["cache_hit"] and info["cache_misses"] == 0

    def test_fifo_eviction(self):
        cache = SimulationCache(max_entries=1)
        simulate(self._schedule(f=1.0), cache=cache)
        simulate(self._schedule(f=2.0), cache=cache)  # evicts f=1.0
        assert len(cache) == 1
        _, info = simulate_with_info(self._schedule(f=1.0), cache=cache)
        assert not info["cache_hit"]

    def test_hit_rate(self):
        cache = SimulationCache()
        schedule = self._schedule()
        simulate(schedule, cache=cache)
        simulate(schedule, cache=cache)
        simulate(schedule, cache=cache)
        assert cache.lookups == 3
        assert cache.hit_rate == pytest.approx(2 / 3)


class TestPerturbedCacheIsolation:
    """Regression: the digest must cover perturbation content, so a
    perturbed run can never replay a nominal cached result and a nominal
    run can never replay a perturbed one."""

    def _schedule(self):
        costs = [
            StageCosts(forward=1.0, backward=2.0, activation_bytes=1.0)
            for _ in range(2)
        ]
        return one_f_one_b_schedule(costs, 4, hop_time=0.1)

    def _spec(self):
        return PerturbationSpec.build(
            {0: 1.5},
            jitter_sigma=0.1,
            seed=3,
            links=[LinkDegradation(0, 1, factor=2.0)],
        )

    def test_perturbed_run_misses_nominal_entry(self):
        cache = SimulationCache()
        schedule = self._schedule()
        nominal = simulate(schedule, cache=cache)
        perturbed, info = simulate_with_info(
            perturb_schedule(schedule, self._spec()), cache=cache
        )
        assert not info["cache_hit"]
        assert perturbed.iteration_time != nominal.iteration_time

    def test_nominal_run_misses_perturbed_entry(self):
        cache = SimulationCache()
        schedule = self._schedule()
        simulate(perturb_schedule(schedule, self._spec()), cache=cache)
        _, info = simulate_with_info(schedule, cache=cache)
        assert not info["cache_hit"]

    def test_distinct_seeds_get_distinct_entries(self):
        cache = SimulationCache()
        schedule = self._schedule()
        spec = PerturbationSpec.build(jitter_sigma=0.2, seed=0)
        simulate(perturb_schedule(schedule, spec), cache=cache)
        _, info = simulate_with_info(
            perturb_schedule(schedule, spec.reseeded(1)), cache=cache
        )
        assert not info["cache_hit"]
        assert len(cache) == 2

    def test_identical_perturbations_share_an_entry(self):
        cache = SimulationCache()
        schedule = self._schedule()
        spec = self._spec()
        simulate(perturb_schedule(schedule, spec), cache=cache)
        _, info = simulate_with_info(
            perturb_schedule(schedule, spec), cache=cache
        )
        assert info["cache_hit"]


class TestLoweringMemoization:
    def test_compiled_is_memoized(self):
        schedule = self._make()
        assert schedule.compiled() is schedule.compiled()

    def test_generators_prewarm_lowering(self):
        # build_schedule -> validate() compiles the lowering, so schedules
        # reach simulate() warm.
        schedule = self._make()
        assert getattr(schedule, "_compiled", None) is not None

    def test_digest_is_memoized(self):
        schedule = self._make()
        assert schedule.digest() is schedule.digest()

    @staticmethod
    def _make():
        costs = [StageCosts(forward=1.0, backward=2.0) for _ in range(2)]
        return one_f_one_b_schedule(costs, 4)


class TestDuplicateDependencies:
    """compile_schedule's duplicate-dep filter: set-backed, order-stable.

    The filter used to test membership against a list — O(deps^2) per
    task. The set-backed replacement must keep the exact same semantics:
    duplicates are dropped, first-seen order is preserved (it fixes the
    CSR edge layout), and indegrees count unique dependencies once.
    """

    def _many_duplicates_schedule(self, copies=200):
        # One backward depending on the same three forwards `copies`
        # times each, interleaved so first-seen order (f0, f1, f2) is
        # established by the leading occurrences.
        fwd_keys = [TaskKey(0, 0, m, TaskKind.FORWARD) for m in range(3)]
        deps = tuple(fwd_keys) + tuple(
            fwd_keys[m % 3] for m in range(3 * copies)
        )
        tasks = [
            Task(key=key, device=0, duration=1.0) for key in fwd_keys
        ]
        bwd_keys = [TaskKey(0, 0, m, TaskKind.BACKWARD) for m in range(3)]
        tasks.append(Task(key=bwd_keys[0], device=0, duration=2.0, deps=deps))
        tasks.extend(
            Task(key=key, device=0, duration=2.0) for key in bwd_keys[1:]
        )
        return Schedule(name="dupes", num_devices=1, device_tasks=[tasks])

    def test_duplicates_counted_once_in_first_seen_order(self):
        schedule = self._many_duplicates_schedule()
        compiled = schedule.compiled()
        backward = compiled.index[TaskKey(0, 0, 0, TaskKind.BACKWARD)]
        # 3 unique deps (+1 device-order edge), in first-seen order.
        assert compiled.dep_indices[backward] == (0, 1, 2)
        assert compiled.indegree[backward] == 4
        # Each forward carries exactly one dependency edge to the backward
        # (the immediately preceding forward also carries the implicit
        # device-order edge).
        for forward in range(3):
            edges_to_backward = [
                compiled.succ_idx[e]
                for e in range(
                    compiled.succ_ptr[forward], compiled.succ_ptr[forward + 1]
                )
            ].count(backward)
            expected = 2 if forward == backward - 1 else 1
            assert edges_to_backward == expected

    def test_simulation_unaffected_by_duplicate_count(self):
        light = self._many_duplicates_schedule(copies=1)
        heavy = self._many_duplicates_schedule(copies=500)
        for run in _ENGINES:
            assert run(light).iteration_time == run(heavy).iteration_time


# -- Heterogeneous device pools ---------------------------------------------

_POOL_FACTOR = st.one_of(
    st.sampled_from([1.0, 1.21875, 1.3, 1.6, 2.0]),  # real part ratios
    st.floats(
        min_value=0.5, max_value=3.0, allow_nan=False, allow_infinity=False
    ),
)

_POOL_STRATEGY = st.lists(
    _POOL_FACTOR, min_size=_FUZZ_DEVICES, max_size=_FUZZ_DEVICES
)

_DEVICE_POOL_STRATEGY = st.lists(
    st.tuples(st.sampled_from(["a100", "ascend"]), _POOL_FACTOR),
    min_size=_FUZZ_DEVICES,
    max_size=_FUZZ_DEVICES,
)


class TestHeterogeneousPoolFuzz:
    """Fuzz over drawn heterogeneous fleets: the per-rank slowdowns of a
    ``device_factors`` tuple or a mixed ``device_pool`` lower through
    ``cluster_perturbation`` into a perturbed schedule, on which
    ``simulate`` and the reference must stay bit-identical for every
    schedule kind (ensemble-row equality lives in
    ``tests/test_batched.py``)."""

    @pytest.mark.parametrize("kind", _FUZZ_KINDS)
    @given(factors=_POOL_STRATEGY)
    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_bit_identical_under_drawn_factor_pools(self, kind, factors):
        from repro.core.robust import cluster_perturbation
        from repro.hardware.cluster import cluster_a

        cluster = cluster_a(1).with_device_factors(factors)
        spec = cluster_perturbation(cluster, _FUZZ_DEVICES)
        _assert_identical(perturb_schedule(_fuzz_schedule(kind), spec))
        _assert_identical(perturb_schedule(_fuzz_tie_schedule(kind), spec))

    @pytest.mark.parametrize("kind", _FUZZ_KINDS)
    @given(parts=_DEVICE_POOL_STRATEGY)
    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_bit_identical_under_drawn_device_pools(self, kind, parts):
        from repro.core.robust import cluster_perturbation
        from repro.hardware.cluster import cluster_a
        from repro.hardware.device import derated, device_preset

        pool = tuple(
            derated(device_preset(name), slowdown) for name, slowdown in parts
        )
        cluster = cluster_a(1).with_device_pool(pool)
        spec = cluster_perturbation(cluster, _FUZZ_DEVICES)
        _assert_identical(perturb_schedule(_fuzz_schedule(kind), spec))
        _assert_identical(perturb_schedule(_fuzz_tie_schedule(kind), spec))
