"""Compiled engine vs reference oracle: bit-identical equivalence + cache.

The compiled ready-queue engine must reproduce the reference polling
engine's floats exactly — not approximately — on every schedule kind the
generators emit (see the longest-path argument in simulator.py's module
docstring). These tests drive both engines over randomized costs with
nonzero hop times and compare with ``==``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    schedule_digest,
    simulate,
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


def _assert_identical(reference, compiled):
    """Exact equality — the engines must agree bit-for-bit, not approx."""
    assert compiled.iteration_time == reference.iteration_time
    assert compiled.start_times == reference.start_times
    assert compiled.end_times == reference.end_times
    assert compiled.device_busy_time == reference.device_busy_time
    assert compiled.device_peak_bytes == reference.device_peak_bytes
    assert (
        compiled.device_micro_batch_passes
        == reference.device_micro_batch_passes
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
        schedule = _builders(rng, p, n)[kind]
        reference = simulate(schedule, engine="reference", cache=False)
        compiled = simulate(schedule, engine="compiled", cache=False)
        _assert_identical(reference, compiled)

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
        for engine in ("compiled", "reference"):
            result = simulate(schedule, engine=engine, cache=False)
            assert result.device_peak_bytes == [5.0]

    def test_env_flag_selects_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        costs = [StageCosts(forward=1.0, backward=2.0)]
        _, info = simulate_with_info(
            one_f_one_b_schedule(costs, 2), cache=False
        )
        assert info["engine"] == "reference"

    def test_unknown_engine_rejected(self):
        costs = [StageCosts(forward=1.0, backward=2.0)]
        with pytest.raises(ValueError, match="unknown simulator engine"):
            simulate(one_f_one_b_schedule(costs, 2), engine="magic")


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
        schedule = _fuzz_schedule(kind)
        perturbed = perturb_schedule(schedule, spec)
        reference = simulate(perturbed, engine="reference", cache=False)
        compiled = simulate(perturbed, engine="compiled", cache=False)
        _assert_identical(reference, compiled)
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
        for engine in ("compiled", "reference"):
            with pytest.raises(SimulationError) as excinfo:
                simulate(schedule, engine=engine, cache=False)
            message = str(excinfo.value)
            # Each stuck task is reported with the dependency it waits on.
            assert str(a_key) in message
            assert str(b_key) in message
            assert "waiting on" in message


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

    def test_entries_are_engine_keyed(self):
        cache = SimulationCache()
        schedule = self._schedule()
        simulate(schedule, engine="compiled", cache=cache)
        _, info = simulate_with_info(schedule, engine="reference", cache=cache)
        assert not info["cache_hit"]
        assert len(cache) == 2

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
        for engine in ("compiled", "reference"):
            assert (
                simulate(light, engine=engine, cache=False).iteration_time
                == simulate(heavy, engine=engine, cache=False).iteration_time
            )


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
    """Tri-engine fuzz over drawn heterogeneous fleets: the per-rank
    slowdowns of a ``device_factors`` tuple or a mixed ``device_pool``
    lower through ``cluster_perturbation`` into a perturbed schedule, on
    which compiled and reference must stay bit-identical for every
    schedule kind (the batched engine's row-equality lives in
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
        perturbed = perturb_schedule(_fuzz_schedule(kind), spec)
        reference = simulate(perturbed, engine="reference", cache=False)
        compiled = simulate(perturbed, engine="compiled", cache=False)
        _assert_identical(reference, compiled)

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
        perturbed = perturb_schedule(_fuzz_schedule(kind), spec)
        reference = simulate(perturbed, engine="reference", cache=False)
        compiled = simulate(perturbed, engine="compiled", cache=False)
        _assert_identical(reference, compiled)
