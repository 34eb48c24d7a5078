"""Tests for the schedule generators, including hypothesis invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigError
from repro.pipeline.schedules import (
    chimera_schedule,
    default_recompute_times,
    gpipe_schedule,
    interleaved_1f1b_schedule,
    one_f_one_b_2bp,
    one_f_one_b_overlapped,
    one_f_one_b_schedule,
)
from repro.pipeline.schedules.chimera import _build_tasks
from repro.pipeline.simulator import simulate
from repro.pipeline.tasks import StageCosts, TaskKind


def _costs(p, f=1.0, b=2.0, act=1.0, static=5.0):
    return [
        StageCosts(forward=f, backward=b, activation_bytes=act, static_bytes=static)
        for _ in range(p)
    ]


class TestOneFOneB:
    def test_task_count(self):
        schedule = one_f_one_b_schedule(_costs(3), 5)
        assert len(schedule.all_tasks()) == 2 * 3 * 5

    def test_warmup_depth(self):
        p, n = 4, 8
        schedule = one_f_one_b_schedule(_costs(p), n)
        for stage, tasks in enumerate(schedule.device_tasks):
            warmup = 0
            for task in tasks:
                if task.key.kind != TaskKind.FORWARD:
                    break
                warmup += 1
            assert warmup == min(p - stage - 1, n) + (1 if n > p - stage - 1 else 0)

    def test_alternation_in_steady_phase(self):
        schedule = one_f_one_b_schedule(_costs(2), 6)
        kinds = [t.key.kind for t in schedule.device_tasks[1]]
        # Last stage: strict F B F B ...
        assert kinds == [TaskKind.FORWARD, TaskKind.BACKWARD] * 6

    def test_fewer_micro_batches_than_stages(self):
        schedule = one_f_one_b_schedule(_costs(4), 2)
        simulate(schedule)  # must not deadlock

    @given(
        p=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_deadlocks_and_bounds_memory(self, p, n):
        result = simulate(one_f_one_b_schedule(_costs(p), n))
        for stage, peak in enumerate(result.device_peak_bytes):
            assert peak - 5.0 <= min(p - stage, n) + 1e-9

    @given(
        p=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=10),
        f=st.floats(min_value=0.1, max_value=5.0),
        b=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_lower_bound(self, p, n, f, b):
        """No schedule can beat the per-device work plus the pipeline fill."""
        result = simulate(one_f_one_b_schedule(_costs(p, f, b), n))
        work = n * (f + b)
        fill = (p - 1) * f
        assert result.iteration_time >= max(work, fill) - 1e-9


class TestTwoBP:
    def test_task_count_and_split_durations(self):
        p, n = 3, 5
        schedule = one_f_one_b_2bp(_costs(p), n)
        tasks = schedule.all_tasks()
        assert len(tasks) == 3 * p * n  # F + Bi + Bw per (stage, mb)
        by_kind = {}
        for task in tasks:
            by_kind.setdefault(task.key.kind, []).append(task)
        # The default 0.5 split halves each backward bit-exactly.
        for gi, gw in zip(
            by_kind[TaskKind.BACKWARD_INPUT], by_kind[TaskKind.BACKWARD_WEIGHT]
        ):
            assert gi.duration + gw.duration == 2.0
        assert TaskKind.BACKWARD not in by_kind

    def test_validates_and_simulates(self):
        schedule = one_f_one_b_2bp(_costs(4), 8, hop_time=0.1)
        schedule.validate()
        simulate(schedule, cache=False)

    def test_grad_weights_deferred_to_drain(self):
        # On every device the last n tasks of the layout are the deferred
        # grad-weight drain for stage 0's device... only stage 0 defers
        # all of them; deeper stages defer p - s - 1 fewer. At minimum the
        # final task on every device is a grad-weight.
        schedule = one_f_one_b_2bp(_costs(4), 8)
        for tasks in schedule.device_tasks:
            assert tasks[-1].key.kind == TaskKind.BACKWARD_WEIGHT

    def test_pinned_bubble_reduction_at_equal_peaks(self):
        # The acceptance fixture: p=4, n=8, F=1, B=2, hop=0.1. 2BP must
        # strictly shrink the bubble while holding every device's peak
        # activation memory at 1F1B's min(n, p - s).
        p, n, hop = 4, 8, 0.1
        base = simulate(one_f_one_b_schedule(_costs(p), n, hop_time=hop))
        split = simulate(one_f_one_b_2bp(_costs(p), n, hop_time=hop))
        assert split.iteration_time < base.iteration_time
        assert split.device_peak_bytes == base.device_peak_bytes

    def test_weight_fraction_validated(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="weight_fraction"):
                one_f_one_b_2bp(_costs(2), 2, weight_fraction=bad)

    @given(
        p=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=1, max_value=12),
        frac=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_deadlocks_and_matches_1f1b_memory(self, p, n, frac):
        result = simulate(
            one_f_one_b_2bp(_costs(p), n, weight_fraction=frac), cache=False
        )
        base = simulate(one_f_one_b_schedule(_costs(p), n), cache=False)
        assert result.device_peak_bytes == base.device_peak_bytes

    @given(
        p=st.integers(min_value=2, max_value=6),
        n=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_slower_than_1f1b(self, p, n):
        # Deferring grad-weights can only relax the grad-input chain's
        # critical path; with equal per-device work the makespan can't rise.
        base = simulate(one_f_one_b_schedule(_costs(p), n), cache=False)
        split = simulate(one_f_one_b_2bp(_costs(p), n), cache=False)
        assert split.iteration_time <= base.iteration_time + 1e-9


class TestOverlapped:
    def test_default_recompute_times_clamp(self):
        costs = [
            StageCosts(forward=1.0, backward=5.0),  # 5 - 2 = 3
            StageCosts(forward=2.0, backward=2.0),  # clamps to 0
            StageCosts(forward=0.1, backward=1.0),  # 1 - 0.2 = 0.8
        ]
        assert default_recompute_times(costs) == [3.0, 0.0, 0.8]

    def test_explicit_emits_recompute_tasks(self):
        p, n = 4, 6
        costs = _costs(p, f=1.0, b=3.0)  # default recompute = 1.0 > 0
        schedule = one_f_one_b_overlapped(costs, n)
        kinds = [t.key.kind for t in schedule.all_tasks()]
        assert kinds.count(TaskKind.RECOMPUTE) == p * n
        assert all(t.overlap == 0.0 for t in schedule.all_tasks())
        schedule.validate()

    def test_fused_carries_overlap_instead(self):
        p, n = 4, 6
        costs = _costs(p, f=1.0, b=3.0)
        schedule = one_f_one_b_overlapped(costs, n, fused=True)
        kinds = [t.key.kind for t in schedule.all_tasks()]
        assert TaskKind.RECOMPUTE not in kinds
        backwards = [
            t for t in schedule.all_tasks() if t.key.kind == TaskKind.BACKWARD
        ]
        assert all(t.overlap == 1.0 for t in backwards)

    def test_fused_matches_explicit_makespan(self):
        costs = _costs(4, f=1.0, b=3.0)
        explicit = simulate(
            one_f_one_b_overlapped(costs, 8, hop_time=0.4), cache=False
        )
        fused = simulate(
            one_f_one_b_overlapped(costs, 8, hop_time=0.4, fused=True),
            cache=False,
        )
        assert fused.iteration_time == pytest.approx(
            explicit.iteration_time, rel=1e-12
        )
        assert fused.device_peak_bytes == explicit.device_peak_bytes

    def test_overlap_beats_serialized_recompute(self):
        # With a hop to hide under, starting recomputation before the
        # gradient arrives must strictly beat the serialized 1F1B whose
        # backward duration already includes the recompute time.
        costs = _costs(4, f=1.0, b=3.0)
        serialized = simulate(
            one_f_one_b_schedule(costs, 8, hop_time=0.5), cache=False
        )
        overlapped = simulate(
            one_f_one_b_overlapped(costs, 8, hop_time=0.5), cache=False
        )
        assert overlapped.iteration_time < serialized.iteration_time

    def test_zero_recompute_degenerates_to_1f1b(self):
        costs = _costs(3)
        base = simulate(one_f_one_b_schedule(costs, 5, hop_time=0.2))
        for fused in (False, True):
            schedule = one_f_one_b_overlapped(
                costs, 5, hop_time=0.2, recompute_times=[0.0] * 3, fused=fused
            )
            assert len(schedule.all_tasks()) == 2 * 3 * 5
            result = simulate(schedule, cache=False)
            assert result.iteration_time == base.iteration_time

    def test_recompute_times_validated(self):
        costs = _costs(2)
        with pytest.raises(ValueError, match="one recompute time per stage"):
            one_f_one_b_overlapped(costs, 2, recompute_times=[0.5])
        with pytest.raises(ValueError, match="recompute"):
            one_f_one_b_overlapped(costs, 2, recompute_times=[-0.1, 0.5])
        with pytest.raises(ValueError, match="recompute"):
            one_f_one_b_overlapped(costs, 2, recompute_times=[0.5, 9.0])

    @given(
        p=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=10),
        fused=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_deadlocks_and_matches_1f1b_memory(self, p, n, fused):
        costs = _costs(p, f=1.0, b=3.0)
        result = simulate(
            one_f_one_b_overlapped(costs, n, fused=fused), cache=False
        )
        base = simulate(one_f_one_b_schedule(costs, n), cache=False)
        assert result.device_peak_bytes == base.device_peak_bytes


class TestGPipe:
    def test_all_forwards_precede_backwards(self):
        schedule = gpipe_schedule(_costs(3), 4)
        for tasks in schedule.device_tasks:
            kinds = [t.key.kind for t in tasks]
            first_b = kinds.index(TaskKind.BACKWARD)
            assert all(k == TaskKind.FORWARD for k in kinds[:first_b])
            assert all(k == TaskKind.BACKWARD for k in kinds[first_b:])

    def test_backward_order_reversed(self):
        schedule = gpipe_schedule(_costs(2), 4)
        backwards = [
            t.key.micro_batch
            for t in schedule.device_tasks[0]
            if t.key.kind == TaskKind.BACKWARD
        ]
        assert backwards == [3, 2, 1, 0]

    @given(
        p=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_gpipe_memory_is_n_everywhere(self, p, n):
        result = simulate(gpipe_schedule(_costs(p, static=0.0), n))
        assert result.device_peak_bytes == pytest.approx([float(n)] * p)


class TestInterleaved:
    def test_requires_divisible_micro_batches(self):
        with pytest.raises(ConfigError):
            interleaved_1f1b_schedule(_costs(8), 6, 4)

    def test_requires_divisible_stages(self):
        with pytest.raises(ConfigError):
            interleaved_1f1b_schedule(_costs(7), 8, 4)

    def test_task_count_covers_all_chunks(self):
        schedule = interleaved_1f1b_schedule(_costs(8), 4, 4)
        assert len(schedule.all_tasks()) == 2 * 8 * 4

    def test_device_hosts_its_chunks(self):
        p, v = 4, 2
        schedule = interleaved_1f1b_schedule(_costs(p * v), 4, p)
        for device, tasks in enumerate(schedule.device_tasks):
            stages = {t.key.stage for t in tasks}
            assert stages == {device, device + p}

    def test_statics_summed_per_device(self):
        p, v = 4, 2
        schedule = interleaved_1f1b_schedule(_costs(p * v, static=5.0), 4, p)
        assert schedule.device_static_bytes == [10.0] * p

    @given(
        p=st.integers(min_value=2, max_value=4),
        v=st.integers(min_value=1, max_value=3),
        batches=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_never_deadlocks(self, p, v, batches):
        n = p * batches
        result = simulate(interleaved_1f1b_schedule(_costs(p * v), n, p))
        assert result.iteration_time > 0

    def test_smaller_bubble_fraction_than_1f1b(self):
        """The whole point of interleaving: v chunks shrink the bubble."""
        p, n = 4, 8
        plain = simulate(one_f_one_b_schedule(_costs(p), n))
        split = simulate(
            interleaved_1f1b_schedule(_costs(2 * p, f=0.5, b=1.0), n, p)
        )
        assert split.bubble_ratio < plain.bubble_ratio


class TestChimera:
    def test_requires_even_stages(self):
        with pytest.raises(ConfigError):
            chimera_schedule(_costs(3), 6)

    def test_requires_even_micro_batches(self):
        with pytest.raises(ConfigError):
            chimera_schedule(_costs(4), 5)

    def test_doubled_pipelines_share_devices(self):
        schedule = chimera_schedule(_costs(4), 8)
        for device, tasks in enumerate(schedule.device_tasks):
            pipes = {t.key.pipe for t in tasks}
            assert pipes == {0, 1}
            stages = {(t.key.pipe, t.key.stage) for t in tasks}
            assert (0, device) in stages and (1, 4 - 1 - device) in stages

    def test_static_memory_doubles(self):
        schedule = chimera_schedule(_costs(4, static=5.0), 8)
        assert schedule.device_static_bytes == [10.0] * 4

    def test_task_count(self):
        schedule = chimera_schedule(_costs(4), 8)
        assert len(schedule.all_tasks()) == 2 * 2 * 4 * 4  # 2 pipes x 4 mbs x 4 stages x F/B

    def test_forward_doubling_halves_task_count_and_doubles_weight(self):
        plain = chimera_schedule(_costs(4), 8)
        doubled = chimera_schedule(_costs(4), 8, forward_doubling=True)
        assert len(doubled.all_tasks()) == len(plain.all_tasks()) // 2
        fwd = next(
            t for t in doubled.all_tasks() if t.key.kind == TaskKind.FORWARD
        )
        assert fwd.weight == 2
        assert fwd.activation_bytes == 2.0

    def test_forward_doubling_micro_batch_constraint(self):
        with pytest.raises(ConfigError):
            chimera_schedule(_costs(4), 6, forward_doubling=True)

    @given(
        half_p=st.integers(min_value=1, max_value=6),
        units=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_never_deadlocks(self, half_p, units):
        p = 2 * half_p
        n = p * units
        result = simulate(chimera_schedule(_costs(p), n))
        assert result.iteration_time > 0

    def test_middle_heavy_memory_profile(self):
        """Figure 8's Chimera-Non shape: middle stages store the most."""
        p, n = 8, 16
        result = simulate(chimera_schedule(_costs(p, static=0.0), n))
        peaks = result.device_peak_bytes
        middle = max(peaks[p // 2 - 1], peaks[p // 2])
        assert middle >= peaks[0] and middle >= peaks[-1]

    def test_worse_than_dapple_at_many_micro_batches(self):
        """Section 7.2: bubbles between units make Chimera lose at n >> p."""
        p, n = 4, 32
        dapple = simulate(one_f_one_b_schedule(_costs(p), n))
        chimera = simulate(chimera_schedule(_costs(p), n))
        assert chimera.iteration_time >= dapple.iteration_time * 0.98

    @pytest.mark.parametrize("field", ["forward", "backward"])
    @pytest.mark.parametrize("value", [-5.0, math.nan])
    def test_rejects_negative_or_nan_stage_cost(self, field, value):
        # StageCosts rejects the bad number where it enters, so no schedule
        # builder (Chimera's list scheduler included) ever sees it.
        with pytest.raises(ConfigError, match=f"StageCosts.{field}"):
            StageCosts(**{"forward": 1.0, "backward": 2.0, field: value})

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_rejects_negative_or_nan_hop_time(self, value):
        with pytest.raises(ConfigError, match="hop_time"):
            chimera_schedule(_costs(4), 8, hop_time=value)


def _reference_list_schedule(tasks, p, hop_time):
    """The O(T^2) scan ``_list_schedule`` replaced, kept as its oracle: every
    step ranks every pending task and dispatches the least."""
    end_times = {}
    device_free = [0.0] * p
    in_flight = {}
    window = {stage: min(p - stage, p // 2) for stage in range(p)}
    order = [[] for _ in range(p)]
    pending = dict(tasks)

    while pending:
        best_key = None
        best_rank = ()
        for key, task in pending.items():
            if any(dep not in end_times for dep in task.deps):
                continue
            if key.kind == TaskKind.FORWARD:
                flight_key = (key.pipe, key.stage)
                if in_flight.get(flight_key, 0) >= window[key.stage]:
                    continue
            est = device_free[task.device]
            for dep in task.deps:
                dep_end = end_times[dep]
                if tasks[dep].device != task.device:
                    dep_end += hop_time
                est = max(est, dep_end)
            rank = (est, 0 if key.kind == TaskKind.BACKWARD else 1, key.micro_batch, key.pipe, key.stage)
            if best_key is None or rank < best_rank:
                best_key, best_rank = key, rank
        if best_key is None:
            raise ConfigError("Chimera list scheduling wedged (internal error)")
        task = pending.pop(best_key)
        start = best_rank[0]
        end_times[best_key] = start + task.duration
        device_free[task.device] = start + task.duration
        flight_key = (best_key.pipe, best_key.stage)
        if best_key.kind == TaskKind.FORWARD:
            in_flight[flight_key] = in_flight.get(flight_key, 0) + 1
        else:
            in_flight[flight_key] = in_flight.get(flight_key, 0) - 1
        order[task.device].append(task)
    return order


def _assert_matches_reference(costs, num_micro_batches, hop, forward_doubling):
    weight = 2 if forward_doubling else 1
    tasks = _build_tasks(costs, num_micro_batches // (2 * weight), weight)
    expected = _reference_list_schedule(tasks, len(costs), hop)
    schedule = chimera_schedule(
        costs, num_micro_batches, hop_time=hop, forward_doubling=forward_doubling
    )
    assert schedule.device_tasks == expected


_TIED = st.sampled_from([0.0, 1.0, 2.0])
_UNIFORM = st.floats(min_value=0.0, max_value=3.0)


@st.composite
def _chimera_cases(draw):
    p = 2 * draw(st.integers(min_value=1, max_value=5))
    durations = draw(st.sampled_from([_TIED, _UNIFORM]))
    backwards = st.one_of(durations, st.just(math.inf))
    costs = [
        StageCosts(forward=draw(durations), backward=draw(backwards))
        for _ in range(p)
    ]
    forward_doubling = draw(st.booleans())
    entities_per_pipe = draw(st.integers(min_value=1, max_value=4))
    num_micro_batches = entities_per_pipe * 2 * (2 if forward_doubling else 1)
    hop = draw(st.one_of(st.just(0.0), _TIED, _UNIFORM))
    return costs, num_micro_batches, hop, forward_doubling


class TestChimeraListScheduleOracle:
    """The per-stream scheduler returns the scan's device orders exactly."""

    @given(case=_chimera_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_scan(self, case):
        _assert_matches_reference(*case)

    def test_matches_reference_scan_p8_n64(self):
        costs = [
            StageCosts(forward=1.0 + 0.1 * stage, backward=2.0 + 0.2 * stage)
            for stage in range(8)
        ]
        _assert_matches_reference(costs, 64, 0.05, forward_doubling=False)
