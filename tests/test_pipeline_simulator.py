"""Tests for repro.pipeline.simulator — timing and memory correctness.

Every test runs against both engines (``simulate``, the fast path, and the
reference polling oracle) with caching disabled, so the semantic
assertions pin both implementations independently. ``_simulate``
additionally cross-checks the two engines bit-for-bit on every schedule a
test touches, so each closed-form expectation below is simultaneously a
cross-engine comparison — a float can't drift in one engine without the
other vouching for it.
"""

import pytest

from repro.pipeline.schedules import gpipe_schedule, one_f_one_b_schedule
from repro.pipeline.simulator import SimulationError, simulate, simulate_reference
from repro.pipeline.tasks import Schedule, StageCosts, Task, TaskKey, TaskKind

#: The engines under test, by their parametrized ids: ``compiled`` is
#: ``simulate`` (the batched wavefront over the compiled lowering) and
#: ``reference`` is the polling oracle.
_ENGINES = {
    "compiled": lambda schedule: simulate(schedule, cache=False),
    "reference": simulate_reference,
}


@pytest.fixture(params=list(_ENGINES))
def engine(request):
    return request.param


def _costs(p, f=1.0, b=2.0, act=1.0, static=0.0, buffer=0.0):
    return [
        StageCosts(forward=f, backward=b, activation_bytes=act,
                   static_bytes=static, buffer_bytes=buffer)
        for _ in range(p)
    ]


def _simulate(schedule, engine):
    results = {name: run(schedule) for name, run in _ENGINES.items()}
    fast, reference = results["compiled"], results["reference"]
    assert fast.iteration_time == reference.iteration_time
    assert fast.start_times == reference.start_times
    assert fast.end_times == reference.end_times
    assert fast.device_busy_time == reference.device_busy_time
    assert fast.device_peak_bytes == reference.device_peak_bytes
    assert (
        fast.device_micro_batch_passes
        == reference.device_micro_batch_passes
    )
    return results[engine]


class TestMakespan:
    @pytest.mark.parametrize("p,n", [(2, 2), (3, 6), (4, 8), (8, 16)])
    def test_1f1b_matches_closed_form(self, p, n, engine):
        """Without comm, the 1F1B makespan is (p-1)(F+B) + n(F+B)."""
        f, b = 1.0, 2.0
        result = _simulate(one_f_one_b_schedule(_costs(p, f, b), n), engine)
        assert result.iteration_time == pytest.approx((p - 1 + n) * (f + b))

    @pytest.mark.parametrize("p,n", [(2, 4), (3, 6), (4, 8)])
    def test_gpipe_matches_closed_form(self, p, n, engine):
        f, b = 1.0, 2.0
        result = _simulate(gpipe_schedule(_costs(p, f, b), n), engine)
        assert result.iteration_time == pytest.approx((p - 1 + n) * (f + b))

    def test_hop_time_stretches_warmup(self, engine):
        without = _simulate(one_f_one_b_schedule(_costs(4), 8, hop_time=0.0), engine)
        with_hop = _simulate(one_f_one_b_schedule(_costs(4), 8, hop_time=0.1), engine)
        assert with_hop.iteration_time > without.iteration_time

    def test_single_stage_has_no_bubbles(self, engine):
        result = _simulate(one_f_one_b_schedule(_costs(1), 5), engine)
        assert result.bubble_ratio == pytest.approx(0.0)
        assert result.iteration_time == pytest.approx(5 * 3.0)

    def test_bubble_ratio_closed_form(self, engine):
        # bubble fraction of 1F1B = (p-1)/(n+p-1) when F+B is uniform.
        p, n = 4, 8
        result = _simulate(one_f_one_b_schedule(_costs(p), n), engine)
        assert result.bubble_ratio == pytest.approx((p - 1) / (n + p - 1))

    def test_busy_time_is_work(self, engine):
        p, n = 3, 5
        result = _simulate(one_f_one_b_schedule(_costs(p), n), engine)
        for busy in result.device_busy_time:
            assert busy == pytest.approx(n * 3.0)


class TestMemoryTracking:
    def test_1f1b_peaks_are_p_minus_s(self, engine):
        # Stage s pins at most min(n, p - s) activations of 1 byte each.
        p, n = 4, 8
        result = _simulate(one_f_one_b_schedule(_costs(p), n), engine)
        expected = [float(min(n, p - s)) for s in range(p)]
        assert result.device_peak_bytes == pytest.approx(expected)

    def test_1f1b_peak_capped_by_n(self, engine):
        p, n = 4, 2
        result = _simulate(one_f_one_b_schedule(_costs(p), n), engine)
        assert max(result.device_peak_bytes) <= n

    def test_gpipe_pins_everything(self, engine):
        p, n = 3, 6
        result = _simulate(gpipe_schedule(_costs(p), n), engine)
        assert result.device_peak_bytes == pytest.approx([float(n)] * p)

    def test_static_and_buffer_added(self, engine):
        p, n = 2, 2
        costs = _costs(p, static=10.0, buffer=0.5)
        result = _simulate(one_f_one_b_schedule(costs, n), engine)
        assert result.device_peak_bytes[0] == pytest.approx(10.0 + 0.5 + 2.0)

    def test_oom_devices(self, engine):
        result = _simulate(one_f_one_b_schedule(_costs(4), 8), engine)
        assert result.oom_devices(3.5) == [0]
        assert result.oom_devices(0.5) == [0, 1, 2, 3]
        assert result.oom_devices(100.0) == []


class TestUsefulWork:
    def test_passes_count_forward_and_backward(self, engine):
        p, n = 3, 5
        result = _simulate(one_f_one_b_schedule(_costs(p), n), engine)
        # Each device runs n forwards and n backwards of weight 1.
        assert result.device_micro_batch_passes == [2 * n] * p
        assert result.micro_batch_passes == 2 * n * p


class TestErrorHandling:
    def test_deadlock_detected(self, engine):
        # Two tasks that wait on each other across devices.
        a_key = TaskKey(0, 0, 0, TaskKind.FORWARD)
        b_key = TaskKey(0, 1, 0, TaskKind.FORWARD)
        a = Task(key=a_key, device=0, duration=1.0, deps=(b_key,))
        b = Task(key=b_key, device=1, duration=1.0, deps=(a_key,))
        schedule = Schedule(name="dead", num_devices=2, device_tasks=[[a], [b]])
        with pytest.raises(SimulationError, match="deadlock"):
            _simulate(schedule, engine)

    def test_missing_dependency_detected(self, engine):
        ghost = TaskKey(0, 5, 5, TaskKind.FORWARD)
        task = Task(
            key=TaskKey(0, 0, 0, TaskKind.FORWARD),
            device=0,
            duration=1.0,
            deps=(ghost,),
        )
        schedule = Schedule(name="bad", num_devices=1, device_tasks=[[task]])
        with pytest.raises(SimulationError, match="missing"):
            _simulate(schedule, engine)

    def test_task_listed_under_another_device_rejected(self, engine):
        # Every task says device 1, but f0 and b0 sit in device 0's list.
        # Unchecked, the engines disagreed (6.0 s vs 6.5 s, different
        # peaks); both must name the task, its device and the list.
        def pair(m, act):
            f = TaskKey(0, 0, m, TaskKind.FORWARD)
            b = TaskKey(0, 0, m, TaskKind.BACKWARD)
            return [
                Task(key=f, device=1, duration=1.0, activation_bytes=act),
                Task(key=b, device=1, duration=2.0, deps=(f,)),
            ]

        schedule = Schedule(
            name="misplaced", num_devices=2,
            device_tasks=[pair(0, 10.0), pair(1, 5.0)], hop_time=0.5,
        )
        with pytest.raises(
            ValueError, match=r"F\(p0,s0,m0\): device 1 but listed under device 0"
        ):
            _ENGINES[engine](schedule)

    def test_empty_schedule(self, engine):
        schedule = Schedule(name="empty", num_devices=1, device_tasks=[[]])
        result = _simulate(schedule, engine)
        assert result.iteration_time == 0.0


class TestDependencyOrdering:
    def test_forward_waves_respect_stage_order(self, engine):
        p, n = 4, 4
        result = _simulate(one_f_one_b_schedule(_costs(p), n, hop_time=0.25), engine)
        for m in range(n):
            for s in range(1, p):
                upstream = result.end_times[TaskKey(0, s - 1, m, TaskKind.FORWARD)]
                start = result.start_times[TaskKey(0, s, m, TaskKind.FORWARD)]
                assert start >= upstream + 0.25 - 1e-12

    def test_backward_waves_respect_reverse_order(self, engine):
        p, n = 4, 4
        result = _simulate(one_f_one_b_schedule(_costs(p), n), engine)
        for m in range(n):
            for s in range(p - 1):
                downstream = result.end_times[TaskKey(0, s + 1, m, TaskKind.BACKWARD)]
                start = result.start_times[TaskKey(0, s, m, TaskKind.BACKWARD)]
                assert start >= downstream - 1e-12

    def test_no_device_overlap(self, engine):
        result = _simulate(one_f_one_b_schedule(_costs(4), 8), engine)
        for device, tasks in enumerate(result.schedule.device_tasks):
            intervals = sorted(
                (result.start_times[t.key], result.end_times[t.key]) for t in tasks
            )
            for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-12
