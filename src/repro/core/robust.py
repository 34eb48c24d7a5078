"""Robustness evaluation: how fragile is a plan under perturbations?

The planners rank plans by *nominal* simulated iteration time, but the
paper's own motivation (Section 3) is that stage imbalance — not raw
compute — decides iteration time, and a plan that is optimal under
nominal costs can invert ranking once one device runs 20% slow. This
module quantifies that:

* :func:`evaluate_robustness` executes a schedule under ``K`` seeded
  draws of a :class:`~repro.pipeline.perturb.PerturbationSpec` (draw
  ``k`` reseeds the jitter; factors, stalls and link degradations are
  held fixed) and summarises the resulting iteration times.
* **Straggler criticality** is the marginal slowdown of iteration time
  with respect to each device's slowdown factor — a normalised forward
  difference ``(T(f_d * (1 + eps)) - T(f_d)) / (eps * T(f_d))``,
  evaluated at the spec's deterministic component (factors + stalls +
  links, no jitter). A criticality of 1.0 means the device is fully on
  the critical path (1% slower device => 1% slower iteration); 0 means
  its slack absorbs the bump entirely. Monotonicity of the DAG's
  longest path in task durations makes every criticality non-negative.

Everything is deterministic: same spec + same schedule + same draw count
produce an identical :class:`RobustnessReport`, which is what lets the
report double as a regression artifact and lets the sweep rank plans by
a robust objective (``repro.core.sweep`` with ``robust_objective``).

Execution. The whole ensemble — nominal row, K jitter rows, the
deterministic baseline and the p criticality bumps — is lowered into one
``(2 + K + p) x tasks`` duration matrix and swept through the batched
vectorized executor (:mod:`repro.pipeline.batched`) in one numpy call:
perturbations are pure duration/hop transforms, so the DAG is lowered
once and only the numbers change per row (ALGORITHMS.md section 11).
Every perturbed row comes from
:func:`~repro.pipeline.perturb.perturb_duration`, the one transform
``perturb_schedule`` applies per task. :func:`evaluate_robustness` is the
one-schedule case of :func:`evaluate_robustness_many`.
:func:`evaluate_robustness_reference` — ``perturb_schedule`` +
``simulate_reference`` per ensemble member, uncached — is the oracle,
and every report equals the oracle's exactly (fuzz-pinned in
``tests/test_batched.py``). Completed ensembles are cached whole, keyed
by :func:`ensemble_digest`, in a
:class:`~repro.pipeline.simulator.SimulationCache` — one lookup per
report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.pipeline.batched import BatchedSchedule, batched_simulator, shape_digest
from repro.pipeline.perturb import (
    PerturbationSpec,
    lower_spec_components,
    lowered_link_hops,
    perturb_duration,
    perturb_schedule,
)
from repro.pipeline.simulator import (
    SimulationCache,
    resolve_cache,
    simulate_reference,
)
from repro.pipeline.tasks import Schedule

__all__ = [
    "ROBUST_OBJECTIVES",
    "RobustnessReport",
    "cluster_perturbation",
    "ensemble_digest",
    "evaluate_robustness",
    "evaluate_robustness_many",
    "evaluate_robustness_reference",
    "global_ensemble_cache",
    "robust_metadata",
]

#: Selectable ensemble statistics, in `--robust-objective` order.
ROBUST_OBJECTIVES = ("nominal", "mean", "p95", "worst")

#: Relative factor bump used by the criticality finite difference.
CRITICALITY_EPSILON = 0.25


@dataclass(frozen=True)
class RobustnessReport:
    """Ensemble statistics of one schedule under one perturbation spec.

    Attributes:
        spec: the evaluated perturbation spec.
        draws: number of seeded ensemble draws.
        nominal_time: unperturbed iteration time.
        times: perturbed iteration times, in draw order (empty when
            ``draws == 0`` — the statistics then fall back to the
            deterministic perturbed time).
        deterministic_time: iteration time under the spec's deterministic
            component (factors/stalls/links, jitter off) — the baseline
            of the criticality differences.
        device_criticality: per-device normalised marginal slowdown.
        criticality_epsilon: relative factor bump used for the
            finite difference.
    """

    spec: PerturbationSpec
    draws: int
    nominal_time: float
    times: Tuple[float, ...]
    deterministic_time: float
    device_criticality: Tuple[float, ...]
    criticality_epsilon: float = CRITICALITY_EPSILON

    @property
    def mean_time(self) -> float:
        if not self.times:
            return self.deterministic_time
        return math.fsum(self.times) / len(self.times)

    @property
    def p95_degenerate(self) -> bool:
        """Whether ``p95_time`` collapses onto ``worst_time``.

        The nearest-rank 95th percentile of ``K`` samples is order
        statistic ``ceil(0.95 K)``, which equals ``K`` — the maximum —
        for every ``K < 20``. A robust sweep ranking by ``"p95"`` with
        fewer than 20 draws is therefore ranking by worst-case.
        """
        return 0 < len(self.times) < 20

    @property
    def p95_time(self) -> float:
        """Nearest-rank 95th percentile of the ensemble times.

        For ensembles with fewer than 20 draws the nearest-rank index
        ``ceil(0.95 K)`` is ``K`` itself, so this *equals*
        ``worst_time`` (see :attr:`p95_degenerate`); a
        ``RuntimeWarning`` is emitted once per call site so small-K
        sweeps don't silently rank by worst-case.
        """
        if not self.times:
            return self.deterministic_time
        if self.p95_degenerate:
            warnings.warn(
                f"p95_time over {len(self.times)} draws degenerates to "
                "worst_time (nearest-rank ceil(0.95 K) == K for K < 20); "
                "use draws >= 20 for a p95 distinct from the maximum",
                RuntimeWarning,
                stacklevel=2,
            )
        ordered = sorted(self.times)
        rank = max(1, math.ceil(0.95 * len(ordered)))
        return ordered[rank - 1]

    @property
    def worst_time(self) -> float:
        if not self.times:
            return self.deterministic_time
        return max(self.times)

    @property
    def best_time(self) -> float:
        if not self.times:
            return self.deterministic_time
        return min(self.times)

    def objective(self, which: str) -> float:
        """The iteration-time statistic a robust search ranks plans by."""
        if which == "nominal":
            return self.nominal_time
        if which == "mean":
            return self.mean_time
        if which == "p95":
            return self.p95_time
        if which == "worst":
            return self.worst_time
        raise ValueError(
            f"unknown robust objective {which!r}; pick from {ROBUST_OBJECTIVES}"
        )

    def slowdown(self, which: str) -> float:
        """Ensemble statistic relative to the nominal time (1.0 = nominal)."""
        if self.nominal_time == 0:
            return 1.0
        return self.objective(which) / self.nominal_time

    def most_critical_device(self) -> int:
        """Device index with the largest straggler criticality."""
        return max(
            range(len(self.device_criticality)),
            key=lambda d: (self.device_criticality[d], -d),
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible summary (benchmark artifacts, plan metadata)."""
        return {
            "spec_digest": self.spec.content_digest(),
            "draws": self.draws,
            "nominal_time": self.nominal_time,
            "deterministic_time": self.deterministic_time,
            "mean_time": self.mean_time,
            "p95_time": self.p95_time,
            "worst_time": self.worst_time,
            "best_time": self.best_time,
            "device_criticality": list(self.device_criticality),
            "criticality_epsilon": self.criticality_epsilon,
        }

    def describe(self) -> str:
        """Multi-line human-readable report (the `adapipe robustness` table)."""
        lines = [
            f"robustness over {self.draws} draws "
            f"(spec {self.spec.content_digest()[:12]}, "
            f"jitter sigma {self.spec.jitter_sigma:g}, seed {self.spec.seed})",
            f"  nominal  {self.nominal_time:.6f}s",
            f"  mean     {self.mean_time:.6f}s  ({self.slowdown('mean'):.3f}x)",
            f"  p95      {self.p95_time:.6f}s  ({self.slowdown('p95'):.3f}x)",
            f"  worst    {self.worst_time:.6f}s  ({self.slowdown('worst'):.3f}x)",
            "  device criticality (marginal slowdown per unit factor):",
        ]
        scale = max(self.device_criticality, default=0.0)
        for device, crit in enumerate(self.device_criticality):
            bar = "#" * int(round(24 * crit / scale)) if scale > 0 else ""
            factor = self.spec.factor_for(device)
            lines.append(
                f"    device {device:2d}  factor {factor:5.2f}  "
                f"criticality {crit:6.3f}  {bar}"
            )
        return "\n".join(lines)


def _deterministic_spec(spec: PerturbationSpec) -> PerturbationSpec:
    """The spec with its random (jitter) component switched off."""
    if spec.jitter_sigma == 0.0:
        return spec
    return dataclasses.replace(spec, jitter_sigma=0.0)


def ensemble_digest(
    schedule: Schedule,
    spec: PerturbationSpec,
    draws: int,
    criticality_epsilon: float = CRITICALITY_EPSILON,
) -> str:
    """Content digest keying one whole robustness ensemble.

    Covers everything a :class:`RobustnessReport` depends on: the
    schedule's full content digest, the spec's content digest, the draw
    count and the criticality epsilon.
    """
    payload = (
        f"robust-ensemble-v1|{schedule.digest()}|{spec.content_digest()}"
        f"|{draws}|{criticality_epsilon!r}"
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


_GLOBAL_ENSEMBLE_CACHE: "SimulationCache[RobustnessReport]" = SimulationCache()


def global_ensemble_cache() -> "SimulationCache[RobustnessReport]":
    """The process-wide cache robustness evaluation consults by default."""
    return _GLOBAL_ENSEMBLE_CACHE


def _validate_ensemble_args(draws: int, criticality_epsilon: float) -> None:
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    if criticality_epsilon <= 0:
        raise ValueError(
            f"criticality epsilon must be > 0, got {criticality_epsilon}"
        )


def _ensemble_rows(
    raw: np.ndarray,
    device: np.ndarray,
    num_devices: int,
    spec: PerturbationSpec,
    factors: np.ndarray,
    delays: np.ndarray,
    draws: int,
    jitters: Optional[np.ndarray],
    criticality_epsilon: float,
) -> np.ndarray:
    """The ensemble's duration rows for one schedule's raw durations.

    Fixed layout: ``[nominal, draw 0 .. draw K-1, deterministic base,
    device-0 bump .. device-(p-1) bump]``. Every perturbed row is
    :func:`~repro.pipeline.perturb.perturb_duration` of ``raw``, the
    transform ``perturb_schedule`` applies per task, so each row is
    bit-identical to the durations of the equivalent ``perturb_schedule``
    output.

    ``jitters`` is the ``(K, n)`` matrix of the draws' jitter vectors, or
    ``None`` when the spec draws no jitter — every ensemble member then
    equals the deterministic base. Broadcasting computes ``raw * factors``
    once for all K draws, and the p criticality bumps are one ``(p, n)``
    factor matrix (the reference rebuilt the baseline spec per device).
    """
    delay = delays if delays.any() else None
    base = perturb_duration(raw, factors, None, delay)
    if jitters is None:
        ensemble = np.broadcast_to(base, (draws, raw.size))
    else:
        ensemble = perturb_duration(raw, factors, jitters, delay)
    bumps = np.tile(factors, (num_devices, 1))
    for d in range(num_devices):
        bumps[d, device == d] = spec.factor_for(d) * (1.0 + criticality_epsilon)
    return np.concatenate([
        raw[np.newaxis],
        ensemble,
        base[np.newaxis],
        perturb_duration(raw, bumps, None, delay),
    ])


def _execute_rows(
    sim: BatchedSchedule,
    matrix: np.ndarray,
    link_hops: Optional[Dict[Tuple[int, int], float]],
    nominal_rows: np.ndarray,
) -> np.ndarray:
    """Iteration times of the stacked ensemble rows.

    ``nominal_rows`` marks the rows that run under the schedule's own
    hop times; every other row uses the spec's perturbed ``link_hops``
    mapping (when the spec degrades any link — otherwise one call
    covers everything).
    """
    if link_hops is None:
        return sim.iteration_times(matrix)
    perturbed = np.ones(matrix.shape[0], dtype=bool)
    perturbed[nominal_rows] = False
    times = np.empty(matrix.shape[0], dtype=np.float64)
    times[nominal_rows] = sim.iteration_times(matrix[nominal_rows])
    times[perturbed] = sim.iteration_times(matrix[perturbed], link_hops=link_hops)
    return times


def _report_from_times(
    spec: PerturbationSpec,
    draws: int,
    times: np.ndarray,
    num_devices: int,
    criticality_epsilon: float,
) -> RobustnessReport:
    """Assemble a report from one schedule's block of iteration times."""
    nominal = float(times[0])
    ensemble = tuple(float(t) for t in times[1:1 + draws])
    base_time = float(times[1 + draws])
    criticality = []
    for d in range(num_devices):
        bumped_time = float(times[2 + draws + d])
        if base_time > 0:
            criticality.append(
                (bumped_time - base_time) / (criticality_epsilon * base_time)
            )
        else:
            criticality.append(0.0)
    return RobustnessReport(
        spec=spec,
        draws=draws,
        nominal_time=nominal,
        times=ensemble,
        deterministic_time=base_time,
        device_criticality=tuple(criticality),
        criticality_epsilon=criticality_epsilon,
    )


def _evaluate_group(
    schedules: Sequence[Schedule],
    spec: PerturbationSpec,
    draws: int,
    criticality_epsilon: float,
) -> List[RobustnessReport]:
    """The ensembles of schedules sharing one shape, as one batched sweep.

    Same shape means the same task enumeration order, so the first
    member's lowering — executor, factors, stall delays, jitter vectors,
    link hops — serves every member; only the raw durations differ.
    """
    first = schedules[0]
    sim = batched_simulator(first)
    compiled = first.compiled()
    num_devices = first.num_devices
    base_spec = _deterministic_spec(spec)
    factors, delays = lower_spec_components(compiled, base_spec)
    sigma = spec.jitter_sigma
    jitters = (
        np.stack([sim.jitter_vector(spec.seed + k, sigma) for k in range(draws)])
        if sigma and draws
        else None
    )
    device = np.asarray(compiled.device, dtype=np.intp)
    blocks = []
    for schedule in schedules:
        if schedule is first:
            raw = sim.raw_durations
        else:
            raw = np.array(
                [task.duration for tasks in schedule.device_tasks for task in tasks],
                dtype=np.float64,
            )
        blocks.append(
            _ensemble_rows(
                raw=raw,
                device=device,
                num_devices=num_devices,
                spec=base_spec,
                factors=factors,
                delays=delays,
                draws=draws,
                jitters=jitters,
                criticality_epsilon=criticality_epsilon,
            )
        )
    block = 2 + draws + num_devices
    times = _execute_rows(
        sim,
        np.concatenate(blocks),
        lowered_link_hops(spec, first),
        nominal_rows=np.arange(len(schedules), dtype=np.intp) * block,
    )
    return [
        _report_from_times(
            spec,
            draws,
            times[slot * block:(slot + 1) * block],
            num_devices,
            criticality_epsilon,
        )
        for slot in range(len(schedules))
    ]


def evaluate_robustness(
    schedule: Schedule,
    spec: PerturbationSpec,
    draws: int = 16,
    *,
    cache: Union[SimulationCache[RobustnessReport], bool, None] = None,
    criticality_epsilon: float = CRITICALITY_EPSILON,
) -> RobustnessReport:
    """Run the perturbation ensemble and the criticality differences.

    Args:
        schedule: the nominal schedule under evaluation.
        spec: the perturbation model. Draw ``k`` applies
            ``spec.reseeded(k)``, so jitter re-draws per ensemble member
            while factors/stalls/links stay fixed.
        draws: ensemble size ``K``; 0 skips the ensemble (the statistics
            then report the deterministic perturbed time).
        cache: a :class:`~repro.pipeline.simulator.SimulationCache` of
            whole reports, ``None`` for the process-global one (unless
            ``REPRO_SIM_CACHE`` disables it), ``True`` for the global one
            regardless, or ``False`` for none.
        criticality_epsilon: relative bump for the finite difference.

    The one-schedule case of :func:`evaluate_robustness_many`. The report
    depends only on (schedule content, spec, draws, epsilon) —
    property-tested in ``tests/test_robustness.py`` — and equals
    :func:`evaluate_robustness_reference` exactly (``tests/test_batched.py``).
    """
    return evaluate_robustness_many(
        [schedule],
        spec,
        draws,
        cache=cache,
        criticality_epsilon=criticality_epsilon,
    )[0]


def evaluate_robustness_many(
    schedules: Sequence[Schedule],
    spec: PerturbationSpec,
    draws: int = 16,
    *,
    cache: Union[SimulationCache[RobustnessReport], bool, None] = None,
    criticality_epsilon: float = CRITICALITY_EPSILON,
) -> List[RobustnessReport]:
    """:func:`evaluate_robustness` for many schedules, batched by shape.

    Candidate plans in a robust sweep build schedules that differ only in
    task durations — same policy, same device count, same micro-batch
    count, hence the same DAG. Schedules sharing a
    :func:`~repro.pipeline.batched.shape_digest` are grouped and their
    ensembles stacked into one duration matrix executed through a single
    :class:`~repro.pipeline.batched.BatchedSchedule`, which also shares
    the spec lowering (factors, stall delays, jitter vectors) across the
    whole group. A lone cache miss is its own group and pays for no
    shape digest. Reports equal per-schedule
    :func:`evaluate_robustness_reference` results exactly.
    """
    schedules = list(schedules)
    _validate_ensemble_args(draws, criticality_epsilon)
    ens_cache = resolve_cache(cache, _GLOBAL_ENSEMBLE_CACHE)
    reports: List[Optional[RobustnessReport]] = [None] * len(schedules)
    digests: List[str] = [""] * len(schedules)
    misses: List[int] = []
    for i, schedule in enumerate(schedules):
        if ens_cache is not None:
            digests[i] = ensemble_digest(schedule, spec, draws, criticality_epsilon)
            reports[i] = ens_cache.get(digests[i])
            if reports[i] is not None:
                continue
        misses.append(i)

    if len(misses) == 1:
        # A lone miss is its own group; a shape digest would buy nothing.
        groups = [misses]
    else:
        by_shape: Dict[str, List[int]] = {}
        for i in misses:
            by_shape.setdefault(shape_digest(schedules[i].compiled()), []).append(i)
        groups = list(by_shape.values())
    for members in groups:
        computed = _evaluate_group(
            [schedules[i] for i in members], spec, draws, criticality_epsilon
        )
        for i, report in zip(members, computed):
            reports[i] = report
            if ens_cache is not None:
                ens_cache.put(digests[i], report)
    # Every index either hit the cache or belongs to exactly one group.
    assert all(report is not None for report in reports)
    return reports  # type: ignore[return-value]


def evaluate_robustness_reference(
    schedule: Schedule,
    spec: PerturbationSpec,
    draws: int = 16,
    *,
    criticality_epsilon: float = CRITICALITY_EPSILON,
) -> RobustnessReport:
    """The per-draw oracle: perturb, re-lower and simulate every row.

    Mirrors :func:`~repro.pipeline.simulator.simulate_reference`: uncached,
    one ``perturb_schedule`` + ``simulate_reference`` run per ensemble
    member and per criticality bump. This is the semantics
    :func:`evaluate_robustness` must reproduce bit for bit.
    """
    _validate_ensemble_args(draws, criticality_epsilon)
    nominal = simulate_reference(schedule).iteration_time
    times = tuple(
        simulate_reference(
            perturb_schedule(schedule, spec.reseeded(k))
        ).iteration_time
        for k in range(draws)
    )

    base_spec = _deterministic_spec(spec)
    base_schedule = perturb_schedule(schedule, base_spec)
    base_time = simulate_reference(base_schedule).iteration_time
    criticality = []
    for device in range(schedule.num_devices):
        factor = base_spec.factor_for(device)
        bumped = base_spec.with_device_factor(
            device, factor * (1.0 + criticality_epsilon)
        )
        bumped_time = simulate_reference(
            perturb_schedule(schedule, bumped)
        ).iteration_time
        if base_time > 0:
            criticality.append(
                (bumped_time - base_time) / (criticality_epsilon * base_time)
            )
        else:
            criticality.append(0.0)
    return RobustnessReport(
        spec=spec,
        draws=draws,
        nominal_time=nominal,
        times=times,
        deterministic_time=base_time,
        device_criticality=tuple(criticality),
        criticality_epsilon=criticality_epsilon,
    )


def cluster_perturbation(
    cluster,
    num_ranks: int,
    *,
    jitter_sigma: float = 0.0,
    seed: int = 0,
    stalls: Sequence = (),
    links: Sequence = (),
) -> PerturbationSpec:
    """The perturbation spec implied by a cluster's per-rank deratings.

    Reads :meth:`repro.hardware.cluster.ClusterSpec.device_factor` for the
    first ``num_ranks`` pipeline ranks (the devices a simulated pipeline
    group occupies) and folds in any extra jitter/stall/link terms — the
    bridge from the hardware description to a
    :class:`~repro.pipeline.perturb.PerturbationSpec`.
    """
    factors = {
        rank: cluster.device_factor(rank)
        for rank in range(num_ranks)
        if cluster.device_factor(rank) != 1.0
    }
    return PerturbationSpec.build(
        factors,
        jitter_sigma=jitter_sigma,
        seed=seed,
        stalls=stalls,
        links=links,
    )


def robust_metadata(report: RobustnessReport) -> Dict[str, object]:
    """The ``robust_*`` keys :func:`repro.core.evaluate.evaluate_plan`
    folds into plan metadata."""
    return {
        "robust_spec_digest": report.spec.content_digest(),
        "robust_draws": report.draws,
        "robust_nominal_time": report.nominal_time,
        "robust_mean_time": report.mean_time,
        "robust_p95_time": report.p95_time,
        "robust_worst_time": report.worst_time,
        "robust_criticality": list(report.device_criticality),
    }
