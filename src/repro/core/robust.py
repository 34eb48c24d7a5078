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

Execution engines. By default the whole ensemble — nominal row, K jitter
rows, the deterministic baseline and the p criticality bumps — is lowered
into one ``(2 + K + p) x tasks`` duration matrix and swept through the
batched vectorized executor (:mod:`repro.pipeline.batched`) in one numpy
call: perturbations are pure duration/hop transforms, so the DAG is
lowered once and only the numbers change per row (ALGORITHMS.md section
11). The per-draw path — ``perturb_schedule`` + ``simulate_reference``
per ensemble member — is kept verbatim behind ``engine="reference"`` as
the bit-equivalence oracle: every batched report equals the reference
report exactly (fuzz-pinned in ``tests/test_batched.py``). Completed
ensembles are cached whole, keyed by :func:`ensemble_digest`, in a
:class:`~repro.pipeline.simulator.SimulationCache` — one lookup per
report, whichever engine computes a miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.pipeline.batched import BatchedSchedule, batched_simulator, shape_digest
from repro.pipeline.perturb import (
    PerturbationSpec,
    lower_spec_components,
    lowered_link_hops,
    perturb_schedule,
)
from repro.pipeline.simulator import (
    SimulationCache,
    resolve_cache,
    simulate_reference,
)
from repro.pipeline.tasks import Schedule

__all__ = [
    "ROBUST_ENGINES",
    "ROBUST_OBJECTIVES",
    "RobustnessReport",
    "cluster_perturbation",
    "ensemble_digest",
    "evaluate_robustness",
    "evaluate_robustness_many",
    "global_ensemble_cache",
    "robust_metadata",
]

#: Selectable ensemble statistics, in `--robust-objective` order.
ROBUST_OBJECTIVES = ("nominal", "mean", "p95", "worst")

#: Robustness execution paths: the batched vectorized sweep (default) and
#: the per-draw reference engine, kept as the bit-equivalence oracle.
ROBUST_ENGINES = ("batched", "reference")

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
    count and the criticality epsilon. The engine is deliberately
    excluded — the batched and reference paths are bit-equivalent (the
    tested invariant), so one cache entry serves both.
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


def _resolve_robust_engine(engine: Optional[str]) -> str:
    engine = engine or "batched"
    if engine not in ROBUST_ENGINES:
        raise ValueError(
            f"unknown robustness engine {engine!r}; pick from {ROBUST_ENGINES}"
        )
    return engine


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
    jitters: Sequence[np.ndarray],
    criticality_epsilon: float,
) -> List[np.ndarray]:
    """The ensemble's duration rows for one schedule's raw durations.

    Fixed layout: ``[nominal, draw 0 .. draw K-1, deterministic base,
    device-0 bump .. device-(p-1) bump]``. Every elementwise operation
    replays the scalar transform's per-task float order (factor, then
    jitter, then stall delay), so each row is bit-identical to the
    durations of the equivalent ``perturb_schedule`` output.

    ``jitters`` is empty when the spec draws no jitter — every ensemble
    member then equals the deterministic base. The deterministic
    components — ``factors``, ``delays`` and the ``raw * factors``
    baseline — are computed once and shared across the K jitter rows and
    the p criticality bumps (the scalar path rebuilt the baseline spec
    per device).
    """
    has_delay = bool(delays.any())

    def finish(durations: np.ndarray) -> np.ndarray:
        return durations + delays if has_delay else durations

    rows = [raw]
    base = raw * factors
    if jitters:
        rows.extend(finish(base * jitter) for jitter in jitters)
    else:
        deterministic = finish(base)
        rows.extend(deterministic for _ in range(draws))
    rows.append(finish(base))
    for d in range(num_devices):
        bumped_factor = spec.factor_for(d) * (1.0 + criticality_epsilon)
        bumped = factors.copy()
        bumped[device == d] = bumped_factor
        rows.append(finish(raw * bumped))
    return rows


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


def _evaluate_batched(
    schedule: Schedule,
    spec: PerturbationSpec,
    draws: int,
    criticality_epsilon: float,
) -> RobustnessReport:
    """One schedule's ensemble as a single batched sweep."""
    sim = batched_simulator(schedule)
    compiled = schedule.compiled()
    base_spec = _deterministic_spec(spec)
    factors, delays = lower_spec_components(compiled, base_spec)
    sigma = spec.jitter_sigma
    jitters = (
        [sim.jitter_vector(spec.seed + k, sigma) for k in range(draws)]
        if sigma
        else []
    )
    rows = _ensemble_rows(
        raw=sim.raw_durations,
        device=np.asarray(compiled.device, dtype=np.intp),
        num_devices=schedule.num_devices,
        spec=base_spec,
        factors=factors,
        delays=delays,
        draws=draws,
        jitters=jitters,
        criticality_epsilon=criticality_epsilon,
    )
    matrix = np.stack(rows)
    times = _execute_rows(
        sim,
        matrix,
        lowered_link_hops(spec, schedule),
        nominal_rows=np.asarray([0], dtype=np.intp),
    )
    return _report_from_times(
        spec, draws, times, schedule.num_devices, criticality_epsilon
    )


def _evaluate_scalar(
    schedule: Schedule,
    spec: PerturbationSpec,
    draws: int,
    criticality_epsilon: float,
) -> RobustnessReport:
    """The per-draw oracle path: perturb, re-lower and simulate each row.

    Kept verbatim from the pre-batched implementation, on the reference
    engine — this is the semantics the batched sweep must reproduce
    bit-for-bit.
    """
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


def evaluate_robustness(
    schedule: Schedule,
    spec: PerturbationSpec,
    draws: int = 16,
    *,
    engine: Optional[str] = None,
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
        engine: one of :data:`ROBUST_ENGINES` — how a cache miss is
            computed. The default picks the batched vectorized sweep;
            ``"reference"`` runs the per-draw oracle through
            :func:`repro.pipeline.simulator.simulate_reference`.
        cache: a :class:`~repro.pipeline.simulator.SimulationCache` of
            whole reports, ``None`` for the process-global one (unless
            ``REPRO_SIM_CACHE`` disables it), ``True`` for the global one
            regardless, or ``False`` for none.
        criticality_epsilon: relative bump for the finite difference.

    Determinism: the report depends only on (schedule content, spec,
    draws, epsilon) — property-tested in ``tests/test_robustness.py`` —
    and is bit-identical across both engines (``tests/test_batched.py``).
    """
    _validate_ensemble_args(draws, criticality_epsilon)
    evaluate = (
        _evaluate_batched
        if _resolve_robust_engine(engine) == "batched"
        else _evaluate_scalar
    )
    ens_cache = resolve_cache(cache, _GLOBAL_ENSEMBLE_CACHE)
    if ens_cache is None:
        return evaluate(schedule, spec, draws, criticality_epsilon)
    digest = ensemble_digest(schedule, spec, draws, criticality_epsilon)
    report = ens_cache.get(digest)
    if report is None:
        report = evaluate(schedule, spec, draws, criticality_epsilon)
        ens_cache.put(digest, report)
    return report


def evaluate_robustness_many(
    schedules: Sequence[Schedule],
    spec: PerturbationSpec,
    draws: int = 16,
    *,
    engine: Optional[str] = None,
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
    whole group. Reports equal per-schedule :func:`evaluate_robustness`
    results exactly.
    """
    schedules = list(schedules)
    _validate_ensemble_args(draws, criticality_epsilon)
    if _resolve_robust_engine(engine) == "reference":
        return [
            evaluate_robustness(
                schedule,
                spec,
                draws,
                engine="reference",
                cache=cache,
                criticality_epsilon=criticality_epsilon,
            )
            for schedule in schedules
        ]

    ens_cache = resolve_cache(cache, _GLOBAL_ENSEMBLE_CACHE)
    reports: List[Optional[RobustnessReport]] = [None] * len(schedules)
    digests: List[Optional[str]] = [None] * len(schedules)
    groups: "OrderedDict[str, List[int]]" = OrderedDict()
    for i, schedule in enumerate(schedules):
        if ens_cache is not None:
            digests[i] = ensemble_digest(
                schedule, spec, draws, criticality_epsilon
            )
            found = ens_cache.get(digests[i])
            if found is not None:
                reports[i] = found
                continue
        groups.setdefault(shape_digest(schedule.compiled()), []).append(i)

    sigma = spec.jitter_sigma
    for members in groups.values():
        first = schedules[members[0]]
        sim = batched_simulator(first)
        compiled = first.compiled()
        num_devices = first.num_devices
        base_spec = _deterministic_spec(spec)
        factors, delays = lower_spec_components(compiled, base_spec)
        jitters = (
            [sim.jitter_vector(spec.seed + k, sigma) for k in range(draws)]
            if sigma
            else []
        )
        device = np.asarray(compiled.device, dtype=np.intp)
        link_hops = lowered_link_hops(spec, first)
        block = 2 + draws + num_devices
        rows: List[np.ndarray] = []
        for i in members:
            # Same shape => same task enumeration order; only the raw
            # duration numbers differ per member (no re-lowering).
            if schedules[i] is first:
                raw = sim.raw_durations
            else:
                raw = np.array(
                    [
                        task.duration
                        for tasks in schedules[i].device_tasks
                        for task in tasks
                    ],
                    dtype=np.float64,
                )
            rows.extend(
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
        matrix = np.stack(rows)
        nominal_rows = np.arange(len(members), dtype=np.intp) * block
        times = _execute_rows(sim, matrix, link_hops, nominal_rows)
        for slot, i in enumerate(members):
            report = _report_from_times(
                spec,
                draws,
                times[slot * block:(slot + 1) * block],
                num_devices,
                criticality_epsilon,
            )
            reports[i] = report
            digest = digests[i]
            if ens_cache is not None and digest is not None:
                ens_cache.put(digest, report)
    # Every index either hit the cache or belongs to exactly one group.
    assert all(report is not None for report in reports)
    return reports  # type: ignore[return-value]


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
