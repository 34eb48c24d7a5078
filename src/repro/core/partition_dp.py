"""Adaptive partitioning: Algorithm 1 of the paper (Section 5).

The 1F1B iteration time seen from stage ``s`` decomposes into the warmup,
steady, and ending phases:

* ``W_{s-1} = max(W_s + B_s, (p - s) F_{s-1}) + F_{s-1}``   (Equation 3)
* ``E`` follows the mirrored recurrence with forwards and backwards swapped
* ``M_s = max(M_{s+1}, F_s + B_s)``, ``S_s = (n - p + s) M_s``

and the total time is ``W_0 + E_0 + S_0``. Algorithm 1 sweeps stages from
last to first and, for every suffix starting layer ``i``, picks the stage
boundary ``j`` minimizing the modelled total — consuming the per-stage
optima ``f[s,i,j]``/``b[s,i,j]`` that the adaptive-recomputation DP
provides through the isomorphism cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.isomorphism import StageEval, StageEvaluator


@dataclass(frozen=True)
class PartitionResult:
    """Output of the partitioning DP.

    Attributes:
        feasible: whether any memory-feasible partition exists.
        total_time: modelled iteration time ``W_0 + E_0 + S_0``.
        boundaries: per stage, its half-open layer range.
        stage_evals: the inner-DP evaluation backing each stage.
    """

    feasible: bool
    total_time: float
    boundaries: Tuple[Tuple[int, int], ...]
    stage_evals: Tuple[StageEval, ...]


def optimize_partition(
    evaluator: StageEvaluator,
    num_stages: int,
    num_micro_batches: int,
    hop_time: float = 0.0,
) -> PartitionResult:
    """Run Algorithm 1 over ``evaluator``'s layer sequence.

    Each stage is one array step: its candidate ranges ``i..j`` (``i``
    ascending, then ``j``), priced by :meth:`StageEvaluator.evaluate_ranges`
    and combined with the successor states elementwise, in the scalar
    recurrence's floating-point order. Each ``i`` keeps the first ``j``
    reaching its minimum.

    Args:
        evaluator: provides ``f``/``b`` for candidate stages (with the
            optimal recomputation already folded in).
        num_stages: pipeline parallel size ``p``.
        num_micro_batches: micro-batches ``n`` per iteration.
        hop_time: stage-boundary communication added to each non-final
            stage's forward and backward time (0 reproduces the paper's
            model, which folds communication into profiled times).
    """
    p = num_stages
    n = num_micro_batches
    L = evaluator.num_layers
    infeasible = PartitionResult(False, math.inf, (), ())
    if p > L:
        return infeasible
    # split[s, i]: last layer of the best stage s starting at layer i (-1:
    # none). state[:, i]: that state's W, E, M, F, B, for the stage above.
    split = np.full((p, L + 1), -1)
    state = np.zeros((5, L + 1))
    for s in range(p - 1, -1, -1):
        if s == p - 1:
            # The last stage takes layers i..L-1.
            starts = np.arange(p - 1, L)
            ends = np.full(starts.size, L - 1)
        else:
            # Leave >= 1 layer per remaining stage, and end where a
            # successor state P[s+1, j+1] exists.
            j_hi = L - p + s
            cuts = np.flatnonzero(split[s + 1, s + 1 : j_hi + 2] >= 0) + s
            rows, columns = np.nonzero(cuts >= np.arange(s, j_hi + 1)[:, None])
            starts, ends = rows + s, cuts[columns]
        forward, backward, feasible = evaluator.evaluate_ranges(s, starts, ends)
        keep = np.flatnonzero(feasible)
        if not keep.size:
            return infeasible
        starts, ends = starts[keep], ends[keep]
        if s == p - 1:
            f, b = forward[keep], backward[keep]
            warmup, ending, micro = f, b, f + b
        else:
            f = forward[keep] + hop_time
            b = backward[keep] + hop_time
            nxt_warmup, nxt_ending, nxt_micro, nxt_f, nxt_b = state[:, ends + 1]
            warmup = f + np.maximum(nxt_warmup + nxt_b, (p - s - 1) * f)
            ending = b + np.maximum(nxt_ending + nxt_f, (p - s - 1) * b)
            micro = np.maximum(nxt_micro, f + b)
        total = warmup + ending + max(0, n - p + s) * micro
        # Each i keeps the first j reaching its minimum (the scalar loop's
        # strict `<`).
        row_min = np.full(L + 1, np.inf)
        np.minimum.at(row_min, starts, total)
        first = np.full(L + 1, total.size)
        reached = np.where(total == row_min[starts], np.arange(total.size), total.size)
        np.minimum.at(first, starts, reached)
        best = first[first < total.size]
        at = starts[best]
        split[s, at] = ends[best]
        state = np.zeros((5, L + 1))
        state[:, at] = (warmup[best], ending[best], micro[best], f[best], b[best])
    if split[0, 0] < 0:
        return infeasible
    root_total = float(total[best[0]])  # stage 0's first state is i = 0

    boundaries: List[Tuple[int, int]] = []
    evals: List[StageEval] = []
    i = 0
    for s in range(p):
        j = int(split[s, i])
        boundaries.append((i, j + 1))
        evals.append(evaluator.evaluate(s, i, j))
        i = j + 1
    return PartitionResult(True, root_total, tuple(boundaries), tuple(evals))


def phase_model_time(
    evals: Sequence[StageEval], num_micro_batches: int, hop_time: float = 0.0
) -> float:
    """The 1F1B phase model ``W_0 + E_0 + S_0`` of a fixed partition.

    The recurrences :func:`optimize_partition` minimises, in the same
    floating-point order: every non-final stage's forward and backward
    carry one ``hop_time`` (its boundary's hop in each direction) and the
    last stage none. So the DP's total equals this function of its own
    stage evaluations bit for bit, and it is the modelled time of every
    plan (:func:`repro.core.plan.build_plan`).
    """
    p = len(evals)
    n = num_micro_batches
    last = evals[p - 1]
    warmup, ending = last.forward, last.backward
    micro = warmup + ending
    f_next, b_next = warmup, ending
    for s in range(p - 2, -1, -1):
        f = evals[s].forward + hop_time
        b = evals[s].backward + hop_time
        warmup = f + max(warmup + b_next, (p - s - 1) * f)
        ending = b + max(ending + f_next, (p - s - 1) * b)
        micro = max(micro, f + b)
        f_next, b_next = f, b
    return warmup + ending + max(0, n - p) * micro


def even_boundaries(num_layers: int, num_stages: int) -> Tuple[Tuple[int, int], ...]:
    """The baselines' uniform partition of the layer sequence.

    Transformer layers are spread as evenly as possible; remainders go to
    the earliest stages (Megatron's convention). Requesting more stages
    than layers is rejected — an empty ``(start, start)`` range would
    otherwise evaluate as a feasible zero-cost stage (mirror
    :func:`optimize_partition`'s ``p > L`` guard at the planner level when
    an infeasible *plan* is the right answer instead of an error).
    """
    if num_stages > num_layers:
        raise ValueError(
            f"cannot split {num_layers} layers into {num_stages} non-empty stages"
        )
    base, extra = divmod(num_layers, num_stages)
    boundaries = []
    start = 0
    for s in range(num_stages):
        size = base + (1 if s < extra else 0)
        boundaries.append((start, start + size))
        start += size
    return tuple(boundaries)
