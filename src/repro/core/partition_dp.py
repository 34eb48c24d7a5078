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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.isomorphism import StageEval, StageEvaluator


@dataclass(frozen=True)
class PartitionState:
    """The paper's ``P[s, i]`` record: W, E, M, F, B, T plus the cut."""

    warmup: float
    ending: float
    max_micro_step: float
    forward: float
    backward: float
    total: float
    split: int  # last layer index (inclusive) of stage s


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
    if p > L:
        return PartitionResult(False, math.inf, (), ())
    steady_count = lambda s: max(0, n - p + s)  # noqa: E731

    # states[s][i] = best PartitionState for layers i.. handled by stages s..
    states: List[Dict[int, PartitionState]] = [dict() for _ in range(p)]

    # Base case: the last stage takes layers i..L-1.
    for i in range(p - 1, L):
        eval_ = evaluator.evaluate(p - 1, i, L - 1)
        if not eval_.feasible:
            continue
        f, b = eval_.forward, eval_.backward
        states[p - 1][i] = PartitionState(
            warmup=f,
            ending=b,
            max_micro_step=f + b,
            forward=f,
            backward=b,
            total=f + b + steady_count(p - 1) * (f + b),
            split=L - 1,
        )

    for s in range(p - 2, -1, -1):
        j_hi = L - p + s  # leave >= 1 layer per remaining stage
        for i in range(s, j_hi + 1):
            best: Optional[PartitionState] = None
            for j in range(i, j_hi + 1):
                nxt = states[s + 1].get(j + 1)
                if nxt is None:
                    continue
                eval_ = evaluator.evaluate(s, i, j)
                if not eval_.feasible:
                    continue
                f = eval_.forward + hop_time
                b = eval_.backward + hop_time
                warmup = f + max(nxt.warmup + nxt.backward, (p - s - 1) * f)
                ending = b + max(nxt.ending + nxt.forward, (p - s - 1) * b)
                micro = max(nxt.max_micro_step, f + b)
                total = warmup + ending + steady_count(s) * micro
                if best is None or total < best.total:
                    best = PartitionState(
                        warmup=warmup,
                        ending=ending,
                        max_micro_step=micro,
                        forward=f,
                        backward=b,
                        total=total,
                        split=j,
                    )
            if best is not None:
                states[s][i] = best

    root = states[0].get(0)
    if root is None:
        return PartitionResult(False, math.inf, (), ())

    boundaries: List[Tuple[int, int]] = []
    evals: List[StageEval] = []
    i = 0
    for s in range(p):
        state = states[s][i]
        boundaries.append((i, state.split + 1))
        evals.append(evaluator.evaluate(s, i, state.split))
        i = state.split + 1
    return PartitionResult(True, root.total, tuple(boundaries), tuple(evals))


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
