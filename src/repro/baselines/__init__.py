"""Baseline planners: every method the paper compares against.

The evaluation (Section 7) measures eight methods; all of them are
available here behind one registry so the experiment harness can sweep
them uniformly:

====================  =========================================  ==========
method                recomputation                              schedule
====================  =========================================  ==========
DAPPLE-Full           full (uniform)                             1F1B
DAPPLE-Non            none (uniform)                             1F1B
Chimera-Full          full (uniform)                             bidirectional
Chimera-Non           none (uniform)                             bidirectional
ChimeraD-Full         full (uniform)                             bidir. + fwd doubling
ChimeraD-Non          none (uniform)                             bidir. + fwd doubling
Even Partitioning     adaptive per stage (AdaPipe's inner DP)    1F1B
AdaPipe               adaptive + adaptive partitioning           1F1B
====================  =========================================  ==========
"""

from repro.baselines.extensions import (
    plan_bpipe,
    plan_interleaved,
    plan_sqrt_checkpoint,
)
from repro.baselines.offload import OffloadModel, plan_offload
from repro.baselines.methods import (
    ALL_METHODS,
    BASELINE_METHODS,
    MethodSpec,
    evaluate_method,
    method_spec,
)

__all__ = [
    "ALL_METHODS",
    "BASELINE_METHODS",
    "MethodSpec",
    "OffloadModel",
    "evaluate_method",
    "method_spec",
    "plan_bpipe",
    "plan_interleaved",
    "plan_offload",
    "plan_sqrt_checkpoint",
]
