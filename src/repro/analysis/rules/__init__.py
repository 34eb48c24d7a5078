"""The adalint domain rules.

Importing this package registers every rule with the framework registry;
:func:`repro.analysis.framework.default_rules` does so lazily.
"""

from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.frozen_mutation import FrozenMutationRule
from repro.analysis.rules.units import UnitConsistencyRule

__all__ = [
    "DeterminismRule",
    "FrozenMutationRule",
    "UnitConsistencyRule",
]
