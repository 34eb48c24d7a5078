"""The adalint domain rules.

Importing this package registers every rule with the framework registry;
:func:`repro.analysis.framework.default_rules` does so lazily.
"""

from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.float_order import (
    DEFAULT_FLOAT_CONTRACTS,
    FloatOrderContract,
    FloatOrderRule,
    FloatSite,
)
from repro.analysis.rules.frozen_mutation import FrozenMutationRule
from repro.analysis.rules.transform_purity import (
    DEFAULT_PURITY_CONTRACTS,
    PurityContract,
    TransformPurityRule,
)
from repro.analysis.rules.units import UnitConsistencyRule

__all__ = [
    "DEFAULT_FLOAT_CONTRACTS",
    "DEFAULT_PURITY_CONTRACTS",
    "DeterminismRule",
    "FloatOrderContract",
    "FloatOrderRule",
    "FloatSite",
    "FrozenMutationRule",
    "PurityContract",
    "TransformPurityRule",
    "UnitConsistencyRule",
]
