"""adalint: domain-aware static analysis for the AdaPipe reproduction.

An AST-based lint framework plus three file-local rules proving, on
every file at every CI run, invariants the repo's correctness rests on
but no test suite can exhaustively cover:

* **determinism** — no module-level/unseeded RNG, no wall-clock reads
  outside the measurement layers, no iteration over sets without
  ``sorted()``;
* **unit-consistency** — ``_bytes``/``_seconds``/``_flops``/``_bps``
  identifiers are never added or compared across dimensions without an
  explicit conversion call (enforced over ``profiler/``, ``hardware/``,
  ``core/``);
* **frozen-mutation** — ``object.__setattr__`` only inside
  ``__post_init__``.

The invariants other rules used to police hold by construction or by
test instead. Registries: every schedule-kind site reads the one
schedule-family table (:mod:`repro.pipeline.schedules.families`), and
:mod:`repro.analysis.docs_sync` imports the experiment, method and rule
registries to check that the docs name every member. Digests and codecs
walk ``dataclasses.fields`` (:mod:`repro.content`), so a field is covered
by construction. The perturbation transform's float order has one copy,
:func:`repro.pipeline.perturb.perturb_duration`, and its purity is a
property test (``tests/test_batched.py``).

Entry points: ``adapipe lint`` (CLI; text/JSON/SARIF reporters), check
10 of ``adapipe validate``, and :func:`run_lint` for programmatic use.
See ``docs/ALGORITHMS.md`` sections 10 and 15 for each rule's soundness
argument and why the interprocedural layer left.
"""

from repro.analysis.findings import SEVERITIES, Finding
from repro.analysis.framework import (
    FRAMEWORK_RULES,
    LintContext,
    LintResult,
    Rule,
    SourceModule,
    clear_parse_cache,
    default_rules,
    load_baseline,
    parse_suppressions,
    register,
    registered_rule_names,
    rule_description,
    run_lint,
)
from repro.analysis.reporters import (
    REPORT_VERSION,
    render_json,
    render_sarif,
    render_text,
    result_to_dict,
    result_to_sarif,
)

__all__ = [
    "FRAMEWORK_RULES",
    "Finding",
    "LintContext",
    "LintResult",
    "REPORT_VERSION",
    "Rule",
    "SEVERITIES",
    "SourceModule",
    "clear_parse_cache",
    "default_rules",
    "load_baseline",
    "parse_suppressions",
    "register",
    "registered_rule_names",
    "render_json",
    "render_sarif",
    "render_text",
    "result_to_dict",
    "result_to_sarif",
    "rule_description",
    "run_lint",
]
