"""digest-coverage: every field feeding a content digest must be hashed.

The correctness of every cross-run cache in this repo rests on a digest
function reading *all* state that moves the cached quantity: the
:class:`~repro.pipeline.tasks.Schedule` content digest keys the
:class:`~repro.pipeline.simulator.SimulationCache`, the evaluator
fingerprint keys the :class:`~repro.core.isomorphism.StageEvalCache`, and
plan serialization is the hand-off artifact replayed by executors. PR 4
shipped exactly this bug class: ``schedule_digest`` ignored
``Schedule.link_hops``, so the simulation cache served nominal results to
link-degraded schedules.

The check is *transitive read coverage* (v2): a dataclass field is
covered when its name is read — as an attribute or bare name — anywhere
in the call-graph closure of the contracted digest function, computed by
:func:`repro.analysis.dataflow.transitive_reads` over the project index.
v1 only looked inside the digest function's own body, so a digest that
delegated hashing to helpers either false-positived on every field or
forced the helpers inline; v2 follows resolved calls any depth. The set
still over-approximates true dataflow (reading ``task.weight`` into a
discarded local anywhere in the closure counts), but it is exactly the
property whose violation produced the historical bug: a field name read
*nowhere* in the closure cannot possibly be hashed. When the project
index cannot supply the function (lone-file lint of an unindexed tree),
the check degrades to the v1 single-function read set. Fields
deliberately excluded from a digest must be allowlisted *with a written
reason*; a reason-less or stale allowance is itself a finding, so the
exclusion list cannot rot silently.

Contracts bind a digest function (matched by path suffix, so fixture
trees exercise the same machinery) to the dataclasses whose fields feed
it, plus optional ``required_names`` for inputs that are not dataclass
fields (the evaluator fingerprint reads profiler attributes).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.framework import LintContext, Rule, SourceModule, register


@dataclass(frozen=True)
class FieldAllowance:
    """One deliberate digest omission: ``Class.field`` plus why it is sound."""

    field: str
    reason: str


@dataclass(frozen=True)
class DigestContract:
    """Binding of one digest function to the fields it must cover.

    Attributes:
        digest_path: path suffix of the file holding the digest function
            (``"pipeline/simulator.py"``). Matching by suffix lets the
            same contract fire on the real tree and on test fixtures that
            mirror its layout.
        digest_name: function name, or ``"Class.method"`` for methods.
        sources: ``(path suffix, class name)`` pairs naming the frozen
            dataclasses whose fields feed the digest. Paths resolve
            against the matched tree's root (the prefix left after
            stripping ``digest_path``).
        allow: fields deliberately excluded, each with a reason.
        required_names: non-field inputs the digest must also read.
    """

    digest_path: str
    digest_name: str
    sources: Tuple[Tuple[str, str], ...] = ()
    allow: Tuple[FieldAllowance, ...] = ()
    required_names: Tuple[str, ...] = ()


#: The repo's digest/fingerprint surfaces. Every frozen-state cache key or
#: serialization boundary added later should gain a contract here.
DEFAULT_CONTRACTS: Tuple[DigestContract, ...] = (
    DigestContract(
        digest_path="pipeline/simulator.py",
        digest_name="schedule_digest",
        sources=(
            ("pipeline/tasks.py", "Schedule"),
            ("pipeline/tasks.py", "Task"),
            ("pipeline/tasks.py", "TaskKey"),
        ),
        allow=(
            FieldAllowance(
                "Schedule.name",
                "a policy label; no simulated quantity depends on it, and "
                "excluding it lets relabelled schedules replay cached results",
            ),
            FieldAllowance(
                "Schedule.num_micro_batches",
                "redundant metadata — the tasks themselves carry every "
                "micro-batch; two schedules differing only here simulate "
                "identically",
            ),
        ),
    ),
    DigestContract(
        digest_path="pipeline/perturb.py",
        digest_name="PerturbationSpec.content_digest",
        sources=(
            ("pipeline/perturb.py", "PerturbationSpec"),
            ("pipeline/perturb.py", "TransientStall"),
            ("pipeline/perturb.py", "LinkDegradation"),
        ),
    ),
    DigestContract(
        digest_path="core/serialize.py",
        digest_name="plan_to_dict",
        sources=(
            ("core/plan.py", "PipelinePlan"),
            ("core/plan.py", "StagePlan"),
            ("profiler/memory.py", "StageMemory"),
        ),
    ),
    DigestContract(
        digest_path="core/robust.py",
        digest_name="ensemble_digest",
        # The ensemble cache key: one whole RobustnessReport per entry.
        # The subject is (schedule, spec, draws, epsilon) rather than a
        # single dataclass — schedule/spec content arrives through their
        # own contracted digests above. The engine is deliberately not an
        # input: batched and scalar paths are bit-equivalent (the tested
        # invariant), so one entry serves all of them.
        required_names=(
            "schedule",
            "spec",
            "draws",
            "criticality_epsilon",
        ),
    ),
    DigestContract(
        digest_path="pipeline/batched.py",
        digest_name="shape_digest",
        # The batch-grouping key of evaluate_robustness_many: schedules
        # sharing it execute through ONE lowered DAG, so any shape input
        # it missed would silently run one schedule under another's
        # structure. Durations/activation bytes/weights are excluded by
        # design — they never affect the execution plan — which is why
        # this digest must never key a result cache (results DO depend
        # on durations; ensemble_digest covers those via
        # schedule.digest()).
        required_names=(
            "num_devices",
            "hop_time",
            "link_hops",
            "device_tasks",
            "key",
            "deps",
            "pipe",
            "stage",
            "micro_batch",
            "kind",
        ),
    ),
    DigestContract(
        digest_path="core/orchestrator.py",
        digest_name="_encode_row",
        # The row encoder of persisted and checkpointed cache entries:
        # warm starts and resumed sweeps replay these evaluations, so a
        # StageEval (or StageMemory) field this function fails to read
        # would be silently lost on every restore.
        sources=(
            ("core/isomorphism.py", "StageEval"),
            ("profiler/memory.py", "StageMemory"),
        ),
    ),
    DigestContract(
        digest_path="core/orchestrator.py",
        digest_name="checkpoint_to_dict",
        # The resume boundary: every SweepCheckpoint field must reach the
        # JSON document, or a killed-and-resumed sweep would silently
        # drop that part of its frontier (completed plans, prunes,
        # incumbent, cache shard).
        sources=(("core/orchestrator.py", "SweepCheckpoint"),),
    ),
    DigestContract(
        digest_path="core/isomorphism.py",
        digest_name="evaluator_fingerprint",
        # The fingerprint's subject (a Profiler) is not a dataclass, so the
        # coverage obligation is spelled out as explicit required reads:
        # every planner input that can change a StageEval. Robust-sweep
        # inputs (robust_objective, PerturbationSpec, robust_draws) are
        # deliberately absent — see the fingerprint's docstring and
        # tests/test_robustness.py::test_robust_sweep_shares_eval_cache_*.
        required_names=(
            "cluster",
            "spec",
            "train",
            "tensor_parallel",
            "data_parallel",
            "noise",
            "seed",
            "capacity_bytes",
        ),
    ),
)


def _path_matches(relpath: str, suffix: str) -> bool:
    return relpath == suffix or relpath.endswith("/" + suffix)


def _find_function(
    tree: ast.Module, dotted: str
) -> Optional[ast.FunctionDef]:
    """Locate ``name`` or ``Class.method`` at module/class body level."""
    parts = dotted.split(".")
    body: List[ast.stmt] = list(tree.body)
    for part in parts[:-1]:
        for node in body:
            if isinstance(node, ast.ClassDef) and node.name == part:
                body = list(node.body)
                break
        else:
            return None
    for node in body:
        if isinstance(node, ast.FunctionDef) and node.name == parts[-1]:
            return node
    return None


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def dataclass_fields(node: ast.ClassDef) -> List[str]:
    """Field names of a dataclass body: annotated assignments, in order.

    ``ClassVar`` annotations and private (``_``-prefixed) names are not
    dataclass state and are excluded.
    """
    fields: List[str] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
            stmt.target, ast.Name
        ):
            continue
        annotation = ast.unparse(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        if stmt.target.id.startswith("_"):
            continue
        fields.append(stmt.target.id)
    return fields


def names_read(func: ast.FunctionDef) -> Set[str]:
    """Every identifier the function body reads: bare names and attributes."""
    read: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return read


@register
class DigestCoverageRule(Rule):
    name = "digest-coverage"
    severity = "error"
    description = (
        "every field of a dataclass feeding a content digest/fingerprint "
        "must be read in the digest function's call-graph closure or "
        "allowlisted with a reason"
    )

    def __init__(self, contracts: Tuple[DigestContract, ...] = DEFAULT_CONTRACTS):
        self.contracts = contracts

    def check(self, module: SourceModule, ctx: LintContext) -> Iterator[Finding]:
        for contract in self.contracts:
            if not _path_matches(module.relpath, contract.digest_path):
                continue
            yield from self._check_contract(module, ctx, contract)

    def _check_contract(
        self, module: SourceModule, ctx: LintContext, contract: DigestContract
    ) -> Iterator[Finding]:
        func = _find_function(module.tree, contract.digest_name)
        if func is None:
            yield self.finding(
                module,
                1,
                f"contract broken: digest function {contract.digest_name!r} "
                f"not found in {module.relpath}",
            )
            return
        allowed = {allowance.field: allowance for allowance in contract.allow}
        # The tree root this contract resolves against: the linted file's
        # path minus the contract's path suffix.
        tree_root = Path(str(module.path)[: -len(contract.digest_path)])

        # v2: union the read set over the call-graph closure of the digest
        # function. Falls back to the v1 single-function read set when the
        # project index cannot locate the function (e.g. the tree root is
        # not a directory adalint can index).
        read = names_read(func)
        project = ctx.project_at(tree_root) if tree_root.is_dir() else None
        if project is not None:
            root_fn = project.function(contract.digest_path, contract.digest_name)
            if root_fn is not None:
                from repro.analysis.dataflow import transitive_reads

                read, _witnesses = transitive_reads(
                    project.call_graph(), root_fn
                )

        known_fields: Set[str] = set()
        for source_path, class_name in contract.sources:
            source = ctx.module_at(tree_root / source_path)
            if source is None:
                yield self.finding(
                    module,
                    func.lineno,
                    f"contract broken: source file {source_path!r} for class "
                    f"{class_name!r} is missing or unparsable",
                    col=func.col_offset + 1,
                )
                continue
            cls = _find_class(source.tree, class_name)
            if cls is None:
                yield self.finding(
                    module,
                    func.lineno,
                    f"contract broken: class {class_name!r} not found in "
                    f"{source_path!r}",
                    col=func.col_offset + 1,
                )
                continue
            for field_name in dataclass_fields(cls):
                qualified = f"{class_name}.{field_name}"
                known_fields.add(qualified)
                allowance = allowed.get(qualified)
                if allowance is not None:
                    if not allowance.reason.strip():
                        yield self.finding(
                            module,
                            func.lineno,
                            f"allowlisted digest omission {qualified} carries "
                            "no reason",
                            col=func.col_offset + 1,
                        )
                    continue
                if field_name not in read:
                    yield self.finding(
                        module,
                        func.lineno,
                        f"field {qualified} is never read in the call-graph "
                        f"closure of digest function "
                        f"{contract.digest_name!r} and is not allowlisted — "
                        "a cache keyed by this digest would conflate states "
                        "differing only in that field",
                        col=func.col_offset + 1,
                    )
        for qualified in allowed:
            if contract.sources and qualified not in known_fields:
                yield self.finding(
                    module,
                    func.lineno,
                    f"stale allowance: {qualified} is not a field of any "
                    "contracted dataclass",
                    col=func.col_offset + 1,
                )
        for required in contract.required_names:
            if required not in read:
                yield self.finding(
                    module,
                    func.lineno,
                    f"required input {required!r} is never read by digest "
                    f"function {contract.digest_name!r}",
                    col=func.col_offset + 1,
                )
