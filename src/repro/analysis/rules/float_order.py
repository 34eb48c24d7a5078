"""float-order-divergence: paired float expressions must share op order.

The engine invariant (the batched fast path and the reference oracle
produce bit-identical iteration times) and the scalar/batched
perturbation equivalence both rest on *op-order agreement*:
floating-point addition and multiplication are not associative, so
``(d * f) * j + delay`` and ``d * (f * j) + delay`` can differ in the
last ulp — enough to flip an argmin and desynchronize caches keyed on
simulated times. The repo keeps
these expression pairs aligned by convention (ALGORITHMS.md §9, §13);
this rule aligns them by construction.

A :class:`FloatOrderContract` names N *sites* — (file, function, role
map) — whose arithmetic must agree. In each site the rule extracts every
maximal ``BinOp``/``AugAssign`` over ``+ - * /`` whose leaves are all
*role-mapped*, normalising leaves through a small grammar (attribute ->
terminal name, subscript -> base, ``np.asarray``-style transparent
wrappers -> first argument, calls -> callee name) into canonical strings
like ``mul(dur, factor)``. The per-site fingerprint is the source-order
tuple of those strings; every site must equal the contract's declared
``expected`` tuple. An *empty* extraction is itself a finding — a
contract that stops matching anything must be re-anchored, not trusted.

Incompleteness (§15): the comparison is structural, not semantic — it
cannot see reordering hidden behind a helper call boundary (the purity
and call-graph layers cover mutation, not arithmetic shape), and only
expressions whose leaves all carry roles participate. Soundness: any
edit that changes the shape, order, or count of the mapped expressions
on one side breaks that side's fingerprint and is reported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.framework import LintContext, Rule, SourceModule, register

#: Call wrappers that forward their first argument's value unchanged for
#: op-order purposes (dtype casts and array views do not reassociate).
TRANSPARENT_WRAPPERS = frozenset(
    {"asarray", "array", "ascontiguousarray", "float", "float64"}
)

_OP_NAMES = {
    ast.Add: "add",
    ast.Sub: "sub",
    ast.Mult: "mul",
    ast.Div: "div",
}


@dataclass(frozen=True)
class FloatSite:
    """One side of an op-order pairing.

    Attributes:
        path: path suffix of the module.
        func: function name (``"name"`` or ``"Class.method"``).
        roles: identifier -> canonical role. Identifiers are matched
            after leaf normalisation: bare names by ``id``, attributes by
            terminal attribute, calls by terminal callee name.
    """

    path: str
    func: str
    roles: Tuple[Tuple[str, str], ...]

    def role_map(self) -> Dict[str, str]:
        return dict(self.roles)


@dataclass(frozen=True)
class FloatOrderContract:
    """N sites whose role-mapped arithmetic must share one fingerprint.

    The contract fires when the linted module matches ``anchor_path``
    (the first site's file, by convention); evidence for the other sites
    comes through the shared project index.
    """

    name: str
    anchor_path: str
    expected: Tuple[str, ...]
    sites: Tuple[FloatSite, ...]


#: The op-order pairings the engines' bit-equivalence tests rely on.
DEFAULT_FLOAT_CONTRACTS: Tuple[FloatOrderContract, ...] = (
    FloatOrderContract(
        # The overlap re-fold: every engine subtracts the overlap window
        # from the addend column the same way, once.
        name="overlap-addend",
        anchor_path="pipeline/compiled.py",
        expected=("sub(addend, overlap)",),
        sites=(
            FloatSite(
                path="pipeline/compiled.py",
                func="compile_schedule",
                roles=(("add", "addend"), ("overlap", "overlap")),
            ),
            FloatSite(
                path="pipeline/simulator.py",
                func="simulate_reference",
                roles=(("add", "addend"), ("overlap", "overlap")),
            ),
            FloatSite(
                path="pipeline/batched.py",
                func="BatchedSchedule._addends",
                roles=(("add", "addend"), ("overlap_vals", "overlap")),
            ),
        ),
    ),
    FloatOrderContract(
        # The §9 lowering chain: factor first, then jitter, then additive
        # delays — scalar (perturb_schedule) and vector
        # (lower_spec_durations) must apply them in the same order.
        name="perturb-duration-order",
        anchor_path="pipeline/perturb.py",
        expected=(
            "mul(dur, factor)",
            "mul(dur, jitter)",
            "add(dur, delay)",
        ),
        sites=(
            FloatSite(
                path="pipeline/perturb.py",
                func="perturb_schedule",
                roles=(
                    ("duration", "dur"),
                    ("factor", "factor"),
                    ("jitter_multiplier", "jitter"),
                    ("delay", "delay"),
                ),
            ),
            FloatSite(
                path="pipeline/perturb.py",
                func="lower_spec_durations",
                roles=(
                    ("durations", "dur"),
                    ("duration", "dur"),
                    ("factors", "factor"),
                    ("jitter", "jitter"),
                    ("delays", "delay"),
                ),
            ),
        ),
    ),
)


def _path_matches(relpath: str, suffix: str) -> bool:
    return relpath == suffix or relpath.endswith("/" + suffix)


def _leaf_role(node: ast.expr, roles: Dict[str, str]) -> Optional[str]:
    """Canonical role of a leaf expression, or None when unmapped."""
    if isinstance(node, ast.Name):
        return roles.get(node.id)
    if isinstance(node, ast.Attribute):
        return roles.get(node.attr)
    if isinstance(node, ast.Subscript):
        return _leaf_role(node.value, roles)
    if isinstance(node, ast.Call):
        callee = node.func
        callee_name = (
            callee.attr if isinstance(callee, ast.Attribute)
            else callee.id if isinstance(callee, ast.Name)
            else None
        )
        if callee_name in TRANSPARENT_WRAPPERS and node.args:
            return _leaf_role(node.args[0], roles)
        if callee_name is not None:
            return roles.get(callee_name)
    return None


def _canonical(node: ast.expr, roles: Dict[str, str]) -> Optional[str]:
    """Fully-role-mapped canonical form of an arithmetic expression."""
    if isinstance(node, ast.BinOp) and type(node.op) in _OP_NAMES:
        left = _canonical(node.left, roles)
        right = _canonical(node.right, roles)
        if left is None or right is None:
            return None
        return f"{_OP_NAMES[type(node.op)]}({left}, {right})"
    return _leaf_role(node, roles)


def extract_fingerprint(
    func: ast.FunctionDef, roles: Dict[str, str]
) -> Tuple[str, ...]:
    """Source-order tuple of maximal fully-mapped arithmetic expressions.

    ``AugAssign`` (``x -= y``) canonicalises as the equivalent ``BinOp``
    on (target, value); nested sub-expressions of an emitted expression
    are not emitted again.
    """
    emitted: List[Tuple[int, int, str]] = []
    covered: List[ast.AST] = []

    def in_covered(node: ast.AST) -> bool:
        return any(
            node in ast.walk(parent) and node is not parent
            for parent in covered
        )

    for node in ast.walk(func):
        if isinstance(node, ast.AugAssign) and type(node.op) in _OP_NAMES:
            target_role = _leaf_role(node.target, roles)
            value = _canonical(node.value, roles)
            if target_role is not None and value is not None:
                emitted.append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"{_OP_NAMES[type(node.op)]}({target_role}, {value})",
                    )
                )
                covered.append(node)
    for node in ast.walk(func):
        if isinstance(node, ast.BinOp) and type(node.op) in _OP_NAMES:
            if in_covered(node):
                continue
            canonical = _canonical(node, roles)
            if canonical is not None:
                emitted.append((node.lineno, node.col_offset, canonical))
                covered.append(node)
    # ast.walk is breadth-first, so a parent BinOp lands in ``covered``
    # before its children are visited — nested sub-expressions of an
    # emitted expression never re-emit.
    return tuple(
        canonical for _line, _col, canonical in sorted(emitted)
    )


@register
class FloatOrderRule(Rule):
    name = "float-order-divergence"
    severity = "error"
    description = (
        "paired lowering expressions across the simulation engines and "
        "the perturbation transforms must share floating-point op order"
    )

    def __init__(
        self,
        contracts: Tuple[FloatOrderContract, ...] = DEFAULT_FLOAT_CONTRACTS,
    ):
        self.contracts = contracts

    def check(self, module: SourceModule, ctx: LintContext) -> Iterator[Finding]:
        for contract in self.contracts:
            if not _path_matches(module.relpath, contract.anchor_path):
                continue
            yield from self._check_contract(module, ctx, contract)

    def _check_contract(
        self,
        module: SourceModule,
        ctx: LintContext,
        contract: FloatOrderContract,
    ) -> Iterator[Finding]:
        from repro.analysis.project import find_function

        tree_root = Path(str(module.path)[: -len(contract.anchor_path)])
        for site in contract.sites:
            site_path = tree_root / site.path
            site_module = (
                ctx.module_at(site_path) if site_path.is_file() else None
            )
            if site_module is None:
                yield self.finding(
                    module,
                    1,
                    f"float-order contract {contract.name!r} broken: site "
                    f"file {site.path!r} is missing or unparsable",
                )
                continue
            func = find_function(site_module.tree, site.func)
            if func is None:
                yield self.finding(
                    module,
                    1,
                    f"float-order contract {contract.name!r} broken: "
                    f"function {site.func!r} not found in {site.path!r}",
                )
                continue
            fingerprint = extract_fingerprint(func, site.role_map())
            if not fingerprint:
                yield self.finding(
                    module,
                    func.lineno if site.path == contract.anchor_path else 1,
                    f"float-order contract {contract.name!r} matched no "
                    f"expressions in {site.path}::{site.func} — the "
                    "contract's role map no longer anchors to the code",
                )
                continue
            if fingerprint != contract.expected:
                anchored_here = _path_matches(
                    module.relpath, site.path
                ) or site.path == contract.anchor_path
                yield self.finding(
                    module,
                    func.lineno if anchored_here else 1,
                    f"float op order diverges in {site.path}::{site.func} "
                    f"({contract.name}): found "
                    f"({', '.join(fingerprint)}) but the paired engines "
                    f"agree on ({', '.join(contract.expected)}) — "
                    "bit-equivalence across engines requires identical "
                    "association order",
                    col=func.col_offset + 1 if anchored_here else 0,
                )


__all__ = [
    "DEFAULT_FLOAT_CONTRACTS",
    "FloatOrderContract",
    "FloatOrderRule",
    "FloatSite",
    "extract_fingerprint",
]
