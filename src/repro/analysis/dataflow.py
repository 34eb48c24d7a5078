"""Forward dataflow facts for adalint: purity.

Computed over the :class:`~repro.analysis.callgraph.CallGraph` closure of
a root function. A function is treated as impure if it (a) stores into an
attribute or subscript rooted at one of its parameters, or calls a
known mutating method (``append``/``update``/``sort``/...) on one,
(b) declares ``global``/``nonlocal`` or assigns a module-level name, or
(c) calls I/O — ``open``/``print``/``input``, or anything reached
through ``os``/``subprocess``/``shutil``/``socket``/``pathlib`` writes
(``os.path`` and ``os.environ`` *reads* are exempt). Mutating fresh
locals is allowed: purity here is the §9 duration-transform contract
(inputs unchanged, no hidden state), not referential transparency.
Unresolved callees contribute nothing, which is the analysis's
documented incompleteness.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.project import FunctionInfo

__all__ = [
    "PurityViolation",
    "PurityReport",
    "check_purity",
]

# Methods that mutate their receiver in place on builtin containers /
# numpy arrays. A call ``param.<one of these>(...)`` is an argument
# mutation.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
        "fill",
        "sort_values",
        "popitem",
    }
)

# Callables whose invocation is I/O by definition.
IO_BUILTINS = frozenset({"open", "print", "input"})

# Modules any attribute-call into which counts as I/O (allowlist below).
IO_MODULES = frozenset({"os", "subprocess", "shutil", "socket", "pathlib"})

# os.path.* and os.environ reads are pure computations over strings /
# process state snapshots; json/hashlib are pure transformers.
IO_EXEMPT_PREFIXES = ("os.path.", "os.environ", "os.cpu_count", "os.getpid")


@dataclass(frozen=True)
class PurityViolation:
    """One impurity found in the closure of a transform root."""

    func: FunctionInfo
    line: int
    kind: str  # "arg-mutation" | "global-write" | "io-call"
    detail: str


@dataclass
class PurityReport:
    root: FunctionInfo
    violations: List[PurityViolation] = field(default_factory=list)
    # function key -> call chain from root, for finding messages
    chains: Dict[Tuple[str, str], List[FunctionInfo]] = field(default_factory=dict)

    @property
    def is_pure(self) -> bool:
        return not self.violations


def _store_root(node: ast.expr) -> Optional[str]:
    """The base name of an attribute/subscript store target chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _call_dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as a dotted string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _function_violations(func: FunctionInfo) -> List[PurityViolation]:
    node = func.node
    params = {
        arg.arg
        for arg in [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]
        if arg.arg != "self"
    }
    imports = func.module.imports
    violations: List[PurityViolation] = []

    def module_of(dotted: str) -> str:
        head = dotted.split(".", 1)[0]
        canonical = imports.get(head, head)
        return canonical.split(".", 1)[0]

    for inner in ast.walk(node):
        if isinstance(inner, (ast.Global, ast.Nonlocal)):
            violations.append(
                PurityViolation(
                    func,
                    inner.lineno,
                    "global-write",
                    f"declares {'global' if isinstance(inner, ast.Global) else 'nonlocal'} "
                    + ", ".join(inner.names),
                )
            )
        elif isinstance(inner, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                inner.targets
                if isinstance(inner, ast.Assign)
                else [inner.target]
            )
            for target in targets:
                flat = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in flat:
                    if isinstance(element, (ast.Attribute, ast.Subscript)):
                        base = _store_root(element)
                        if base is not None and base in params:
                            violations.append(
                                PurityViolation(
                                    func,
                                    element.lineno,
                                    "arg-mutation",
                                    f"stores into parameter '{base}'",
                                )
                            )
        elif isinstance(inner, ast.Call):
            callee = inner.func
            if isinstance(callee, ast.Name):
                if callee.id in IO_BUILTINS:
                    violations.append(
                        PurityViolation(
                            func, inner.lineno, "io-call", f"calls {callee.id}()"
                        )
                    )
            elif isinstance(callee, ast.Attribute):
                if (
                    callee.attr in MUTATING_METHODS
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in params
                ):
                    violations.append(
                        PurityViolation(
                            func,
                            inner.lineno,
                            "arg-mutation",
                            f"calls mutating .{callee.attr}() on parameter "
                            f"'{callee.value.id}'",
                        )
                    )
                dotted = _call_dotted(callee)
                if dotted is not None and "." in dotted:
                    canonical_head = module_of(dotted)
                    canonical = ".".join(
                        [canonical_head, *dotted.split(".")[1:]]
                    )
                    if canonical_head in IO_MODULES and not canonical.startswith(
                        IO_EXEMPT_PREFIXES
                    ):
                        violations.append(
                            PurityViolation(
                                func,
                                inner.lineno,
                                "io-call",
                                f"calls {canonical}()",
                            )
                        )
    return violations


def check_purity(graph: CallGraph, root: FunctionInfo) -> PurityReport:
    """Purity of ``root`` and everything reachable from it.

    Constructor calls (``ClassName(...)`` -> ``__init__``) are included
    in the closure like any resolved edge; ``self``-stores inside
    ``__init__`` are not argument mutations (``self`` is excluded from
    the parameter set), so frozen-dataclass ``object.__setattr__``
    idioms do not false-positive.
    """
    report = PurityReport(root=root)
    closure = graph.reachable([root])
    for func in closure.values():
        found = _function_violations(func)
        if found:
            chain = graph.call_chain(root, func)
            if chain is not None:
                report.chains[func.key()] = chain
            report.violations.extend(found)
    report.violations.sort(key=lambda v: (v.func.relpath, v.line, v.detail))
    return report
