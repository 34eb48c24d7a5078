"""Whole-program symbol table and import graph for adalint.

The PR-5 rules were strictly file-local: each ``check()`` saw one parsed
module and could at best pull in other files by exact path. The
interprocedural rule families (transform-purity, float-order-divergence)
need to answer *project-level* questions — which function does this call
resolve to, and what does everything it reaches do.
:class:`ProjectIndex` is the substrate they share: one pass over every
``.py`` file under a tree root building

* a **symbol table** per module — functions (qualified ``Class.method``
  names) and classes;
* an **import graph** — per-module alias tables mapping local names to
  canonical dotted targets, plus suffix-tolerant module resolution so the
  same machinery works on the real tree (``repro.pipeline.tasks``) and on
  fixture trees that mirror its layout (``pipeline/tasks.py`` imported as
  ``.tasks``).

Indexes are built lazily through
:meth:`~repro.analysis.framework.LintContext.project_at` and cached per
root, so every rule consulting the same tree shares one index and one
parse of every file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.framework import LintContext, SourceModule

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_project",
    "dotted_name_of",
    "find_function",
    "import_aliases",
]


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    module: "ModuleInfo"
    qualname: str  # "lower" or "Class.lower"
    node: ast.FunctionDef
    cls: Optional[str] = None  # enclosing class name, if a method

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def relpath(self) -> str:
        return self.module.relpath

    def key(self) -> Tuple[str, str]:
        """Stable project-wide identity: (module relpath, qualname)."""
        return (self.module.relpath, self.qualname)


def dotted_name_of(relpath: str) -> str:
    """``pipeline/simulator.py`` -> ``pipeline.simulator``; packages
    (``__init__.py``) map to their directory's dotted name."""
    parts = relpath[: -len(".py")].split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def import_aliases(tree: ast.Module, self_dotted: str) -> Dict[str, str]:
    """Alias -> canonical dotted target, for *every* import in the module.

    Function-local imports (the repo's lazy-import idiom) are included:
    the table is an over-approximation scoped to the whole module, which
    is sound for the read-set and call-resolution analyses built on it.
    Relative imports are canonicalised against ``self_dotted``.
    """
    aliases: Dict[str, str] = {}
    package = self_dotted.rsplit(".", 1)[0] if "." in self_dotted else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # ``from .tasks import Schedule`` inside pipeline/x.py
                # resolves against the enclosing package.
                hops = self_dotted.split(".")[: -(node.level)] if self_dotted else []
                prefix = ".".join(hops) if hops else package
                base = f"{prefix}.{base}" if prefix and base else (prefix or base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                aliases[alias.asname or alias.name] = target
    return aliases


def find_function(tree: ast.Module, dotted: str) -> Optional[ast.FunctionDef]:
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


@dataclass
class ModuleInfo:
    """Symbol table of one module in a :class:`ProjectIndex`."""

    source: SourceModule
    dotted: str
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)

    @property
    def relpath(self) -> str:
        return self.source.relpath

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)


def _index_module(source: SourceModule) -> ModuleInfo:
    info = ModuleInfo(source=source, dotted=dotted_name_of(source.relpath))
    info.imports = import_aliases(source.tree, info.dotted)
    for stmt in source.tree.body:
        if isinstance(stmt, ast.FunctionDef):
            info.functions[stmt.name] = FunctionInfo(info, stmt.name, stmt)
        elif isinstance(stmt, ast.ClassDef):
            info.classes[stmt.name] = stmt
            for body_stmt in stmt.body:
                if isinstance(body_stmt, ast.FunctionDef):
                    qualname = f"{stmt.name}.{body_stmt.name}"
                    info.functions[qualname] = FunctionInfo(
                        info, qualname, body_stmt, cls=stmt.name
                    )
    return info


class ProjectIndex:
    """Symbol tables and the import graph of every module under a root."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.modules: Dict[str, ModuleInfo] = {}  # keyed by posix relpath
        self._by_dotted: Dict[str, ModuleInfo] = {}
        self._call_graph: Optional[object] = None

    def call_graph(self) -> "object":
        """The project's :class:`~repro.analysis.callgraph.CallGraph`,
        built once on first request (rules sharing an index share it)."""
        if self._call_graph is None:
            from repro.analysis.callgraph import build_call_graph

            self._call_graph = build_call_graph(self)
        return self._call_graph

    def add(self, source: SourceModule) -> ModuleInfo:
        info = _index_module(source)
        self.modules[info.relpath] = info
        if info.dotted:
            self._by_dotted[info.dotted] = info
        return info

    def module(self, relpath: str) -> Optional[ModuleInfo]:
        """Module by relpath; falls back to suffix matching so contract
        paths (``pipeline/tasks.py``) hit regardless of the lint root."""
        if relpath in self.modules:
            return self.modules[relpath]
        suffix = "/" + relpath
        matches = [
            info
            for path, info in sorted(self.modules.items())
            if path.endswith(suffix)
        ]
        return matches[0] if len(matches) == 1 else None

    def resolve_module(self, dotted: str) -> Optional[ModuleInfo]:
        """Resolve an imported dotted module name to an indexed module.

        Tries the full name, then progressively strips leading package
        components: inside a tree rooted at ``src/repro``, the import
        ``repro.pipeline.tasks`` resolves to the indexed module
        ``pipeline.tasks``. Fixture trees that import relatively get the
        exact-match fast path.
        """
        parts = dotted.split(".")
        for start in range(len(parts)):
            candidate = ".".join(parts[start:])
            info = self._by_dotted.get(candidate)
            if info is not None:
                return info
        return None

    def function(self, relpath: str, qualname: str) -> Optional[FunctionInfo]:
        info = self.module(relpath)
        return info.function(qualname) if info is not None else None

    def resolve_imported(
        self, module: ModuleInfo, alias: str
    ) -> Optional[Tuple[ModuleInfo, Optional[str]]]:
        """What an imported name refers to: ``(module, symbol-or-None)``.

        ``symbol`` is ``None`` when the alias names a module itself
        (``import repro.pipeline.perturb as perturb``); otherwise it is
        the terminal symbol of a from-import.
        """
        dotted = module.imports.get(alias)
        if dotted is None:
            return None
        target = self.resolve_module(dotted)
        if target is not None:
            return (target, None)
        if "." in dotted:
            base, symbol = dotted.rsplit(".", 1)
            target = self.resolve_module(base)
            if target is not None:
                return (target, symbol)
        return None


def build_project(ctx: LintContext, root: Path) -> ProjectIndex:
    """Index every ``.py`` file under ``root``, sharing ``ctx``'s parses."""
    project = ProjectIndex(root)
    for path in sorted(root.rglob("*.py")):
        if any(
            part == "__pycache__" or part.startswith(".")
            for part in path.parts[1:]
        ):
            continue
        source = ctx.module_at(path)
        if source is None:
            continue
        # Re-root the relpath against this project's root so contract
        # paths compare stably even when the lint root differs.
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = source.relpath
        if relpath != source.relpath:
            import dataclasses

            source = dataclasses.replace(source, relpath=relpath)
        project.add(source)
    return project
