"""adalint core: rule registry, file walker, suppressions, baseline, runner.

The framework is deliberately small: a *rule* is an object with a ``name``
and a ``check(module, ctx)`` generator; the runner parses every ``.py``
file under the requested paths once, hands each parsed module to each
rule, and post-processes the findings through inline suppressions and the
optional baseline file.

Inline suppressions are line-scoped comments::

    elapsed = time.time() - t0  # adalint: disable=determinism -- wall clock is observability metadata only

Several rules may be listed (comma-separated) and ``disable=all`` mutes
every rule on the line. The text after ``--`` is the *reason*; a
suppression without one is itself reported (rule ``bare-suppression``), so
every accepted exception in the tree carries a written justification.
Suppressions naming a rule the registry does not know are reported too
(rule ``unknown-suppression``) — they are typos that silently mute
nothing.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis.findings import Finding

#: Rules emitted by the framework itself (always enforceable, never
#: suppressible — muting the meta-rules would reopen the loophole they close).
FRAMEWORK_RULES = ("parse-error", "bare-suppression", "unknown-suppression")

_SUPPRESS_RE = re.compile(
    r"#\s*adalint:\s*disable=([A-Za-z0-9_,\- ]+?)(?:\s*--\s*(.*\S))?\s*$"
)


class Rule:
    """Base class of adalint rules.

    Subclasses set ``name``, ``severity`` and ``description`` and implement
    :meth:`check` as a generator of :class:`Finding`.
    """

    name: str = ""
    severity: str = "error"
    description: str = ""

    def check(self, module: "SourceModule", ctx: "LintContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: "SourceModule", line: int, message: str, col: int = 0
    ) -> Finding:
        return Finding(
            rule=self.name,
            severity=self.severity,
            path=module.relpath,
            line=line,
            message=message,
            col=col,
        )

    def finding_at(
        self, module: "SourceModule", node: ast.AST, message: str
    ) -> Finding:
        """Finding anchored to an AST node, threading line *and* column."""
        return self.finding(
            module,
            getattr(node, "lineno", 1),
            message,
            col=getattr(node, "col_offset", -1) + 1,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.name:
        raise ValueError(f"rule class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def _registry() -> Dict[str, Type[Rule]]:
    """The registry with the domain rules loaded, whatever was imported
    before: importing :mod:`repro.analysis.rules` registers them."""
    import repro.analysis.rules  # noqa: F401  -- importing registers the rules

    return _REGISTRY


def registered_rule_names() -> Tuple[str, ...]:
    return tuple(sorted(_registry()))


def rule_description(name: str) -> str:
    """Description of a registered rule; framework meta-rules included."""
    meta = {
        "parse-error": "file failed to parse; no rule could run on it",
        "bare-suppression": "inline suppression without a written reason",
        "unknown-suppression": "suppression names a rule the registry does not know",
    }
    if name in meta:
        return meta[name]
    cls = _registry().get(name)
    return cls.description if cls is not None else ""


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in name order."""
    return [_REGISTRY[name]() for name in registered_rule_names()]


@dataclass
class SourceModule:
    """One parsed file under lint."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, relpath: str) -> "SourceModule":
        source = path.read_text()
        return cls(
            path=path,
            relpath=relpath,
            source=source,
            tree=ast.parse(source, filename=str(path)),
            lines=source.splitlines(),
        )


#: Process-wide parse cache keyed (resolved path) -> (mtime_ns, size,
#: module). Repeated lint runs in one process — ``--changed`` loops, the
#: validate battery, the test suite — re-parse only files whose stat
#: signature moved. Entries are small (one AST per file) and the tree
#: under lint is bounded, so no eviction policy is needed.
_PARSE_CACHE: Dict[str, Tuple[int, int, "SourceModule"]] = {}


def parse_cached(path: Path, relpath: str) -> "SourceModule":
    """Parse ``path``, reusing the cache when (mtime, size) is unchanged.

    The cached module's ``relpath`` is rewritten to the caller's view:
    the same file can be ``pipeline/tasks.py`` under one lint root and
    ``src/repro/pipeline/tasks.py`` under another.
    """
    import dataclasses

    key = str(path)
    stat = path.stat()
    signature = (stat.st_mtime_ns, stat.st_size)
    entry = _PARSE_CACHE.get(key)
    if entry is not None and (entry[0], entry[1]) == signature:
        module = entry[2]
    else:
        module = SourceModule.parse(path, relpath)
        _PARSE_CACHE[key] = (signature[0], signature[1], module)
    if module.relpath != relpath:
        module = dataclasses.replace(module, relpath=relpath)
    return module


def clear_parse_cache() -> None:
    """Drop every cached parse (tests and benchmarks use this)."""
    _PARSE_CACHE.clear()


@dataclass(frozen=True)
class Suppression:
    """One ``# adalint: disable=...`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str

    def covers(self, rule: str) -> bool:
        return "all" in self.rules or rule in self.rules


def parse_suppressions(lines: Sequence[str]) -> Dict[int, Suppression]:
    """Line number -> suppression, for every disable comment in ``lines``."""
    table: Dict[int, Suppression] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        table[number] = Suppression(
            line=number, rules=rules, reason=(match.group(2) or "").strip()
        )
    return table


class LintContext:
    """Shared state of one lint run: the root findings are reported
    relative to. Every rule is file-local, so this is all a rule needs
    beyond the module under check."""

    def __init__(self, root: Path) -> None:
        self.root = root


@dataclass
class LintResult:
    """Outcome of one :func:`run_lint` run.

    Attributes:
        findings: unsuppressed, non-baselined findings, sorted by location.
        suppressed: findings muted by an inline suppression comment.
        baselined: findings muted by the baseline file.
        files_scanned: number of ``.py`` files checked.
        rules: names of the rules that ran.
    """

    findings: List[Finding]
    suppressed: List[Finding]
    baselined: List[Finding]
    files_scanned: int
    rules: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths``, deterministic order, no dupes."""
    seen: Set[Path] = set()
    ordered: List[Path] = []
    for path in paths:
        path = Path(path).resolve()
        if path.is_file():
            candidates = [path]
        else:
            candidates = sorted(path.rglob("*.py"))
        for candidate in candidates:
            if candidate.suffix != ".py" or candidate in seen:
                continue
            if any(
                part == "__pycache__" or part.startswith(".")
                for part in candidate.parts[1:]
            ):
                continue
            seen.add(candidate)
            ordered.append(candidate)
    return ordered


def load_baseline(path: Path) -> Set[Tuple[str, str, str]]:
    """Read a baseline file: the findings a tree is allowed to keep.

    The file is the ``findings`` list of a JSON report (or a full report);
    entries match on ``(rule, path, message)`` — line-insensitive, so
    unrelated edits do not invalidate the baseline.
    """
    document = json.loads(Path(path).read_text())
    entries = document["findings"] if isinstance(document, dict) else document
    return {
        (entry["rule"], entry["path"], entry["message"]) for entry in entries
    }


def _lint_root(paths: Sequence[Path]) -> Path:
    resolved = [Path(path).resolve() for path in paths]
    if len(resolved) == 1:
        only = resolved[0]
        return only if only.is_dir() else only.parent
    import os

    return Path(os.path.commonpath([str(path) for path in resolved]))


#: Public name for the root-inference rule: the directory findings are
#: reported relative to, given the paths a run was asked to lint. The CLI
#: uses it to pin ``--changed`` runs to the same root as full runs.
default_lint_root = _lint_root


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Set[Tuple[str, str, str]]] = None,
    root: Optional[Path] = None,
) -> LintResult:
    """Run ``rules`` (default: every registered rule) over ``paths``.

    Findings are filtered through inline suppressions first and the
    ``baseline`` set second; framework meta-findings (parse errors, bare
    or unknown suppressions) bypass both filters by design.
    """
    if rules is None:
        rules = default_rules()
    paths = [Path(path) for path in paths]
    root = Path(root).resolve() if root is not None else _lint_root(paths)
    ctx = LintContext(root)
    known_rules = set(registered_rule_names()) | {rule.name for rule in rules}

    raw: List[Finding] = []
    modules: List[SourceModule] = []
    for path in iter_python_files(paths):
        try:
            relpath = path.relative_to(root).as_posix()
        except ValueError:
            relpath = path.as_posix()
        try:
            module = parse_cached(path, relpath)
        except SyntaxError as err:
            raw.append(
                Finding(
                    rule="parse-error",
                    severity="error",
                    path=relpath,
                    line=err.lineno or 1,
                    message=f"file does not parse: {err.msg}",
                    col=err.offset or 0,
                )
            )
            continue
        modules.append(module)

    files_scanned = len(modules)
    for module in modules:
        for rule in rules:
            raw.extend(rule.check(module, ctx))
        for suppression in parse_suppressions(module.lines).values():
            if not suppression.reason:
                raw.append(
                    Finding(
                        rule="bare-suppression",
                        severity="error",
                        path=module.relpath,
                        line=suppression.line,
                        message=(
                            "suppression carries no reason; write "
                            "'# adalint: disable=<rule> -- <why this is sound>'"
                        ),
                    )
                )
            for name in suppression.rules:
                if name != "all" and name not in known_rules:
                    raw.append(
                        Finding(
                            rule="unknown-suppression",
                            severity="error",
                            path=module.relpath,
                            line=suppression.line,
                            message=f"suppression names unknown rule {name!r}",
                        )
                    )

    suppression_tables = {
        module.relpath: parse_suppressions(module.lines) for module in modules
    }
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    baselined: List[Finding] = []
    for finding in sorted(raw, key=Finding.sort_key):
        if finding.rule not in FRAMEWORK_RULES:
            table = suppression_tables.get(finding.path, {})
            entry = table.get(finding.line)
            if entry is not None and entry.covers(finding.rule) and entry.reason:
                suppressed.append(finding)
                continue
            if baseline and finding.baseline_key() in baseline:
                baselined.append(finding)
                continue
        findings.append(finding)

    return LintResult(
        findings=findings,
        suppressed=suppressed,
        baselined=baselined,
        files_scanned=files_scanned,
        rules=tuple(rule.name for rule in rules),
    )
