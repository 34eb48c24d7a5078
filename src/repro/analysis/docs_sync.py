"""Docs drift gate: the hand-written docs must follow the code's registries.

The docs name things the code registers, and nothing ties the two
together but this module, which imports each registry and diffs it
against the document that promises to describe it. Which checks a
document gets is decided by its file name:

* ``USAGE.md`` — the adalint rule table ("Static analysis: adalint")
  must list exactly the registered rules with their severities (``adapipe
  lint --list-rules`` is generated from the same registry);
* ``EXPERIMENTS.md`` — the text must name every experiment id and every
  baseline method.

The rule-table rows are recognised anywhere in the file by shape::

    | `rule-name` | severity | anything |

A registry member counts as named when it occurs as a whole word
(``figure10`` does not name ``figure1``).

Run it directly (exit 1 on drift)::

    PYTHONPATH=src python -m repro.analysis.docs_sync docs/USAGE.md EXPERIMENTS.md
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path
from typing import Dict, List

#: A table row whose first cell is a backticked rule name and whose
#: second cell is a bare severity word.
_ROW = re.compile(r"^\|\s*`(?P<rule>[a-z][a-z0-9-]*)`\s*\|\s*(?P<severity>\w+)\s*\|")

#: The document carrying the adalint rule table.
RULE_TABLE_DOC = "USAGE.md"

#: (document file name, what a member is, registry module, registry
#: symbol): the document must name every member of the registry.
NAMED_REGISTRIES = (
    ("EXPERIMENTS.md", "experiment", "repro.experiments.registry", "EXPERIMENTS"),
    ("EXPERIMENTS.md", "baseline method", "repro.baselines.methods", "ALL_METHODS"),
)


def documented_rules(text: str) -> Dict[str, str]:
    """rule name -> documented severity, from USAGE.md table rows."""
    rows = {}
    for line in text.splitlines():
        match = _ROW.match(line.strip())
        if match:
            rows[match.group("rule")] = match.group("severity")
    return rows


def diff_rules(doc_path: Path) -> List[str]:
    """Human-readable drift lines; empty when docs and registry agree."""
    from repro.analysis import default_rules

    registered = {rule.name: rule.severity for rule in default_rules()}
    documented = documented_rules(doc_path.read_text())
    problems = []
    for name in sorted(set(registered) - set(documented)):
        problems.append(
            f"rule {name!r} is registered but missing from the "
            f"{doc_path.name} rule table"
        )
    for name in sorted(set(documented) - set(registered)):
        problems.append(
            f"rule {name!r} is documented in {doc_path.name} but not "
            "registered (renamed or removed?)"
        )
    for name in sorted(set(registered) & set(documented)):
        if registered[name] != documented[name]:
            problems.append(
                f"rule {name!r}: registry severity {registered[name]!r} "
                f"!= documented {documented[name]!r}"
            )
    return problems


def missing_names(doc_path: Path) -> List[str]:
    """Registry members the document's :data:`NAMED_REGISTRIES` rows
    require but the text never names."""
    text = doc_path.read_text()
    problems = []
    for doc_name, what, module, symbol in NAMED_REGISTRIES:
        if doc_path.name != doc_name:
            continue
        for name in getattr(importlib.import_module(module), symbol):
            if not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", text):
                problems.append(
                    f"{what} {name!r} ({module}.{symbol}) is not named in "
                    f"{doc_path.name}"
                )
    return problems


def diff_docs(doc_path: Path) -> List[str]:
    """Every drift line for one document, by its file name."""
    problems = diff_rules(doc_path) if doc_path.name == RULE_TABLE_DOC else []
    return problems + missing_names(doc_path)


def main(argv: List[str]) -> int:
    checked = {RULE_TABLE_DOC} | {row[0] for row in NAMED_REGISTRIES}
    if not argv:
        print("usage: python -m repro.analysis.docs_sync DOC.md [DOC.md ...]",
              file=sys.stderr)
        return 2
    doc_paths = [Path(arg) for arg in argv]
    for doc_path in doc_paths:
        if not doc_path.is_file():
            print(f"docs_sync: no such file: {doc_path}", file=sys.stderr)
            return 2
        if doc_path.name not in checked:
            print(
                f"docs_sync: nothing to check in {doc_path.name}; checked "
                f"documents: {sorted(checked)}",
                file=sys.stderr,
            )
            return 2
    problems = [problem for path in doc_paths for problem in diff_docs(path)]
    for problem in problems:
        print(f"docs_sync: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"docs_sync: {', '.join(argv)} match the registries")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
