"""Finding model of the adalint static analysis pass.

A :class:`Finding` is one rule violation at one source location. Findings
are plain frozen data so reporters, baselines, and tests can compare and
serialise them without knowing anything about the rule that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: Recognised severities, most severe first.
SEVERITIES: Tuple[str, ...] = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes:
        rule: name of the rule that fired (``"determinism"``, ...).
        severity: ``"error"`` (gates CI) or ``"warning"``.
        path: file the finding is in, relative to the lint root (POSIX
            separators, stable across platforms).
        line: 1-based source line the finding anchors to.
        message: human-readable statement of the violated invariant.
        col: 1-based source column, or 0 when the rule could not anchor
            the finding to a column (file-level findings, old producers).
    """

    rule: str
    severity: str
    path: str
    line: int
    message: str
    col: int = 0

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def location(self) -> str:
        if self.col > 0:
            return f"{self.path}:{self.line}:{self.col}"
        return f"{self.path}:{self.line}"

    def baseline_key(self) -> Tuple[str, str, str]:
        """Identity used by baseline files.

        Deliberately excludes line *and* column, so unrelated edits that
        shift a known finding do not un-baseline it, and baselines
        written before columns existed stay valid.
        """
        return (self.rule, self.path, self.message)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
