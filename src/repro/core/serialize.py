"""Plan serialization: JSON round-trip for pipeline plans.

A plan produced by the search engine is the hand-off artifact to an
execution engine (in the paper: the Megatron/MindSpore integration reads
the searched strategy). This module serialises
:class:`~repro.core.plan.PipelinePlan` to a stable, human-auditable JSON
document and back, so plans can be searched once, stored, diffed, and
replayed.
"""

from __future__ import annotations

import contextlib
import json
import operator
import os
from typing import Any, Callable, Dict, Optional, Tuple, Type, TypeVar

from repro.config import require_non_negative
from repro.content import CodecError, from_json, to_json
from repro.core.plan import PipelinePlan

FORMAT_VERSION = 1

_T = TypeVar("_T")


class PlanFormatError(ValueError):
    """Raised on malformed or incompatible plan documents."""


def plan_to_dict(plan: PipelinePlan) -> Dict[str, Any]:
    """Serialise a plan to plain JSON-compatible data: every field of the
    plan, its stages and their memory, plus the format version."""
    return {"format_version": FORMAT_VERSION, **to_json(plan)}


def plan_from_dict(data: Dict[str, Any]) -> PipelinePlan:
    """Reconstruct a plan from :func:`plan_to_dict` output.

    Raises:
        PlanFormatError: another format version, a field that is missing,
            unknown or of the wrong JSON type (named by its dotted path),
            or a plan :func:`validate_plan` rejects.
    """
    if not isinstance(data, dict):
        raise PlanFormatError(f"plan document must be a JSON object, got {data!r}")
    body = dict(data)
    version = body.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise PlanFormatError(
            f"unsupported plan format version {version} (want {FORMAT_VERSION})"
        )
    try:
        plan = from_json(PipelinePlan, body)
    except CodecError as exc:
        raise PlanFormatError(f"malformed plan document: {exc}") from exc
    validate_plan(plan)
    return plan


def plan_signature(plan: PipelinePlan) -> Dict[str, Any]:
    """The plan document without its volatile metadata.

    Two plans with equal signatures encode the same searched decisions —
    partition, recomputation, costs — even when search-observability
    counters (wall clocks, cache hits) differ between runs. This is the
    comparison the sweep-equivalence guarantee is stated over.
    """
    document = plan_to_dict(plan)
    document.pop("metadata", None)
    return document


#: The numbers of each stage that :func:`validate_plan` range-checks, as
#: attribute paths below ``stages[k]``.
_STAGE_NUMBERS: Tuple[str, ...] = (
    "forward_time",
    "backward_time",
    "memory.static_bytes",
    "memory.buffer_bytes",
    "memory.saved_per_microbatch",
)


def _check_numbers(plan: PipelinePlan) -> None:
    """Reject a NaN or negative time or byte count, and an infinite one in a
    feasible plan, naming its dotted path."""
    allow_inf = not plan.feasible  # an infeasible stage's backward is inf
    if plan.modeled_iteration_time is not None:
        require_non_negative(
            "modeled_iteration_time",
            plan.modeled_iteration_time,
            allow_inf=allow_inf,
            error=PlanFormatError,
        )
    for index, stage in enumerate(plan.stages):
        for path in _STAGE_NUMBERS:
            require_non_negative(
                f"stages[{index}].{path}",
                operator.attrgetter(path)(stage),
                allow_inf=allow_inf,
                error=PlanFormatError,
            )


def validate_plan(plan: PipelinePlan) -> None:
    """Structural and range checks: contiguous stage coverage, consistent
    indices, and times and byte counts that are numbers >= 0 (``inf``
    only in an infeasible plan)."""
    _check_numbers(plan)
    if not plan.stages:
        # Stage-less documents encode "no valid partition exists" (e.g.
        # more stages than layers); they are only legal when infeasible.
        if plan.feasible:
            raise PlanFormatError("feasible plan with no stages")
        return
    # Interleaved plans hold v model chunks per device: v * p stages.
    if len(plan.stages) % plan.parallel.pipeline_parallel != 0:
        raise PlanFormatError(
            f"{len(plan.stages)} stages for pipeline parallel size "
            f"{plan.parallel.pipeline_parallel}"
        )
    cursor = plan.stages[0].layer_start
    for index, stage in enumerate(plan.stages):
        if stage.stage != index:
            raise PlanFormatError(f"stage index {stage.stage} at position {index}")
        if stage.layer_start != cursor:
            raise PlanFormatError(
                f"stage {index} starts at layer {stage.layer_start}, "
                f"expected {cursor}"
            )
        if stage.layer_end <= stage.layer_start:
            raise PlanFormatError(f"stage {index} is empty")
        cursor = stage.layer_end


def atomic_write_text(text: str, path: str) -> None:
    """Write ``text`` and a final newline to ``PATH.tmp``, then rename it
    over ``path``.

    The rename means a kill mid-write never corrupts the previous file. A
    failed write or rename removes ``PATH.tmp`` and re-raises.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _json_text(document: Dict[str, Any], indent: Optional[int]) -> str:
    # Without ``indent``, ``json.dumps`` runs the C encoder.
    return json.dumps(document, indent=indent, sort_keys=True)


def atomic_write_json(document: Dict[str, Any], path: str, indent: Optional[int] = None) -> None:
    """Encode in full, then :func:`atomic_write_text`.

    Encoding before the temp file opens means an unencodable document
    leaves no partial file.
    """
    atomic_write_text(_json_text(document, indent), path)


def read_json_file(
    path: str, decode: Callable[[Dict[str, Any]], _T], error: Type[ValueError]
) -> _T:
    """Read one JSON object from ``path`` and decode it.

    The one reader of plans, cache files and checkpoints. Every failure
    raises the caller's ``error`` with a message that starts with
    ``path``: a path that cannot be read (missing, a directory), invalid
    JSON, a document that is not an object, or an ``error`` that
    ``decode`` raises.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise error(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise error(f"{path}: not a JSON object (got {type(document).__name__})")
    try:
        return decode(document)
    except error as exc:
        raise error(f"{path}: {exc}") from exc


def write_text_file(text: str, path: str, error: Type[ValueError]) -> None:
    """:func:`atomic_write_text`, the one writer of plans, cache files,
    checkpoints and reports: a path that cannot be written (a directory, a
    missing parent) raises the caller's ``error``, naming ``path``."""
    try:
        atomic_write_text(text, path)
    except OSError as exc:
        raise error(f"{path}: cannot write: {exc}") from exc


def write_json_file(
    document: Dict[str, Any],
    path: str,
    error: Type[ValueError],
    indent: Optional[int] = None,
) -> None:
    """Encode in full, then :func:`write_text_file`."""
    write_text_file(_json_text(document, indent), path, error)


def dump_plan(plan: PipelinePlan, path: str) -> None:
    """Write a plan document to ``path`` (write-then-rename).

    Raises:
        PlanFormatError: ``path`` cannot be written; the message starts
            with ``path``.
    """
    write_json_file(plan_to_dict(plan), path, PlanFormatError, indent=2)


def load_plan(path: str) -> PipelinePlan:
    """Read a plan document from ``path``.

    Raises:
        PlanFormatError: the file cannot be read, is not valid JSON, or
            holds a document :func:`plan_from_dict` rejects. The message
            starts with ``path``.
    """
    return read_json_file(path, plan_from_dict, PlanFormatError)
