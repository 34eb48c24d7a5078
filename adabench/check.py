"""Golden-answer comparison for benchmark ops.

Decisions (strategies, stage boundaries, saved-unit counts, feasibility,
placements, audit verdicts) must match exactly; floats must match to a
relative ``REL_TOL``. That tolerance admits last-bit drift from a change
that reorders floating-point arithmetic, but not a changed decision.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional, Tuple

REL_TOL = 1e-9

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load_golden(workload: str) -> Dict[str, Dict]:
    with open(golden_path(workload)) as handle:
        return json.load(handle)["entries"]


def normalise(record: Dict) -> Dict:
    """The record as it reads back from a golden file (tuples -> lists)."""
    return json.loads(json.dumps(record))


def matches(actual, expected) -> bool:
    """Exact for decisions, relative ``REL_TOL`` for floats."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return type(actual) is type(expected) and actual == expected
    if isinstance(expected, int) and isinstance(actual, int):
        return actual == expected
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        a, e = float(actual), float(expected)
        if a == e:
            return True
        if math.isnan(a) or math.isnan(e) or math.isinf(a) or math.isinf(e):
            return False
        return abs(a - e) <= REL_TOL * max(abs(a), abs(e))
    if expected is None or actual is None:
        return actual is None and expected is None
    if isinstance(expected, str):
        return actual == expected
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(matches(a, e) for a, e in zip(actual, expected))
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(matches(actual[k], expected[k]) for k in expected)
        )
    return False


def _first_float_path(record, path=()) -> Optional[Tuple]:
    if isinstance(record, float) and record != 0.0 and math.isfinite(record):
        return path
    if isinstance(record, dict):
        items = sorted(record.items())
    elif isinstance(record, list):
        items = list(enumerate(record))
    else:
        return None
    for key, value in items:
        found = _first_float_path(value, path + (key,))
        if found is not None:
            return found
    return None


def _set_path(record, path: Tuple, value) -> None:
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = value


def _get_path(record, path: Tuple):
    for key in path:
        record = record[key]
    return record


def negative_controls(record: Dict) -> List[Tuple[str, Dict]]:
    """Mutations of a correct record that the check must reject.

    A float nudged by a relative 1e-6 and, where the record holds a
    partition, the first stage boundary shifted by one layer.
    """
    controls = []
    path = _first_float_path(record)
    if path is not None:
        nudged = normalise(record)
        _set_path(nudged, path, _get_path(nudged, path) * (1.0 + 1e-6))
        controls.append(("float x (1 + 1e-6) at " + "/".join(map(str, path)), nudged))
    boundaries = record.get("boundaries") or []
    if len(boundaries) >= 2:
        shifted = normalise(record)
        shifted["boundaries"][0][1] += 1
        shifted["boundaries"][1][0] += 1
        controls.append(("stage 0/1 boundary shifted by one layer", shifted))
    return controls
