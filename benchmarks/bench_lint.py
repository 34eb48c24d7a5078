"""Bench: the adalint pass over the real ``src/repro`` tree.

Three paths matter operationally:

* **cold** — a fresh process linting the whole tree (CI's static-analysis
  job): every file parsed and checked.
* **warm** — a re-run in the same process (editor/watch loops): the
  (path, mtime, size)-keyed parse cache short-circuits every parse, so
  the run should be dominated by rule evaluation, not ``ast.parse``.
* **changed-scope** — ``--changed``-style runs over a handful of files
  with relpaths still rooted at the tree (pre-commit hooks).

The floors asserted here are deliberately loose (CI runners jitter); the
point is the *shape* — warm must actually beat cold, and a small scoped
run must not pay the full-tree price.
"""

from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.framework import clear_parse_cache

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"

#: A small, stable changed-set stand-in: the task model, the lowering
#: and the reference engine.
CHANGED_SCOPE = [
    SRC_REPRO / "pipeline" / "simulator.py",
    SRC_REPRO / "pipeline" / "tasks.py",
    SRC_REPRO / "pipeline" / "compiled.py",
]


def _cold_lint():
    clear_parse_cache()
    return run_lint([SRC_REPRO])


def test_lint_cold_full_tree(benchmark):
    """Full walk from an empty parse cache — the CI-job path."""
    result = benchmark(_cold_lint)
    assert result.findings == [] and result.files_scanned > 50


def test_lint_warm_full_tree(benchmark):
    """Full walk with every parse cached — the watch-loop path."""
    clear_parse_cache()
    run_lint([SRC_REPRO])  # populate
    result = benchmark(lambda: run_lint([SRC_REPRO]))
    assert result.findings == [] and result.files_scanned > 50


def test_lint_changed_scope(benchmark):
    """A 3-file scoped run rooted at the tree — the pre-commit path."""
    clear_parse_cache()
    result = benchmark(lambda: run_lint(CHANGED_SCOPE, root=SRC_REPRO))
    assert result.findings == [] and result.files_scanned == len(CHANGED_SCOPE)


def test_warm_beats_cold():
    """The cache must be doing real work: warm < cold on a best-of basis,
    and the scoped run must undercut both."""
    import time

    def best_of(fn, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    cold = best_of(_cold_lint)
    warm = best_of(lambda: run_lint([SRC_REPRO]))
    scoped = best_of(lambda: run_lint(CHANGED_SCOPE, root=SRC_REPRO))
    assert warm < cold, (warm, cold)
    assert scoped < cold, (scoped, cold)
