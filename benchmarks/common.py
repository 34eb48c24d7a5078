"""Benchmark helpers: run an experiment once, record and print its table.

Every paper table/figure has one bench. ``pytest-benchmark`` measures the
end-to-end regeneration cost (planning + simulation); the reproduced rows
are printed and also written to ``results/<name>.txt`` so the numbers
survive the run.
"""

from __future__ import annotations

import pathlib
import time

from repro.experiments import ExperimentResult, run_experiment

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def best_of(fn, repeats: int = 5) -> float:
    """Least wall time of ``repeats`` calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_and_record(benchmark, name: str, fast: bool = True) -> ExperimentResult:
    """Run experiment ``name`` once under the benchmark timer and save it."""
    result_holder = {}

    def runner():
        result_holder["result"] = run_experiment(name, fast=fast)
        return result_holder["result"]

    benchmark.pedantic(runner, rounds=1, iterations=1)
    result = result_holder["result"]
    rendered = result.render()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")
    print("\n" + rendered)
    return result
