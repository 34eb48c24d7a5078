"""Bench: heterogeneous placement + elastic replanning (BENCH_hetero.json).

``run_and_record`` times the full experiment (cold pool search plus the
three elastic scenarios, each differentially checked against a cold
sweep); the second bench re-runs the scenarios and asserts the headline
claims the ISSUE pins to CI:

* every warm replan selects a plan bit-identical to a cold sweep on the
  changed pool (so a replan is never worse than a cold search);
* warm replans reuse >= 80% of their stage-eval demand in aggregate, and
  each individual replan re-evaluates < 50% of the cold sweep's inner-DP
  invocations;
* the drift replan re-evaluates none: every rank keeps its memory budget,
  and entries are nominal-speed, so the drifted rank's entries serve it at
  its new slowdown.
"""

from repro.experiments import heterogeneous

from .common import run_and_record

#: Aggregate warm-replan cache reuse across the elastic scenarios.
REUSE_FLOOR = 0.80

#: Per-scenario ceiling on re-evaluated stage evals vs the cold sweep.
RECOMPUTE_CEILING = 0.50


def test_heterogeneous_experiment(benchmark):
    """End-to-end regeneration cost of the heterogeneous experiment."""
    result = run_and_record(benchmark, "heterogeneous", fast=True)
    assert len(result.rows) == 4  # cold + leave / join / drift


def test_warm_replan_reuse_floor(benchmark):
    """The acceptance gate: warm == cold everywhere, reuse >= 80%."""
    holder = {}

    def _run():
        holder["rows"] = heterogeneous.run_scenarios(fast=True)
        return holder["rows"]

    benchmark.pedantic(_run, rounds=1, iterations=1)
    replans = [row for row in holder["rows"] if "reuse_rate" in row]
    assert len(replans) == 3

    for row in replans:
        assert row["identical_to_cold"] is True, (
            f"{row['scenario']}: warm replan diverged from cold sweep"
        )
        assert row["inner_dp"] < RECOMPUTE_CEILING * row["cold_inner_dp"], (
            f"{row['scenario']}: re-evaluated {row['inner_dp']} of "
            f"{row['cold_inner_dp']} cold inner-DP invocations"
        )

    drift = next(row for row in replans if row["scenario"].startswith("slowdown drifts"))
    assert drift["inner_dp"] == 0, (
        f"drift re-evaluated {drift['inner_dp']} inner-DP invocations; the "
        f"budget did not change, so every entry should have been reused"
    )

    reused = sum(row["reused"] for row in replans)
    recomputed = sum(row["inner_dp"] for row in replans)
    aggregate = reused / (reused + recomputed)
    benchmark.extra_info.update(
        scenarios=len(replans),
        evals_reused=reused,
        evals_recomputed=recomputed,
        aggregate_reuse=round(aggregate, 4),
        per_scenario_reuse=[round(row["reuse_rate"], 4) for row in replans],
    )
    assert aggregate >= REUSE_FLOOR, (
        f"aggregate warm-replan reuse {aggregate:.0%} below "
        f"{REUSE_FLOOR:.0%} floor"
    )
