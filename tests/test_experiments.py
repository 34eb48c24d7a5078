"""Tests for the experiment harness: each artifact's key claims hold.

These are the repository's reproduction assertions — if one fails, the
corresponding paper claim no longer reproduces.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.config import ConfigError, ParallelConfig, TrainingConfig


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "heterogeneous",
            "robustness",
            "table3",
            "table4",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            get_experiment("figure99")


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("figure1", fast=True)

    def test_has_six_rows(self, result):
        assert len(result.rows) == 6

    def test_no_recompute_memory_decreases_with_stage(self, result):
        for row in result.rows:
            if row[0].startswith("No"):
                values = [float(v) for v in row[2:]]
                assert values == sorted(values, reverse=True)

    def test_no_recompute_exceeds_limit_at_long_sequences(self, result):
        limit = 80.0
        by_seq = {row[1]: row for row in result.rows if row[0].startswith("No")}
        assert float(by_seq["16384"][2]) > limit  # stage 0 blows up
        assert float(by_seq["4096"][9]) < limit  # last stage always fits

    def test_full_recompute_stays_under_limit(self, result):
        for row in result.rows:
            if row[0].startswith("Full"):
                assert all(float(v) < 80.0 for v in row[2:])

    def test_memory_grows_with_sequence_length(self, result):
        no_rows = [row for row in result.rows if row[0].startswith("No")]
        stage0 = [float(row[2]) for row in no_rows]
        assert stage0 == sorted(stage0)


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("figure2", fast=True)

    def test_same_makespan(self, result):
        assert result.rows[0][1] == result.rows[1][1]

    def test_gpipe_pins_all_microbatches(self, result):
        gpipe = next(r for r in result.rows if r[0] == "GPipe")
        assert gpipe[3] == "[6, 6, 6]"

    def test_1f1b_pins_p_minus_s(self, result):
        onef = next(r for r in result.rows if "1F1B" in r[0])
        assert onef[3] == "[3, 2, 1]"


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("table4", fast=True)

    def test_saved_units_grow_along_pipeline(self, result):
        for row in result.rows:
            if row[1] == "Saved Units":
                values = [int(v) for v in row[2:]]
                # Monotone up to head-layer composition: the last stage
                # trades transformer units for the (smaller) head units.
                assert all(a <= b + 6 for a, b in zip(values, values[1:])), row[0]
                assert values[0] < values[4] < values[5] + 6
                assert values[0] * 1.4 < values[-1]

    def test_adapipe_shifts_layers_late(self, result):
        layers = next(
            [int(v) for v in row[2:]]
            for row in result.rows
            if row[0] == "AdaPipe" and row[1] == "# Layers"
        )
        # Later half of the pipeline holds at least as many layers.
        assert sum(layers[4:]) >= sum(layers[:4])

    def test_even_partitioning_layers_uniform(self, result):
        layers = next(
            [int(v) for v in row[2:]]
            for row in result.rows
            if row[0] == "Even Partitioning" and row[1] == "# Layers"
        )
        assert max(layers) - min(layers) <= 1


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("figure8", fast=True)

    def test_dapple_non_is_oom_and_imbalanced(self, result):
        row = next(r for r in result.rows if r[0] == "DAPPLE-Non")
        assert row[-1] == "OOM"
        stage0, stage7 = float(row[1]), float(row[8])
        assert stage0 / stage7 == pytest.approx(2.33, rel=0.15)  # paper: 2.33x

    def test_adaptive_methods_fit(self, result):
        for name in ("Even Partitioning", "AdaPipe"):
            row = next(r for r in result.rows if r[0] == name)
            assert row[-1] == "yes"
            assert all(float(v) <= 80.0 for v in row[1:9])


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("figure9", fast=True)

    def test_even_partitioning_decreases(self, result):
        row = next(r for r in result.rows if r[0] == "Even Partitioning")
        times = [float(v) for v in row[1:9]]
        assert times[0] > times[-1]

    def test_adapipe_flatter_than_even_partitioning(self, result):
        even = next(r for r in result.rows if r[0] == "Even Partitioning")
        ada = next(r for r in result.rows if r[0] == "AdaPipe")
        assert float(ada[-1][:-1]) <= float(even[-1][:-1])


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("figure10", fast=True)

    def test_loss_decreases(self, result):
        first = float(result.rows[0][1])
        last = float(result.rows[-1][1])
        assert last < first - 0.5

    def test_same_seed_plans_identical(self, result):
        gap_note = next(n for n in result.notes if "max |loss gap|" in n)
        assert "0.00e+00" in gap_note

    def test_curves_track_each_other(self, result):
        for row in result.rows:
            dapple, adapipe = float(row[1]), float(row[2])
            assert abs(dapple - adapipe) < 0.5


class TestCli:
    def test_list_and_run(self, capsys):
        from repro.experiments.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out and "table3" in out

        assert main(["run", "figure2", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "GPipe" in out and "1F1B" in out

    def test_robustness_subcommand(self, capsys, tmp_path):
        from repro.experiments.cli import main

        svg = tmp_path / "crit.svg"
        code = main([
            "robustness", "--model", "bert-large", "--seq", "512",
            "--batch", "16", "--tp", "1", "--pp", "4", "--dp", "1",
            "--draws", "4", "--sigma", "0.05", "--device-factor", "2=1.5",
            "--svg", str(svg),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "device criticality" in out
        assert "most critical device: 2" in out
        assert svg.read_text().startswith("<svg")

    def test_plan_robust_objective_flag(self, capsys):
        from repro.experiments.cli import main

        code = main([
            "plan", "--model", "bert-large", "--seq", "512", "--batch", "16",
            "--tp", "1", "--pp", "2", "--dp", "2", "--robust-objective",
            "p95", "--robust-draws", "4", "--robust-sigma", "0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "robust objective p95 over 4 draws selects" in out

    ROBUSTNESS = [
        "robustness", "--model", "bert-large", "--seq", "512", "--batch", "16",
        "--tp", "1", "--pp", "4", "--dp", "1", "--draws", "4",
    ]

    @pytest.mark.parametrize("flag", ["--json", "--svg"])
    def test_robustness_unwritable_output_exits_2(self, flag, tmp_path, capsys):
        """An output path that is a directory: one line, exit 2, no
        ``PATH.tmp`` left behind."""
        from repro.experiments.cli import main

        directory = tmp_path / "reports"
        directory.mkdir()
        assert main([*self.ROBUSTNESS, flag, str(directory)]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert err.startswith(f"error: {directory}: cannot write: ")
        assert not (tmp_path / "reports.tmp").exists()
        assert directory.is_dir()

    @pytest.mark.parametrize("factor", ["nan", "inf", "0", "-1"])
    def test_bad_device_factor_is_one_error_line(self, factor):
        """NaN, infinite, zero and negative factors are input errors, named
        by rank, for both commands that take them."""
        from repro.experiments.cli import main

        plan = [
            "plan", "--model", "bert-large", "--seq", "512", "--batch", "16",
            "--devices", "2", "--tp", "1", "--pp", "2", "--dp", "1",
            "--robust-objective", "p95", "--robust-draws", "4",
        ]
        for argv in (
            [*self.ROBUSTNESS, "--device-factor", f"2={factor}"],
            [*plan, "--robust-device-factor", f"1={factor}"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            message = str(excinfo.value.code)
            assert message.startswith("error: device factor of rank ")
            assert "must be finite and > 0" in message
            assert "\n" not in message

    @pytest.mark.parametrize("slowdown", ["nan", "inf", "0", "-1"])
    def test_bad_device_pool_slowdown_is_one_error_line(self, slowdown, tmp_path):
        """A NaN, infinite, zero or negative ``*SLOWDOWN`` in a device pool
        is an input error, for both commands that take a pool."""
        from repro.core.search import PlannerContext, plan_adapipe
        from repro.core.serialize import dump_plan
        from repro.experiments.cli import main
        from repro.hardware.cluster import cluster_a
        from repro.model.spec import bert_large

        plan_path = tmp_path / "plan.json"
        dump_plan(
            plan_adapipe(PlannerContext(
                cluster_a(1), bert_large(),
                TrainingConfig(sequence_length=512, global_batch_size=8),
                ParallelConfig(1, 2, 1),
            )),
            str(plan_path),
        )
        pool = f"a100*{slowdown},a100"
        for argv in (
            ["plan", "--model", "bert-large", "--seq", "512", "--batch", "8",
             "--devices", "2", "--tp", "1", "--pp", "2", "--dp", "1",
             "--device-pool", pool],
            ["replan", "--model", "bert-large", "--plan", str(plan_path),
             "--device-pool", pool],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            message = str(excinfo.value.code)
            assert message.startswith("error: --device-pool: ")
            assert "slowdown must be finite and > 0" in message
            assert "\n" not in message

    def test_plan_hit_rate_counts_evaluator_hits(self, capsys, tmp_path):
        """The default loop's hit rate is the searched plans' evaluator
        hits over their lookups, as SweepStats counts them."""
        import json

        from repro.experiments.cli import main

        path = tmp_path / "plan.json"
        assert main([
            "plan", "--model", "bert-large", "--devices", "2", "--tp", "1",
            "--pp", "2", "--dp", "1", "--seq", "512", "--batch", "8",
            "--no-simulate", "--output", str(path),
        ]) == 0
        metadata = json.loads(path.read_text())["metadata"]
        hits = metadata["eval_cache_hits"]
        rate = hits / (hits + metadata["eval_cache_misses"])
        assert rate > 0.5
        assert f"eval-cache hit rate {rate:.0%})" in capsys.readouterr().out

    def test_unknown_method_is_one_error_line(self, capsys):
        """The default plan loop, the sweep path and robustness: one line
        naming the known methods, exit 2, nothing planned."""
        from repro.baselines import ALL_METHODS
        from repro.experiments.cli import main

        plan = [
            "plan", "--model", "bert-large", "--devices", "2", "--tp", "1",
            "--pp", "2", "--dp", "1", "--seq", "512", "--batch", "8",
            "--method", "Foo", "--no-simulate",
        ]
        sweep = [
            "plan", "--model", "bert-large", "--devices", "2", "--seq", "512",
            "--batch", "8", "--method", "Foo", "--no-simulate",
            "--sweep-workers", "1",
        ]
        for argv in (plan, sweep, [*self.ROBUSTNESS, "--method", "Foo"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            err = captured.err.strip()
            assert err.startswith("error: unknown method 'Foo'") and "\n" not in err
            assert all(name in err for name in ALL_METHODS)
            assert captured.out == ""

    def test_unknown_model_is_one_error_line(self, capsys, tmp_path):
        """plan, replan, robustness and audit: one line naming the known
        models, exit 2, nothing planned or read."""
        from repro.experiments.cli import main

        plan = [
            "plan", "--model", "foo", "--devices", "2", "--tp", "1", "--pp", "2",
            "--dp", "1", "--seq", "512", "--batch", "8",
        ]
        replan = [
            "replan", "--model", "foo", "--plan", str(tmp_path / "missing.json"),
            "--device-pool", "a100,a100",
        ]
        robustness = [
            arg if arg != "bert-large" else "foo" for arg in self.ROBUSTNESS
        ]
        for argv in (plan, replan, robustness, ["audit", "--model", "foo"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            err = captured.err.strip()
            assert err.startswith("error: unknown model 'foo'; known: [") and "\n" not in err
            assert "'bert-large'" in err and "'gpt3-175b'" in err
            assert captured.out == ""

    @pytest.mark.parametrize(
        "workload, message",
        [
            (
                ["--dp", "3", "--seq", "512", "--batch", "8"],
                "global batch 8 not divisible by data parallel size 3",
            ),
            (["--dp", "1", "--seq", "512", "--batch", "0"], "global_batch_size must be >= 1"),
            (["--dp", "1", "--seq", "0", "--batch", "8"], "sequence_length must be >= 1"),
        ],
        ids=["indivisible-batch", "zero-batch", "zero-seq"],
    )
    def test_bad_workload_numbers_are_one_error_line(self, capsys, workload, message):
        """plan, robustness and audit: one line naming what does not fit,
        exit 2, nothing planned."""
        from repro.experiments.cli import main

        strategy = ["--model", "bert-large", "--tp", "1", "--pp", "2", *workload]
        for argv in (
            ["plan", "--devices", "6", *strategy],
            ["robustness", *strategy],
            ["audit", *strategy],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.strip() == f"error: {message}"
            assert captured.out == ""

    @pytest.mark.parametrize(
        "method", ["Chimera-Full", "Chimera-Non", "ChimeraD-Full", "ChimeraD-Non"]
    )
    def test_sweep_rejects_methods_not_scheduled_1f1b(self, method, capsys):
        """The sweep ranks by the 1F1B phase model, and its bound is not
        admissible for Chimera: one error line, exit 2, no planning."""
        from repro.experiments.cli import main

        assert main([
            "plan", "--model", "gpt3-175b", "--devices", "64", "--method",
            method, "--no-simulate", "--sweep-workers", "1",
        ]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert method in err
        assert "best strategy" not in captured.out


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("figure3", fast=True)

    def test_each_step_no_slower(self, result):
        times = [float(row[1][:-1]) for row in result.rows]
        assert times[1] < times[0]  # adaptive recomputation helps
        assert times[2] <= times[1] + 1e-9  # partitioning never hurts

    def test_opt1_leaves_stage0_bottleneck(self, result):
        opt1 = result.rows[1]
        assert float(opt1[2][:-1]) > float(opt1[3][:-1])

    def test_opt2_moves_layers_to_stage1(self, result):
        layers = eval(result.rows[2][5])
        assert layers[0] <= layers[1]

    def test_saved_units_lean_to_stage1(self, result):
        saved = eval(result.rows[1][4])
        assert saved[0] < saved[1]


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("figure4", fast=True)

    def test_covers_all_layer_kinds(self, result):
        kinds = {row[0] for row in result.rows}
        assert kinds == {"attention", "ffn", "embedding", "head"}

    def test_only_closing_gemms_always_saved(self, result):
        always = {row[1] for row in result.rows if row[5] == "always saved"}
        assert always == {"attn.out", "ffn.out"}

    def test_ffn_units_pin_most_memory(self, result):
        by_unit = {row[1]: float(row[4]) for row in result.rows}
        assert by_unit["ffn.in"] > by_unit["attn.q"]


class TestRobustness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("robustness", fast=True)

    def test_rows_cover_both_pinned_strategies(self, result):
        assert [row[0] for row in result.rows] == ["(1, 2, 2)", "(1, 4, 1)"]
        # The shallow pipeline leaves the criticality cells of the absent
        # ranks blank.
        assert result.rows[0][-1] == "" and result.rows[1][-1] != ""

    def test_p95_flips_the_plan_choice(self, result):
        notes = "\n".join(result.notes)
        assert "best by nominal: (1, 4, 1)" in notes
        assert "best by p95: (1, 2, 2)" in notes
        assert "flips the plan choice" in notes

    def test_derated_ranks_dominate_criticality(self, result):
        deep = result.rows[1]
        healthy = [float(deep[5]), float(deep[6])]
        derated = [float(deep[7]), float(deep[8])]
        assert min(derated) > max(healthy)

    def test_report_is_deterministic(self, result):
        again = run_experiment("robustness", fast=True)
        assert again.rows == result.rows
        assert again.notes == result.notes
