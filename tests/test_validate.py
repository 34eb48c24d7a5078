"""Tests for the self-validation battery."""

from repro.experiments.cli import main
from repro.experiments.validate import render_validation, run_validation


class TestValidation:
    def test_all_checks_pass(self):
        results = run_validation()
        assert len(results) == 11
        for name, passed, detail in results:
            assert passed, f"{name}: {detail}"

    def test_render_marks_status(self):
        text = render_validation(run_validation())
        assert "11/11 consistency checks passed" in text
        assert "FAIL" not in text

    def test_cli_exit_code(self, capsys):
        assert main(["validate"]) == 0
        assert "consistency checks passed" in capsys.readouterr().out

    def test_render_reports_failures(self):
        text = render_validation([("fake check", False, "boom")])
        assert "[FAIL] fake check" in text
        assert "0/1" in text
