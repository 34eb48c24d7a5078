"""Tests for adalint (repro.analysis): framework, rules, reporters, CLI.

Every rule gets a firing and a non-firing golden snippet; the framework
tests pin suppression handling (including the bare/unknown meta-rules),
the baseline filter, and the JSON report schema. The real ``src/repro``
tree must be clean. The digest-coverage classes pin, on
``repro.content``, the guarantees the deleted digest-coverage rule gave.
"""

import dataclasses
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.analysis import (
    FRAMEWORK_RULES,
    REPORT_VERSION,
    Finding,
    default_rules,
    load_baseline,
    parse_suppressions,
    registered_rule_names,
    render_text,
    result_to_dict,
    result_to_sarif,
    run_lint,
)
from repro.analysis.framework import clear_parse_cache, parse_cached
from repro.content import content_digest, from_json, omit, to_json
from repro.experiments.cli import main as cli_main
from repro.pipeline.schedules import one_f_one_b_schedule
from repro.pipeline.simulator import schedule_digest
from repro.pipeline.tasks import StageCosts

REPO_ROOT = Path(__file__).resolve().parents[1]


def _lint_file(tmp_path, source, name="snippet.py", rules=None):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_lint([tmp_path], rules=rules)


def _rules_fired(result):
    return {finding.rule for finding in result.findings}


class TestFramework:
    def test_all_rules_registered(self):
        assert set(registered_rule_names()) == {
            "determinism",
            "frozen-mutation",
            "unit-consistency",
        }
        assert {rule.name for rule in default_rules()} == set(
            registered_rule_names()
        )

    def test_clean_file_is_clean(self, tmp_path):
        result = _lint_file(tmp_path, "x = 1\n")
        assert result.ok and result.files_scanned == 1
        assert result.findings == result.suppressed == result.baselined == []

    def test_syntax_error_reported_as_parse_error(self, tmp_path):
        result = _lint_file(tmp_path, "def broken(:\n")
        assert [f.rule for f in result.findings] == ["parse-error"]
        assert not result.ok

    def test_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(rule="r", severity="fatal", path="p.py", line=1, message="m")

    def test_suppression_parsing(self):
        table = parse_suppressions(
            [
                "x = 1",
                "y = 2  # adalint: disable=determinism -- observability",
                "z = 3  # adalint: disable=determinism, unit-consistency -- both",
            ]
        )
        assert set(table) == {2, 3}
        assert table[2].rules == ("determinism",)
        assert table[2].reason == "observability"
        assert table[3].covers("unit-consistency")

    def test_suppression_with_reason_mutes_the_finding(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "import time\n"
            "t = time.time()  # adalint: disable=determinism -- just a log stamp\n",
        )
        assert result.ok
        assert [f.rule for f in result.suppressed] == ["determinism"]

    def test_disable_all_covers_every_rule(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "import time\n"
            "t = time.time()  # adalint: disable=all -- demo snippet\n",
        )
        assert result.ok and len(result.suppressed) == 1

    def test_bare_suppression_is_itself_a_finding(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "import time\nt = time.time()  # adalint: disable=determinism\n",
        )
        # The reason-less suppression does NOT mute, and is reported.
        assert _rules_fired(result) == {"determinism", "bare-suppression"}

    def test_unknown_suppression_is_reported(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "x = 1  # adalint: disable=no-such-rule -- typo'd rule name\n",
        )
        assert _rules_fired(result) == {"unknown-suppression"}

    def test_framework_findings_cannot_be_suppressed(self, tmp_path):
        # A reason-less suppression stays a finding even if another comment
        # tried to disable the meta-rule itself.
        assert "bare-suppression" in FRAMEWORK_RULES
        result = _lint_file(
            tmp_path,
            "import time\n"
            "t = time.time()  # adalint: disable=determinism, bare-suppression\n",
        )
        assert "bare-suppression" in _rules_fired(result)

    def test_baseline_mutes_on_rule_path_message(self, tmp_path):
        source = "import time\nt = time.time()\n"
        first = _lint_file(tmp_path, source)
        assert not first.ok
        baseline = {f.baseline_key() for f in first.findings}
        # Shift the finding to a different line: the baseline still matches.
        second = _lint_file(tmp_path, "# comment\n" + source)
        shifted = run_lint([tmp_path], baseline=baseline)
        assert second.findings and shifted.ok
        assert [f.rule for f in shifted.baselined] == ["determinism"]

    def test_load_baseline_accepts_full_report(self, tmp_path):
        result = _lint_file(tmp_path, "import time\nt = time.time()\n")
        report = tmp_path / "baseline.json"
        report.write_text(json.dumps(result_to_dict(result)))
        keys = load_baseline(report)
        assert keys == {f.baseline_key() for f in result.findings}


class TestDeterminismRule:
    def test_global_rng_draw_fires(self, tmp_path):
        result = _lint_file(tmp_path, "import random\nx = random.random()\n")
        assert _rules_fired(result) == {"determinism"}

    def test_aliased_numpy_global_draw_fires(self, tmp_path):
        result = _lint_file(
            tmp_path, "import numpy as np\nnp.random.shuffle([1, 2])\n"
        )
        assert _rules_fired(result) == {"determinism"}

    def test_unseeded_constructor_fires_seeded_passes(self, tmp_path):
        fired = _lint_file(tmp_path, "import random\nr = random.Random()\n")
        assert _rules_fired(fired) == {"determinism"}
        clean = _lint_file(
            tmp_path,
            "import random\nimport numpy as np\n"
            "r = random.Random(0)\ng = np.random.default_rng(7)\n"
            "x = g.normal()\n",
        )
        assert clean.ok

    def test_wall_clock_fires_outside_measurement_layers(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "import time as clock\nfrom datetime import datetime\n"
            "a = clock.perf_counter()\nb = datetime.now()\n",
        )
        assert [f.rule for f in result.findings] == ["determinism"] * 2

    def test_wall_clock_allowed_under_benchmarks(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "import time\nstart = time.perf_counter()\n",
            name="benchmarks/bench_sim.py",
        )
        assert result.ok

    def test_set_iteration_fires_sorted_and_dict_pass(self, tmp_path):
        fired = _lint_file(
            tmp_path,
            "for x in {1, 2}:\n    pass\n"
            "ys = [y for y in set([3, 4])]\n",
        )
        assert [f.rule for f in fired.findings] == ["determinism"] * 2
        clean = _lint_file(
            tmp_path,
            "for x in sorted({1, 2}):\n    pass\n"
            "d = {'a': 1}\nfor k in d:\n    pass\n",
        )
        assert clean.ok


class TestUnitConsistencyRule:
    def test_cross_dimension_add_and_compare_fire(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "def f(size_bytes, busy_seconds):\n"
            "    total = size_bytes + busy_seconds\n"
            "    if size_bytes > busy_seconds:\n"
            "        total += 1\n"
            "    return total\n",
            name="core/costs.py",
        )
        assert [f.rule for f in result.findings] == ["unit-consistency"] * 2

    def test_augassign_cross_dimension_fires(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "def f(peak_bytes, wait_seconds):\n"
            "    peak_bytes += wait_seconds\n"
            "    return peak_bytes\n",
            # Any of the enforced dirs (profiler/, hardware/, core/).
            name="profiler/activation.py",
        )
        assert _rules_fired(result) == {"unit-consistency"}

    def test_same_dimension_and_conversion_calls_pass(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "def f(a_bytes, b_bytes, c_seconds, bw_bps):\n"
            "    total_bytes = a_bytes + b_bytes\n"
            "    t = c_seconds + seconds_for(a_bytes, bw_bps)\n"
            "    rate = a_bytes / c_seconds\n"  # division -> unknown dim
            "    return total_bytes, t, rate\n",
            name="hardware/model.py",
        )
        assert result.ok

    def test_not_enforced_outside_numeric_core(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "def f(a_bytes, b_seconds):\n    return a_bytes + b_seconds\n",
            name="report/charts.py",
        )
        assert result.ok


class TestFrozenMutationRule:
    def test_setattr_outside_post_init_fires(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "class C:\n"
            "    def poke(self):\n"
            "        object.__setattr__(self, 'x', 1)\n"
            "object.__setattr__(C, 'y', 2)\n",
        )
        assert [f.rule for f in result.findings] == ["frozen-mutation"] * 2

    def test_setattr_inside_post_init_and_setstate_passes(self, tmp_path):
        result = _lint_file(
            tmp_path,
            "class C:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, '_hash', 7)\n"
            "    def __setstate__(self, state):\n"
            "        object.__setattr__(self, '_hash', 8)\n",
        )
        assert result.ok


# ---------------------------------------------------------------------------
# Digest coverage
# ---------------------------------------------------------------------------
# No lint rule checks digest coverage: content_digest walks every dataclass
# field, and a field leaves a digest only through an omit(reason) or
# shape_free(reason) declaration on it. An omission is caught by changing
# one field at a time and checking that the digest moves, as
# test_content.py does for every digested class. These classes keep the
# names of the deleted rule's tests and run its scenarios through that
# check: it names the field a hand-written digest leaves out, and finds
# nothing in content_digest beyond the declared fields.


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class LabelledPoint:
    x: float
    label: str = field(default="", metadata=omit("label only, never simulated"))


def _unmoved_fields(digest, base, changes):
    """Dotted names of the fields whose change leaves ``digest(base)`` unmoved.

    ``changes`` maps every field of ``base`` to a different value.
    """
    assert set(changes) == {f.name for f in dataclasses.fields(base)}
    before = digest(base)
    return sorted(
        f"{type(base).__name__}.{name}"
        for name, value in changes.items()
        if digest(dataclasses.replace(base, **{name: value})) == before
    )


class TestDigestCoverageRule:
    def test_omitted_field_fires(self):
        def point_digest(p):
            return str(p.x)

        base = Point(1.0, 2.0)
        changes = {"x": 1.5, "y": 2.5}
        assert _unmoved_fields(point_digest, base, changes) == ["Point.y"]
        assert _unmoved_fields(content_digest, base, changes) == []

    def test_allowance_with_reason_passes(self):
        # The declared field, and only it, leaves both digests; the codec
        # still carries it.
        base = LabelledPoint(1.0, "a")
        changes = {"x": 1.5, "label": "b"}
        assert _unmoved_fields(content_digest, base, changes) == [
            "LabelledPoint.label"
        ]
        assert _unmoved_fields(
            lambda p: content_digest(p, shape=True), base, changes
        ) == ["LabelledPoint.label"]
        assert from_json(LabelledPoint, to_json(base)) == base


class TestDigestCoverageV2:
    def test_deep_omission_fires_across_call_boundaries(self):
        # The historic link_hops omission: a schedule digest spread over
        # two helper calls that reads every field but link_hops. The check
        # names it from the digest's output, however deep the helpers go;
        # schedule_digest leaves out only the fields declared omit.
        def tasks_part(schedule):
            return [repr(task) for task in schedule.all_tasks()]

        def schedule_part(schedule):
            return (
                schedule.name, schedule.num_devices, schedule.hop_time,
                schedule.device_static_bytes, schedule.device_buffer_bytes,
                schedule.num_micro_batches, tasks_part(schedule),
            )

        def pre_fix_digest(schedule):
            return repr(schedule_part(schedule))

        costs = [StageCosts(1.0, 2.0, activation_bytes=3.0, static_bytes=4.0,
                            buffer_bytes=0.5) for _ in range(2)]
        base = dataclasses.replace(
            one_f_one_b_schedule(costs, 2, hop_time=0.25), link_hops={(0, 1): 0.5}
        )
        first = base.device_tasks[0][0]
        device_tasks = [list(tasks) for tasks in base.device_tasks]
        device_tasks[0][0] = dataclasses.replace(first, duration=first.duration + 1)
        changes = {
            "name": base.name + "'",
            "num_devices": base.num_devices + 1,
            "device_tasks": device_tasks,
            "hop_time": base.hop_time + 1,
            "device_static_bytes": [b + 1 for b in base.device_static_bytes],
            "device_buffer_bytes": [b + 1 for b in base.device_buffer_bytes],
            "num_micro_batches": base.num_micro_batches + 1,
            "link_hops": {(0, 1): 0.75},
        }
        assert _unmoved_fields(pre_fix_digest, base, changes) == ["Schedule.link_hops"]
        assert _unmoved_fields(schedule_digest, base, changes) == [
            "Schedule.name", "Schedule.num_micro_batches"
        ]


class TestParseCache:
    def test_unchanged_file_is_parsed_once(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("x = 1\n")
        clear_parse_cache()
        first = parse_cached(path, "m.py")
        assert parse_cached(path, "m.py") is first

    def test_rewrite_invalidates(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("x = 1\n")
        clear_parse_cache()
        first = parse_cached(path, "m.py")
        path.write_text("x = 2  # changed\n")
        second = parse_cached(path, "m.py")
        assert second is not first
        assert "changed" in second.source

    def test_relpath_view_rewritten_without_reparse(self, tmp_path):
        # Two runs rooted differently share the parse but each sees its
        # own relative path (baseline keys depend on it).
        path = tmp_path / "pkg" / "m.py"
        path.parent.mkdir()
        path.write_text("x = 1\n")
        clear_parse_cache()
        wide = parse_cached(path, "pkg/m.py")
        narrow = parse_cached(path, "m.py")
        assert narrow.tree is wide.tree
        assert (wide.relpath, narrow.relpath) == ("pkg/m.py", "m.py")


class TestReporters:
    def _result(self, tmp_path):
        return _lint_file(tmp_path, "import time\nt = time.time()\n")

    def test_json_schema(self, tmp_path):
        payload = result_to_dict(self._result(tmp_path))
        assert payload["adalint_version"] == REPORT_VERSION
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {
            "findings": 1,
            "suppressed": 0,
            "baselined": 0,
        }
        (entry,) = payload["findings"]
        assert set(entry) == {"rule", "severity", "path", "line", "col", "message"}
        assert entry["rule"] == "determinism" and entry["line"] == 2
        # The col satellite: the AST node's column reaches the report.
        assert entry["col"] == 5
        json.dumps(payload)  # must be serializable as-is

    def test_text_rendering(self, tmp_path):
        text = render_text(self._result(tmp_path))
        assert "snippet.py:2:5: error [determinism]" in text
        clean = render_text(_lint_file(tmp_path / "other", "x = 1\n"))
        assert "clean" in clean

    def test_col_absent_renders_without_column(self):
        finding = Finding(
            rule="determinism", severity="error", path="a.py", line=3,
            message="m",
        )
        assert finding.col == 0 and finding.location() == "a.py:3"

    def test_baseline_tolerates_missing_col(self, tmp_path):
        # Baselines written before columns existed carry no "col" key;
        # matching is on (rule, path, message) and must still mute.
        result = self._result(tmp_path)
        stripped = [
            {k: v for k, v in f.to_dict().items() if k != "col"}
            for f in result.findings
        ]
        report = tmp_path / "old_baseline.json"
        report.write_text(json.dumps({"findings": stripped}))
        muted = run_lint([tmp_path], baseline=load_baseline(report))
        assert muted.ok and [f.rule for f in muted.baselined] == ["determinism"]

    def test_sarif_schema(self, tmp_path):
        document = result_to_sarif(self._result(tmp_path))
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "adalint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert "determinism" in rule_ids
        (entry,) = run["results"]
        assert entry["ruleId"] == "determinism"
        assert entry["level"] == "error"
        assert rule_ids[entry["ruleIndex"]] == "determinism"
        location = entry["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "snippet.py"
        assert location["region"] == {"startLine": 2, "startColumn": 5}
        json.dumps(document)

    def test_sarif_clean_run_has_no_results(self, tmp_path):
        document = result_to_sarif(_lint_file(tmp_path, "x = 1\n"))
        assert document["runs"][0]["results"] == []


class TestCli:
    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert cli_main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_findings_exit_one_with_json_artifact(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        out_file = tmp_path / "lint_findings.json"
        code = cli_main(
            ["lint", str(tmp_path), "--format", "json",
             "--output", str(out_file)]
        )
        assert code == 1
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(out_file.read_text())
        assert stdout_payload == file_payload
        assert file_payload["counts"]["findings"] == 1

    def test_baseline_round_trip_via_cli(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        baseline = tmp_path / "baseline.json"
        assert cli_main(
            ["lint", str(tmp_path), "--write-baseline", str(baseline)]
        ) == 0
        assert cli_main(
            ["lint", str(tmp_path), "--baseline", str(baseline)]
        ) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in registered_rule_names():
            assert name in out

    def test_sarif_format_and_artifact(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        sarif_file = tmp_path / "lint.sarif"
        code = cli_main(
            ["lint", str(tmp_path), "--format", "sarif",
             "--sarif", str(sarif_file)]
        )
        assert code == 1
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(sarif_file.read_text())
        assert stdout_doc == file_doc
        assert file_doc["version"] == "2.1.0"
        (entry,) = file_doc["runs"][0]["results"]
        assert entry["ruleId"] == "determinism"

    def test_changed_lints_only_dirty_files(self, tmp_path, monkeypatch,
                                            capsys):
        import subprocess

        git = shutil.which("git")
        if git is None:
            pytest.skip("git not available")
        repo = tmp_path / "proj"
        (repo / "pkg").mkdir(parents=True)
        env_patch = {
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
        }
        for key, value in env_patch.items():
            monkeypatch.setenv(key, value)
        subprocess.run([git, "init", "-q"], cwd=repo, check=True)
        # A committed file with a finding: clean working tree, so a
        # --changed run must NOT visit (or report) it.
        (repo / "pkg" / "committed.py").write_text(
            "import time\nt = time.time()\n"
        )
        subprocess.run([git, "add", "."], cwd=repo, check=True)
        subprocess.run(
            [git, "commit", "-q", "-m", "seed"], cwd=repo, check=True
        )
        # An untracked file with a different finding: must be visited.
        (repo / "pkg" / "fresh.py").write_text(
            "import random\nx = random.random()\n"
        )
        monkeypatch.chdir(repo)
        code = cli_main(
            ["lint", str(repo / "pkg"), "--changed", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_scanned"] == 1
        (finding,) = payload["findings"]
        # Relpaths stay rooted as in a full run of the same paths.
        assert finding["path"] == "fresh.py"

    def test_changed_clean_worktree_scans_nothing(self, tmp_path,
                                                  monkeypatch, capsys):
        import subprocess

        git = shutil.which("git")
        if git is None:
            pytest.skip("git not available")
        repo = tmp_path / "proj"
        repo.mkdir()
        monkeypatch.setenv("GIT_AUTHOR_NAME", "t")
        monkeypatch.setenv("GIT_AUTHOR_EMAIL", "t@t")
        monkeypatch.setenv("GIT_COMMITTER_NAME", "t")
        monkeypatch.setenv("GIT_COMMITTER_EMAIL", "t@t")
        subprocess.run([git, "init", "-q"], cwd=repo, check=True)
        (repo / "bad.py").write_text("import time\nt = time.time()\n")
        subprocess.run([git, "add", "."], cwd=repo, check=True)
        subprocess.run(
            [git, "commit", "-q", "-m", "seed"], cwd=repo, check=True
        )
        monkeypatch.chdir(repo)
        assert cli_main(["lint", str(repo), "--changed"]) == 0
        out = capsys.readouterr().out
        assert "0 file(s)" in out or "clean" in out


class TestDocsSync:
    def test_usage_rule_table_matches_registry(self):
        from repro.analysis.docs_sync import diff_rules

        assert diff_rules(REPO_ROOT / "docs" / "USAGE.md") == []

    def test_real_docs_name_every_registry_member(self, capsys):
        from repro.analysis.docs_sync import main

        docs = [REPO_ROOT / "docs" / "USAGE.md", REPO_ROOT / "EXPERIMENTS.md"]
        assert main([str(path) for path in docs]) == 0
        assert "match the registries" in capsys.readouterr().out

    def test_planted_missing_names_are_drift(self, tmp_path, capsys):
        from repro.analysis.docs_sync import main, missing_names

        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        planted = tmp_path / "EXPERIMENTS.md"
        # figure10 stays named, so figure1 must not count as a substring.
        planted.write_text(
            experiments.replace("figure1`", "").replace("DAPPLE-Non", "")
        )
        problems = missing_names(planted)
        assert len(problems) == 2
        assert "experiment 'figure1'" in problems[0]
        assert "baseline method 'DAPPLE-Non'" in problems[1]
        assert main([str(planted)]) == 1
        assert "experiment 'figure1'" in capsys.readouterr().err

    def test_unchecked_document_is_a_usage_error(self, tmp_path):
        from repro.analysis.docs_sync import main

        readme = tmp_path / "README.md"
        readme.write_text("# nothing bound\n")
        assert main([str(readme)]) == 2

    def test_missing_and_phantom_rules_are_drift(self, tmp_path):
        from repro.analysis.docs_sync import diff_rules

        doc = tmp_path / "USAGE.md"
        doc.write_text(
            "| Rule | Severity | What |\n| --- | --- | --- |\n"
            "| `determinism` | error | x |\n"
            "| `no-such-rule` | error | x |\n"
        )
        problems = diff_rules(doc)
        assert any("frozen-mutation" in p and "missing" in p for p in problems)
        assert any("no-such-rule" in p and "not registered" in p
                   for p in problems)


class TestRepositoryIsClean:
    def test_src_repro_has_zero_unsuppressed_findings(self):
        result = run_lint([REPO_ROOT / "src" / "repro"])
        assert result.findings == []
        assert result.files_scanned > 50
        # Every accepted exception carries a reason (bare-suppression would
        # otherwise appear in findings); keep the count visible so growth
        # is a conscious decision.
        assert len(result.suppressed) == 16
