"""The one check report and the four check commands that emit it.

One schema for every command: each tool's findings land in the shared
``CheckViolation`` shape with a ``tool`` field, the JSON document
aggregates by rule, and the process exit code is the disjunction of the
tools' verdicts (2 on a usage error).  The dynamic verify-schedule sweep
is exercised by its own suite (``test_verify_suite``); here it is
skipped so these tests stay static-analysis fast.
"""

import json
from pathlib import Path

import pytest

from repro.check.report import (
    CheckReport,
    ToolReport,
    check_to_json,
    format_check_text,
    run_check,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

# One lint violation (wall-clock) and one flow violation (dim-add-mix).
DIRTY = (
    "import time\n"
    "\n"
    "from repro.units import Bytes, Seconds\n"
    "\n"
    "\n"
    "def mix(a: Seconds, b: Bytes) -> Seconds:\n"
    "    t = time.time()\n"
    "    return a + b\n"
)

CLEAN = (
    "from repro.units import Seconds\n"
    "\n"
    "\n"
    "def total(a: Seconds, b: Seconds) -> Seconds:\n"
    "    return a + b\n"
)


class TestRunCheck:
    def test_merges_lint_and_flow_findings(self, tmp_path):
        (tmp_path / "dirty.py").write_text(DIRTY)
        report = run_check([tmp_path], tools=("lint", "flow"))
        assert not report.ok
        assert [t.tool for t in report.tools] == ["lint", "flow"]
        fired = {(v.tool, v.rule) for v in report.violations}
        assert ("lint", "wall-clock") in fired
        assert ("flow", "dim-add-mix") in fired

    def test_clean_tree_is_ok(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN)
        report = run_check([tmp_path], tools=("lint", "flow"))
        assert report.ok
        assert report.violations == []

    def test_json_document_shape(self, tmp_path):
        (tmp_path / "dirty.py").write_text(DIRTY)
        report = run_check([tmp_path], tools=("lint", "flow"))
        doc = json.loads(check_to_json(report))
        assert doc["ok"] is False
        assert doc["n_violations"] == len(report.violations)
        assert set(doc["tools"]) == {"lint", "flow"}
        assert doc["by_rule"]["dim-add-mix"] == 1
        assert doc["by_rule"]["wall-clock"] == 1
        # Every violation entry carries its origin tool and location.
        for entry in doc["violations"]:
            assert entry["tool"] in {"lint", "flow"}
            assert entry["path"].endswith("dirty.py")
            assert isinstance(entry["line"], int)

    def test_flow_stats_surface_in_tool_report(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN)
        report = run_check([tmp_path], tools=("lint", "flow"))
        flow_tool = next(t for t in report.tools if t.tool == "flow")
        assert flow_tool.stats["n_files"] == 1
        assert flow_tool.stats["n_functions"] == 1

    def test_text_report_names_each_tool(self, tmp_path):
        (tmp_path / "dirty.py").write_text(DIRTY)
        text = format_check_text(run_check([tmp_path], tools=("lint", "flow")))
        assert "[lint]" in text
        assert "[flow]" in text
        assert text.splitlines()[-1].startswith("FAIL:")

    def test_unknown_tool_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown check tools"):
            run_check([tmp_path], tools=("lint", "typo"))

    def test_schedule_cases_kept_in_json_and_skips_in_text(self):
        cases = [
            {"case": "iteration/a/ok", "status": "ok", "violations": []},
            {
                "case": "iteration/b",
                "status": "skipped",
                "reason": "does not fit: 30 GiB > 24 GiB",
                "violations": [],
            },
        ]
        report = CheckReport(
            [ToolReport(tool="schedule", ok=True, stats={"n_cases": 2}, cases=cases)]
        )
        assert report.to_dict()["tools"]["schedule"]["cases"] == cases
        text = format_check_text(report)
        assert "skipped iteration/b: does not fit: 30 GiB > 24 GiB" in text
        assert "iteration/a/ok" not in text


class TestCli:
    def test_check_flow_exit_codes(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text(DIRTY)
        assert main(["check-flow", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "dim-add-mix" in out

        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text(CLEAN)
        assert main(["check-flow", str(clean)]) == 0

    def test_check_umbrella_exit_and_json_out(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text(DIRTY)
        out_path = tmp_path / "report.json"
        code = main(
            [
                "check",
                str(tmp_path),
                "--skip-verify",
                "--json-out",
                str(out_path),
            ]
        )
        assert code == 1
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["ok"] is False
        assert set(doc["tools"]) == {"lint", "flow"}

    def test_check_flow_rules_filter(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text(DIRTY)
        code = main(["check-flow", str(tmp_path), "--rules", "rng-unseeded"])
        assert code == 0  # the only finding is dim-add-mix; filtered out
        capsys.readouterr()

    def test_src_repro_passes_check_flow_cli(self, capsys):
        assert main(["check-flow", str(REPO_ROOT / "src" / "repro")]) == 0
        assert "OK: 0 violation(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command,tool", [("lint", "lint"), ("check-flow", "flow")]
    )
    def test_single_tool_command_contract(self, command, tool, tmp_path, capsys):
        dirty = tmp_path / "dirty"
        dirty.mkdir()
        (dirty / "dirty.py").write_text(DIRTY)
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text(CLEAN)

        assert main([command, str(dirty)]) == 1
        assert main([command, str(clean)]) == 0
        assert main([command, str(tmp_path / "missing")]) == 2
        capsys.readouterr()

        assert main([command, str(dirty), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["tools"]) == [tool]
        assert doc["ok"] is False
        assert all(v["tool"] == tool for v in doc["violations"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["lint", "--out"],
            ["check-flow", "--out"],
            ["check", "--skip-verify", "--json-out"],
        ],
        ids=["lint", "check-flow", "check"],
    )
    def test_json_stdout_equals_written_file(self, argv, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text(DIRTY)
        out_path = tmp_path / "report.json"
        *command, out_flag = argv
        code = main(
            command + [str(tmp_path), "--format", "json", out_flag, str(out_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == json.loads(out_path.read_text())
        assert captured.err.strip() == f"wrote {out_path}"
