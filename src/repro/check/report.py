"""The one check report: one schema over lint + flow + verify-schedule.

Every check tool reports through these types, whether it runs alone
(``repro lint``, ``check-flow``, ``verify-schedule``) or under the
``repro check`` umbrella, so CI and humans consume a single artifact
shape:

* :class:`CheckViolation` — the shared violation record.  Static
  findings carry ``path``/``line``/``col``; dynamic findings carry
  ``case``/``task``/``time``.  ``tool`` says which pass emitted it.
* :class:`ToolReport` — one tool's outcome (ok flag, counts, findings,
  and for verify-schedule the per-case records).
* :class:`CheckReport` — the document: per-tool summaries plus the flat
  ordered violation list.

Exit-code contract (shared by all four commands): 0 clean, 1 violations
found, 2 usage error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "CheckViolation",
    "ToolReport",
    "CheckReport",
    "TOOLS",
    "static_tool_report",
    "run_check",
    "format_check_text",
    "check_to_json",
]


@dataclass(frozen=True)
class CheckViolation:
    """One finding from any check tool, in the merged schema."""

    tool: str  # "lint" | "flow" | "schedule"
    rule: str  # lint/flow rule id, or the schedule check name
    message: str
    path: str | None = None
    line: int | None = None
    col: int | None = None
    case: str | None = None  # verify-schedule case id
    task: str | None = None
    time: float | None = None

    def to_dict(self) -> dict:
        out: dict = {"tool": self.tool, "rule": self.rule, "message": self.message}
        for key in ("path", "line", "col", "case", "task", "time"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def format(self) -> str:
        if self.path is not None:
            where = f"{self.path}:{self.line}:{self.col}"
        else:
            where = self.case or "<run>"
            if self.task is not None:
                where += f" task={self.task}"
            if self.time is not None:
                where += f" t={self.time:.6g}s"
        return f"{where}: [{self.tool}] {self.rule}: {self.message}"


@dataclass
class ToolReport:
    """One tool's outcome.

    ``stats`` are scalar counters (printed in the text summary);
    ``cases`` are verify-schedule's per-case records, kept whole in the
    JSON document.
    """

    tool: str
    ok: bool
    violations: list[CheckViolation] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    cases: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "tool": self.tool,
            "ok": self.ok,
            "n_violations": len(self.violations),
            **self.stats,
        }
        if self.cases:
            out["cases"] = self.cases
        return out


@dataclass
class CheckReport:
    """Outcome of every tool one check command ran."""

    tools: list[ToolReport]

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tools)

    @property
    def violations(self) -> list[CheckViolation]:
        out: list[CheckViolation] = []
        for tool in self.tools:
            out.extend(tool.violations)
        return out

    def to_dict(self) -> dict:
        violations = self.violations
        by_rule: dict[str, int] = {}
        for v in violations:
            by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
        return {
            "ok": self.ok,
            "n_violations": len(violations),
            "tools": {t.tool: t.to_dict() for t in self.tools},
            "by_rule": dict(sorted(by_rule.items())),
            "violations": [v.to_dict() for v in violations],
        }


# -- adapters -----------------------------------------------------------


def static_tool_report(tool: str, violations: Sequence, **stats) -> ToolReport:
    """The report of a static pass (lint or flow) from its located findings.

    ``violations`` are :class:`~repro.check.lint.LintViolation` records;
    ``stats`` are the scalar counters the pass ran over.
    """
    return ToolReport(
        tool=tool,
        ok=not violations,
        violations=[
            CheckViolation(
                tool=tool,
                rule=v.rule,
                message=v.message,
                path=v.path,
                line=v.line,
                col=v.col,
            )
            for v in violations
        ],
        stats=stats,
    )


def _lint_tool(paths: Sequence[Path | str], rules: Iterable[str] | None) -> ToolReport:
    from repro.check.lint import lint_paths

    violations, n_files = lint_paths(paths, rules=rules)
    return static_tool_report("lint", violations, n_files=n_files)


def _schedule_tool(quick: bool) -> ToolReport:
    from repro.check.verify import run_verification

    document = run_verification(quick=quick)
    violations: list[CheckViolation] = []
    for case in document["cases"]:
        for v in case["violations"]:
            violations.append(
                CheckViolation(
                    tool="schedule",
                    rule=v["check"],
                    message=v["message"],
                    case=case["case"],
                    task=v.get("task"),
                    time=v.get("time"),
                )
            )
    return ToolReport(
        tool="schedule",
        ok=document["ok"],
        violations=violations,
        stats={
            "suite": document["suite"],
            "n_cases": document["n_cases"],
            "n_skipped": document["n_skipped"],
        },
        cases=document["cases"],
    )


TOOLS = ("lint", "flow", "schedule")


def run_check(
    paths: Sequence[Path | str],
    *,
    tools: Sequence[str] = TOOLS,
    lint_rules: Iterable[str] | None = None,
    flow_rules: Iterable[str] | None = None,
    quick: bool = True,
) -> CheckReport:
    """Run the named ``tools`` (a subset of :data:`TOOLS`, in that order).

    ``paths`` feed the static passes; ``quick`` selects the reduced
    verification grid for the dynamic ``schedule`` sweep (it simulates
    the whole bench grid, seconds of work vs. the static passes'
    milliseconds).  Unknown rule names raise ``ValueError`` and missing
    paths ``FileNotFoundError``.
    """
    from repro.check.flow import run_flow

    unknown = set(tools) - set(TOOLS)
    if unknown:
        raise ValueError(f"unknown check tools: {sorted(unknown)}")
    reports = []
    if "lint" in tools:
        reports.append(_lint_tool(paths, lint_rules))
    if "flow" in tools:
        reports.append(run_flow(paths, rules=flow_rules))
    if "schedule" in tools:
        reports.append(_schedule_tool(quick))
    return CheckReport(tools=reports)


def format_check_text(report: CheckReport) -> str:
    """Human-readable report: one summary line per tool, then findings."""
    lines: list[str] = []
    for tool in report.tools:
        stats = ", ".join(f"{k}={v}" for k, v in tool.stats.items())
        verdict = "ok" if tool.ok else "FAIL"
        lines.append(f"[{tool.tool}] {verdict}: {len(tool.violations)} "
                     f"violation(s) ({stats})")
        for case in tool.cases:
            if case["status"] == "skipped":
                lines.append(f"  skipped {case['case']}: {case['reason']}")
    for v in report.violations:
        lines.append(f"  {v.format()}")
    verdict = "OK" if report.ok else "FAIL"
    lines.append(
        f"{verdict}: {len(report.violations)} violation(s) across "
        f"{len(report.tools)} tool(s)"
    )
    return "\n".join(lines)


def check_to_json(report: CheckReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"
