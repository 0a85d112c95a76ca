"""Call-graph construction, project stats, and the clean-tree guarantee.

The interprocedural passes are only as good as the graph under them;
these tests pin the indexing contract (qualified names, method edges,
cross-module resolution) and the headline acceptance property: the real
``src/repro`` tree analyzes clean.
"""

from pathlib import Path

from repro.check.callgraph import CallGraph, ProjectIndex
from repro.check.flow import run_flow
from repro.check.report import CheckReport

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


FIXTURE = (
    "class Box:\n"
    "    def get(self):\n"
    "        return self.load()\n"
    "\n"
    "    def load(self):\n"
    "        return 1\n"
    "\n"
    "\n"
    "def helper(x):\n"
    "    return x\n"
    "\n"
    "\n"
    "def caller():\n"
    "    return helper(3)\n"
)


def build(tmp_path: Path, sources: dict[str, str]):
    for name, src in sources.items():
        (tmp_path / name).write_text(src)
    index = ProjectIndex.build(sorted(tmp_path.glob("*.py")))
    return index, CallGraph.build(index)


class TestProjectIndex:
    def test_functions_get_module_qualified_names(self, tmp_path):
        index, _ = build(tmp_path, {"fixture.py": FIXTURE})
        assert set(index.functions) == {
            "fixture:Box.get",
            "fixture:Box.load",
            "fixture:helper",
            "fixture:caller",
        }

    def test_parse_errors_are_collected_not_raised(self, tmp_path):
        index, _ = build(tmp_path, {"broken.py": "def oops(:\n"})
        assert len(index.parse_errors) == 1
        path, line, _message = index.parse_errors[0]
        assert path.endswith("broken.py")
        assert line >= 1

    def test_parse_error_surfaces_in_flow_report(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        report = run_flow([tmp_path])
        assert [v.rule for v in report.violations] == ["parse-error"]
        assert not report.ok


class TestCallGraph:
    def test_module_function_edge(self, tmp_path):
        _, graph = build(tmp_path, {"fixture.py": FIXTURE})
        edges = {(e.caller, e.callee) for e in graph.edges}
        assert ("fixture:caller", "fixture:helper") in edges

    def test_self_method_edge(self, tmp_path):
        _, graph = build(tmp_path, {"fixture.py": FIXTURE})
        edges = {(e.caller, e.callee) for e in graph.edges}
        assert ("fixture:Box.get", "fixture:Box.load") in edges

    def test_cross_module_import_edge(self, tmp_path):
        _, graph = build(
            tmp_path,
            {
                "a.py": "def shared():\n    return 1\n",
                "b.py": (
                    "from a import shared\n"
                    "\n"
                    "\n"
                    "def use():\n"
                    "    return shared()\n"
                ),
            },
        )
        edges = {(e.caller, e.callee) for e in graph.edges}
        assert ("b:use", "a:shared") in edges


class TestCleanTree:
    def test_src_repro_is_flow_clean(self):
        report = run_flow([SRC_REPRO])
        assert report.violations == []
        assert report.ok
        # The stats prove the passes actually covered the project — a
        # path bug that analyzed nothing would also report 0 violations.
        assert report.stats["n_files"] > 100
        assert report.stats["n_functions"] > 800
        assert report.stats["n_call_edges"] > 1000
        assert report.stats["n_task_sites"] > 20

    def test_report_dict_shape(self, tmp_path):
        (tmp_path / "ok.py").write_text("def f():\n    return 1\n")
        d = CheckReport([run_flow([tmp_path])]).to_dict()
        assert d["ok"] is True
        assert d["n_violations"] == 0
        assert d["by_rule"] == {}
        assert d["violations"] == []
        assert list(d["tools"]) == ["flow"]
        flow = d["tools"]["flow"]
        assert flow["n_files"] == 1
        assert set(flow) >= {
            "ok",
            "n_files",
            "n_functions",
            "n_call_edges",
            "n_task_sites",
        }
