"""Positive-detection tests: every lint rule fires on a minimal snippet.

Each rule gets (at least) one snippet that fires it and one near-identical
clean snippet that must not — the clean side pins down the rule's edges
(literal-zero comparisons, seeded RNG calls, sorted() wrappers, ...).
"""

from pathlib import Path

import pytest

from repro.check.lint import RULES, lint_paths, lint_source
from repro.check.report import CheckReport, static_tool_report

REPO_ROOT = Path(__file__).resolve().parents[2]


def rules_fired(source: str) -> list[str]:
    return [v.rule for v in lint_source(source)]


class TestWallClock:
    def test_time_time_fires(self):
        assert rules_fired("import time\nt = time.time()\n") == ["wall-clock"]

    def test_perf_counter_fires(self):
        assert "wall-clock" in rules_fired("import time\nt = time.perf_counter()\n")

    def test_datetime_now_fires(self):
        src = "import datetime\nt = datetime.datetime.now()\n"
        assert "wall-clock" in rules_fired(src)

    def test_from_import_datetime_now_fires(self):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert "wall-clock" in rules_fired(src)

    def test_simulated_clock_arithmetic_clean(self):
        assert rules_fired("now = 0.0\nnow = now + cost\n") == []


class TestStdlibRandom:
    def test_import_fires(self):
        assert "stdlib-random" in rules_fired("import random\n")

    def test_from_import_fires(self):
        assert "stdlib-random" in rules_fired("from random import choice\n")

    def test_call_fires(self):
        src = "import random\nx = random.random()\n"
        assert rules_fired(src).count("stdlib-random") == 2  # import + call

    def test_numpy_generator_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\nx = rng.random()\n"
        assert rules_fired(src) == []


class TestNpLegacyRandom:
    def test_module_level_call_fires(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert "np-legacy-random" in rules_fired(src)

    def test_seed_call_fires(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert "np-legacy-random" in rules_fired(src)

    def test_generator_api_clean(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.Generator(np.random.PCG64(1))\n"
            "ss = np.random.SeedSequence(2)\n"
        )
        assert rules_fired(src) == []


class TestUnseededRng:
    def test_argless_default_rng_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_fired(src) == ["unseeded-rng"]

    def test_seeded_default_rng_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(1234)\n"
        assert rules_fired(src) == []


class TestFloatTimeEq:
    def test_time_name_eq_fires(self):
        assert rules_fired("ok = start_time == end_time\n") == ["float-time-eq"]

    def test_attribute_eq_fires(self):
        assert "float-time-eq" in rules_fired("ok = result.makespan == other.makespan\n")

    def test_not_eq_fires(self):
        assert "float-time-eq" in rules_fired("ok = deadline != arrival\n")

    def test_zero_literal_exempt(self):
        # `makespan == 0` guards division; exact zero is a meaningful
        # sentinel, not float arithmetic.
        assert rules_fired("if makespan == 0:\n    pass\n") == []

    def test_non_numeric_literal_exempt(self):
        assert rules_fired("if end is not None and end == 'never':\n    pass\n") == []

    def test_non_time_names_clean(self):
        assert rules_fired("ok = count == total\n") == []

    def test_inequalities_clean(self):
        assert rules_fired("ok = start_time <= end_time\n") == []


class TestInlineSimTask:
    def test_bare_call_fires(self):
        src = "t = SimTask('a', 'gpu', 1.0)\n"
        assert rules_fired(src) == ["inline-sim-task"]

    def test_attribute_call_fires(self):
        src = "import repro.hardware.events as ev\nt = ev.SimTask('a', 'gpu', 1.0)\n"
        assert "inline-sim-task" in rules_fired(src)

    def test_blessed_constructors_clean(self):
        src = "t = op_task('a', 'gpu', device, work)\nu = transfer_task('b', link, 4.0)\n"
        assert rules_fired(src) == []


class TestTracerDefault:
    def test_required_tracer_fires(self):
        assert rules_fired("def f(tracer):\n    pass\n") == ["tracer-default"]

    def test_recording_default_fires(self):
        assert rules_fired("def f(tracer=Tracer()):\n    pass\n") == ["tracer-default"]

    def test_none_default_clean(self):
        assert rules_fired("def f(tracer=None):\n    pass\n") == []

    def test_null_tracer_default_clean(self):
        assert rules_fired("def f(tracer=NullTracer()):\n    pass\n") == []

    def test_kwonly_tracer_checked(self):
        assert "tracer-default" in rules_fired("def f(*, tracer):\n    pass\n")


class TestMutableDefault:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "list()", "dict()", "bytearray()", "[x for x in y]"]
    )
    def test_mutable_defaults_fire(self, default):
        src = f"def f(x={default}):\n    pass\n"
        assert rules_fired(src) == ["mutable-default"]

    def test_kwonly_mutable_default_fires(self):
        assert "mutable-default" in rules_fired("def f(*, x=[]):\n    pass\n")

    def test_immutable_defaults_clean(self):
        src = "def f(a=None, b=0, c=(), d='x', e=frozenset()):\n    pass\n"
        assert rules_fired(src) == []


class TestUnstableIteration:
    def test_set_display_fires(self):
        assert rules_fired("for x in {1, 2}:\n    pass\n") == ["unstable-iteration"]

    def test_set_call_fires(self):
        assert "unstable-iteration" in rules_fired("for x in set(names):\n    pass\n")

    def test_comprehension_over_set_fires(self):
        assert "unstable-iteration" in rules_fired("out = [x for x in set(names)]\n")

    def test_sorted_wrapper_clean(self):
        assert rules_fired("for x in sorted(set(names)):\n    pass\n") == []

    def test_dict_fromkeys_clean(self):
        assert rules_fired("for x in dict.fromkeys(names):\n    pass\n") == []


class TestParseError:
    def test_syntax_error_reported_not_raised(self):
        violations = lint_source("def (:\n")
        assert [v.rule for v in violations] == ["parse-error"]
        assert violations[0].line == 1


class TestRuleSelection:
    def test_subset_runs_only_selected(self):
        src = "import random\nt = time.time()\n"
        only = lint_source(src, rules=["wall-clock"])
        assert [v.rule for v in only] == ["wall-clock"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rules"):
            lint_source("x = 1\n", rules=["no-such-rule"])

    def test_every_documented_rule_has_description(self):
        for rule, description in RULES.items():
            assert rule == rule.lower()
            assert description


class TestViolationMetadata:
    def test_location_and_serialization(self):
        violations = lint_source("import time\nt = time.time()\n", path="mod.py")
        (v,) = violations
        assert (v.path, v.rule, v.line) == ("mod.py", "wall-clock", 2)
        assert v.to_dict() == {
            "rule": "wall-clock",
            "path": "mod.py",
            "line": 2,
            "col": v.col,
            "message": v.message,
        }
        assert "mod.py:2:" in v.format()

    def test_report_dict_counts(self):
        violations = lint_source("import random\nimport time\nt = time.time()\n")
        doc = CheckReport([static_tool_report("lint", violations, n_files=1)]).to_dict()
        assert doc["ok"] is False
        assert doc["tools"]["lint"]["n_files"] == 1
        assert doc["n_violations"] == len(violations)
        assert doc["by_rule"]["wall-clock"] == 1


class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        """Satellite: `repro lint src/repro` exits 0 on this branch."""
        violations, n_files = lint_paths([REPO_ROOT / "src" / "repro"])
        assert n_files > 50
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_missing_path_rejected(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([REPO_ROOT / "no-such-dir"])
