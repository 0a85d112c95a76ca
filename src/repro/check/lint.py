"""AST lint rules enforcing the repo's simulation discipline.

The simulator's headline numbers are only trustworthy while a handful of
code-level invariants hold everywhere: time comes from the simulated clock
(never the wall clock), randomness flows through explicitly seeded
``np.random.Generator`` objects (never hidden global state), simulated
times are compared with tolerances (never float ``==``), engine DAG tasks
are priced through the shared ``op_task``/``transfer_task`` constructors
(so every duration carries a decomposable :class:`TaskCost`), tracing is
opt-in and zero-cost (``tracer=None`` defaults), and nothing that feeds a
scheduling decision iterates an unordered set.  Scattered per-feature
tests cannot enforce discipline like that; a linter can.

``lint_paths`` walks Python files, parses each with :mod:`ast`, and runs
the rule set below (:data:`RULES`).  A violation can be suppressed at its
line with an inline comment::

    res[dep].end == tr.start  # repro-lint: disable=float-time-eq -- exact by construction

Everything after ``--`` is a free-form justification.  Suppressions that
name an unknown rule are themselves reported (rule ``bad-suppression``),
so typos cannot silently disable a check.  Run via ``repro lint`` (see
docs/static_analysis.md for the rule catalogue).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.check.registry import FLOW_RULES

__all__ = [
    "RULES",
    "LintViolation",
    "lint_source",
    "lint_paths",
    "iter_python_files",
]

# Rule id -> one-line description.  docs/static_analysis.md carries the
# full rationale, examples, and suppression guidance for each.
RULES: dict[str, str] = {
    "wall-clock": "wall-clock time source; simulation code must use the simulated clock",
    "stdlib-random": "stdlib `random` module; use an explicitly seeded np.random.Generator",
    "np-legacy-random": "legacy np.random module-level call; use np.random.default_rng(seed)",
    "unseeded-rng": "np.random.default_rng() without a seed is nondeterministic",
    "float-time-eq": "float ==/!= on simulated times or durations; compare with a tolerance",
    "inline-sim-task": "SimTask constructed inline; price tasks via op_task/transfer_task",
    "tracer-default": "tracer parameters must default to None (NullTracer-compatible)",
    "mutable-default": "mutable default argument",
    "unstable-iteration": "iteration over an unordered set; use sorted() or dict.fromkeys()",
    "bad-suppression": "suppression comment names an unknown rule",
    "parse-error": "file does not parse",
}

# Rules that cannot be selected or suppressed away — they guard the linter
# itself rather than the linted code.
_META_RULES = ("bad-suppression", "parse-error")

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_\-, ]+)")

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
}
# Suffix-matched so `datetime.datetime.now`, `datetime.now` (after
# `from datetime import datetime`) and `date.today` all hit.
_WALL_CLOCK_SUFFIXES = (
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

# The np.random attributes that are part of the *seeded* Generator API.
# Everything else on np.random is the legacy global-state surface.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

# Identifier fragments that mark a value as simulated time / duration.
# Identifiers are split on underscores; any matching fragment counts.
_TIME_WORDS = {
    "time",
    "times",
    "duration",
    "durations",
    "makespan",
    "deadline",
    "latency",
    "ttft",
    "tbt",
    "start",
    "end",
    "now",
    "horizon",
    "elapsed",
    "arrival",
    "t0",
    "t1",
}

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}


@dataclass(frozen=True)
class LintViolation:
    """One rule firing at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, None for anything dynamic."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_timelike(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    else:
        return False
    return any(part in _TIME_WORDS for part in ident.lower().split("_"))


def _is_zero_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value == 0
    )


def _is_non_numeric_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and (
        node.value is None or isinstance(node.value, (str, bytes, bool))
    )


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass AST walk emitting raw (unsuppressed) violations."""

    def __init__(self, path: str, enabled: set[str]) -> None:
        self.path = path
        self.enabled = enabled
        self.violations: list[LintViolation] = []
        # The telemetry package may take required tracer arguments — its
        # whole purpose is tracing; everywhere else tracing must be opt-in.
        self._tracer_exempt = "telemetry" in Path(path).parts

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.enabled:
            self.violations.append(
                LintViolation(
                    rule=rule,
                    path=self.path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    message=message,
                )
            )

    # ---- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._emit(
                    "stdlib-random",
                    node,
                    "import of the stdlib `random` module (global hidden "
                    "state); use a seeded np.random.Generator",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._emit(
                "stdlib-random",
                node,
                "import from the stdlib `random` module (global hidden "
                "state); use a seeded np.random.Generator",
            )
        self.generic_visit(node)

    # ---- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted_name(node.func)
        if chain is not None:
            self._check_wall_clock(node, chain)
            self._check_random_calls(node, chain)
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "SimTask":
            self._emit(
                "inline-sim-task",
                node,
                "SimTask constructed inline — price tasks via op_task/"
                "transfer_task so durations carry a decomposable TaskCost",
            )
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, chain: str) -> None:
        hit = chain in _WALL_CLOCK_CALLS or any(
            chain == s or chain.endswith("." + s) for s in _WALL_CLOCK_SUFFIXES
        )
        if hit:
            self._emit(
                "wall-clock",
                node,
                f"`{chain}()` reads the wall clock; simulation code must "
                "derive time from the simulated clock",
            )

    def _check_random_calls(self, node: ast.Call, chain: str) -> None:
        if chain.startswith("random."):
            self._emit(
                "stdlib-random",
                node,
                f"`{chain}()` uses the stdlib global RNG; use a seeded "
                "np.random.Generator",
            )
            return
        parts = chain.split(".")
        if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            fn = parts[2]
            if fn == "default_rng":
                if not node.args and not node.keywords:
                    self._emit(
                        "unseeded-rng",
                        node,
                        "np.random.default_rng() without a seed draws OS "
                        "entropy — pass an explicit seed",
                    )
            elif fn not in _NP_RANDOM_ALLOWED:
                self._emit(
                    "np-legacy-random",
                    node,
                    f"`{chain}()` mutates numpy's global RNG state; use "
                    "np.random.default_rng(seed)",
                )

    # ---- comparisons ---------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            skip = any(
                _is_zero_literal(o) or _is_non_numeric_literal(o) for o in operands
            )
            if not skip and any(_is_timelike(o) for o in operands):
                named = next(o for o in operands if _is_timelike(o))
                ident = named.id if isinstance(named, ast.Name) else named.attr
                self._emit(
                    "float-time-eq",
                    node,
                    f"exact ==/!= on simulated time `{ident}`; float "
                    "schedule arithmetic needs a tolerance (or a justified "
                    "suppression where bit-exactness is the contract)",
                )
        self.generic_visit(node)

    # ---- function definitions ------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def _check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        # Positional/keyword defaults align right-to-left.
        pos_args = args.posonlyargs + args.args
        defaults: list[tuple[ast.arg, ast.AST | None]] = []
        pad = len(pos_args) - len(args.defaults)
        for i, arg in enumerate(pos_args):
            defaults.append((arg, args.defaults[i - pad] if i >= pad else None))
        defaults.extend(zip(args.kwonlyargs, args.kw_defaults))

        for arg, default in defaults:
            if default is not None and self._is_mutable_default(default):
                self._emit(
                    "mutable-default",
                    default,
                    f"mutable default for parameter `{arg.arg}` is shared "
                    "across calls; default to None and construct inside",
                )
            if arg.arg == "tracer" and not self._tracer_exempt:
                if default is None:
                    self._emit(
                        "tracer-default",
                        arg,
                        f"`{node.name}` requires a tracer argument; tracing "
                        "must be opt-in (default tracer=None) so untraced "
                        "runs stay zero-cost",
                    )
                elif not self._is_null_tracer_default(default):
                    self._emit(
                        "tracer-default",
                        default,
                        f"`{node.name}` defaults its tracer to a recording "
                        "value; default must be None or NullTracer()",
                    )

    @staticmethod
    def _is_mutable_default(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CALLS
        )

    @staticmethod
    def _is_null_tracer_default(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and node.value is None:
            return True
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            return name is not None and name.split(".")[-1] == "NullTracer"
        return False

    # ---- iteration order -----------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)

    def _check_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    def _check_iterable(self, node: ast.AST) -> None:
        unordered = isinstance(node, (ast.Set, ast.SetComp)) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )
        if unordered:
            self._emit(
                "unstable-iteration",
                node,
                "iterating an unordered set; order-stabilize with sorted() "
                "or dict.fromkeys() before it can feed a scheduler decision",
            )


def _collect_suppressions(source: str) -> dict[int, list[str]]:
    """Map line number -> rule names suppressed by an inline comment."""
    suppressed: dict[int, list[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            names = match.group(1).split("--")[0]
            rules = [n.strip() for n in names.split(",") if n.strip()]
            suppressed.setdefault(tok.start[0], []).extend(rules)
    except tokenize.TokenizeError:
        pass  # the AST parse reports the file as broken
    return suppressed


def lint_source(
    source: str, path: str = "<string>", rules: Iterable[str] | None = None
) -> list[LintViolation]:
    """Lint one module's source; returns violations after suppression.

    ``rules`` selects a subset of :data:`RULES` (default: all).  Unknown
    rule names raise ``ValueError``.  Suppression comments apply to the
    line each violation anchors on; a suppression naming an unknown rule
    is reported as a ``bad-suppression`` violation.
    """
    if rules is None:
        enabled = set(RULES) - set(_META_RULES)
    else:
        enabled = set(rules)
        unknown = enabled - set(RULES)
        if unknown:
            raise ValueError(f"unknown lint rules: {sorted(unknown)}")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintViolation(
                rule="parse-error",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]

    visitor = _RuleVisitor(path, enabled)
    visitor.visit(tree)
    suppressions = _collect_suppressions(source)

    kept = [
        v
        for v in visitor.violations
        if v.rule not in suppressions.get(v.line, [])
    ]
    # Suppressions are validated against every rule any check tool can
    # emit (lint + the check-flow passes share the comment syntax), so a
    # flow-rule suppression does not trip the linter — but a typo still
    # does.
    suppressible = (set(RULES) | set(FLOW_RULES)) - set(_META_RULES)
    for line in sorted(suppressions):
        for name in suppressions[line]:
            if name not in suppressible:
                kept.append(
                    LintViolation(
                        rule="bad-suppression",
                        path=path,
                        line=line,
                        col=0,
                        message=f"suppression names unknown rule {name!r}; "
                        f"known rules: {', '.join(sorted(suppressible))}",
                    )
                )
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return kept


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return files


def lint_paths(
    paths: Sequence[str | Path], rules: Iterable[str] | None = None
) -> tuple[list[LintViolation], int]:
    """Lint files/directories; returns (violations, files linted)."""
    files = iter_python_files(paths)
    violations: list[LintViolation] = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        violations.extend(lint_source(source, path=str(file), rules=rules))
    return violations, len(files)
