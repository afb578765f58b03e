"""The analysis framework: suppressions, hygiene, CLI, self-check."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import Module, analyze_modules, analyze_paths
from repro.analysis.framework import (
    HYGIENE_RULE_ID,
    Finding,
    Rule,
    all_rules,
    iter_python_files,
    load_modules,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


class FlagEveryFor(Rule):
    """Test rule: one finding per ``for`` statement."""

    rule_id = "REP999"
    name = "flag-every-for"
    description = "test rule"

    def check_module(self, module):
        import ast

        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                yield Finding(rule=self.rule_id, message="a for",
                              path=module.path, line=node.lineno)


def module_of(source: str, path: str = "fixture.py") -> Module:
    return Module.from_source(textwrap.dedent(source), path)


class TestSuppressions:
    def test_unsuppressed_finding_survives(self):
        module = module_of("""
            for x in range(3):
                pass
        """)
        findings = analyze_modules([module], rules=[FlagEveryFor()])
        assert [f.rule for f in findings] == ["REP999"]

    def test_inline_suppression_with_rationale(self):
        module = module_of("""
            for x in range(3):  # repro: ignore[REP999] -- fixture reason
                pass
        """)
        assert analyze_modules([module], rules=[FlagEveryFor()]) == []

    def test_standalone_suppression_above(self):
        module = module_of("""
            # repro: ignore[REP999] -- fixture reason
            for x in range(3):
                pass
        """)
        assert analyze_modules([module], rules=[FlagEveryFor()]) == []

    def test_multiline_rationale_block(self):
        module = module_of("""
            # repro: ignore[REP999] -- the rationale starts here and
            # wraps onto a continuation comment line
            for x in range(3):
                pass
        """)
        assert analyze_modules([module], rules=[FlagEveryFor()]) == []

    def test_suppression_without_rationale_suppresses_nothing(self):
        module = module_of("""
            for x in range(3):  # repro: ignore[REP999]
                pass
        """)
        findings = analyze_modules([module], rules=[FlagEveryFor()])
        rules = sorted(f.rule for f in findings)
        assert rules == [HYGIENE_RULE_ID, "REP999"]

    def test_unused_suppression_is_reported(self):
        module = module_of("""
            x = 1  # repro: ignore[REP999] -- nothing fires here
        """)
        findings = analyze_modules([module], rules=[FlagEveryFor()])
        assert [f.rule for f in findings] == [HYGIENE_RULE_ID]
        assert "unused" in findings[0].message

    def test_unknown_rule_id_is_reported(self):
        module = module_of("""
            x = 1  # repro: ignore[REP777] -- no such rule
        """)
        findings = analyze_modules([module], rules=[FlagEveryFor()])
        assert [f.rule for f in findings] == [HYGIENE_RULE_ID]
        assert "unknown rule" in findings[0].message

    def test_wrong_rule_id_does_not_suppress(self):
        module = module_of("""
            # repro: ignore[REP002] -- wrong rule for this finding
            for x in range(3):
                pass
        """)
        findings = analyze_modules([module], rules=[FlagEveryFor()])
        assert "REP999" in {f.rule for f in findings}

    def test_suppression_in_string_literal_is_ignored(self):
        # Comment-looking text inside a string must not register: the
        # rule fixtures in this very test suite depend on it.
        module = module_of('''
            SNIPPET = """
            x = 1  # repro: ignore[REP999] -- not a real comment
            """
        ''')
        assert analyze_modules([module], rules=[FlagEveryFor()]) == []

    def test_hygiene_findings_not_suppressible(self):
        module = module_of("""
            # repro: ignore[REP000] -- trying to silence the police
            x = 1  # repro: ignore[REP999]
        """)
        findings = analyze_modules([module], rules=[FlagEveryFor()])
        assert HYGIENE_RULE_ID in {f.rule for f in findings}


class TestLoading:
    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        modules, errors = load_modules([bad])
        assert modules == []
        assert [f.rule for f in errors] == [HYGIENE_RULE_ID]

    def test_iter_python_files_expands_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        (tmp_path / "c.txt").write_text("not python\n")
        files = iter_python_files([tmp_path])
        assert {f.name for f in files} == {"a.py", "b.py"}
        assert files == sorted(files)

    def test_marker_extraction(self):
        module = module_of("""
            # repro: hot-module
            x = 1
        """)
        assert "hot-module" in module.markers


class TestRegistry:
    def test_all_rules_registered(self):
        ids = {rule.rule_id for rule in all_rules()}
        assert {"REP002", "REP003", "REP004", "REP005", "REP006",
                "REP007"} <= ids
        # REP001 guarded a flat-view cache; the cache is gone, so is it.
        assert "REP001" not in ids

    def test_finding_render_format(self):
        finding = Finding(rule="REP002", message="boom", path="a/b.py",
                          line=7)
        assert finding.render() == "a/b.py:7: REP002 boom"


class TestCli:
    def _run(self, *args: str, cwd: Path | None = None):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, cwd=cwd or REPO_ROOT,
        )

    def test_list_rules(self):
        result = self._run("--list-rules")
        assert result.returncode == 0
        assert "REP002" in result.stdout and "REP007" in result.stdout

    def test_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        result = self._run(str(clean))
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout == ""

    def test_findings_exit_one_with_locations(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("try:\n    pass\nexcept Exception:\n    pass\n")
        result = self._run(str(dirty))
        assert result.returncode == 1
        assert "REP006" in result.stdout
        assert ":3:" in result.stdout

    def test_missing_path_exits_two(self):
        result = self._run("definitely/not/a/path.py")
        assert result.returncode == 2

    def test_select_unknown_rule_exits_two(self):
        result = self._run("--select", "REP123", "src")
        assert result.returncode == 2


class TestShippedTreeIsClean:
    def test_src_tests_benchmarks_clean(self):
        """The acceptance criterion: the shipped tree has zero findings."""
        paths = [REPO_ROOT / name for name in ("src", "tests", "benchmarks")]
        findings = analyze_paths(paths, root=REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)
