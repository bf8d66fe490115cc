"""The ``python -m repro.lint`` command line: exit codes, output formats,
``--output``/``--strict-warnings``/``--rules``, and usage errors."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.lint.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def test_clean_file_exits_zero(capsys):
    assert main([fixture("clean.py")]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_violating_tree_exits_one_and_names_rule(capsys):
    assert main([FIXTURES]) == 1
    out = capsys.readouterr().out
    assert "DIT101" in out and "bypass_setattr.py" in out
    # Diagnostics carry file:line positions.
    assert "bypass_setattr.py:27" in out


def test_warning_only_file_exits_zero_unless_strict(capsys):
    path = fixture("dynamic_setattr.py")
    assert main([path]) == 0
    capsys.readouterr()
    assert main([path, "--strict-warnings"]) == 1


def test_json_format(capsys):
    assert main([FIXTURES, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["summary"]["errors"] > 0
    codes = {d["code"] for d in payload["diagnostics"]}
    assert "DIT001" in codes and "DIT104" in codes


def test_output_file_written(tmp_path, capsys):
    out_path = tmp_path / "lint.json"
    main([FIXTURES, "--format", "json", "--output", str(out_path)])
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["files_linted"] > 0


def test_rules_listing(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    assert "DIT001" in out and "DIT105" in out


def test_no_paths_is_usage_error(capsys):
    assert main([]) == 2
    assert "no paths given" in capsys.readouterr().err


def test_missing_path_is_usage_error(capsys):
    assert main([fixture("does_not_exist.py")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_module_entry_point_runs():
    """``python -m repro.lint`` is wired up end to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", fixture("clean.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "0 error(s)" in proc.stdout


def test_injected_bypass_in_structure_copy(tmp_path):
    """The acceptance-criterion drill: copy a shipped structure, inject a
    barrier bypass, and the linter must fail naming rule, file, line."""
    src = os.path.join(REPO_ROOT, "src", "repro", "structures",
                       "ordered_list.py")
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    # Append a bypassing mutator at module level.
    lines.append(
        "\n\ndef evil_bypass(e, value):\n"
        "    object.__setattr__(e, \"value\", value)\n"
    )
    target = tmp_path / "ordered_list_bypassed.py"
    target.write_text("".join(lines))
    from repro.lint.modlint import lint_paths

    report = lint_paths([str(target)])
    assert report.exit_code() == 1
    [diag] = [d for d in report.diagnostics if d.code == "DIT101"]
    assert diag.severity == "error"
    assert diag.file == str(target)
    assert diag.line == len(lines) + 3  # the injected setattr line


# --explain. -------------------------------------------------------------------


def test_explain_known_rule(capsys):
    assert main(["--explain", "DIT003"]) == 0
    out = capsys.readouterr().out
    assert "DIT003" in out and "untracked-helper-read" in out
    assert "Example:" in out


def test_explain_is_case_insensitive(capsys):
    assert main(["--explain", "dit101"]) == 0
    assert "setattr-bypass" in capsys.readouterr().out


def test_explain_unknown_rule_is_usage_error(capsys):
    assert main(["--explain", "DIT999"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule code" in err and "DIT999" in err


def test_explain_covers_full_catalogue(capsys):
    """Every shipped rule explains itself: id, summary, rationale, and an
    example — none of the entries is a stub."""
    from repro.lint import RULES

    for code, rule in sorted(RULES.items()):
        assert main(["--explain", code]) == 0
        out = capsys.readouterr().out
        assert code in out
        assert rule.name in out
        assert "Example:" in out


def test_explain_needs_no_paths(capsys):
    """--explain is standalone: no paths required, unlike a lint run."""
    assert main(["--explain", "DIT001"]) == 0
    capsys.readouterr()
    assert main([]) == 2  # whereas a pathless lint run is a usage error
