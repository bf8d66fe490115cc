"""Per-rule positive/negative coverage of the ``repro.lint`` catalogue.

Every shipped DIT rule gets at least one fixture (or inline temp file)
that *triggers* it and at least one near-miss that must *not* — the
negatives pin down the rules' boundaries (construction-time bypasses,
private fields, constant-name setattr, registered-pure helpers, ...).
"""

from __future__ import annotations

import os

from repro.lint import ERROR, RULES, WARNING, Diagnostic, LintReport
from repro.lint.modlint import lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def lint_fixture(*names: str) -> LintReport:
    return lint_paths([fixture(name) for name in names])


def diags(report: LintReport, code: str) -> list[Diagnostic]:
    return [d for d in report.diagnostics if d.code == code]


# Catalogue shape. -------------------------------------------------------------


def test_rule_catalogue_is_stable():
    assert set(RULES) == {
        "DIT001", "DIT002", "DIT003", "DIT004", "DIT005", "DIT006",
        "DIT007", "DIT008", "DIT101", "DIT102", "DIT103", "DIT104",
        "DIT105",
    }
    for code, rule in RULES.items():
        assert rule.code == code
        assert rule.severity in (ERROR, WARNING)
        assert rule.name and rule.summary
        # --explain needs depth for every rule.
        assert rule.rationale and rule.example


def test_diagnostic_defaults_severity_from_rule():
    diag = Diagnostic("DIT001", "boom", file="x.py", line=3)
    assert diag.severity == ERROR
    assert "DIT001" in diag.format() and "x.py:3" in diag.format()


def test_diagnostic_severity_override():
    diag = Diagnostic("DIT101", "soft", severity=WARNING)
    assert diag.severity == WARNING


# The clean fixture is the shared negative for the whole catalogue. ------------


def test_clean_fixture_has_no_findings():
    report = lint_fixture("clean.py")
    assert report.diagnostics == []
    assert report.ok
    assert report.files_linted == 1
    assert report.exit_code() == 0
    assert report.exit_code(strict_warnings=True) == 0


def test_fixture_tree_reports_every_rule():
    report = lint_paths([FIXTURES])
    assert report.codes() == set(RULES)
    assert not report.ok
    assert report.exit_code() == 1


# DIT001 — impure helper. ------------------------------------------------------


def test_dit001_impure_helper_flagged():
    report = lint_fixture("impure_helper.py")
    found = diags(report, "DIT001")
    assert len(found) == 1
    assert found[0].severity == ERROR
    assert found[0].function == "bump"
    assert "side effects" in found[0].message


def test_dit001_pure_helper_not_flagged():
    assert not diags(lint_fixture("clean.py"), "DIT001")


# DIT002 — unverifiable call. --------------------------------------------------


def test_dit002_unresolved_call_flagged():
    report = lint_fixture("unverifiable.py")
    found = diags(report, "DIT002")
    assert found and found[0].severity == WARNING
    assert "mystery_predicate" in found[0].message


def test_dit002_resolved_helper_not_flagged():
    assert not diags(lint_fixture("clean.py"), "DIT002")


# DIT003 — untracked helper read. ----------------------------------------------


def test_dit003_deep_read_flagged():
    report = lint_fixture("deep_helper.py")
    found = diags(report, "DIT003")
    assert len(found) == 1
    assert found[0].severity == ERROR
    assert found[0].function == "left_value"


def test_dit003_depth1_read_not_flagged():
    assert not diags(lint_fixture("clean.py"), "DIT003")


# DIT004 — mutable global. -----------------------------------------------------


def test_dit004_mutable_global_flagged():
    report = lint_fixture("mutable_global.py")
    found = diags(report, "DIT004")
    assert len(found) == 1
    assert found[0].severity == ERROR
    assert "LIMITS" in found[0].message


def test_dit004_immutable_global_not_flagged():
    # mutable_global.py also reads the immutable SCALE constant: exactly
    # one finding means SCALE passed.
    report = lint_fixture("mutable_global.py")
    assert len(diags(report, "DIT004")) == 1
    assert not diags(lint_fixture("clean.py"), "DIT004")


# DIT005 — unverifiable method. ------------------------------------------------


def test_dit005_unregistered_method_flagged():
    report = lint_fixture("unverifiable.py")
    found = diags(report, "DIT005")
    assert found and found[0].severity == WARNING
    assert ".digest()" in found[0].message


def test_dit005_registered_method_not_flagged(tmp_path):
    source = (
        "from repro import TrackedObject, check, register_pure_method\n"
        "\n"
        "class Item(TrackedObject):\n"
        "    def __init__(self, value):\n"
        "        self.value = value\n"
        "    def digest(self):\n"
        "        return hash(self.value)\n"
        "\n"
        "register_pure_method(Item, 'digest')\n"
        "\n"
        "@check\n"
        "def item_ok(item):\n"
        "    return item is None or item.digest() >= 0\n"
    )
    path = tmp_path / "registered_method.py"
    path.write_text(source)
    assert not diags(lint_paths([str(path)]), "DIT005")


# DIT008 — unattributable tracked-receiver method. -----------------------------


def test_dit008_deep_reading_method_flagged():
    report = lint_fixture("unattributable_method.py")
    found = diags(report, "DIT008")
    assert len(found) == 1
    assert found[0].severity == ERROR
    assert found[0].function == "Wallet.owner_name"
    assert "cannot attribute" in found[0].message


def test_dit008_depth1_method_not_flagged(tmp_path):
    source = (
        "from repro import TrackedObject, check, register_pure_method\n"
        "\n"
        "class Item(TrackedObject):\n"
        "    def __init__(self, value):\n"
        "        self.value = value\n"
        "    def digest(self):\n"
        "        return hash(self.value)\n"
        "\n"
        "register_pure_method(Item, 'digest')\n"
        "\n"
        "@check\n"
        "def item_ok(item):\n"
        "    return item is None or item.digest() >= 0\n"
    )
    path = tmp_path / "depth1_method.py"
    path.write_text(source)
    assert not diags(lint_paths([str(path)]), "DIT008")


def test_dit008_untracked_class_not_flagged(tmp_path):
    # Methods on untracked receivers have no barrier-visible heap to
    # misattribute; only tracked classes gate.
    source = (
        "from repro import check, register_pure_method\n"
        "\n"
        "class Plain:\n"
        "    def deep(self):\n"
        "        return self.inner.value\n"
        "\n"
        "register_pure_method(Plain, 'deep')\n"
        "\n"
        "@check\n"
        "def plain_ok(p):\n"
        "    return p is None or p.deep() >= 0\n"
    )
    path = tmp_path / "untracked_method.py"
    path.write_text(source)
    assert not diags(lint_paths([str(path)]), "DIT008")


# DIT006 — registered-pure lie. ------------------------------------------------


def test_dit006_registered_lie_flagged():
    report = lint_fixture("registered_lie.py")
    found = diags(report, "DIT006")
    assert len(found) == 1
    assert found[0].severity == ERROR
    assert found[0].function == "absorb"
    # The registration upgrades the finding: no duplicate DIT001.
    assert not diags(report, "DIT001")


def test_dit006_registered_truthful_helper_not_flagged():
    assert not diags(lint_fixture("clean.py"), "DIT006")


# DIT007 — check-restriction violation. ----------------------------------------


def test_dit007_inadmissible_check_flagged():
    report = lint_fixture("check_violation.py")
    found = diags(report, "DIT007")
    assert found and found[0].severity == ERROR
    assert found[0].function == "normalize_and_check"
    assert found[0].line == 19  # the offending store, not the def line


def test_dit007_unparseable_file_flagged(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def oops(:\n")
    report = lint_paths([str(path)])
    found = diags(report, "DIT007")
    assert found and "cannot be parsed" in found[0].message


def test_dit007_admissible_check_not_flagged():
    assert not diags(lint_fixture("clean.py"), "DIT007")


# DIT101 — setattr bypass. -----------------------------------------------------


def test_dit101_monitored_field_is_error():
    report = lint_fixture("bypass_setattr.py")
    found = diags(report, "DIT101")
    by_function = {d.function: d for d in found}
    assert by_function["bypass_value"].severity == ERROR
    assert by_function["bypass_color"].severity == WARNING


def test_dit101_init_and_private_fields_exempt():
    report = lint_fixture("bypass_setattr.py")
    functions = {d.function for d in diags(report, "DIT101")}
    assert "Cell.__init__" not in functions  # construction precedes tracking
    assert "bump_generation" not in functions  # _private bookkeeping


# DIT102 — __dict__ store. -----------------------------------------------------


def test_dit102_dict_stores_flagged():
    report = lint_fixture("dict_store.py")
    found = diags(report, "DIT102")
    assert {d.function for d in found} == {"poke", "merge"}
    assert all(d.severity == ERROR for d in found)


def test_dit102_plain_attribute_store_not_flagged():
    assert not diags(lint_fixture("clean.py"), "DIT102")


# DIT103 — dynamic setattr. ----------------------------------------------------


def test_dit103_dynamic_name_flagged_constant_name_not():
    report = lint_fixture("dynamic_setattr.py")
    found = diags(report, "DIT103")
    assert {d.function for d in found} == {"set_field"}
    assert found[0].severity == WARNING


# DIT104 — raw backing alias. --------------------------------------------------


def test_dit104_mutation_is_error_alias_is_warning():
    report = lint_fixture("alias_mutation.py")
    by_function = {d.function: d for d in diags(report, "DIT104")}
    assert by_function["sneak_append"].severity == ERROR
    assert by_function["sneak_store"].severity == ERROR
    assert by_function["grab"].severity == WARNING
    assert "peek_len" not in by_function  # plain reads are fine


# DIT105 — untracked monitored store. ------------------------------------------


def test_dit105_untracked_class_flagged():
    report = lint_fixture("untracked_store.py")
    found = diags(report, "DIT105")
    assert {d.function for d in found} == {"PlainCache.refresh"}
    assert found[0].severity == WARNING


def test_dit105_tracked_class_and_init_not_flagged():
    report = lint_fixture("untracked_store.py")
    functions = {d.function for d in diags(report, "DIT105")}
    assert "Tracked.set" not in functions
    assert "PlainCache.__init__" not in functions


# noqa suppression. ------------------------------------------------------------


def test_noqa_suppresses_specific_code_and_bare():
    report = lint_fixture("noqa_suppressed.py")
    assert report.diagnostics == []


def test_noqa_does_not_suppress_other_codes(tmp_path):
    source = (
        "from repro import TrackedObject, check\n"
        "\n"
        "class C(TrackedObject):\n"
        "    def __init__(self, value):\n"
        "        self.value = value\n"
        "\n"
        "@check\n"
        "def ok(c):\n"
        "    return c is None or c.value >= 0\n"
        "\n"
        "def poke(c, v):\n"
        "    object.__setattr__(c, 'value', v)  # noqa: DIT102\n"
    )
    path = tmp_path / "wrong_noqa.py"
    path.write_text(source)
    report = lint_paths([str(path)])
    assert diags(report, "DIT101")  # DIT102 suppression does not apply


# Report model. ----------------------------------------------------------------


def test_report_sorting_and_counts():
    report = lint_paths([FIXTURES])
    ordered = report.sorted()
    assert ordered == sorted(
        ordered, key=lambda d: (d.file or "", d.line)
    )
    assert len(report.errors) + len(report.warnings) == len(report)
    text = report.format_text()
    assert text.endswith(
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)"
    )


def test_exit_code_strict_warnings():
    warn_only = LintReport([Diagnostic("DIT103", "dynamic")])
    assert warn_only.exit_code() == 0
    assert warn_only.exit_code(strict_warnings=True) == 1
    assert LintReport().exit_code(strict_warnings=True) == 0


def test_to_json_roundtrip():
    import json

    report = lint_fixture("impure_helper.py")
    payload = json.loads(report.to_json())
    assert payload["version"] == 1
    assert payload["files_linted"] == 1
    assert payload["summary"]["errors"] == len(report.errors)
    codes = {d["code"] for d in payload["diagnostics"]}
    assert "DIT001" in codes

