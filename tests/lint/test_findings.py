"""LintFinding mechanics: severities, ordering, keys, the rule registry."""

import pytest

from repro.lint import (
    LintFinding,
    SEVERITIES,
    max_severity,
    sort_findings,
)
from repro.util.loc import SourceLocation


def _f(rule="D101", severity="error", line=10, **kw):
    kw.setdefault("name", "some-rule")
    kw.setdefault("subject", "stencil")
    kw.setdefault("message", "msg")
    return LintFinding(
        rule=rule,
        severity=severity,
        location=SourceLocation("file.py", line),
        **kw,
    )


def test_severities_are_ordered_most_severe_first():
    assert SEVERITIES == ("error", "warning", "info")


def test_unknown_severity_rejected():
    with pytest.raises(ValueError, match="unknown severity"):
        _f(severity="fatal")


def test_sort_by_severity_then_location():
    a = _f(severity="warning", line=1)
    b = _f(severity="error", line=99)
    c = _f(severity="error", line=2)
    assert sort_findings([a, b, c]) == [c, b, a]


def test_max_severity_is_the_most_severe_present():
    assert max_severity([]) is None
    assert max_severity([_f(severity="warning")]) == "warning"
    assert (
        max_severity([_f(severity="warning"), _f(severity="error")])
        == "error"
    )


def test_key_excludes_message():
    a = _f(message="range [0:3]")
    b = _f(message="range [0:9]")
    assert a.key() == b.key()


def test_str_contains_location_rule_and_subject():
    text = str(_f())
    assert "file.py:10" in text
    assert "D101" in text
    assert "stencil" in text


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------


def test_registry_knows_every_rule_family():
    from repro.lint import (
        COMM_RULES,
        DSL_RULES,
        KNOWN_RULES,
        RUNTIME_RULES,
        SDFG_RULES,
    )

    for catalog in (DSL_RULES, SDFG_RULES, COMM_RULES, RUNTIME_RULES):
        for rule, name in catalog.items():
            assert KNOWN_RULES[rule] == name
    assert {"D101", "S201", "C301", "C302", "C303", "R401"} <= set(
        KNOWN_RULES
    )


def test_register_rules_extends_registry():
    import repro.lint.findings as findings_mod
    from repro.lint import register_rules

    register_rules({"X901": "made-up"})
    try:
        assert findings_mod.KNOWN_RULES["X901"] == "made-up"
    finally:
        findings_mod.KNOWN_RULES.pop("X901", None)
