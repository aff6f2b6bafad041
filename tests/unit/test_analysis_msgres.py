"""Fixture tests for the resource-bounds rule (RES002).

The rule gets a negative fixture (flagged at exact lines) and a
near-miss positive fixture (structurally close, stays silent) under
``tests/fixtures/analysis/``.  Fixtures are analyzed with the full
registry, so assertions filter to the family under test — other families
may legitimately fire on some of them.
"""

from __future__ import annotations

import os

from repro.analysis import analyze_source

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "fixtures", "analysis")


def check_family(name: str, module: str, family: str):
    path = os.path.join(FIXTURES, name)
    with open(path, encoding="utf-8") as handle:
        findings = analyze_source(handle.read(), module=module, path=path)
    return [f for f in findings if f.rule_id.startswith(family)]


def located(findings):
    return [(f.rule_id, f.line) for f in findings]


# -- RES002: blocking call in async code --------------------------------------

def test_res002_flags_blocking_calls_in_async():
    findings = check_family("res002_bad.py", "repro.runtime.fixture",
                            "RES")
    assert located(findings) == [("RES002", 14), ("RES002", 15),
                                 ("RES002", 17)]
    assert "time.sleep()" in findings[0].message
    assert "open()" in findings[1].message
    assert "subprocess.run()" in findings[2].message


def test_res002_silent_on_async_safe_equivalents():
    assert check_family("res002_ok.py", "repro.runtime.fixture",
                        "RES") == []


def test_res002_out_of_scope_module():
    # The rule patrols the live runtime and harness only; the simulated
    # stack has no event loop to stall.
    assert check_family("res002_bad.py", "repro.core.fixture", "RES") == []
