"""Fixture tests for the message-flow (MSG), resource-bounds (RES) and
suppression-hygiene (NOQ) rule families.

Each rule gets a negative fixture (flagged at exact lines) and a
near-miss positive fixture (structurally close, stays silent) under
``tests/fixtures/analysis/``.  Fixtures are analyzed with the full
registry, so assertions filter to the family under test — other families
legitimately fire on some of them (e.g. ALI002 on a handler that
stashes its payload).
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


# -- MSG001: sent but never handled -------------------------------------------

def test_msg001_flags_dead_letter_type():
    findings = check_family("msg001_bad.py", "repro.core.fixture", "MSG")
    assert located(findings) == [("MSG001", 14)]  # class Ping
    assert "'fx.ping'" in findings[0].message
    assert "Proto.poke" in findings[0].message  # names the sender


def test_msg001_silent_when_tag_registered():
    assert check_family("msg001_ok.py", "repro.core.fixture", "MSG") == []


def test_msg001_out_of_scope_module():
    assert check_family("msg001_bad.py", "repro.runtime.fixture", "MSG") == []


# -- MSG002: handled but never sent -------------------------------------------

def test_msg002_flags_dead_handler():
    findings = check_family("msg002_bad.py", "repro.core.fixture", "MSG")
    assert located(findings) == [("MSG002", 13)]  # the register call
    assert "'fx.orphan'" in findings[0].message
    assert "Proto._on_orphan" in findings[0].message


def test_msg002_silent_when_type_is_sent():
    assert check_family("msg002_ok.py", "repro.core.fixture", "MSG") == []


# -- MSG003: payload-field mismatch -------------------------------------------

def test_msg003_flags_phantom_field_read():
    findings = check_family("msg003_bad.py", "repro.core.fixture", "MSG")
    assert located(findings) == [("MSG003", 32)]  # msg.weight read
    assert ".weight" in findings[0].message
    assert "Report" in findings[0].message


def test_msg003_silent_on_populated_surface():
    # fields, __init__ params, class-body defaults and methods are all
    # sanctioned reads.
    assert check_family("msg003_ok.py", "repro.core.fixture", "MSG") == []


# -- RES001: unbounded growth on a receive path -------------------------------

def test_res001_flags_unbounded_handler_growth():
    findings = check_family("res001_bad.py", "repro.core.fixture", "RES")
    assert located(findings) == [("RES001", 20), ("RES001", 21)]
    assert "self.backlog" in findings[0].message
    assert "self.seen" in findings[1].message
    assert "receive path" in findings[0].message


def test_res001_silent_on_bounded_shapes():
    # maxlen deque, len()-guarded dict, peer-keyed map, evicted list.
    assert check_family("res001_ok.py", "repro.core.fixture", "RES") == []


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


# -- RES003: durable write amplification --------------------------------------

def test_res003_flags_loop_of_bare_writes():
    findings = check_family("res003_bad.py", "repro.core.fixture", "RES")
    assert located(findings) == [("RES003", 13)]
    assert "write_barrier" in findings[0].message


def test_res003_silent_under_barrier_and_outside_loops():
    assert check_family("res003_ok.py", "repro.core.fixture", "RES") == []


# -- NOQ001: bare suppressions ------------------------------------------------

def test_noq001_flags_unjustified_suppressions():
    findings = check_family("noq001_bad.py", "repro.core.fixture", "NOQ")
    assert located(findings) == [("NOQ001", 11), ("NOQ001", 15)]
    assert "noqa(DET001)" in findings[0].message
    assert "bare noqa" in findings[1].message
    assert "justification" in findings[0].message


def test_noq001_silent_when_justified():
    assert check_family("noq001_ok.py", "repro.core.fixture", "NOQ") == []


def test_noq001_excluded_from_the_analyzer_package():
    # The analysis package documents the noqa syntax in docstrings; the
    # rule is carved out of it by configuration, not by suppressions.
    assert check_family("noq001_bad.py", "repro.analysis.fixture",
                        "NOQ") == []
