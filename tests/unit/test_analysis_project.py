"""Tests for the whole-program analysis rules and the new CLI surface.

The interprocedural rule (WAL003) gets a negative fixture
(flagged at an exact line) and a near-miss positive fixture
(structurally close, stays silent) under ``tests/fixtures/analysis/``.
The CLI additions — ``--format sarif``, all-paths error collection — are
tested end to end.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.analysis import (analyze_paths, analyze_source,
                            default_registry, format_sarif)
from repro.analysis.engine import Report
from repro.cli import main as cli_main
from repro.errors import AnalysisError

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "fixtures", "analysis")


def check_fixture(name: str, module: str):
    path = os.path.join(FIXTURES, name)
    with open(path, encoding="utf-8") as handle:
        return analyze_source(handle.read(), module=module, path=path)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# -- WAL003: interprocedural persist-before-send ------------------------------

def test_wal003_flags_send_three_calls_deep():
    findings = check_fixture("wal003_bad.py", "repro.core.fixture")
    assert rule_ids(findings) == ["WAL003"]
    assert findings[0].line == 16  # the self._reply(sender) call site
    assert "state" in findings[0].message
    assert "_reply" in findings[0].message


def test_wal003_near_miss_helper_barrier_stays_silent():
    assert check_fixture("wal003_ok.py", "repro.core.fixture") == []


def test_wal003_out_of_scope_module_stays_silent():
    findings = check_fixture("wal003_bad.py", "repro.harness.fixture")
    assert findings == []


# -- all-paths error collection (exit code 2) ---------------------------------

def test_all_invalid_paths_reported_at_once(tmp_path):
    good = tmp_path / "ok.py"
    good.write_text("x = 1\n")
    missing_one = str(tmp_path / "nope-one")
    missing_two = str(tmp_path / "nope-two")
    with pytest.raises(AnalysisError) as excinfo:
        analyze_paths([missing_one, str(good), missing_two])
    message = str(excinfo.value)
    assert missing_one in message and missing_two in message


def test_cli_reports_every_bad_path(tmp_path, capsys):
    status = cli_main(["lint", str(tmp_path / "a"), str(tmp_path / "b")])
    captured = capsys.readouterr()
    assert status == 2
    assert str(tmp_path / "a") in captured.err
    assert str(tmp_path / "b") in captured.err


# -- SARIF output -------------------------------------------------------------

def sarif_document():
    findings = analyze_source(
        "import time\nt = time.time()\n",
        module="repro.runtime.fixture", path="src/repro/runtime/fixture.py")
    registry = default_registry()
    return json.loads(format_sarif(Report(findings, 1), registry.rules()))


def test_sarif_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    with open(os.path.join(FIXTURES, "sarif-2.1.0-subset.schema.json"),
              encoding="utf-8") as handle:
        schema = json.load(handle)
    jsonschema.validate(sarif_document(), schema)


def test_sarif_shape():
    document = sarif_document()
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    assert {"DET001", "WAL003", "ATM001", "RES003"} <= set(rule_index)
    result = run["results"][0]
    assert result["ruleId"] == "DET001"
    assert result["ruleIndex"] == rule_index["DET001"]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2
    assert region["startColumn"] == 5  # SARIF columns are 1-based


def test_cli_sarif_format(tmp_path, capsys):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    bad = pkg / "clocky.py"
    bad.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    status = cli_main(["lint", str(bad), "--format", "sarif"])
    assert status == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    assert document["runs"][0]["results"][0]["ruleId"] == "DET001"


# -- regression: the WAL003 tripwire on the real tree -------------------------

def repo_src():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, os.pardir, os.pardir, "src", "repro")


def test_deleting_log_before_send_trips_wal003(tmp_path):
    """Deleting the write-ahead barrier in BasicAtomicBroadcast.on_start's
    call chain must flip ``repro lint src/repro`` to exit 1 with WAL003."""
    tree = tmp_path / "repro"
    shutil.copytree(repo_src(), tree)
    basic = tree / "core" / "basic.py"
    source = basic.read_text()
    barrier = ("        self.log_before_send("
               "self.INCARNATION_KEY, self.incarnation)\n")
    assert barrier in source, "tripwire call site moved; update this test"
    basic.write_text(source.replace(barrier, ""))
    report = analyze_paths([str(tree)])
    wal003 = [f for f in report.findings if f.rule_id == "WAL003"]
    assert wal003, "removing the barrier must produce a WAL003 finding"
    assert any("on_start" in f.message and "incarnation" in f.message
               for f in wal003)
    assert any(f.path.endswith(os.path.join("core", "basic.py"))
               for f in wal003)
