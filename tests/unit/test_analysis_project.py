"""Tests for the whole-program analysis rules and the new CLI surface.

The four interprocedural rule families (WAL003, REC001, REC002, DET006)
each get a negative fixture (flagged at an exact line) and a near-miss
positive fixture (structurally close, stays silent) under
``tests/fixtures/analysis/``.  The CLI additions — ``--format sarif``,
all-paths error collection — are tested end to end.
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


# -- REC001: recovery completeness --------------------------------------------

def test_rec001_flags_write_never_recovered():
    findings = check_fixture("rec001_bad.py", "repro.core.fixture")
    assert rule_ids(findings) == ["REC001"]
    assert findings[0].line == 20  # the storage.log of VIEW_KEY
    assert "'proto', 'view'" in findings[0].message


def test_rec001_near_miss_lazy_handler_read_stays_silent():
    # The read-back sits in a handler that on_start merely *registers*;
    # the recovery closure must follow the address-taken reference.
    # (The fixture's "view" registration has no matching send, so MSG002
    # fires on it; this test owns the REC family only.)
    assert [f for f in check_fixture("rec001_ok.py", "repro.core.fixture")
            if f.rule_id.startswith("REC")] == []


# -- REC002: phantom recovery reads -------------------------------------------

def test_rec002_flags_read_of_unwritten_key():
    findings = check_fixture("rec002_bad.py", "repro.core.fixture")
    assert rule_ids(findings) == ["REC002"]
    assert findings[0].line == 14  # the storage.retrieve call
    assert "'proto', 'epoch'" in findings[0].message


def test_rec002_near_miss_helper_forwarded_write_stays_silent():
    # The write goes through a key-forwarding helper; the call site
    # supplies the concrete key pattern.
    assert check_fixture("rec002_ok.py", "repro.core.fixture") == []


def test_rec002_concatenated_write_satisfies_prefix_scan():
    # ``SEGMENT_KEY + (k,)`` is flattened operand by operand, so the
    # ``keys(SEGMENT_KEY)`` scan in on_start sees its writer.
    assert check_fixture("rec002_concat_ok.py", "repro.core.fixture") == []


def test_rec002_prefix_scan_without_writer_still_flagged():
    findings = check_fixture("rec002_concat_bad.py", "repro.core.fixture")
    assert sorted((f.rule_id, f.line) for f in findings) == [
        ("REC001", 21), ("REC002", 18)]
    scan = next(f for f in findings if f.rule_id == "REC002")
    assert "'proto', 'seg'" in scan.message
    # The concatenated write is no longer opaque to REC001 either.
    orphan = next(f for f in findings if f.rule_id == "REC001")
    assert "'proto', 'archive', *" in orphan.message


def test_rec_rules_inactive_without_recovery_surface():
    # No on_start in scope -> no recovery closure to check against, so
    # a lone write is not flagged (this keeps unrelated fixtures and
    # partial trees quiet).
    findings = analyze_source(
        "class Proto:\n"
        "    def save(self, view):\n"
        "        self.node.storage.log(('proto', 'view'), view)\n",
        module="repro.core.fixture", path="fixture.py")
    assert findings == []


# -- DET006: randomness/wall-clock taint --------------------------------------

def test_det006_flags_tainted_payload_in_chaos_scope():
    findings = check_fixture("det006_bad.py", "repro.chaos.fixture")
    assert rule_ids(findings) == ["DET006"]
    assert findings[0].line == 16  # the endpoint.send, not the clock read


def test_det006_near_miss_rebound_name_stays_silent():
    assert check_fixture("det006_ok.py", "repro.chaos.fixture") == []


def test_det006_flags_tainted_yield_delay():
    findings = analyze_source(
        "import random\n"
        "\n"
        "def pacer():\n"
        "    delay = random.expovariate(2.0)\n"
        "    yield delay\n",
        module="repro.chaos.fixture", path="fixture.py")
    det006 = [f for f in findings if f.rule_id == "DET006"]
    assert len(det006) == 1
    assert det006[0].line == 5


def test_det006_suppressible_with_justification():
    findings = analyze_source(
        "import time\n"
        "\n"
        "class Injector:\n"
        "    def probe(self):\n"
        "        t = time.monotonic()\n"
        "        self.endpoint.send(0, t)"
        "  # repro: noqa(DET006) -- latency probe, payload unused\n",
        module="repro.chaos.fixture", path="fixture.py")
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
    assert {"DET001", "WAL003", "REC001", "REC002",
            "DET006"} <= set(rule_index)
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
               "self.INCARNATION_KEY, self.incarnation)"
               "  # repro: noqa(REC003) -- Section 4.1: the incarnation "
               "MUST advance monotonically per recovery; a crash "
               "mid-bump only skips ids, never reuses one\n")
    assert barrier in source, "tripwire call site moved; update this test"
    basic.write_text(source.replace(barrier, ""))
    report = analyze_paths([str(tree)])
    wal003 = [f for f in report.findings if f.rule_id == "WAL003"]
    assert wal003, "removing the barrier must produce a WAL003 finding"
    assert any("on_start" in f.message and "incarnation" in f.message
               for f in wal003)
    assert any(f.path.endswith(os.path.join("core", "basic.py"))
               for f in wal003)
