"""Tests for the analyzer's CLI surface: ``--format sarif`` and
all-paths error collection, end to end.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import (analyze_paths, analyze_source,
                            default_registry, format_sarif)
from repro.analysis.engine import Report
from repro.cli import main as cli_main
from repro.errors import AnalysisError

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "fixtures", "analysis")


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
        "import time\nasync def pace():\n    time.sleep(0.1)\n",
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
    assert set(rule_index) == {"ATM001", "RES002"}
    result = run["results"][0]
    assert result["ruleId"] == "RES002"
    assert result["ruleIndex"] == rule_index["RES002"]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 3
    assert region["startColumn"] == 5  # SARIF columns are 1-based


def test_cli_sarif_format(tmp_path, capsys):
    pkg = tmp_path / "repro" / "harness"
    pkg.mkdir(parents=True)
    bad = pkg / "pacer.py"
    bad.write_text("import time\nasync def pace():\n    time.sleep(0.1)\n")
    status = cli_main(["lint", str(bad), "--format", "sarif"])
    assert status == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    assert document["runs"][0]["results"][0]["ruleId"] == "RES002"
