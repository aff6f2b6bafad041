"""Tests for the lint CLI execution modes: --jobs and --baseline.

The parallel path must be byte-identical to the serial one in every
output format, and the baseline must subtract exactly the recorded
findings (by renumbering-stable fingerprint), no more, no fewer.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.analysis import analyze_paths
from repro.analysis.baseline import (filter_baselined, fingerprint,
                                     load_baseline, write_baseline)
from repro.analysis.engine import Finding, Report
from repro.analysis.lint import parse_jobs
from repro.cli import main as cli_main
from repro.errors import AnalysisError


@pytest.fixture()
def tree(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "one.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n")
    (pkg / "two.py").write_text(
        "import time\n\n\ndef tick():\n    return time.monotonic()\n")
    (pkg / "three.py").write_text("VALUE = 3\n")
    return tmp_path


# -- --jobs: parallel execution -----------------------------------------------

def test_parse_jobs_values():
    assert parse_jobs("2") == 2
    assert parse_jobs("auto") >= 1
    for bad in ("0", "-1", "many"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_jobs(bad)


def test_parallel_report_matches_serial(tree):
    serial = analyze_paths([str(tree)])
    parallel = analyze_paths([str(tree)], jobs=2)
    assert parallel.files_analyzed == serial.files_analyzed
    assert [f.to_dict() for f in parallel.findings] == \
           [f.to_dict() for f in serial.findings]
    assert serial.findings  # the fixture tree must actually violate


@pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
def test_parallel_cli_output_is_byte_identical(tree, fmt, capsys):
    status = cli_main(["lint", str(tree), "--format", fmt])
    serial_out = capsys.readouterr().out
    parallel_status = cli_main(
        ["lint", str(tree), "--format", fmt, "--jobs", "2"])
    parallel_out = capsys.readouterr().out
    assert status == parallel_status == 1
    assert parallel_out == serial_out


def test_parallel_respects_suppressions(tree):
    target = tree / "repro" / "core" / "one.py"
    target.write_text(target.read_text().replace(
        "    return time.time()",
        "    return time.time()"
        "  # repro: noqa(DET001) -- fixture: wall-clock wanted"))
    serial = analyze_paths([str(tree)])
    parallel = analyze_paths([str(tree)], jobs=2)
    assert [f.to_dict() for f in parallel.findings] == \
           [f.to_dict() for f in serial.findings]
    assert all(f.path != str(target) for f in parallel.findings)


# -- --baseline / --write-baseline --------------------------------------------

def test_write_then_apply_baseline_round_trip(tree, tmp_path, capsys):
    baseline = tmp_path / "lint-baseline.json"
    status = cli_main(["lint", str(tree),
                       "--write-baseline", str(baseline)])
    out = capsys.readouterr().out
    assert status == 0
    assert "recorded 2 finding(s)" in out
    document = json.loads(baseline.read_text())
    assert document["version"] == 1
    assert sum(e["count"] for e in document["entries"]) == 2
    # Same tree + baseline -> clean exit.
    status = cli_main(["lint", str(tree), "--baseline", str(baseline)])
    capsys.readouterr()
    assert status == 0


def test_baseline_reports_only_regressions(tree, tmp_path, capsys):
    baseline = tmp_path / "lint-baseline.json"
    cli_main(["lint", str(tree), "--write-baseline", str(baseline)])
    capsys.readouterr()
    fresh = tree / "repro" / "core" / "four.py"
    fresh.write_text("import time\n\n\ndef now():\n    return time.time()\n")
    status = cli_main(["lint", str(tree), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert status == 1
    assert "four.py" in out
    assert "one.py" not in out and "two.py" not in out


def test_baseline_survives_renumbering(tree, tmp_path, capsys):
    baseline = tmp_path / "lint-baseline.json"
    cli_main(["lint", str(tree), "--write-baseline", str(baseline)])
    capsys.readouterr()
    target = tree / "repro" / "core" / "one.py"
    target.write_text("# moved\n# down\n" + target.read_text())
    status = cli_main(["lint", str(tree), "--baseline", str(baseline)])
    capsys.readouterr()
    assert status == 0  # same finding, new line number: still baselined


def test_surplus_instances_of_a_baselined_finding_are_regressions():
    finding = Finding("DET001", "repro/core/x.py", 4, 11, "time.time()")
    twin = Finding("DET001", "repro/core/x.py", 9, 11, "time.time()")
    report = Report([finding, twin], 1)
    baseline = load_baseline(write_baseline(Report([finding], 1)))
    filtered = filter_baselined(report, baseline)
    assert len(filtered.findings) == 1  # count consumed once


def test_fingerprint_masks_numbers_and_separators():
    left = Finding("WAL003", "repro\\core\\basic.py", 10, 0,
                   "send 3 calls deep")
    right = Finding("WAL003", "repro/core/basic.py", 99, 4,
                    "send 7 calls deep")
    assert fingerprint(left) == fingerprint(right)


def test_missing_or_malformed_baseline_is_a_clean_error(tree, tmp_path,
                                                        capsys):
    status = cli_main(["lint", str(tree),
                       "--baseline", str(tmp_path / "nope.json")])
    captured = capsys.readouterr()
    assert status == 2
    assert "error:" in captured.err and "Traceback" not in captured.err
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99}")
    status = cli_main(["lint", str(tree), "--baseline", str(bad)])
    captured = capsys.readouterr()
    assert status == 2
    assert "not a lint baseline" in captured.err


def test_load_baseline_rejects_malformed_entries():
    with pytest.raises(AnalysisError):
        load_baseline(json.dumps(
            {"version": 1, "entries": [{"path": "x"}]}))
    with pytest.raises(AnalysisError):
        load_baseline("not json {")


# -- --emit-msgflow: graph artifact -------------------------------------------

def test_emit_msgflow_writes_artifact_alongside_report(tmp_path, capsys):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "proto.py").write_text(
        "class WireMessage:\n"
        "    type = \"wire.base\"\n"
        "\n"
        "\n"
        "class Ping(WireMessage):\n"
        "    type = \"fx.ping\"\n"
        "\n"
        "    def __init__(self, payload):\n"
        "        self.payload = payload\n"
        "\n"
        "\n"
        "class Proto:\n"
        "\n"
        "    def on_start(self):\n"
        "        self.endpoint.register(Ping.type, self._on_ping)\n"
        "\n"
        "    def _on_ping(self, msg, sender):\n"
        "        self.last = msg.payload\n"
        "\n"
        "    def poke(self):\n"
        "        self.endpoint.send(1, Ping(\"x\"))\n")
    out = tmp_path / "msgflow.json"
    status = cli_main(["lint", str(pkg), "--emit-msgflow", str(out)])
    assert status in (0, 1)  # the report still runs and still gates
    printed = capsys.readouterr().out
    assert "msgflow: 2 message type(s)" in printed
    data = json.loads(out.read_text(encoding="utf-8"))
    tags = {record["tag"] for record in data["messages"]}
    assert "fx.ping" in tags
    assert data["handlers"][0]["handler"] == "Proto._on_ping"
    assert data["sends"][0]["tag"] == "fx.ping"


def test_emit_msgflow_dot_via_module_cli(tmp_path, capsys):
    from repro.analysis.lint import main as lint_main
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "proto.py").write_text("VALUE = 1\n")
    out = tmp_path / "msgflow.dot"
    status = lint_main([str(pkg), "--emit-msgflow", str(out)])
    assert status == 0
    assert out.read_text(encoding="utf-8").startswith("digraph msgflow {")
