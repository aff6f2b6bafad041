"""Unit tests for the protocol-aware static analyzer (repro.analysis).

The rules' own fixtures live in ``test_analysis_concurrency.py`` and
``test_analysis_msgres.py``; this module covers the engine, the
registry, the reporters and the CLI, and a self-check asserts the real
tree lints clean, so CI fails the moment a violation lands in
``src/repro``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import (analyze_paths, analyze_source, default_registry,
                            format_json, format_text, module_name_for_path)
from repro.analysis.engine import Report
from repro.analysis.registry import Rule, RuleRegistry
from repro.cli import main as cli_main
from repro.errors import AnalysisError

HARNESS_MODULE = "repro.harness.fixture"
#: A blocking call inside async code: one RES002 finding, at 3:5.
BLOCKING = "import time\nasync def pace():\n    time.sleep(0.1)\n"


# -- engine / registry plumbing ----------------------------------------------

def test_module_name_for_path():
    assert module_name_for_path("/x/src/repro/runtime/sim.py") \
        == "repro.runtime.sim"
    assert module_name_for_path("/x/src/repro/core/__init__.py") \
        == "repro.core"
    assert module_name_for_path("/x/elsewhere/script.py") == "script"


def test_syntax_error_raises_analysis_error():
    with pytest.raises(AnalysisError):
        analyze_source("def broken(:\n", module=HARNESS_MODULE)


def test_unknown_path_raises_analysis_error():
    with pytest.raises(AnalysisError):
        analyze_paths(["/no/such/dir-for-repro-analysis"])


def test_duplicate_rule_id_rejected():
    class Dup(Rule):
        id = "RES002"

    registry = RuleRegistry()
    registry.register(Dup())
    with pytest.raises(AnalysisError):
        registry.register(Dup())


def test_registry_has_all_families():
    assert default_registry().ids() == ["ATM001", "RES002"]


def test_reporters(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BLOCKING)
    # Out of scope by module name, so force the module via analyze_source:
    findings = analyze_source(bad.read_text(), module=HARNESS_MODULE,
                              path=str(bad))
    report = Report(findings, 1)
    text = format_text(report)
    assert f"{bad}:3:5: RES002" in text
    assert "1 violation(s)" in text
    payload = json.loads(format_json(report))
    assert payload["version"] == 1
    assert payload["violations"] == 1
    assert payload["findings"][0]["rule"] == "RES002"


# -- CLI ----------------------------------------------------------------------

def _write_bad_module(tmp_path):
    pkg = tmp_path / "repro" / "harness"
    pkg.mkdir(parents=True)
    bad = pkg / "pacer.py"
    bad.write_text(BLOCKING)
    return bad


def test_cli_lint_reports_and_exits_nonzero(tmp_path, capsys):
    bad = _write_bad_module(tmp_path)
    status = cli_main(["lint", str(bad)])
    out = capsys.readouterr().out
    assert status == 1
    assert f"{bad}:3:5: RES002" in out


def test_cli_lint_clean_exits_zero(tmp_path, capsys):
    bad = _write_bad_module(tmp_path)
    bad.write_text(bad.read_text().replace("time.sleep(0.1)", "pass"))
    status = cli_main(["lint", str(bad)])
    assert status == 0
    assert "✓ clean" in capsys.readouterr().out


def test_cli_lint_bad_path_clean_error(tmp_path, capsys):
    status = cli_main(["lint", str(tmp_path / "missing")])
    captured = capsys.readouterr()
    assert status == 2
    assert "error:" in captured.err
    assert "Traceback" not in captured.err


def test_cli_lint_json_format(tmp_path, capsys):
    bad = _write_bad_module(tmp_path)
    status = cli_main(["lint", str(bad), "--format", "json"])
    assert status == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == 1


def test_cli_list_rules(capsys):
    status = cli_main(["lint", "--list-rules"])
    assert status == 0
    out = capsys.readouterr().out
    assert "ATM001" in out and "RES002" in out


def test_list_rules_into_a_closed_pipe_exits_quietly():
    # ``python -m repro.analysis --list-rules | head -1``: the reader is
    # gone before the listing is written.  The contract is "never a
    # traceback" — not from print, not from the exit-time flush.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(repo_src()) + os.pathsep + \
        env.get("PYTHONPATH", "")
    child = ("import runpy, sys\n"
             "sys.stdin.read()  # until the parent has closed our stdout\n"
             "sys.argv = ['repro.analysis', '--list-rules']\n"
             "runpy.run_module('repro.analysis', run_name='__main__')\n")
    proc = subprocess.Popen([sys.executable, "-c", child], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)  # closes stdin: child runs
    assert stderr == b""
    assert proc.returncode == 0


# -- self-check: the real tree is clean ---------------------------------------

def repo_src():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, os.pardir, os.pardir, "src", "repro")


def test_repo_lints_clean():
    report = analyze_paths([repo_src()])
    assert report.files_analyzed > 60
    assert report.findings == [], format_text(report)


def test_module_entry_point_runs_clean():
    env = dict(os.environ)
    src_root = os.path.dirname(repo_src())
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", repo_src()],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violations" in proc.stdout
