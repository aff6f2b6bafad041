"""Tests for the one lint CLI mode besides the report: --emit-msgflow."""

from __future__ import annotations

import json

from repro.cli import main as cli_main


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
