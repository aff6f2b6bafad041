"""Unit tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "basic"
        assert args.nodes == 3
        assert args.faults == "none"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "raft"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for protocol in ("basic", "alternative", "eager", "ct",
                         "sequencer"):
            assert protocol in out

    def test_run_basic(self, capsys):
        assert main(["run", "--seed", "1", "--duration", "5",
                     "--rate", "1"]) == 0
        out = capsys.readouterr().out
        assert "properties verified" in out
        assert "yes" in out

    def test_run_alternative_with_faults(self, capsys):
        assert main(["run", "--protocol", "alternative", "--seed", "2",
                     "--duration", "8", "--faults", "random",
                     "--log-unordered"]) == 0
        out = capsys.readouterr().out
        assert "crashes survived" in out

    def test_compare(self, capsys):
        assert main(["compare", "--seed", "3", "--duration", "5",
                     "--rate", "1"]) == 0
        out = capsys.readouterr().out
        assert "sequencer" in out and "basic" in out


def test_run_into_a_closed_pipe_exits_quietly():
    # ``python -m repro run | head -1``: the reader is gone before the
    # report is written.  No traceback, from print or from the exit-time
    # flush, and the run still counts as a success.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = ("import runpy, sys\n"
             "sys.stdin.read()  # until the parent has closed our stdout\n"
             "sys.argv = ['repro', 'run', '-n', '3', '--protocol', 'basic',"
             " '--duration', '2']\n"
             "runpy.run_module('repro', run_name='__main__')\n")
    proc = subprocess.Popen([sys.executable, "-c", child], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)  # closes stdin: child runs
    assert stderr == b""
    assert proc.returncode == 0
