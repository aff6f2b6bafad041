"""Unit tests for the protocol-aware static analyzer (repro.analysis).

Every rule gets at least one true-positive fixture and one
negative/suppressed fixture; a self-check asserts the real tree lints
clean, so CI fails the moment a violation lands in ``src/repro``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import (analyze_paths, analyze_source, default_registry,
                            format_json, format_text, module_name_for_path)
from repro.analysis.engine import Report
from repro.analysis.registry import Rule, RuleRegistry
from repro.cli import main as cli_main
from repro.errors import AnalysisError

SIM_MODULE = "repro.runtime.fixture"
CORE_MODULE = "repro.core.fixture"
UNSCOPED_MODULE = "myapp.utils"


def check(source: str, module: str = SIM_MODULE):
    return analyze_source(textwrap.dedent(source), module=module,
                          path="fixture.py")


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# -- DET001: wall clock -----------------------------------------------------

def test_wall_clock_call_flagged():
    findings = check("""
        import time

        def stamp():
            return time.time()
    """)
    assert rule_ids(findings) == ["DET001"]
    assert findings[0].line == 5


def test_wall_clock_datetime_flagged():
    findings = check("""
        import datetime

        def stamp():
            return datetime.datetime.now()
    """)
    assert rule_ids(findings) == ["DET001"]


def test_wall_clock_suppressed():
    findings = check("""
        import time

        def stamp():
            return time.monotonic()  # repro: noqa(DET001) -- pacing only
    """)
    assert findings == []


def test_wall_clock_ignored_outside_scope():
    findings = check("""
        import time

        def stamp():
            return time.time()
    """, module=UNSCOPED_MODULE)
    assert findings == []


# -- DET002 / DET003: uuid and OS entropy -----------------------------------

def test_uuid4_flagged():
    findings = check("""
        import uuid

        def mint():
            return uuid.uuid4()
    """)
    assert "DET002" in rule_ids(findings)


def test_uuid_import_from_flagged():
    findings = check("""
        from uuid import uuid4
    """)
    assert "DET002" in rule_ids(findings)


def test_os_urandom_flagged():
    findings = check("""
        import os

        def entropy():
            return os.urandom(8)
    """)
    assert rule_ids(findings) == ["DET003"]


def test_system_random_flagged():
    findings = check("""
        import random

        def entropy():
            return random.SystemRandom().random()
    """)
    assert "DET003" in rule_ids(findings)


# -- DET004: global random module -------------------------------------------

def test_global_random_call_flagged():
    findings = check("""
        import random

        def draw():
            return random.random()
    """)
    assert rule_ids(findings) == ["DET004"]


def test_global_random_import_from_flagged():
    findings = check("""
        from random import randint
    """)
    assert rule_ids(findings) == ["DET004"]


def test_seeded_instance_draw_is_clean():
    findings = check("""
        def draw(rng):
            return rng.random() + rng.expovariate(2.0)
    """)
    assert findings == []


def test_random_annotation_is_clean():
    findings = check("""
        import random
        from typing import Callable

        def delays(fn: Callable[[random.Random], float]) -> float:
            return 0.0
    """)
    assert findings == []


def test_random_construction_suppressed_with_justification():
    findings = check("""
        import random

        def stream(seed):
            return random.Random(seed)  # repro: noqa(DET004) -- boundary
    """)
    assert findings == []


# -- DET005: unordered set iteration ----------------------------------------

def test_set_literal_iteration_flagged():
    findings = check("""
        def fanout(send):
            for peer in {3, 1, 2}:
                send(peer)
    """)
    assert rule_ids(findings) == ["DET005"]


def test_set_call_comprehension_flagged():
    findings = check("""
        def fanout(items):
            return [x for x in set(items)]
    """)
    assert rule_ids(findings) == ["DET005"]


def test_sorted_set_iteration_is_clean():
    findings = check("""
        def fanout(items, send):
            for peer in sorted(set(items)):
                send(peer)
    """)
    assert findings == []


# -- WAL003: log before send -------------------------------------------------

WAL_BAD = """
    class Acceptor:
        VOLATILE_FIELDS = ("promised",)

        def on_prepare(self, msg, sender):
            self.promised = msg.ballot
            self.endpoint.send(sender, ("promise", msg.ballot))
"""

WAL_GOOD = """
    class Acceptor:
        VOLATILE_FIELDS = ("promised",)

        def on_prepare(self, msg, sender):
            self.promised = msg.ballot
            self.node.storage.log(("acceptor", msg.k), self.promised)
            self.endpoint.send(sender, ("promise", msg.ballot))
"""


def test_wal_unlogged_mutation_before_send_flagged():
    findings = check(WAL_BAD, module=CORE_MODULE)
    assert rule_ids(findings) == ["WAL003"]
    assert "promised" in findings[0].message
    assert findings[0].line == 7


@pytest.mark.parametrize("receiver", ["self._endpoint.send(sender, ",
                                      "self.node.endpoint.multisend("])
def test_wal_send_through_any_recognised_receiver_is_a_send(receiver):
    # One definition of "send": whatever ALI001 and the msgflow graph
    # see as a transport send, WAL003 sees too.
    source = WAL_BAD.replace("self.endpoint.send(sender, ", receiver)
    findings = check(source, module=CORE_MODULE)
    assert rule_ids(findings) == ["WAL003"]
    assert findings[0].line == 7


def test_wal_log_between_mutation_and_send_is_clean():
    assert check(WAL_GOOD, module=CORE_MODULE) == []


def test_wal_requires_declaration():
    undeclared = WAL_BAD.replace('VOLATILE_FIELDS = ("promised",)',
                                 "pass")
    assert check(undeclared, module=CORE_MODULE) == []


def test_wal_branch_merge_catches_one_armed_log():
    findings = check("""
        class Proto:
            VOLATILE_FIELDS = ("state",)

            def handle(self, msg, sender):
                self.state = msg.value
                if msg.urgent:
                    self.node.storage.log("state", self.state)
                self.endpoint.multisend(("update", msg.value))
    """, module=CORE_MODULE)
    assert rule_ids(findings) == ["WAL003"]


def test_wal_loop_carries_dirt_to_loop_head_send():
    findings = check("""
        class Proto:
            VOLATILE_FIELDS = ("state",)

            def pump(self, peers):
                for peer in peers:
                    self.endpoint.send(peer, self.state)
                    self.state = peer
    """, module=CORE_MODULE)
    assert rule_ids(findings) == ["WAL003"]


def test_wal_helper_barrier_and_mutator_calls():
    findings = check("""
        class Proto:
            VOLATILE_FIELDS = ("tally",)

            def good(self, msg, sender):
                self.tally.add(sender)
                self._store(("tally",), self.tally)
                self.endpoint.send(sender, "ack")

            def bad(self, msg, sender):
                self.tally.add(sender)
                self.endpoint.send(sender, "ack")
    """, module=CORE_MODULE)
    assert rule_ids(findings) == ["WAL003"]
    assert "Proto.bad" in findings[0].message


def test_wal_suppression():
    suppressed = WAL_BAD.replace(
        "self.endpoint.send(sender, (\"promise\", msg.ballot))",
        "self.endpoint.send(sender, msg.ballot)"
        "  # repro: noqa(WAL003) -- suppression syntax under test")
    assert check(suppressed, module=CORE_MODULE) == []


def test_wal_out_of_scope_package():
    assert check(WAL_BAD, module="repro.harness.fixture") == []


# -- WAL002: raw transport sends ---------------------------------------------

RAW_SEND = """
    class Proto:
        def gossip(self):
            self.node.network.send(self.node.node_id, 2, "msg")
"""


def test_raw_network_send_flagged():
    findings = check(RAW_SEND, module=CORE_MODULE)
    assert rule_ids(findings) == ["WAL002"]
    assert "endpoint" in findings[0].message


def test_raw_medium_multisend_flagged():
    findings = check("""
        class Proto:
            def flood(self):
                self._medium.multisend(0, "msg")
    """, module="repro.consensus.fixture")
    assert rule_ids(findings) == ["WAL002"]


def test_endpoint_send_is_clean():
    findings = check("""
        class Proto:
            def reply(self, sender):
                self.endpoint.send(sender, "ack")
                self.endpoint.multisend("all")
    """, module=CORE_MODULE)
    assert findings == []


def test_generator_send_is_clean():
    # Generators also have .send(); the rule keys on transport-shaped
    # receiver names, not the method name alone.
    findings = check("""
        class Proto:
            def resume(self):
                self.task.gen.send(None)
    """, module=CORE_MODULE)
    assert findings == []


def test_raw_send_out_of_scope_package():
    # The transport package itself is the sanctioned caller of the
    # medium (the stubborn layer, the endpoint); harnesses wire media.
    assert check(RAW_SEND, module="repro.transport.fixture") == []
    assert check(RAW_SEND, module="repro.harness.fixture") == []


def test_raw_send_suppressed():
    suppressed = RAW_SEND.replace(
        '"msg")',
        '"msg")  # repro: noqa(WAL002) -- suppression syntax under test')
    assert check(suppressed, module=CORE_MODULE) == []


# -- SIM001: lost tasks -------------------------------------------------------

def test_lost_module_level_task_flagged():
    findings = check("""
        def ticker():
            while True:
                yield 1.0

        def install():
            ticker()
    """, module=UNSCOPED_MODULE)
    assert rule_ids(findings) == ["SIM001"]


def test_lost_method_task_flagged():
    findings = check("""
        class Component:
            def _gossip(self):
                while True:
                    yield 0.25

            def on_start(self):
                self._gossip()
    """, module=UNSCOPED_MODULE)
    assert rule_ids(findings) == ["SIM001"]
    assert "_gossip" in findings[0].message


def test_spawned_and_delegated_tasks_are_clean():
    findings = check("""
        class Component:
            def _gossip(self):
                while True:
                    yield 0.25

            def _once(self):
                yield 1.0
                return 42

            def on_start(self, node):
                node.spawn(self._gossip(), "gossip")

            def run(self):
                result = yield from self._once()
                return result
    """, module=UNSCOPED_MODULE)
    assert findings == []


def test_lost_task_suppressed():
    findings = check("""
        def ticker():
            yield 1.0

        def install():
            ticker()  # repro: noqa(SIM001) -- exercised for side effects
    """, module=UNSCOPED_MODULE)
    assert findings == []


def test_non_generator_bare_call_is_clean():
    findings = check("""
        def plain():
            return 3

        def install():
            plain()
    """, module=UNSCOPED_MODULE)
    assert findings == []


# -- SIM002: raw mutable yields ----------------------------------------------

def test_yield_of_list_flagged():
    findings = check("""
        def waiter(e1, e2):
            yield [e1, e2]
    """, module=UNSCOPED_MODULE)
    assert rule_ids(findings) == ["SIM002"]
    assert "AnyOf" in findings[0].message


def test_yield_of_dict_call_flagged():
    findings = check("""
        def waiter():
            yield dict(a=1)
    """, module=UNSCOPED_MODULE)
    assert rule_ids(findings) == ["SIM002"]


def test_yield_of_wait_request_is_clean():
    findings = check("""
        def waiter(event, task):
            yield 1.5
            yield event
            yield task
            yield None
    """, module=UNSCOPED_MODULE)
    assert findings == []


# -- suppression syntax -------------------------------------------------------

def test_bare_noqa_suppresses_everything_but_the_hygiene_rule():
    findings = check("""
        import time

        def stamp():
            return time.time()  # repro: noqa
    """)
    assert rule_ids(findings) == ["NOQ001"]


def test_justified_bare_noqa_suppresses_everything():
    findings = check("""
        import time

        def stamp():
            return time.time()  # repro: noqa -- fixture: wall clock wanted
    """)
    assert findings == []


def test_noqa_for_other_rule_does_not_suppress():
    findings = check("""
        import time

        def stamp():
            return time.time()  # repro: noqa(DET004) -- wrong-rule fixture
    """)
    assert rule_ids(findings) == ["DET001"]


def test_noqa_multiple_rules():
    findings = check("""
        import time
        import random

        def stamp():
            return time.time() + random.random()  # repro: noqa(DET001, DET004) -- fixture: both rules sanctioned
    """)
    assert findings == []


# -- engine / registry plumbing ----------------------------------------------

def test_module_name_for_path():
    assert module_name_for_path("/x/src/repro/runtime/sim.py") \
        == "repro.runtime.sim"
    assert module_name_for_path("/x/src/repro/core/__init__.py") \
        == "repro.core"
    assert module_name_for_path("/x/elsewhere/script.py") == "script"


def test_syntax_error_raises_analysis_error():
    with pytest.raises(AnalysisError):
        analyze_source("def broken(:\n", module=SIM_MODULE)


def test_unknown_path_raises_analysis_error():
    with pytest.raises(AnalysisError):
        analyze_paths(["/no/such/dir-for-repro-analysis"])


def test_duplicate_rule_id_rejected():
    class Dup(Rule):
        id = "DET001"

    registry = RuleRegistry()
    registry.register(Dup())
    with pytest.raises(AnalysisError):
        registry.register(Dup())


def test_registry_has_all_families():
    ids = default_registry().ids()
    assert {"DET001", "DET002", "DET003", "DET004", "DET005",
            "WAL002", "WAL003", "SIM001", "SIM002"} <= set(ids)
    assert "WAL001" not in ids and len(ids) == 24


def test_reporters(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    # Out of scope by module name, so force the module via analyze_source:
    findings = analyze_source(bad.read_text(), module=SIM_MODULE,
                              path=str(bad))
    report = Report(findings, 1)
    text = format_text(report)
    assert f"{bad}:2:5: DET001" in text
    assert "1 violation(s)" in text
    payload = json.loads(format_json(report))
    assert payload["version"] == 1
    assert payload["violations"] == 1
    assert payload["findings"][0]["rule"] == "DET001"


# -- CLI ----------------------------------------------------------------------

def _write_bad_module(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    bad = pkg / "clocky.py"
    bad.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    return bad


def test_cli_lint_reports_and_exits_nonzero(tmp_path, capsys):
    bad = _write_bad_module(tmp_path)
    status = cli_main(["lint", str(bad)])
    out = capsys.readouterr().out
    assert status == 1
    assert f"{bad}:5:12: DET001" in out


def test_cli_lint_clean_exits_zero(tmp_path, capsys):
    bad = _write_bad_module(tmp_path)
    bad.write_text(bad.read_text().replace(
        "return time.time()", "return 0.0"))
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


def test_runtime_sim_inside_det_scope():
    findings = check("""
        import time

        def stamp():
            return time.time()
    """, module="repro.runtime.sim")
    assert rule_ids(findings) == ["DET001"]


def test_runtime_primitives_inside_det_scope():
    findings = check("""
        import os

        def token():
            return os.urandom(8)
    """, module="repro.runtime.primitives")
    assert rule_ids(findings) == ["DET003"]


@pytest.mark.parametrize("module", ["repro.runtime.live",
                                    "repro.runtime.live_net"])
def test_live_runtime_excluded_from_det_rules(module):
    # The exclusion is scope configuration (LIVE_RUNTIME_EXCLUDE), not a
    # noqa comment: the live runtime legitimately reads the wall clock.
    findings = check("""
        import time
        import os

        def now():
            return time.monotonic() + len(os.urandom(4))
    """, module=module)
    assert findings == []


def test_exclude_glob_matches_prefix_only():
    class GlobRule(Rule):
        id = "TST1"
        scope = ("repro.runtime",)
        exclude = ("repro.runtime.live*",)

    rule = GlobRule()
    assert rule.applies_to("repro.runtime.sim")
    assert rule.applies_to("repro.runtime.primitives")
    assert not rule.applies_to("repro.runtime.live")
    assert not rule.applies_to("repro.runtime.live_net")
    assert not rule.applies_to("repro.runtime.live.sub")
    assert rule.applies_to("repro.runtime")  # the package root itself


def test_exclude_plain_name_covers_submodules_not_siblings():
    class PlainRule(Rule):
        id = "TST2"
        exclude = ("repro.runtime.live",)

    rule = PlainRule()  # scope None: applies everywhere except excluded
    assert not rule.applies_to("repro.runtime.live")
    assert not rule.applies_to("repro.runtime.live.sub")
    assert rule.applies_to("repro.runtime.live_net")  # sibling, not child
    assert rule.applies_to("repro.runtime.sim")


def test_cli_list_rules(capsys):
    status = cli_main(["lint", "--list-rules"])
    assert status == 0
    out = capsys.readouterr().out
    assert "WAL003" in out and "DET004" in out and "SIM001" in out


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
