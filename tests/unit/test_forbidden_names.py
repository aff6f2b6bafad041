"""Names that must not come back, and reads that must not happen.

Each row is one guard: a regular expression, the paths it is searched
under (directories recursively, or single files, relative to the
repository root), and the one file allowed to match it.  A deleted
layer's names stay deleted; the transport never reads the failure
detector; the Atomic Broadcast core learns about leadership only
through the consensus box's ``leader_hint()``; the run's collector is
the only sink of events; Paxos addresses no message to its own node.
Bytecode caches are not searched: they are built from the sources that
are.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Optional, Sequence

import pytest

ROOT = Path(__file__).resolve().parents[2]
THIS_FILE = Path(__file__).resolve().relative_to(ROOT).as_posix()
CODE = ("src", "tests", "benchmarks", "examples")

#: (name, pattern, paths, the one file allowed to match, why).
GUARDS = (
    ("repro.sim", r"repro\.sim\b",
     CODE + ("README.md", "DESIGN.md", "docs"), None,
     "the repro.sim façade is deleted"),
    ("fd_timeout", r"fd_timeout", CODE, None,
     "the suspicion timeout is 2.25 x fd_period; the knob is deleted"),
    ("stubborn", r"StubbornChannel|StubbornConfig|StubbornLink"
     r"|resolve_stubborn|stubborn_choices|stub\.(data|ack)", CODE, None,
     "the protocols' own gossip, pulls and retries are the only loss "
     "repair; the retransmission layer is deleted"),
    ("snapshot", r"repro\.storage\.snapshot|register_immutable"
     r"|fallback_count|_message_snapshot", CODE, None,
     "logged records are immutable values; the copying snapshot layer "
     "is deleted"),
    ("aliasing", r"repro\.analysis\.aliasing|ALIASING_RULES|ALI00[12]",
     ("src", "tests"), None,
     "immutability is checked where values are sized; the aliasing "
     "rules are deleted"),
    ("run-checked-rules", r"\b(SIM00[12]|REC00[12]|MSG00[1-3])\b"
     r"|LostTaskRule|RawMutableYieldRule|UnrecoveredWriteRule"
     r"|PhantomRecoveryReadRule|DeadLetterTypeRule|DeadHandlerRule"
     r"|PayloadFieldMismatchRule|\brecovery_surface\b"
     r"|repro\.analysis\.(simrules|msgrules|recovery)\b", CODE, None,
     "a run checks what these rules guessed at: the kernel refuses a "
     "yield it cannot wait on, tier-1 fails on a task never spawned or a "
     "key never recovered, and the media count an arrival no handler "
     "takes (NetworkMetrics.unhandled); the rules are deleted"),
    ("run-checked-state", r"NonIdempotentRecoveryRule|UnboundedGrowthRule"
     r"|RandomnessTaintRule|SiteIndex|KeyShape|ReceiveQueue"
     r"|subscribe_queue|repro\.analysis\.idempotence\b", CODE, None,
     "runs check what these rules guessed at: a store that three "
     "back-to-back recoveries change outside the incarnation keys, a "
     "container that grows from N to 2N instances, and a second "
     "same-seed run whose full trace differs; the rules and the "
     "receive queue no code called are deleted"),
    ("log-before-send-by-construction",
     r"VOLATILE_FIELDS|log_before_send|InterprocWalRule"
     r"|AwaitHoldingBarrierRule|WriteAmplificationRule"
     r"|reads_logged_state|opens_write_barrier", CODE, None,
     "a node's turn is one write barrier and its frames leave after the "
     "commit, so log-before-send holds by construction; the rules that "
     "approximated it from the AST, and their declarations, are "
     "deleted"),
    ("observed-msgflow",
     r"repro\.analysis\.(msgflow|sites|wal)\b|emit.msgflow|build_msgflow"
     r"|DirectTransportSendRule|\bWAL002\b", ("src", "tests"), None,
     "the message-flow graph is observed in runs (MSGFLOW.json, gated "
     "by tests/integration/test_msgflow.py, whose raw edge is a frame "
     "that bypassed the endpoint); the static inference, its call-site "
     "vocabulary and WAL002 are deleted"),
    ("run-checked-determinism",
     r"repro: noqa|DETERMINISTIC_SCOPE|LIVE_RUNTIME_EXCLUDE|\bNOQ001\b"
     r"|\bDET00[1-5]\b", ("src", "tests"), None,
     "a seeded run set is run twice in each of two interpreters with "
     "different hash seeds (tests/integration/test_determinism.py); the "
     "determinism rules, the suppression comments only they used and "
     "the rule that policed those comments are deleted (docs keep the "
     "history)"),
    ("Simulator", r"(?<!\w)Simulator(?!\w)", CODE, None,
     "SimRuntime has one name; the alias is deleted"),
    ("one-event-channel",
     r"\bnote_(broadcast|delivery|decision|view_install)\b"
     r"|\.observer\s*=[^=]", ("src/repro",),
     "src/repro/metrics/collector.py",
     "layers report through Runtime.trace; only the collector archives "
     "events"),
    ("transport-fd", r"is_suspected", ("src/repro/transport",), None,
     "the transport judges no peer, so it reads no failure detector"),
    ("core-fd", r"omega|is_suspected|HeartbeatDetector",
     ("src/repro/core",), None,
     "Atomic Broadcast learns about leadership only through the "
     "consensus box's leader_hint()"),
    ("DecisionRef", r"DecisionRef|paxos\.decision-ref", CODE, None,
     "the commit point replaced the decision marker"),
    ("value_wanted", r"value_wanted|_push_to_binder", CODE, None,
     "gossip rides the frames already going to a peer (the endpoint's "
     "rider); the hook that pushed beside a Promise is deleted"),
    ("estimate_size", r"estimated_size|_measure\b|estimate_size",
     ("src", "tests"), "src/repro/sizing.py",
     "a send is charged its frame's length and a log its encoding's "
     "(frame_size, codec.size); the estimate model is deleted"),
    ("wire-tunnel", r"TYPE_ID_TABLE|register_type_id|type_id_for"
     r"|_registry_generation|_encode_tunnel|_decode_tunnel|WireConfig"
     r"|wire_config", CODE, None,
     "a message class carries its own type_id and there is one frame "
     "format with fixed bounds; the tag tables, the JSON tunnel and the "
     "wire knobs are deleted"),
    ("storage-engines", r"\b(FaultyStorage|FileStorage|MemoryStorage)\b"
     r"|_file_for|_recovery_scan|_write_classic|recovery_report", CODE,
     None,
     "one engine is the store, on live and in the simulator: the "
     "journal it replays; the per-key files, the quarantine directory "
     "and the fault-injecting decorator are deleted"),
    ("paxos-multisend", r"\.multisend\(", ("src/repro/consensus/paxos.py",),
     None,
     "Paxos sends to the other processes only: its own acceptor answers "
     "in-process, and nothing is addressed to self"),
)
BY_NAME = {row[0]: row for row in GUARDS}


def _files(root: Path, paths: Sequence[str]) -> Iterator[Path]:
    for name in paths:
        path = root / name
        if path.is_file():
            yield path
        elif path.is_dir():
            for found in sorted(path.rglob("*")):
                if found.is_file() and "__pycache__" not in found.parts:
                    yield found


def offenders(root: Path, pattern: str, paths: Sequence[str],
              allowed: Optional[str]) -> list:
    """``path:line: text`` for every line under ``paths`` that matches
    ``pattern``, outside ``allowed`` and this file's own table."""
    regex = re.compile(pattern)
    found = []
    for path in _files(root, paths):
        relative = path.relative_to(root).as_posix()
        if relative in (allowed, THIS_FILE):
            continue
        text = path.read_bytes().decode("utf-8", errors="replace")
        for number, line in enumerate(text.splitlines(), 1):
            if regex.search(line):
                found.append(f"{relative}:{number}: {line.strip()}")
    return found


@pytest.mark.parametrize("name, pattern, paths, allowed, why", GUARDS,
                         ids=[row[0] for row in GUARDS])
def test_no_match(name, pattern, paths, allowed, why):
    assert not offenders(ROOT, pattern, paths, allowed), why


def trips(root, name, paths=None):
    _, pattern, default_paths, allowed, _ = BY_NAME[name]
    return offenders(root, pattern, paths or default_paths, allowed)


def test_a_planted_name_trips_its_guard(tmp_path):
    (tmp_path / "src" / "repro" / "metrics").mkdir(parents=True)
    (tmp_path / "docs").mkdir()
    planted = tmp_path / "src" / "repro" / "consensus.py"
    planted.write_text("x = 1\nref = DecisionRef(3)\n")
    (tmp_path / "src" / "repro" / "metrics" / "collector.py").write_text(
        "collector.observer = self\n")
    (tmp_path / "docs" / "notes.md").write_text(
        "SimRuntime, not Simulator; repro.simple is fine\n")
    assert trips(tmp_path, "DecisionRef") == \
        ["src/repro/consensus.py:2: ref = DecisionRef(3)"]
    # The allowed file is exempt, and only it.
    assert trips(tmp_path, "one-event-channel") == []
    planted.write_text("node.observer = hook\n")
    assert trips(tmp_path, "one-event-channel") == \
        ["src/repro/consensus.py:1: node.observer = hook"]
    # Whole words and word boundaries, as the patterns say.
    assert trips(tmp_path, "Simulator", ("docs",)) == \
        ["docs/notes.md:1: SimRuntime, not Simulator; repro.simple is fine"]
    assert trips(tmp_path, "repro.sim") == []
    (tmp_path / "src" / "repro" / "consensus").mkdir()
    (tmp_path / "src" / "repro" / "consensus" / "paxos.py").write_text(
        "# the paper's ``multisend`` includes the sender\n"
        "self.endpoint.multisend(Decide(k, b))\n")
    assert trips(tmp_path, "paxos-multisend") == \
        ["src/repro/consensus/paxos.py:2: "
         "self.endpoint.multisend(Decide(k, b))"]
    (tmp_path / "src" / "repro" / "analysis").mkdir()
    (tmp_path / "src" / "repro" / "analysis" / "rules.py").write_text(
        "class UnrecoveredWriteRule:\n"
        "task()  # repro: noqa(SIM001) -- side effects\n"
        "REC003 and MSG0010 stay\n")
    assert trips(tmp_path, "run-checked-rules") == [
        "src/repro/analysis/rules.py:1: class UnrecoveredWriteRule:",
        "src/repro/analysis/rules.py:2: "
        "task()  # repro: noqa(SIM001) -- side effects"]
    (tmp_path / "src" / "repro" / "analysis" / "lint.py").write_text(
        "from repro.analysis.sites import classify\n"
        "# repro: noqa(WAL002) -- bypass\n"
        "repro.analysis.walk and WAL0020 stay\n")
    assert trips(tmp_path, "observed-msgflow") == [
        "src/repro/analysis/lint.py:1: "
        "from repro.analysis.sites import classify",
        "src/repro/analysis/lint.py:2: # repro: noqa(WAL002) -- bypass"]
    (tmp_path / "src" / "repro" / "runtime").mkdir()
    (tmp_path / "src" / "repro" / "runtime" / "rng.py").write_text(
        "random.Random(seed)  # repro: noqa(DET004) -- boundary\n"
        "DET0042 and DET006 and NOQ0010 stay\n")
    assert trips(tmp_path, "run-checked-determinism",
                 ("src/repro/runtime",)) == [
        "src/repro/runtime/rng.py:1: "
        "random.Random(seed)  # repro: noqa(DET004) -- boundary"]
