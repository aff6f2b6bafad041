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
