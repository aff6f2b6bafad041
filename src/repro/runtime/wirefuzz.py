"""Seeded fuzzing of the codec, on the wire and on disk.

Three properties are load-bearing for the live runtime and checked here
mechanically:

* **Round-trip identity** — for every message class with a type-id, a
  message built from random field values must survive ``encode →
  decode`` as a frame and decode to the same sender, the same type and
  equal field values (``nan`` compared by identity of kind, not
  ``==``).  Field
  values include :class:`~repro.core.messages.AppMessage` values, whose
  encoding is cached on them.  The encoding is one function of the
  value: a second, warm-cache encode gives the same bytes as the cold
  one, and a decoded frame re-encodes to the bytes it came from.
* **Total decoder** — feeding :func:`~repro.runtime.wire.decode_datagram`
  arbitrary bytes (random blobs, bit-flipped valid datagrams, truncated
  tails, length-field lies) must either return decoded messages or raise
  :class:`~repro.runtime.wire.WireCodecError`.  Any other exception is a
  crash a malformed UDP packet could trigger remotely.
* **Damaged disks degrade to typed outcomes** — a
  :class:`~repro.storage.stable.StableStorage` whose journal, or the
  snapshot a compaction left, is damaged (bit flips, truncation, junk)
  reopens without raising and reads a prefix of what was logged: replay
  stops at the first bad frame.  A payload mutated under a valid
  checksum must only not raise.

Everything is driven by one seed, so a reported defect reproduces from
its printed iteration seed.  The ``repro wirefuzz`` CLI command runs all
three suites (CI runs it as a bounded smoke step); the property tests
reuse the same engine with fixed seeds.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.runtime import wire
from repro.storage.disk import SimDisk
from repro.storage.stable import StableStorage, frame_record, read_journal
from repro.transport.message import BY_TYPE_ID, WireMessage

__all__ = ["FuzzReport", "fuzz_roundtrip", "fuzz_decode", "fuzz_storage",
           "run_fuzz", "registered_classes", "random_fields",
           "random_message", "equivalent"]


class FuzzReport:
    """Outcome of a fuzz run: counters plus reproducible defect records."""

    def __init__(self) -> None:
        self.roundtrips = 0
        self.decode_attempts = 0
        self.clean_rejections = 0
        self.accepted = 0
        self.damaged_stores = 0
        self.quarantined = 0   # damaged frames found at reopen
        # (suite, iteration seed, description) triples; empty when ok.
        self.defects: List[Tuple[str, int, str]] = []

    @property
    def ok(self) -> bool:
        return not self.defects

    def merge(self, other: "FuzzReport") -> "FuzzReport":
        self.roundtrips += other.roundtrips
        self.decode_attempts += other.decode_attempts
        self.clean_rejections += other.clean_rejections
        self.accepted += other.accepted
        self.damaged_stores += other.damaged_stores
        self.quarantined += other.quarantined
        self.defects.extend(other.defects)
        return self

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.defects)} DEFECTS"
        return (f"wire fuzz: {state} — {self.roundtrips} round-trips, "
                f"{self.decode_attempts} adversarial decodes "
                f"({self.accepted} accepted, "
                f"{self.clean_rejections} cleanly rejected), "
                f"{self.damaged_stores} damaged stores "
                f"({self.quarantined} damaged frames dropped)")


def registered_classes() -> List[Tuple[str, Type[WireMessage]]]:
    """``(tag, class)`` of every class with a type-id, in id order.

    The classes are the decoder's own table, so the fuzzed universe is
    exactly the decodable universe.  The protocol stacks are imported
    first so every class is present even when the caller never touched
    those layers.
    """
    import repro.multigroup.multicast  # noqa: F401
    import repro.quorum.register  # noqa: F401
    return [(cls.type, cls) for _, cls in sorted(BY_TYPE_ID.items())]


def _scalar(rng: random.Random) -> Any:
    kind = rng.randrange(9)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randrange(-2 ** 63, 2 ** 63)
    if kind == 3:
        # The awkward floats on purpose: nan, infinities, signed zero.
        return rng.choice([math.nan, math.inf, -math.inf, -0.0, 0.0,
                           rng.uniform(-1e18, 1e18)])
    if kind == 4:
        length = rng.randrange(0, 12)
        return "".join(chr(rng.choice([rng.randrange(32, 127),
                                       rng.randrange(0x100, 0x3000)]))
                       for _ in range(length))
    if kind == 5:
        return rng.randrange(0, 2 ** 200)  # varint stress
    if kind == 6:
        return ""
    if kind == 7:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 9)))
    return rng.randrange(-10, 10)


def _no_nan(value: Any) -> Any:
    # nan inside a set member or dict key defeats ==-based container
    # equality (nan != nan), so round-trip *verification* is impossible
    # even when the codec is exact; keep nan out of hashable contexts
    # (direct nan field values still exercise the nan paths).
    if isinstance(value, float) and math.isnan(value):
        return 0.0
    if isinstance(value, tuple):
        return tuple(_no_nan(item) for item in value)
    return value


def _hashable(rng: random.Random) -> Any:
    if rng.random() < 0.2:
        return _no_nan(tuple(_scalar(rng)
                             for _ in range(rng.randrange(0, 3))))
    return _no_nan(_scalar(rng))


def _app_message(rng: random.Random) -> AppMessage:
    return AppMessage(MessageId(rng.randrange(8), rng.randrange(1, 4),
                                rng.randrange(1, 10 ** 6)),
                      _hashable(rng))


def random_value(rng: random.Random, depth: int = 0) -> Any:
    """A random value protocols can send and log: scalars, tuples,
    frozensets, ``AppMessage`` values and maps as tuples of items.  The
    codec refuses lists, sets and dicts, so they are not drawn."""
    if depth >= 3 or rng.random() < 0.55:
        return _scalar(rng)
    kind = rng.randrange(4)
    count = rng.randrange(0, 4)
    if kind == 0:
        return tuple(random_value(rng, depth + 1) for _ in range(count))
    if kind == 1:
        return frozenset(_hashable(rng) for _ in range(count))
    if kind == 2:
        return frozenset(_app_message(rng) for _ in range(count))
    return tuple((_hashable(rng), random_value(rng, depth + 1))
                 for _ in range(count))


def random_fields(cls: Type[WireMessage],
                  rng: random.Random) -> Dict[str, Any]:
    """Random field values for one message class."""
    fields = {name: random_value(rng) for name in cls.fields}
    if cls.type == "ab.gossip" and rng.random() < 0.5:
        # ``known=None`` ("no digest in this gossip") is a form of its
        # own, not one value among many: draw it half the time.
        fields["known"] = None
    if cls.type == "paxos.accept" and rng.random() < 0.5:
        # The id form: messages the recipient holds go as their ids.
        fields["value"] = frozenset(
            message.id if rng.random() < 0.5 else message
            for message in (_app_message(rng)
                            for _ in range(rng.randrange(1, 5))))
    return fields


def random_message(rng: random.Random) -> WireMessage:
    """A message of a random class with a type-id, random fields."""
    classes = registered_classes()
    _, cls = classes[rng.randrange(len(classes))]
    return wire.rebuild(cls, random_fields(cls, rng))


def equivalent(left: Any, right: Any) -> bool:
    """Deep equality where ``nan == nan`` and ``-0.0 != 0.0``; messages
    compare by class and fields, ``AppMessage`` by id *and* payload."""
    if isinstance(left, float) or isinstance(right, float):
        if not (isinstance(left, float) and isinstance(right, float)):
            return False
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right and \
            math.copysign(1.0, left) == math.copysign(1.0, right)
    if isinstance(left, tuple):
        return type(left) is type(right) and len(left) == len(right) and \
            all(equivalent(a, b) for a, b in zip(left, right))
    if isinstance(left, frozenset):
        if type(left) is not type(right) or left != right:
            return False
        if any(isinstance(item, AppMessage) for item in left):
            payloads = {item.id: item.payload for item in right
                        if isinstance(item, AppMessage)}
            return all(item.id in payloads
                       and equivalent(item.payload, payloads[item.id])
                       for item in left if isinstance(item, AppMessage))
        return True
    if isinstance(left, WireMessage):
        return type(left) is type(right) and all(
            equivalent(getattr(left, name), getattr(right, name))
            for name in left.fields)
    return type(left) is type(right) and bool(left == right)


def _streams(seed: int, count: int) -> Iterator[Tuple[int, random.Random]]:
    """``count`` seeded streams, each with the sub-seed that replays it."""
    master = random.Random(seed)
    for _ in range(count):
        sub_seed = master.randrange(2 ** 63)
        yield sub_seed, random.Random(sub_seed)


def _check(report: FuzzReport, suite: str, sub_seed: int, label: str,
           check: Callable[[], Optional[str]]) -> None:
    """Run one check: the defect it describes, or any exception it
    raises, is recorded against the sub-seed that replays it."""
    try:
        defect = check()
    except Exception as exc:  # noqa: BLE001 - the property under test
        defect = f"{type(exc).__name__}: {exc}"
    if defect is not None:
        report.defects.append((suite, sub_seed, f"{label}: {defect}"))


def _roundtrip_defect(sender: int, message: WireMessage) -> Optional[str]:
    """Encode cold and warm, decode, re-encode."""
    data = wire.encode(sender, message)
    if wire.encode(sender, message) != data:
        return "warm encode differs"
    got_sender, got = wire.decode(data)
    if got_sender != sender:
        return f"sender {got_sender} != {sender}"
    if not equivalent(message, got):
        return f"{got!r} != {message!r}"
    if wire.encode(sender, got) != data:
        return "re-encoding differs"
    return None


def fuzz_roundtrip(iterations: int = 200, seed: int = 0) -> FuzzReport:
    """Round-trip fuzzing over every class with a type-id."""
    report = FuzzReport()
    classes = registered_classes()
    for iteration, (sub_seed, rng) in enumerate(_streams(seed, iterations)):
        tag, cls = classes[iteration % len(classes)]
        sender = rng.choice([0, 1, rng.randrange(0, 2 ** 32)])
        message = wire.rebuild(cls, random_fields(cls, rng))
        _check(report, "roundtrip", sub_seed, tag,
               partial(_roundtrip_defect, sender, message))
        report.roundtrips += 1
    return report


def _adversarial_blob(rng: random.Random) -> bytes:
    """One malformed-or-maybe-valid datagram."""
    strategy = rng.randrange(5)
    if strategy == 0:
        return bytes(rng.randrange(256)
                     for _ in range(rng.randrange(0, 160)))
    # The remaining strategies mutate a structurally valid datagram.
    message = random_message(rng)
    data = bytearray(wire.encode(rng.randrange(0, 2 ** 32), message))
    return bytes(_damage(rng, data, strategy))


def _damage(rng: random.Random, data: bytearray, strategy: int) -> bytearray:
    """Bit flip (1), truncation (2), a length lie (3) or trailing junk (4);
    strategies 1, 2 and 4 always change the bytes."""
    if strategy == 1 and data:
        position = rng.randrange(len(data))
        data[position] ^= 1 << rng.randrange(8)
    elif strategy == 2 and data:
        data = data[:rng.randrange(0, len(data))]
    elif strategy == 3 and len(data) >= wire.HEADER.size:
        data[-rng.randrange(1, wire.HEADER.size):] = b""
        data += bytes(rng.randrange(256) for _ in range(rng.randrange(8)))
    elif strategy == 4:
        data += bytes(rng.randrange(256)
                      for _ in range(rng.randrange(1, 32)))
    return data


def _decode_defect(report: FuzzReport, blob: bytes) -> Optional[str]:
    report.decode_attempts += 1
    try:
        wire.decode_datagram(blob)
        report.accepted += 1
    except wire.WireCodecError:
        report.clean_rejections += 1
    return None


def fuzz_decode(iterations: int = 2000, seed: int = 0) -> FuzzReport:
    """Adversarial decoding: anything but WireCodecError is a defect."""
    report = FuzzReport()
    for sub_seed, rng in _streams(seed, iterations):
        blob = _adversarial_blob(rng)
        _check(report, "decode", sub_seed, repr(blob[:64]),
               partial(_decode_defect, report, blob))
    return report


def _prefix_states(raw: bytes) -> List[Dict[str, Any]]:
    """The store after each batch of an undamaged journal, from empty."""
    state: Dict[str, Any] = {}
    states = [state]
    for batch, _ in read_journal(raw)[0]:
        state = dict(state)
        for record in batch:
            if record[0] == "w":
                state[record[1]] = record[2]
            elif record[0] == "d":
                state.pop(record[1], None)
            else:
                state[record[1]] = state.get(record[1], ()) + (record[2],)
        states.append(state)
    return states


def _contents(store: StableStorage) -> Dict[str, Any]:
    return {key: store.retrieve(key) for key in store.keys()}


def _same(left: Dict[str, Any], right: Dict[str, Any]) -> bool:
    return left.keys() == right.keys() and \
        all(equivalent(left[key], right[key]) for key in left)


def _damage_journal(rng: random.Random, data: bytearray) -> bool:
    """Damage journal bytes in place: a bit flip, a truncation or junk,
    or one frame's payload mutated and framed again under a valid
    checksum.  Returns True for the last, which no checksum can
    detect."""
    frames = read_journal(bytes(data))[0]
    if not frames or rng.random() >= 0.25:
        data[:] = _damage(rng, data, rng.choice((1, 2, 4)))
        return False
    index = rng.randrange(len(frames))
    start = sum(size for _, size in frames[:index])
    frame = data[start:start + frames[index][1]]
    payload = frame[frame.find(b"\n") + 1:]
    payload[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
    data[start:start + len(frame)] = frame_record(bytes(payload))
    return True


def _storage_defect(rng: random.Random,
                    report: FuzzReport) -> Optional[str]:
    """One damaged store; a description of what went wrong, or None."""
    disk = SimDisk()
    store = StableStorage(disk)
    keys = [f"k{index}" for index in range(rng.randrange(1, 5))]
    for _ in range(rng.randrange(1, 4)):
        with store.write_barrier():
            for _ in range(rng.randrange(1, 4)):
                roll = rng.random()
                if roll < 0.15:
                    store.delete(rng.choice(keys))
                elif roll < 0.3:
                    store.append("seq", random_value(rng))
                else:
                    store.log(rng.choice(keys), random_value(rng))
    if rng.random() < 0.5:
        store.compact()
        store.log(rng.choice(keys), random_value(rng))
    clean = disk.read()
    states = _prefix_states(clean)
    if not _same(_contents(StableStorage(disk)), states[-1]):
        return "an undamaged journal did not read back what was logged"
    data = bytearray(clean)
    reframed = _damage_journal(rng, data)
    disk.replace(bytes(data))
    report.damaged_stores += 1
    reopened = StableStorage(disk)
    report.quarantined += reopened.metrics.quarantined
    got = _contents(reopened)
    if reframed or any(_same(got, state) for state in states):
        return None
    return f"damaged journal read {got!r}: no prefix of what was logged"


def fuzz_storage(iterations: int = 50, seed: int = 0) -> FuzzReport:
    """Damage a store's journal, or the snapshot a compaction left;
    reopening must read a prefix of what was logged, and never raise."""
    report = FuzzReport()
    for sub_seed, rng in _streams(seed, iterations):
        _check(report, "storage", sub_seed, "store",
               partial(_storage_defect, rng, report))
    return report


def run_fuzz(iterations: int = 500, seed: int = 0) -> FuzzReport:
    """All three suites under one seed (the CLI/CI entry point)."""
    report = fuzz_roundtrip(iterations, seed)
    report.merge(fuzz_decode(iterations * 4, seed + 1))
    return report.merge(fuzz_storage(max(1, iterations // 10), seed + 2))
