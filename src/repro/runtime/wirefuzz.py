"""Seeded fuzzing of the wire codec (property + adversarial suites).

Two properties of :mod:`repro.runtime.wire` are load-bearing for the
live runtime and checked here mechanically:

* **Round-trip identity, typed and tunnelled** — for every registered
  message class, a message built from random field values must survive
  ``encode → decode`` both as a typed binary frame and through the JSON
  tunnel (forced by a sender id ≥ 2³², which the header cannot hold),
  and each must decode to the same sender, the same type and equal field
  values (``nan`` compared by identity of kind, not ``==``): the two
  value codecs are different bytes for the same meaning.
* **Total decoder** — feeding :func:`~repro.runtime.wire.decode_datagram`
  arbitrary bytes (random blobs, bit-flipped valid datagrams, truncated
  tails, length-field lies) must either return decoded messages or raise
  :class:`~repro.runtime.wire.WireCodecError`.  Any other exception is a
  crash a malformed UDP packet could trigger remotely.

Everything is driven by one seed, so a reported defect reproduces from
its printed iteration seed.  The ``repro wirefuzz`` CLI command runs
both suites (CI runs it as a bounded smoke step); the property tests
reuse the same engine with fixed seeds.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.runtime import wire
from repro.transport.message import WireMessage

__all__ = ["FuzzReport", "fuzz_roundtrip", "fuzz_decode", "run_fuzz",
           "registered_classes", "random_fields", "equivalent"]


class FuzzReport:
    """Outcome of a fuzz run: counters plus reproducible defect records."""

    def __init__(self) -> None:
        self.roundtrips = 0
        self.tunnelled = 0  # round-trips that went through the JSON tunnel
        self.decode_attempts = 0
        self.clean_rejections = 0
        self.accepted = 0
        # (suite, iteration seed, description) triples; empty when ok.
        self.defects: List[Tuple[str, int, str]] = []

    @property
    def ok(self) -> bool:
        return not self.defects

    def merge(self, other: "FuzzReport") -> "FuzzReport":
        self.roundtrips += other.roundtrips
        self.tunnelled += other.tunnelled
        self.decode_attempts += other.decode_attempts
        self.clean_rejections += other.clean_rejections
        self.accepted += other.accepted
        self.defects.extend(other.defects)
        return self

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.defects)} DEFECTS"
        return (f"wire fuzz: {state} — {self.roundtrips} round-trips "
                f"({self.tunnelled} tunnelled), "
                f"{self.decode_attempts} adversarial decodes "
                f"({self.accepted} accepted, "
                f"{self.clean_rejections} cleanly rejected)")


def registered_classes() -> List[Tuple[str, Type[WireMessage]]]:
    """Every imported message class with an unambiguous tag, sorted.

    Classes are discovered the same way the decoder dispatches, so the
    fuzzed universe is exactly the decodable universe.  The protocol
    stacks are imported first so every tag in the type-id table has its
    class present even when the caller never touched those layers.
    """
    import repro.multigroup.multicast  # noqa: F401
    import repro.quorum.register  # noqa: F401
    found: Dict[str, Optional[Type[WireMessage]]] = {}
    wire._walk(WireMessage, found)
    return sorted((tag, cls) for tag, cls in found.items()
                  if cls is not None and tag != WireMessage.type)


def _scalar(rng: random.Random) -> Any:
    kind = rng.randrange(8)
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


def random_value(rng: random.Random, depth: int = 0) -> Any:
    """A random value from the codec's supported universe (minus bytes,
    which the tunnel's storage codec deliberately rejects)."""
    if depth >= 3 or rng.random() < 0.55:
        return _scalar(rng)
    kind = rng.randrange(5)
    count = rng.randrange(0, 4)
    if kind == 0:
        return [random_value(rng, depth + 1) for _ in range(count)]
    if kind == 1:
        return tuple(random_value(rng, depth + 1) for _ in range(count))
    if kind == 2:
        return {_hashable(rng) for _ in range(count)}
    if kind == 3:
        return frozenset(_hashable(rng) for _ in range(count))
    return {_hashable(rng): random_value(rng, depth + 1)
            for _ in range(count)}


def random_fields(cls: Type[WireMessage],
                  rng: random.Random) -> Dict[str, Any]:
    """Random field values for one message class."""
    fields = {name: random_value(rng) for name in cls.fields}
    if cls.type == "ab.gossip" and rng.random() < 0.5:
        # ``known=None`` ("no digest in this gossip") is a form of its
        # own, not one value among many: draw it half the time.
        fields["known"] = None
    return fields


def equivalent(left: Any, right: Any) -> bool:
    """Deep equality where ``nan == nan`` and ``-0.0 != 0.0``."""
    if isinstance(left, float) or isinstance(right, float):
        if not (isinstance(left, float) and isinstance(right, float)):
            return False
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right and \
            math.copysign(1.0, left) == math.copysign(1.0, right)
    if isinstance(left, (list, tuple)):
        return type(left) is type(right) and len(left) == len(right) and \
            all(equivalent(a, b) for a, b in zip(left, right))
    if isinstance(left, dict):
        if not isinstance(right, dict) or len(left) != len(right):
            return False
        return all(key in right and equivalent(value, right[key])
                   for key, value in left.items())
    if isinstance(left, (set, frozenset)):
        return type(left) is type(right) and len(left) == len(right) and \
            left == right
    return type(left) is type(right) and bool(left == right)


def fuzz_roundtrip(iterations: int = 200, seed: int = 0) -> FuzzReport:
    """Typed-and-tunnelled round-trip fuzzing over every registered class."""
    report = FuzzReport()
    classes = registered_classes()
    master = random.Random(seed)  # repro: noqa(DET004) -- fuzz harness: explicitly seeded by the caller
    for iteration in range(iterations):
        sub_seed = master.randrange(2 ** 63)
        rng = random.Random(sub_seed)  # repro: noqa(DET004) -- per-iteration stream; sub_seed printed for replay
        tag, cls = classes[iteration % len(classes)]
        fields = random_fields(cls, rng)
        # One sender the header can hold, one it cannot: the second
        # forces the same message through the JSON tunnel.
        senders = (rng.choice([0, 1, rng.randrange(0, 2 ** 32)]),
                   rng.randrange(2 ** 32, 2 ** 40))
        message = wire.rebuild(tag, fields)
        try:
            decoded = []
            for sender in senders:
                data = wire.encode(sender, message)
                tunnelled = wire.HEADER.unpack_from(data)[3] == 0
                report.tunnelled += tunnelled
                decoded.append(("tunnel" if tunnelled else "typed", sender,
                                wire.decode(data)))
        except wire.WireCodecError as exc:
            report.defects.append(
                ("roundtrip", sub_seed, f"{tag}: encode/decode raised {exc}"))
            continue
        except Exception as exc:  # noqa: BLE001 - the property under test
            report.defects.append(
                ("roundtrip", sub_seed,
                 f"{tag}: non-codec exception {type(exc).__name__}: {exc}"))
            continue
        for path, sender, (got_sender, got) in decoded:
            if got_sender != sender:
                report.defects.append(
                    ("roundtrip", sub_seed,
                     f"{tag} {path}: sender {got_sender} != {sender}"))
            elif type(got) is not cls:
                report.defects.append(
                    ("roundtrip", sub_seed,
                     f"{tag} {path}: decoded {type(got).__name__}"))
            else:
                for name in cls.fields:
                    if not equivalent(fields[name], getattr(got, name)):
                        report.defects.append(
                            ("roundtrip", sub_seed,
                             f"{tag} {path}: field {name!r} "
                             f"{fields[name]!r} != {getattr(got, name)!r}"))
        report.roundtrips += 1
    return report


def _adversarial_blob(rng: random.Random) -> bytes:
    """One malformed-or-maybe-valid datagram."""
    strategy = rng.randrange(5)
    if strategy == 0:
        return bytes(rng.randrange(256)
                     for _ in range(rng.randrange(0, 160)))
    # The remaining strategies mutate a structurally valid datagram.
    classes = registered_classes()
    tag, cls = classes[rng.randrange(len(classes))]
    message = wire.rebuild(tag, random_fields(cls, rng))
    # Half the victims are tunnel frames (sender past the header's u32),
    # so the JSON decoder behind type-id 0 sees mutated input too.
    sender = rng.randrange(0, 2 ** 32) + rng.choice([0, 2 ** 32])
    try:
        data = bytearray(wire.encode(sender, message))
    except wire.WireCodecError:
        return b""
    if strategy == 1 and data:  # bit flip
        position = rng.randrange(len(data))
        data[position] ^= 1 << rng.randrange(8)
    elif strategy == 2:  # truncate
        data = data[:rng.randrange(0, len(data) + 1)]
    elif strategy == 3 and len(data) >= wire.HEADER.size:  # length lies
        data[-rng.randrange(1, wire.HEADER.size):] = b""
        data += bytes(rng.randrange(256) for _ in range(rng.randrange(8)))
    elif strategy == 4:  # concatenate junk behind a valid datagram
        data += bytes(rng.randrange(256)
                      for _ in range(rng.randrange(1, 32)))
    return bytes(data)


def fuzz_decode(iterations: int = 2000, seed: int = 0) -> FuzzReport:
    """Adversarial decoding: anything but WireCodecError is a defect."""
    report = FuzzReport()
    master = random.Random(seed)  # repro: noqa(DET004) -- fuzz harness: explicitly seeded by the caller
    for _ in range(iterations):
        sub_seed = master.randrange(2 ** 63)
        rng = random.Random(sub_seed)  # repro: noqa(DET004) -- per-iteration stream; sub_seed printed for replay
        blob = _adversarial_blob(rng)
        report.decode_attempts += 1
        try:
            wire.decode_datagram(blob)
            report.accepted += 1
        except wire.WireCodecError:
            report.clean_rejections += 1
        except Exception as exc:  # noqa: BLE001 - the property under test
            report.defects.append(
                ("decode", sub_seed,
                 f"{type(exc).__name__}: {exc} on {blob[:64]!r}"))
    return report


def run_fuzz(iterations: int = 500, seed: int = 0) -> FuzzReport:
    """Both suites under one seed (the CLI/CI entry point)."""
    report = fuzz_roundtrip(iterations, seed)
    return report.merge(fuzz_decode(iterations * 4, seed + 1))
