"""What an ``Accept`` carries that its recipient already holds.

Each simulated workload of ``bench/workloads.py`` runs here (built as
``deliver_lag.py`` builds it; nothing under ``bench/`` is written) with
``Network.send`` wrapped at class level.  The wrapper only counts: it
changes nothing that is sent.  Per workload it prints

* ``accept%`` — the share of all bytes sent that ``Accept`` frames are;
* ``copies`` — payload slots in all ``Accept`` values (a message sent in
  full or as its id), and ``ids`` — the share sent as an id;
* the share of copies sent *in full* to a recipient that holds the
  payload: ``own`` (the recipient minted it, at its current
  incarnation), ``digest`` (the sender's last digest from the recipient
  lists it) and ``holder`` (omniscient: it is in the recipient's
  Unordered set at the moment of the send);
* ``max_B`` — the largest ``Accept`` frame.

``--check`` fails the run if a first-send ``Accept`` (not an in-ballot
re-send, which carries the full form by design) carries in full a
payload its recipient minted at its current incarnation.  Usage::

    python3 benchmarks/accept_redundancy.py --seconds 15 --seed 11
    python3 benchmarks/accept_redundancy.py --seconds 2 --check
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from deliver_lag import SETTLE_S, build  # noqa: E402

from repro.consensus.paxos import Accept  # noqa: E402
from repro.core.messages import AppMessage  # noqa: E402
from repro.transport.message import unpack  # noqa: E402
from repro.transport.network import Network  # noqa: E402

SIM_WORKLOADS = ("sim-n1-floor", "sim-n3-steady", "sim-n25-fanout",
                 "sim-n5-crash-recovery")


class Probe:
    """Counts what a run's ``Network.send`` calls hand the medium."""

    def __init__(self) -> None:
        self.cluster = None
        self.bytes = self.accept_bytes = self.max_accept = 0
        self.copies = self.ids = 0
        self.full_to = {"own": 0, "digest": 0, "holder": 0}
        self.first_sends = set()
        self.violations = []

    def sent(self, src: int, dst: int, message) -> None:
        for part in unpack(message):
            size = part.frame_size()
            self.bytes += size
            if type(part) is Accept:
                self.accept_bytes += size
                self.max_accept = max(self.max_accept, size)
                self.accept(src, dst, part)

    def accept(self, src: int, dst: int, accept: Accept) -> None:
        abcasts = self.cluster.abcasts
        recipient = abcasts[dst]
        known = abcasts[src]._peers.get(dst)
        first = (src, dst, accept.k, accept.ballot) not in self.first_sends
        self.first_sends.add((src, dst, accept.k, accept.ballot))
        for item in accept.value:
            self.copies += 1
            if type(item) is not AppMessage:
                self.ids += 1
                continue
            mid = item.id
            own = mid.sender == dst \
                and mid.incarnation == recipient.incarnation
            self.full_to["own"] += own
            self.full_to["digest"] += known is not None and mid in known.known
            self.full_to["holder"] += mid in recipient.unordered
            if own and first:
                self.violations.append((src, dst, accept.k, mid))

    def row(self, name: str) -> str:
        def share(part, whole):
            return f"{100.0 * part / whole:7.1f}" if whole else f"{'-':>7}"
        return (f"{name:<24}{share(self.accept_bytes, self.bytes)}"
                f"{self.copies:>9}{share(self.ids, self.copies)}"
                + "".join(share(self.full_to[key], self.copies)
                          for key in ("own", "digest", "holder"))
                + f"{self.max_accept:>9}")


def measure(name: str, seed: int, seconds: float) -> Probe:
    probe = Probe()
    send = Network.send

    def counting(network, src, dst, message):
        probe.sent(src, dst, message)
        send(network, src, dst, message)
    Network.send = counting
    try:
        _, schedule, probe.cluster = build(name, seed, seconds)
        probe.cluster.run(until=schedule.end)
        if not probe.cluster.settle(within=SETTLE_S):
            raise SystemExit(f"{name} did not settle")
    finally:
        Network.send = send
    return probe


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--check", action="store_true",
                        help="fail if a first-send Accept carries a "
                             "recipient's own payload in full")
    args = parser.parse_args()
    print(f"seed {args.seed}, {args.seconds:g} s; shares in % of all "
          f"bytes (accept%) or of Accept payload copies (the rest)")
    print(f"{'workload':<24}{'accept%':>7}{'copies':>9}{'ids':>7}"
          f"{'own':>7}{'digest':>7}{'holder':>7}{'max_B':>9}")
    failed = []
    for name in SIM_WORKLOADS:
        probe = measure(name, args.seed, args.seconds)
        print(probe.row(name))
        failed += [(name,) + violation for violation in probe.violations]
    if args.check and failed:
        for name, src, dst, k, mid in failed[:10]:
            print(f"  {name}: node {src} sent node {dst} its own "
                  f"{mid.label()} in full, first Accept of instance {k}")
        sys.exit(f"accept_redundancy: {len(failed)} own payloads sent "
                 f"in full")


if __name__ == "__main__":
    main()
