"""Ω leader oracle derived from the heartbeat detector.

Ω is the weakest failure detector for consensus: it eventually outputs the
same good process at every good process.  We derive it the classic way —
trust the lowest-id peer that is not currently suspected.  The detector
watches exactly the ids that rule reads (its :meth:`candidates
<repro.fdetect.heartbeat.HeartbeatDetector.candidates>`: the lower ids up
to the first unsuspected one), so "candidate" is defined there once.
Once the detector stops making mistakes about the eventual leader (its
timeouts have adapted), every up process trusts the same lowest-id good
process forever, which is exactly the stability window the consensus
layer needs to terminate — and it needs timely links only from that
leader (Aguilera, Delporte-Gallet, Fauconnier & Toueg, PODC 2004).
"""

from __future__ import annotations

from repro.fdetect.heartbeat import HeartbeatDetector
from repro.runtime import NodeComponent, Signal

__all__ = ["OmegaOracle"]


class OmegaOracle(NodeComponent):
    """Per-node eventual leader election."""

    name = "omega"

    def __init__(self, detector: HeartbeatDetector):
        super().__init__()
        self.detector = detector
        self.changed: Signal = None  # type: ignore[assignment]
        self._last_leader: int = -1

    def on_start(self) -> None:
        assert self.node is not None
        self.changed = self.node.sim.signal(f"omega@{self.node.node_id}")
        self._last_leader = -1
        self.node.spawn(self._watch(), "omega-watch")

    def leader(self) -> int:
        """The currently trusted leader (lowest unsuspected id)."""
        assert self.node is not None
        candidates = self.detector.candidates()
        if candidates and not self.detector.is_suspected(candidates[-1]):
            return candidates[-1]
        return self.node.node_id    # every lower id suspected

    def is_leader(self) -> bool:
        """True if this node currently trusts itself."""
        assert self.node is not None
        return self.leader() == self.node.node_id

    def _watch(self):
        """Re-evaluate leadership whenever the detector output changes."""
        while True:
            yield self.detector.changed.wait()
            current = self.leader()
            if current != self._last_leader:
                self._last_leader = current
                self.changed.notify(current)
