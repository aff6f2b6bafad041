"""Consensus substrates (the paper's black box, Section 3).

* :class:`~repro.consensus.base.ConsensusService` — the ``propose`` /
  ``decided`` interface with idempotence, a durable proposal log and
  decisions locked in memory.
* :class:`~repro.consensus.paxos.PaxosConsensus` — crash-recovery
  consensus (durable acceptor state), the role of [1]/[11]/[14].
* :class:`~repro.consensus.chandra_toueg.ChandraTouegConsensus` —
  ◇S rotating-coordinator consensus for the crash-stop baseline [3].
"""

from repro.consensus.base import ConsensusService
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.consensus.paxos import PaxosConsensus

__all__ = ["ChandraTouegConsensus", "ConsensusService", "PaxosConsensus"]
