"""Named, seeded random-number streams.

Every source of randomness in a simulation (network delays, message loss,
workload arrivals, fault injection) draws from its own named child stream
derived from a single root seed.  This keeps runs bit-for-bit reproducible
*and* decoupled: adding a draw to one stream does not perturb the others,
so experiments that toggle a feature stay comparable.

The live runtime uses the same mechanism for its injected loss/duplicate
draws, so a live run's *fault pattern* is reproducible even though its
timing is not.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["SeedSequence"]


class SeedSequence:
    """Derives independent :class:`random.Random` streams from a root seed.

    >>> seeds = SeedSequence(42)
    >>> net = seeds.stream("network")
    >>> wl = seeds.stream("workload")
    >>> seeds.stream("network") is net   # streams are memoised
    True
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoised) stream for ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        # The one sanctioned random.Random construction: this *is* the
        # seed boundary every other draw in the system flows from.
        stream = random.Random(self.derive(name))
        self._streams[name] = stream
        return stream

    def derive(self, name: str) -> int:
        """Derive a deterministic 64-bit child seed for ``name``."""
        digest = hashlib.sha256(
            f"{self.root_seed}/{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def child(self, name: str) -> "SeedSequence":
        """A nested seed sequence, for per-node stream families."""
        return SeedSequence(self.derive(name))
