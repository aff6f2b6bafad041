"""Live cluster harness: the protocol stack over asyncio + UDP + files.

:class:`LiveCluster` is :class:`~repro.harness.cluster.ClusterCore` on a
:class:`~repro.runtime.live.LiveRuntime`: the nodes talk over localhost
UDP (:class:`~repro.runtime.live_net.LiveNetwork`) and each journals
its stable storage to its own directory
(:class:`~repro.storage.disk.OsDisk`).  Everything else, including the
surface :func:`~repro.harness.verify.verify_run` consumes, is the shared
body, so live runs are checked against the exact same predicates.

Crash-recovery is exercised for real: a crash discards the node's
storage handle — only the journal remains, and a fresh handle replays
it (:meth:`~repro.storage.stable.StableStorage.reopen`) — and closes its
UDP socket; ``recover`` binds a fresh socket on a new ephemeral port
before the paper's single recovery entry point reads the replayed
store.
"""

from __future__ import annotations

import os
from typing import Any

from repro.harness.cluster import ClusterConfig, ClusterCore
from repro.runtime.live import LiveRuntime
from repro.runtime.live_net import LiveNetwork
from repro.storage.disk import OsDisk
from repro.storage.stable import StableStorage

__all__ = ["LiveCluster"]


class LiveCluster(ClusterCore):
    """A ready-to-run cluster on the live runtime.

    Parameters
    ----------
    config:
        The same :class:`~repro.harness.cluster.ClusterConfig` the
        simulated cluster takes.  ``config.network`` contributes only its
        ``loss_rate``/``duplicate_rate`` (injected on top of real UDP);
        delay bounds are whatever the loopback interface does.
        ``config.storage_factory`` is ignored: live nodes always persist
        to files under ``directory``.
    directory:
        Root directory for per-node storage (``<directory>/node<i>``).
        Must outlive the cluster for crash/recover to mean anything.
    """

    def __init__(self, config: ClusterConfig, directory: str):
        self.directory = directory
        runtime = LiveRuntime(seed=config.seed)
        network = LiveNetwork(
            runtime, loss_rate=config.network.loss_rate,
            duplicate_rate=config.network.duplicate_rate,
            max_send_buffer=(config.flow.max_send_buffer
                             if config.flow is not None else None))
        super().__init__(config, runtime, network)

    def _storage(self, node_id: int) -> StableStorage:
        return StableStorage(
            OsDisk(os.path.join(self.directory, f"node{node_id}")))

    def _open(self, node_id: int) -> None:
        """Bind a fresh UDP socket on a new ephemeral port."""
        self.runtime.loop.run_until_complete(self.network.open(node_id))

    # The frozen benchmark drives crash-recovery under these names.
    kill = ClusterCore.crash
    restart = ClusterCore.recover

    SETTLE_INTERVAL = 0.1

    def run_for(self, seconds: float) -> None:
        """Drive the event loop for ``seconds`` of wall-clock time."""
        self.runtime.run_for(seconds)

    def run(self, until: float) -> float:
        """Drive the event loop up to ``until`` on the runtime clock, then
        re-raise the first exception a protocol callback raised."""
        remaining = until - self.runtime.now
        if remaining > 0:
            self.run_for(remaining)
        self.runtime.check_errors()
        return self.runtime.now

    def close(self) -> None:
        """Tear the cluster down: crash nodes (which closes their
        journals), close sockets and the loop.

        Re-raises the first exception any protocol callback raised during
        the run, so failures inside the loop are not silently dropped.
        """
        try:
            for node in self.nodes.values():
                node.crash()
            self.network.close_all()
            # One final spin so transport close callbacks run.
            if not self.runtime.loop.is_closed():
                self.run_for(0)
            self.runtime.check_errors()
        finally:
            self.runtime.close()

    def __enter__(self) -> "LiveCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
