"""Live cluster harness: the protocol stack over asyncio + UDP + files.

:class:`LiveCluster` mirrors :class:`~repro.harness.cluster.Cluster` but
builds each node's stack (through the shared
:func:`~repro.harness.cluster.build_node_stack`) on a
:class:`~repro.runtime.live.LiveRuntime`, connects the nodes over
localhost UDP (:class:`~repro.runtime.live_net.LiveNetwork`) and gives
every node fsync'd file-backed stable storage
(:class:`~repro.storage.file.FileStorage`) under its own directory.

Crash-recovery is exercised for real:

* :meth:`kill` crashes the node *and* closes its UDP socket *and*
  discards its in-process storage object — everything volatile is gone,
  only the files remain;
* :meth:`restart` opens a fresh storage handle over the same directory,
  re-binds a fresh socket on a new ephemeral port, and runs the paper's
  single recovery entry point, which replays the on-disk logs.

The harness exposes the same surface the omniscient verifier
(:func:`~repro.harness.verify.verify_run`) consumes from the simulated
cluster (``collector``, ``nodes``, ``abcasts``, ``consensuses``,
``node_ids()``), so live runs are checked against the exact same
Validity/Integrity/Total-Order/Termination predicates.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from repro.apps.base import ReplicatedStateMachine
from repro.core.messages import AppMessage
from repro.errors import SimulationError
from repro.flow.controller import FlowController
from repro.harness.cluster import ClusterConfig, build_node_stack, \
    stack_settled
from repro.membership import View, ViewManager, reconfig_payload
from repro.metrics.collector import MetricsCollector
from repro.runtime import Node
from repro.runtime.live import LiveRuntime
from repro.runtime.live_net import LiveNetwork
from repro.storage.file import FileStorage
from repro.transport.stubborn import StubbornChannel, StubbornConfig

__all__ = ["LiveCluster"]


class LiveCluster:
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
        Must outlive the cluster for kill/restart to mean anything.
    """

    def __init__(self, config: ClusterConfig, directory: str):
        self.config = config
        self.directory = directory
        self.runtime = LiveRuntime(seed=config.seed)
        self.network = LiveNetwork(
            self.runtime,
            self.runtime.rng("network"),
            loss_rate=config.network.loss_rate,
            duplicate_rate=config.network.duplicate_rate,
            max_send_buffer=(config.flow.max_send_buffer
                             if config.flow is not None else None))
        # UDP is a real fair-loss channel, so the stubborn retransmission
        # layer is on by default here (config.stubborn=False disables it).
        stubborn_config = config.resolve_stubborn(default_on=True)
        if stubborn_config is not None and \
                not isinstance(config.stubborn, StubbornConfig):
            # Default live tuning: batch same-turn envelopes and piggyback
            # acks, pairing with the transport's datagram coalescing.  An
            # explicit StubbornConfig is honoured verbatim.
            stubborn_config.coalesce = True
        self.stubborn = None
        self.medium: Any = self.network
        if stubborn_config is not None:
            self.stubborn = StubbornChannel(
                self.runtime, self.network, stubborn_config,
                rng=self.runtime.rng("stubborn"))
            self.medium = self.stubborn
        self.collector = MetricsCollector()
        self.nodes: Dict[int, Node] = {}
        self.abcasts: Dict[int, Any] = {}
        self.consensuses: Dict[int, Any] = {}
        self.rsms: Dict[int, ReplicatedStateMachine] = {}
        self.views: Dict[int, ViewManager] = {}
        # Per-node admission controllers (empty without a flow config).
        self.flows: Dict[int, FlowController] = {}
        self.initial_view = View.initial(range(config.n))
        self._started = False
        for node_id in range(config.n):
            self._build_node(node_id, self.initial_view)

    def _build_node(self, node_id: int, view: View,
                    joining: bool = False) -> None:
        flow: Optional[FlowController] = None
        if self.config.flow is not None:
            flow = self.flows.setdefault(
                node_id, FlowController(node_id, self.config.flow))
        node, abcast, consensus, rsm, view_manager = build_node_stack(
            self.runtime, self.medium, self.config, self.collector,
            node_id, FileStorage(self._node_dir(node_id)),
            view=view, joining=joining, flow=flow)
        if consensus is not None:
            self.consensuses[node_id] = consensus
        self.nodes[node_id] = node
        self.abcasts[node_id] = abcast
        self.rsms[node_id] = rsm
        if view_manager is not None:
            self.views[node_id] = view_manager

    def _node_dir(self, node_id: int) -> str:
        return os.path.join(self.directory, f"node{node_id}")

    # -- control -----------------------------------------------------------

    def start(self) -> None:
        """Bind every node's socket, then bring every node up."""
        if self._started:
            raise SimulationError("live cluster already started")
        self._started = True
        self.runtime.loop.run_until_complete(self.network.open_all())
        for node in self.nodes.values():
            node.start()

    def node_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.nodes))

    def submit(self, node_id: int, payload: Any) -> AppMessage:
        """A-broadcast ``payload`` from ``node_id`` (non-blocking)."""
        return self.rsms[node_id].submit(payload)

    # -- membership ---------------------------------------------------------

    def current_view(self) -> View:
        """The most advanced view installed anywhere in the cluster."""
        view = self.initial_view
        for manager in self.views.values():
            if manager.view.epoch > view.epoch:
                view = manager.view
        return view

    def submit_reconfig(self, op: str, target: int,
                        via: Optional[int] = None) -> AppMessage:
        """A-broadcast a reconfiguration command from an up member."""
        if via is None:
            members = self.current_view().members
            candidates = [nid for nid in sorted(self.nodes)
                          if self.nodes[nid].up and nid in members]
            if not candidates:
                raise SimulationError(
                    "no up member available to submit a reconfiguration")
            via = candidates[0]
        return self.submit(via, reconfig_payload(op, target))

    def add_node(self, node_id: Optional[int] = None) -> int:
        """Grow the live cluster: build, bind, start, propose a joiner.

        Mirrors :meth:`repro.harness.cluster.Cluster.add_node`; the new
        node additionally binds a fresh UDP socket before starting.
        """
        if node_id is None:
            node_id = max(self.nodes) + 1
        if node_id in self.nodes:
            raise SimulationError(f"node {node_id} already exists")
        self._build_node(node_id, self.current_view(), joining=True)
        self.runtime.loop.run_until_complete(self.network.open(node_id))
        self.nodes[node_id].start()
        self.submit_reconfig("join", node_id)
        return node_id

    def remove_node(self, node_id: int, evict: bool = False) -> AppMessage:
        """Shrink the cluster by an ordered ``leave`` (or ``evict``)."""
        if node_id not in self.nodes:
            raise SimulationError(f"unknown node {node_id}")
        return self.submit_reconfig("evict" if evict else "leave", node_id)

    def kill(self, node_id: int) -> None:
        """Kill the node's "process": volatile state, socket, storage handle.

        The files under the node's directory are all that survives —
        exactly the paper's crash model.
        """
        self.nodes[node_id].crash()
        self.network.close(node_id)
        # Drop the in-process storage object; recovery gets a fresh
        # handle over the same directory and must replay from disk.
        self.nodes[node_id].storage = FileStorage(self._node_dir(node_id))

    def restart(self, node_id: int) -> None:
        """Restart a killed node: new socket, recovery from on-disk logs."""
        self.runtime.loop.run_until_complete(self.network.open(node_id))
        self.nodes[node_id].recover()

    def run_for(self, seconds: float) -> None:
        """Drive the event loop for ``seconds`` of wall-clock time."""
        self.runtime.run_for(seconds)

    def settle(self, limit: float, check_interval: float = 0.1) -> bool:
        """Keep running until every up node has delivered every broadcast
        message, or ``limit`` further wall-clock seconds pass.  Returns
        ``True`` when fully settled."""
        target = len(self.collector.broadcast_times)
        deadline = self.runtime.now + limit
        while self.runtime.now < deadline:
            self.runtime.check_errors()
            if self._settled(target):
                return True
            self.run_for(check_interval)
        return self._settled(target)

    def _settled(self, target: int) -> bool:
        return stack_settled(self.nodes, self.abcasts, self.collector,
                             target, members=self.current_view().members)

    def close(self) -> None:
        """Tear the cluster down: crash nodes, close sockets and the loop.

        Re-raises the first exception any protocol callback raised during
        the run, so failures inside the loop are not silently dropped.
        """
        try:
            for node in self.nodes.values():
                if node.up:
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
