"""Cluster builder: assemble a full protocol stack per configuration.

One cluster owns a runtime, a network, ``n`` nodes and, per node, the
selected protocol stack.  :class:`ClusterCore` is everything that does
not depend on the runtime; :class:`Cluster` drives it on the simulator
and :class:`~repro.harness.live.LiveCluster` on asyncio, UDP and files.

====================  ==========================================================
``protocol``          stack
====================  ==========================================================
``"basic"``           Endpoint → HeartbeatDetector → Ω → PaxosConsensus
                      (durable) → BasicAtomicBroadcast (Figure 2)
``"alternative"``     same, with AlternativeAtomicBroadcast (Figures 3–4)
``"eager"``           same, with the eager-logging strawman baseline
``"ct"``              Endpoint → HeartbeatDetector → ChandraTouegConsensus
                      → ChandraTouegAtomicBroadcast (crash-stop baseline)
``"sequencer"``       Endpoint → FixedSequencerBroadcast (no consensus)
====================  ==========================================================

On top of every stack sits a
:class:`~repro.apps.base.ReplicatedStateMachine` hosting the configured
application.  Every layer reports what it did through
:meth:`~repro.runtime.api.Runtime.trace`; the cluster attaches its
:class:`~repro.metrics.collector.MetricsCollector` to the runtime as the
one sink of those events.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.apps.base import ReplicatedStateMachine
from repro.apps.counter import SequenceRecorder
from repro.baselines.ct_abcast import ChandraTouegAtomicBroadcast
from repro.baselines.eager import EagerLoggingAtomicBroadcast
from repro.baselines.sequencer import FixedSequencerBroadcast
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.consensus.paxos import PaxosConsensus
from repro.core.alternative import (AlternativeAtomicBroadcast,
                                    AlternativeConfig)
from repro.core.basic import BasicAtomicBroadcast
from repro.core.messages import AppMessage
from repro.errors import SimulationError
from repro.fdetect.heartbeat import HeartbeatDetector
from repro.flow.controller import FlowConfig, FlowController
from repro.fdetect.omega import OmegaOracle
from repro.membership import View, ViewManager, reconfig_payload
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.runtime import Node, SimRuntime
from repro.storage.stable import StableStorage
from repro.transport.endpoint import Endpoint
from repro.transport.network import Network, NetworkConfig

__all__ = ["Cluster", "ClusterConfig", "ClusterCore", "PROTOCOLS",
           "build_node_stack"]

PROTOCOLS = ("basic", "alternative", "eager", "ct", "sequencer")


class ClusterConfig:
    """Everything needed to build a reproducible cluster."""

    def __init__(self,
                 n: int = 3,
                 seed: int = 0,
                 protocol: str = "basic",
                 network: Optional[NetworkConfig] = None,
                 alt: Optional[AlternativeConfig] = None,
                 app_factory: Callable[[], Any] = SequenceRecorder,
                 gossip_interval: float = 0.25,
                 attempt_timeout: float = 1.0,
                 fd_period: float = 0.5,
                 sequencer_id: int = 0,
                 storage_factory: Optional[Callable[[int], Any]] = None,
                 flow: Optional[FlowConfig] = None):
        if protocol not in PROTOCOLS:
            raise SimulationError(
                f"unknown protocol {protocol!r}; pick one of {PROTOCOLS}")
        if n < 1:
            raise SimulationError("a cluster needs at least one node")
        if protocol == "sequencer" and not 0 <= sequencer_id < n:
            # Fail at build time: a sequencer outside the member set
            # would otherwise only surface as a mid-run send to an
            # unknown destination.
            raise SimulationError(
                f"sequencer_id {sequencer_id} is not a member id "
                f"(cluster has nodes 0..{n - 1})")
        self.n = n
        self.seed = seed
        self.protocol = protocol
        self.network = network or NetworkConfig()
        self.alt = alt
        self.app_factory = app_factory
        self.gossip_interval = gossip_interval
        self.attempt_timeout = attempt_timeout
        self.fd_period = fd_period
        self.sequencer_id = sequencer_id
        # storage_factory(node_id) -> StableStorage; defaults to a
        # store without a disk, which survives crashes as an object.
        self.storage_factory = storage_factory or \
            (lambda node_id: StableStorage())
        # flow: None = no admission control (every existing seed
        # universe unchanged); a FlowConfig gates to_broadcast() with a
        # per-node deterministic FlowController.
        if flow is not None and not isinstance(flow, FlowConfig):
            raise SimulationError(
                f"flow must be None or a FlowConfig; got {flow!r}")
        self.flow = flow


def build_node_stack(sim: Any, network: Any, config: ClusterConfig,
                     node_id: int, storage: Any, view: Optional[View] = None,
                     joining: bool = False,
                     flow: Optional[FlowController] = None) -> Tuple[
                         Node, Any, Optional[Any],
                         ReplicatedStateMachine, Optional[ViewManager]]:
    """Assemble one node's protocol stack on any runtime/medium pair.

    ``sim`` is any :class:`~repro.runtime.api.Runtime` and ``network``
    any :class:`~repro.runtime.api.TransportMedium`; the construction
    order is part of the determinism contract (components start in stack
    order), so both the simulated :class:`Cluster` and the live
    :class:`~repro.harness.live.LiveCluster` build through this one
    function.

    ``view`` parameterises the stack by a membership view: a
    :class:`~repro.membership.manager.ViewManager` is stacked directly
    above the endpoint (so its ``on_start`` restores the durable view
    before any peer-consuming layer starts) and every layer derives
    peers and quorums from the installed view instead of the medium's
    full node list.  ``None`` builds the historic static-membership
    stack.  ``joining`` flags a node added to a running cluster that
    must bootstrap via state transfer instead of proposing from round 0
    (alternative protocol only).

    Returns ``(node, abcast, consensus-or-None, rsm, view-manager-or-None)``.
    """
    node = Node(sim, node_id, storage)
    endpoint = node.add_component(Endpoint(network))
    view_manager: Optional[ViewManager] = None
    if view is not None:
        view_manager = node.add_component(ViewManager(view))
        endpoint.view_source = view_manager
    abcast: Any
    consensus: Optional[Any] = None
    if config.protocol == "sequencer":
        abcast = node.add_component(FixedSequencerBroadcast(
            endpoint, sequencer_id=config.sequencer_id))
    else:
        detector = node.add_component(HeartbeatDetector(
            endpoint, period=config.fd_period))
        if config.protocol == "ct":
            consensus = node.add_component(
                ChandraTouegConsensus(endpoint, detector))
        else:
            omega = node.add_component(OmegaOracle(detector))
            consensus = node.add_component(PaxosConsensus(
                endpoint, omega, attempt_timeout=config.attempt_timeout))
        if config.protocol == "basic":
            abcast = BasicAtomicBroadcast(
                endpoint, consensus,
                gossip_interval=config.gossip_interval)
        elif config.protocol == "alternative":
            abcast = AlternativeAtomicBroadcast(
                endpoint, consensus,
                gossip_interval=config.gossip_interval,
                config=config.alt or AlternativeConfig())
        elif config.protocol == "eager":
            abcast = EagerLoggingAtomicBroadcast(
                endpoint, consensus,
                gossip_interval=config.gossip_interval)
        elif config.protocol == "ct":
            abcast = ChandraTouegAtomicBroadcast(
                endpoint, consensus,
                gossip_interval=config.gossip_interval)
        node.add_component(abcast)
    abcast.view_manager = view_manager
    if flow is not None:
        abcast.flow = flow
    if joining and isinstance(abcast, AlternativeAtomicBroadcast) and \
            (config.alt or AlternativeConfig()).delta is not None:
        abcast.mark_joining()
    rsm = node.add_component(ReplicatedStateMachine(
        abcast, config.app_factory))
    network.register(node)
    return node, abcast, consensus, rsm, view_manager


class ClusterCore:
    """Everything about a built cluster that does not depend on the runtime.

    The paper has one process model — a crash wipes volatile state,
    recovery re-enters through one procedure, only logged data survives —
    and says nothing about the medium, so the registries, membership
    operations, crash/recover and reporting are written once here.
    :class:`Cluster` (virtual time) and
    :class:`~repro.harness.live.LiveCluster` (asyncio + UDP + files)
    add only how the runtime and medium are constructed, which storage
    a node gets (:meth:`_storage`), what happens to its socket around
    going up and down (:meth:`_open`, :meth:`_close`) and how the clock
    is driven: ``run(until)`` to an instant of the runtime's clock,
    ``run_for(seconds)`` by a span of it, and :attr:`SETTLE_INTERVAL`
    between two checks of :meth:`settle`.
    """

    #: Seconds of the runtime's clock between two settled-checks.
    SETTLE_INTERVAL: float

    stubborn = None  # bench/measure.py reads this until ROADMAP item 8

    @property
    def medium(self) -> Any:
        return self.network  # bench/trace.py reads this until ROADMAP item 8

    def __init__(self, config: ClusterConfig, runtime: Any, network: Any):
        self.config = config
        self.runtime = runtime
        self.network = network
        self.collector = MetricsCollector()
        runtime.sink = self.collector
        self.nodes: Dict[int, Node] = {}
        self.abcasts: Dict[int, Any] = {}
        self.consensuses: Dict[int, Any] = {}
        self.rsms: Dict[int, ReplicatedStateMachine] = {}
        self.views: Dict[int, ViewManager] = {}
        # Per-node admission controllers (empty without a flow config;
        # controllers survive crashes — admission policy is not state
        # the paper's model wipes, it belongs to the harness).
        self.flows: Dict[int, FlowController] = {}
        self.initial_view = View.initial(range(config.n))
        for node_id in range(config.n):
            self._build_node(node_id, self.initial_view)

    # -- per-runtime hooks ------------------------------------------------------

    def _storage(self, node_id: int) -> Any:
        """A handle on the node's stable storage."""
        raise NotImplementedError

    def _open(self, node_id: int) -> None:
        """Connect a node that is about to come up to the medium."""

    # -- construction ---------------------------------------------------------

    def _build_node(self, node_id: int, view: View,
                    joining: bool = False) -> None:
        config = self.config
        flow: Optional[FlowController] = None
        if config.flow is not None:
            flow = self.flows.setdefault(
                node_id, FlowController(node_id, config.flow))
        node, abcast, consensus, rsm, view_manager = build_node_stack(
            self.runtime, self.network, config, node_id,
            self._storage(node_id), view=view, joining=joining, flow=flow)
        if consensus is not None:
            self.consensuses[node_id] = consensus
        self.nodes[node_id] = node
        self.abcasts[node_id] = abcast
        self.rsms[node_id] = rsm
        if view_manager is not None:
            self.views[node_id] = view_manager

    # -- control -----------------------------------------------------------------

    def start(self) -> None:
        """Start every node (initial ``up`` transition)."""
        for node_id in self.nodes:
            self._open(node_id)
        for node in self.nodes.values():
            node.start()

    def node_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.nodes))

    def submit(self, node_id: int, payload: Any) -> AppMessage:
        """A-broadcast ``payload`` from ``node_id`` (non-blocking)."""
        return self.rsms[node_id].submit(payload)

    # -- membership ---------------------------------------------------------------

    def current_view(self) -> View:
        """The most advanced view installed anywhere in the cluster.

        The omniscient-harness notion of "the" view: epochs are totally
        ordered (reconfiguration commands are A-delivered), so the
        max-epoch view is the one every member converges to.
        """
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
        """Grow the cluster: build, start and propose a joining node.

        The new stack is built against the current view (its epoch-0
        bootstrap opinion), connected to the medium and started
        immediately — it gossips, but a joining alternative-protocol
        node proposes nothing until a state transfer completes — and a
        ``join`` command is A-broadcast through an existing member so
        every process installs the widened view at the same agreed
        position.
        """
        if node_id is None:
            node_id = max(self.nodes) + 1
        if node_id in self.nodes:
            raise SimulationError(f"node {node_id} already exists")
        self._build_node(node_id, self.current_view(), joining=True)
        self._open(node_id)
        self.nodes[node_id].start()
        self.submit_reconfig("join", node_id)
        return node_id

    def remove_node(self, node_id: int, evict: bool = False) -> AppMessage:
        """Shrink the cluster by an ordered ``leave`` (or ``evict``).

        The node's stack stays built and (unless crashed) up: removal is
        a membership fact, not a process kill.  An evicted node that is
        still running keeps gossiping its backlog to the members (its Ω
        names the lowest one), but no longer counts towards quorums,
        stops being addressed, and watches and beats at nobody.
        """
        if node_id not in self.nodes:
            raise SimulationError(f"unknown node {node_id}")
        return self.submit_reconfig("evict" if evict else "leave", node_id)

    def crash(self, node_id: int) -> None:
        """Crash an up node; only its stable storage survives.

        The one crash path (:meth:`Node.crash`), which a fail-stop and
        every fault injector take too: its endpoint closes what the node
        held on the medium.  A no-op on a node that is already down.
        """
        self.nodes[node_id].crash()

    def recover(self, node_id: int) -> None:
        """Bring a crashed node back through the single recovery entry.

        A no-op on a node that is already up: its socket (and whatever
        it has buffered to send) is left alone.
        """
        node = self.nodes[node_id]
        if node.up:
            return
        self._open(node_id)
        node.recover()

    def _settled(self, target: int) -> bool:
        """True when every up node has delivered everything outstanding.

        One definition, so "settled" means the same thing on both
        runtimes.  The currently installed view restricts the
        must-deliver-everything obligation to its members: an
        evicted-but-up node stops receiving the order stream by design
        and must not hold settling hostage.  Backlog is still checked on
        *every* up node — even a non-member's pending submissions reach
        the members through its gossip and will be ordered.
        """
        members = self.current_view().members
        first_delivery = self.collector.first_delivery
        up = [node_id for node_id, node in self.nodes.items() if node.up]
        for node_id in up:
            if node_id in members and \
                    self.abcasts[node_id].delivered_count() \
                    < len(first_delivery):
                return False
        # Every up member saw every message that anyone delivered; check the
        # backlog too: anything broadcast but not yet ordered anywhere?
        if target == len(first_delivery):
            return True
        # Messages can be legitimately lost if their sender crashed before
        # dissemination; treat those as settled only if no up node still
        # holds one in its backlog.  A member's backlog blocks settling even
        # when already ordered elsewhere (it will deliver it shortly — wait
        # for that); a *non-member's* backlog only counts while it holds
        # something not yet ordered anywhere, because the order stream no
        # longer reaches it and already-ordered leftovers in its Unordered
        # set would otherwise hold settling hostage forever.
        for node_id in up:
            ordered = None if node_id in members else first_delivery
            if self.abcasts[node_id].has_backlog(ordered=ordered):
                return False
        return True

    def settle(self, within: float) -> bool:
        """Keep running until every up node has delivered every broadcast
        message, or ``within`` more seconds of the runtime's clock pass.
        Returns ``True`` when fully settled.

        The predicate is checked every :attr:`SETTLE_INTERVAL`, so the
        check grid starts at the current instant on both runtimes.
        """
        target = len(self.collector.broadcast_times)
        deadline = self.runtime.now + within
        while self.runtime.now < deadline:
            if self._settled(target):
                return True
            self.run(min(deadline, self.runtime.now + self.SETTLE_INTERVAL))
        return self._settled(target)

    # -- reporting -----------------------------------------------------------------

    def app(self, node_id: int) -> Any:
        """The application instance currently hosted at a node."""
        return self.rsms[node_id].app

    def _total(self, kind: type, counter: str) -> int:
        """One run statistic of every ``kind`` component, over all nodes."""
        return sum(getattr(component, counter)
                   for node in self.nodes.values()
                   for component in node.components
                   if isinstance(component, kind))

    def refutations(self) -> int:
        """Failure-detector suspicions refuted so far, over all nodes."""
        return self._total(HeartbeatDetector, "refutations")

    def resends(self) -> int:
        """Paxos phase messages re-sent inside a ballot, over all nodes."""
        return self._total(PaxosConsensus, "resends")

    def ballots_retired(self) -> int:
        """Paxos attempts that spent their ballot (timeout or ``Nack``)."""
        return self._total(PaxosConsensus, "ballots_retired")

    def metrics(self) -> RunMetrics:
        """Aggregate the run's metrics (callable at any point)."""
        storage_by_node = {}
        prefix_ops = {}
        prefix_bytes = {}
        residency = {}
        node_stats: Dict[int, Dict[str, Any]] = {}
        for node_id, node in self.nodes.items():
            storage_by_node[node_id] = node.storage.metrics.snapshot()
            prefix_ops[node_id] = dict(node.storage.metrics.ops_by_prefix)
            prefix_bytes[node_id] = dict(node.storage.metrics.bytes_by_prefix)
            residency[node_id] = node.storage.total_bytes_stored()
            abcast = self.abcasts[node_id]
            node_stats[node_id] = {
                "up": node.up,
                "crashes": node.crash_count,
                "recoveries": node.recovery_count,
                "uptime": node.uptime(),
                "rounds": getattr(abcast, "k", None),
                "delivered": abcast.delivered_count(),
                "replayed_rounds": getattr(abcast, "replayed_rounds", 0),
                "rounds_skipped": getattr(abcast, "rounds_skipped", 0),
                "checkpoints": getattr(abcast, "checkpoints_taken", 0),
                "recovery_durations": list(node.recovery_durations),
                "unordered_high_water": getattr(
                    abcast, "unordered_high_water", 0),
            }
            if node_id in self.views:
                node_stats[node_id]["epoch"] = self.views[node_id].view.epoch
        return RunMetrics(
            duration=self.runtime.now,
            collector=self.collector,
            storage_by_node=storage_by_node,
            storage_prefix_ops=prefix_ops,
            storage_prefix_bytes=prefix_bytes,
            storage_residency=residency,
            network=self.network.metrics.snapshot(),
            node_stats=node_stats,
            refutations=self.refutations(),
            resends=self.resends(),
            ballots_retired=self.ballots_retired(),
            flow=({nid: controller.snapshot()
                   for nid, controller in sorted(self.flows.items())}
                  if self.flows else None),
        )


class Cluster(ClusterCore):
    """A built, ready-to-run cluster on the deterministic simulator."""

    SETTLE_INTERVAL = 1.0

    def __init__(self, config: ClusterConfig):
        sim = SimRuntime(seed=config.seed)
        super().__init__(config, sim,
                         Network(sim, sim.rng("network"), config.network))
        self.sim = sim  # the same object as ``runtime``

    def _storage(self, node_id: int) -> Any:
        return self.config.storage_factory(node_id)

    def run(self, until: float) -> float:
        """Advance virtual time to ``until``."""
        return self.sim.run(until=until)

    def run_for(self, seconds: float) -> float:
        """Advance virtual time by ``seconds``."""
        return self.sim.run(until=self.sim.now + seconds)
