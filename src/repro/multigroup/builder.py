"""Cluster builder for multi-group total order multicast.

Assembles, per node, one full Atomic Broadcast stack per group the node
belongs to — each on a :class:`~repro.transport.scoped.ScopedEndpoint`
(group-restricted peers, namespaced message types) with namespaced
stable-storage keys — plus the
:class:`~repro.multigroup.multicast.MultiGroupMulticast` layer on top.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.consensus.paxos import PaxosConsensus
from repro.core.basic import BasicAtomicBroadcast
from repro.errors import SimulationError
from repro.fdetect.heartbeat import HeartbeatDetector
from repro.fdetect.omega import OmegaOracle
from repro.multigroup.multicast import MultiGroupMulticast
from repro.runtime import Node, SeedSequence, SimRuntime
from repro.storage.stable import StableStorage
from repro.transport.endpoint import Endpoint
from repro.transport.network import Network, NetworkConfig
from repro.transport.scoped import ScopedEndpoint

__all__ = ["MultiGroupCluster"]


class MultiGroupCluster:
    """A cluster whose nodes belong to (possibly overlapping) groups.

    Parameters
    ----------
    groups:
        ``{group name: sequence of member node ids}``.  The node set is
        the union of all memberships.
    seed:
        Root seed for the deterministic run.
    network:
        Fair-lossy network configuration shared by all groups.
    """

    def __init__(self, groups: Dict[str, Sequence[int]], seed: int = 0,
                 network: Optional[NetworkConfig] = None,
                 gossip_interval: float = 0.25):
        if not groups:
            raise SimulationError("at least one group is required")
        self.groups = {name: tuple(sorted(set(members)))
                       for name, members in groups.items()}
        node_ids = sorted({member for members in self.groups.values()
                           for member in members})
        if node_ids != list(range(len(node_ids))):
            raise SimulationError(
                "node ids must be dense 0..n-1 across the group union")
        self.sim = SimRuntime()
        self.seeds = SeedSequence(seed)
        self.network = Network(self.sim, self.seeds.stream("network"),
                               network or NetworkConfig())
        self.nodes: Dict[int, Node] = {}
        self.layers: Dict[int, MultiGroupMulticast] = {}
        self.group_abs: Dict[int, Dict[str, BasicAtomicBroadcast]] = {}
        for node_id in node_ids:
            self._build_node(node_id, gossip_interval)

    def _build_node(self, node_id: int, gossip_interval: float) -> None:
        node = Node(self.sim, node_id, StableStorage())
        endpoint = node.add_component(Endpoint(self.network))
        abs_for_node: Dict[str, BasicAtomicBroadcast] = {}
        for group, members in sorted(self.groups.items()):
            if node_id not in members:
                continue
            scoped = ScopedEndpoint(endpoint, group, members)
            detector = node.add_component(HeartbeatDetector(scoped))
            omega = node.add_component(OmegaOracle(detector))
            consensus = node.add_component(PaxosConsensus(
                scoped, omega, namespace=group))
            abcast = node.add_component(BasicAtomicBroadcast(
                scoped, consensus, gossip_interval=gossip_interval,
                namespace=group))
            abs_for_node[group] = abcast
        layer = node.add_component(MultiGroupMulticast(
            endpoint, abs_for_node, self.groups))
        self.network.register(node)
        self.nodes[node_id] = node
        self.layers[node_id] = layer
        self.group_abs[node_id] = abs_for_node

    # -- control ---------------------------------------------------------------

    def start(self) -> None:
        for node in self.nodes.values():
            node.start()

    def run(self, until: float) -> float:
        return self.sim.run(until=until)

    def multicast(self, node_id: int, payload: Any,
                  groups: Sequence[str]):
        """Multicast from ``node_id`` to ``groups`` (non-blocking).

        Harness convenience: a multicast scheduled while the node is
        down is silently skipped (a down process cannot invoke the
        primitive), mirroring the workload generators.
        """
        if not self.nodes[node_id].up:
            return None
        return self.layers[node_id].multicast(payload, groups)

    def members_of(self, group: str) -> Tuple[int, ...]:
        return self.groups[group]

    # -- verification helpers ------------------------------------------------------

    def sequences(self, group: str) -> Dict[int, List]:
        """Per-member delivery sequence for one group."""
        return {node_id: self.layers[node_id].delivered_in(group)
                for node_id in self.groups[group]}

    def check_group_agreement(self, group: str) -> None:
        """Every member of a group delivered the same prefix-ordered run."""
        sequences = list(self.sequences(group).values())
        for seq in sequences[1:]:
            shorter, longer = sorted((seq, sequences[0]), key=len)
            if longer[:len(shorter)] != shorter:
                raise SimulationError(
                    f"group {group!r} members diverge: "
                    f"{shorter} vs {longer[:len(shorter)]}")

    def check_pairwise_total_order(self) -> None:
        """Messages shared by any two delivery sequences (across any
        groups/nodes) appear in the same relative order everywhere."""
        all_sequences = []
        for group in self.groups:
            for seq in self.sequences(group).values():
                all_sequences.append([mid for mid, _ in seq])
        position: Dict[tuple, Dict[tuple, int]] = {}
        for seq in all_sequences:
            index = {mid: pos for pos, mid in enumerate(seq)}
            for other in all_sequences:
                shared = [mid for mid in other if mid in index]
                ranks = [index[mid] for mid in shared]
                if ranks != sorted(ranks):
                    raise SimulationError(
                        "pairwise total order violated across groups")
