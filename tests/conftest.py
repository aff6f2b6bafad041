"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.consensus.paxos import PaxosConsensus
from repro.fdetect.heartbeat import HeartbeatDetector
from repro.fdetect.omega import OmegaOracle
from repro.runtime import Node, SeedSequence, SimRuntime
from repro.storage.memory import MemoryStorage
from repro.transport.endpoint import Endpoint
from repro.transport.message import unpack
from repro.transport.network import Network, NetworkConfig


@pytest.fixture
def sim():
    """A fresh simulator."""
    return SimRuntime()


class MiniCluster:
    """A hand-rolled small cluster for unit tests below the harness level.

    Exposes the raw pieces (nodes, endpoints, detectors, consensuses) so
    tests can poke at individual layers without the full harness.
    """

    def __init__(self, n: int = 3, seed: int = 0,
                 network_config: NetworkConfig = None,
                 with_consensus: bool = True,
                 attempt_timeout: float = 1.0,
                 storage_factory=lambda node_id: MemoryStorage()):
        self.sim = SimRuntime()
        self.seeds = SeedSequence(seed)
        self.network = Network(self.sim, self.seeds.stream("net"),
                               network_config or NetworkConfig())
        self.nodes = {}
        self.endpoints = {}
        self.detectors = {}
        self.omegas = {}
        self.consensuses = {}
        for i in range(n):
            node = Node(self.sim, i, storage_factory(i))
            endpoint = node.add_component(Endpoint(self.network))
            self.endpoints[i] = endpoint
            if with_consensus:
                detector = node.add_component(HeartbeatDetector(endpoint))
                omega = node.add_component(OmegaOracle(detector))
                consensus = node.add_component(PaxosConsensus(
                    endpoint, omega, attempt_timeout=attempt_timeout))
                self.detectors[i] = detector
                self.omegas[i] = omega
                self.consensuses[i] = consensus
            self.network.register(node)
            self.nodes[i] = node

    def start(self):
        for node in self.nodes.values():
            node.start()
        return self

    def run(self, until):
        return self.sim.run(until=until)


def tap(network, drop=lambda src, dst, message: False):
    """Record ``(now, src, dst, message)`` for everything the fair-loss
    medium is handed; ``drop(src, dst, message)`` loses a message before
    the medium sees it (a fault the medium itself cannot model: one-way,
    or aimed at one message).  A packet's rider and carrier are recorded,
    and judged by ``drop``, one by one, rider first: dropping one sends
    the other alone."""
    seen, send = [], network.send

    def tapped(src, dst, message):
        kept = [part for part in unpack(message)
                if not drop(src, dst, part)]
        for part in kept:
            seen.append((network.sim.now, src, dst, part))
        if len(kept) == 2:
            send(src, dst, message)
        elif kept:
            send(src, dst, kept[0])

    network.send = tapped
    return seen


@pytest.fixture
def mini_cluster():
    """Factory for small raw clusters."""
    return MiniCluster
