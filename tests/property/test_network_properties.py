"""Property/statistical tests for the simulated network's model guarantees."""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import Node, SimRuntime
from repro.storage.stable import StableStorage
from repro.transport.message import WireMessage
from repro.transport.network import Network, NetworkConfig

RUNS = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class Ping(WireMessage):
    type = "test.ping"
    fields = ("value",)

    def __init__(self, value):
        self.value = value


def build(config, seed, n=2):
    sim = SimRuntime()
    net = Network(sim, random.Random(seed), config)
    received = {i: [] for i in range(n)}
    for i in range(n):
        node = Node(sim, i, StableStorage())
        node.start()
        node.register_handler(
            "test.ping",
            lambda m, s, i=i: received[i].append((m.value, sim.now)))
        net.register(node)
    return sim, net, received


@RUNS
@given(seed=st.integers(min_value=0, max_value=10_000),
       loss=st.floats(min_value=0.0, max_value=0.9))
def test_fair_loss_always_eventually_delivers(seed, loss):
    """A message sent repeatedly is received, for any loss rate < 1."""
    sim, net, received = build(NetworkConfig(loss_rate=loss), seed)
    attempts = 0
    while not received[1] and attempts < 10_000:
        net.send(0, 1, Ping(attempts))
        attempts += 1
        sim.run()
    assert received[1], f"fair loss violated at loss={loss}"


@RUNS
@given(seed=st.integers(min_value=0, max_value=10_000),
       min_delay=st.floats(min_value=0.0, max_value=0.5),
       spread=st.floats(min_value=0.0, max_value=2.0))
def test_delays_respect_configured_bounds(seed, min_delay, spread):
    config = NetworkConfig(min_delay=min_delay,
                           max_delay=min_delay + spread)
    sim, net, received = build(config, seed)
    for index in range(50):
        net.send(0, 1, Ping(index))
    sim.run()
    assert len(received[1]) == 50
    for _, arrival in received[1]:
        assert min_delay <= arrival <= min_delay + spread + 1e-9


@RUNS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_accounting_identity(seed):
    """sent == delivered + lost + dropped_down + unhandled +
    in-flight(0 at drain), modulo duplicates (which add deliveries
    without sends)."""
    config = NetworkConfig(loss_rate=0.3, duplicate_rate=0.2)
    sim, net, received = build(config, seed, n=3)
    rng = random.Random(seed)
    for _ in range(200):
        src = rng.randrange(3)
        dst = rng.randrange(3)
        net.send(src, dst, Ping(0))
    sim.run()
    metrics = net.metrics
    assert (metrics.delivered + metrics.lost + metrics.dropped_down
            + metrics.unhandled == metrics.sent + metrics.duplicated)


class Note(WireMessage):
    """A type no node handles."""

    type = "test.note"
    fields = ()


@RUNS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_accounting_identity_with_stalls_and_crashes(seed):
    """The same identity when nodes stall (an arrival is deferred and
    counted once, when presented again), crash and recover meanwhile,
    and some arrivals have no handler."""
    config = NetworkConfig(loss_rate=0.3, duplicate_rate=0.2)
    sim, net, received = build(config, seed, n=3)
    rng = random.Random(seed)
    for _ in range(200):
        when = rng.uniform(0.0, 5.0)
        src, dst = rng.randrange(3), rng.randrange(3)
        message = Note() if rng.random() < 0.2 else Ping(0)
        sim.schedule(when, net.send, src, dst, message)
    for node in net.nodes.values():
        for _ in range(rng.randrange(4)):
            sim.schedule(rng.uniform(0.0, 5.0), node.stall,
                         rng.uniform(0.05, 1.0))
        if rng.random() < 0.5:
            down = rng.uniform(0.0, 5.0)
            sim.schedule(down, node.crash)
            sim.schedule(down + rng.uniform(0.0, 1.0), node.recover)
    sim.run()
    metrics = net.metrics
    assert (metrics.delivered + metrics.lost + metrics.dropped_down
            + metrics.unhandled == metrics.sent + metrics.duplicated)
    # ... and "delivered" is what the handlers took.
    assert metrics.delivered == sum(map(len, received.values()))


def test_a_stall_defers_and_counts_once():
    """Without loss, every arrival at a stalled node is delivered exactly
    once, when its stall ends, and counted once."""
    sim, net, received = build(NetworkConfig(), seed=5)
    net.nodes[1].stall(2.0)
    for index in range(30):
        net.send(0, 1, Ping(index))
    sim.run()
    assert sorted(value for value, _ in received[1]) == list(range(30))
    assert all(when >= 2.0 for _, when in received[1])
    assert net.metrics.delivered == 30 == net.metrics.sent


def test_loss_rate_converges_statistically():
    sim, net, received = build(NetworkConfig(loss_rate=0.3), seed=42)
    for index in range(3000):
        net.send(0, 1, Ping(index))
    sim.run()
    observed = 1 - len(received[1]) / 3000
    assert 0.25 < observed < 0.35


def test_duplicate_rate_converges_statistically():
    sim, net, received = build(NetworkConfig(duplicate_rate=0.25), seed=43)
    for index in range(3000):
        net.send(0, 1, Ping(index))
    sim.run()
    extra = len(received[1]) - 3000
    assert 0.20 * 3000 < extra < 0.30 * 3000
