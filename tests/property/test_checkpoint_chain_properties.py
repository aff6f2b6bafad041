"""Property: the checkpoint chain is the node's durable point, exactly.

Hypothesis interleaves ``commit a round`` / ``checkpoint tick`` /
``crash + recover`` on a one-node cluster (real Paxos, real storage, so
the watermark GC and the consensus replay take part) and, separately,
damages a chain.  Two things must hold whatever the order:

* what recovery rebuilds *before any event of the new incarnation runs*
  is the last durable point — the round and the delivered ids of the
  last tick, nothing of what was committed after it;
* once the replay has run, the application holds every committed
  message exactly once, in order (the chain supplied the prefix, the
  consensus log the rest), and ``verify_run`` agrees.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.alternative import AlternativeConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run

RUNS = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

COMMIT, TICK, CRASH = "commit", "tick", "crash"
steps = st.lists(st.sampled_from([COMMIT, COMMIT, TICK, CRASH]),
                 min_size=1, max_size=14)


def lone_node(seed):
    cluster = Cluster(ClusterConfig(
        n=1, seed=seed, protocol="alternative",
        alt=AlternativeConfig(checkpoint_interval=None)))
    cluster.start()
    cluster.run(until=1.0)
    return cluster


def queue_ids(ab):
    state = ab.agreed.checkpoint_state
    prefix = [tuple(identity) for identity, _ in state["entries"]] \
        if state else []
    return prefix + [tuple(m.id) for m in ab.agreed.sequence()]


def commit(cluster, committed, count):
    """Order ``count`` messages (one round or more)."""
    for _ in range(count):
        message = cluster.submit(0, f"p{len(committed)}")
        committed.append(tuple(message.id))
    cluster.run(until=cluster.sim.now + 1.0)
    assert cluster.app(0).ids() == committed


@RUNS
@given(plan=steps, seed=st.integers(min_value=0, max_value=1000),
       sizes=st.lists(st.integers(min_value=1, max_value=4),
                      min_size=14, max_size=14))
def test_recovery_stands_at_the_last_durable_point(plan, seed, sizes):
    cluster = lone_node(seed)
    ab = cluster.abcasts[0]
    committed = []                      # every id ordered so far
    durable = (0, 0)                    # (round, delivered) at the last tick
    for step, size in zip(plan, sizes):
        if step == COMMIT:
            commit(cluster, committed, size)
        elif step == TICK:
            ab.take_checkpoint()
            durable = (ab.k, len(committed))
            assert ab.ckpt_k == ab.k
        else:
            rounds = ab.k
            cluster.nodes[0].crash()
            cluster.nodes[0].recover()
            # Before anything runs: exactly the durable point.
            assert (ab.k, ab.ckpt_k) == (durable[0], durable[0])
            assert queue_ids(ab) == committed[:durable[1]]
            assert cluster.app(0).ids() == []
            # After the replay: everything, once, in order.
            cluster.run(until=cluster.sim.now + 1.0)
            assert ab.k == rounds
            assert cluster.app(0).ids() == committed
    assert cluster.settle(within=60.0)
    verify_run(cluster)


@RUNS
@given(segments=st.integers(min_value=2, max_value=5),
       damage=st.sampled_from(["remove", "stale", "misfiled"]),
       data=st.data())
def test_damaged_chain_stops_at_the_gap(segments, damage, data):
    cluster = lone_node(seed=segments)
    ab, storage = cluster.abcasts[0], cluster.nodes[0].storage
    committed = []
    commit(cluster, committed, 6)
    ab.take_checkpoint()                # the base
    ab._base_bytes = 1 << 30            # keep every later tick a segment
    links = []                          # (from_k, to_k, delivered after it)
    for _ in range(segments):
        from_k = ab.k
        commit(cluster, committed, 2)
        ab.take_checkpoint()
        links.append((from_k, ab.k, len(committed)))
    victim = data.draw(st.integers(min_value=0, max_value=segments - 1))
    from_k, to_k, _ = links[victim]
    key = ab.SEGMENT_KEY + (from_k,)
    if damage == "remove":
        storage.delete(key)
    elif damage == "stale":
        # A record left by an earlier chain: it ends where it starts.
        storage.log(key, (from_k, from_k, ()))
    else:
        # A record filed under the wrong round.
        storage.log(key, (from_k + 1, to_k + 1, storage.retrieve(key)[2]))
    cluster.nodes[0].crash()
    cluster.nodes[0].recover()
    stands_at, delivered = (links[victim - 1][1:] if victim
                            else (links[0][0], 6))
    assert ab.k == ab.ckpt_k == stands_at
    assert queue_ids(ab) == committed[:delivered]
