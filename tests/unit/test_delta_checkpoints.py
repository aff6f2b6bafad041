"""The durable queue as a base record plus a chain of segments.

Covers the layout (a tick logs what was appended, a fold rewrites the
base once the segments have grown as large as it), the recovery chain
rule (follow the links, stop at the first gap, never look below the
base), what each kind of state adoption leaves durable — and a crash at
every storage operation of each new write path, checked by
``verify_run`` including the application-state comparison.
"""

from __future__ import annotations

import pytest

from repro.core.alternative import AlternativeConfig
from repro.core.ids import MessageId
from repro.core.messages import AppMessage, StateMessage
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.verify import verify_run
from repro.storage import codec
from repro.storage.disk import InjectedCrashFault, SimDisk
from repro.storage.stable import StableStorage

PAYLOAD = "x" * 100


def build(n=3, seed=0, interval=None, storage_factory=None, delta=3):
    """A started cluster whose checkpoint ticks the test drives itself
    (``interval=None``) unless it asks for the periodic task."""
    extra = {"storage_factory": storage_factory} if storage_factory else {}
    cluster = Cluster(ClusterConfig(
        n=n, seed=seed, protocol="alternative",
        alt=AlternativeConfig(checkpoint_interval=interval, delta=delta),
        **extra))
    cluster.start()
    return cluster


def pump(cluster, count, start, node=0, gap=0.05):
    for j in range(count):
        cluster.sim.schedule(start - cluster.sim.now + gap * j,
                             cluster.submit, node,
                             f"{start}-{j}-{PAYLOAD}")


def burst(cluster, count=8, node=0):
    """Submit ``count`` messages now and run until everyone has them."""
    pump(cluster, count, cluster.sim.now + 0.05, node)
    cluster.run(until=cluster.sim.now + 2.0)


def tick_all(cluster):
    for node_id, ab in cluster.abcasts.items():
        if cluster.nodes[node_id].up:
            ab.take_checkpoint()


def ab_bytes(cluster, node_id):
    return cluster.nodes[node_id].storage.metrics.bytes_by_prefix.get("ab", 0)


def segment_keys(cluster, node_id):
    ab = cluster.abcasts[node_id]
    return list(cluster.nodes[node_id].storage.keys(ab.SEGMENT_KEY))


def base_round(cluster, node_id):
    """The round of the base record on disk (``None`` before the first)."""
    ab = cluster.abcasts[node_id]
    stored = cluster.nodes[node_id].storage.retrieve(ab.CHECKPOINT_KEY)
    return stored[0] if stored else None


def delivered_ids(ab):
    """Every id the queue holds, in order (folded prefix + explicit tail)."""
    state = ab.agreed.checkpoint_state
    prefix = [tuple(identity) for identity, _ in state[0]] \
        if state else []
    return prefix + [tuple(m.id) for m in ab.agreed.sequence()]


def message_bytes(cluster, mid):
    payload = cluster.collector.broadcast_payloads[MessageId(*mid)]
    return codec.size(AppMessage(MessageId(*mid), payload))


def finish(cluster, limit=300.0):
    assert cluster.settle(within=limit)
    return verify_run(cluster)


class TestDurableLayout:
    def test_first_tick_writes_a_base_and_later_ones_segments(self):
        cluster = build()
        ab, storage = cluster.abcasts[0], cluster.nodes[0].storage
        burst(cluster)
        ab.take_checkpoint()
        first_base = storage.retrieve(ab.CHECKPOINT_KEY)
        assert first_base[0] == ab.k == ab.ckpt_k
        assert segment_keys(cluster, 0) == []
        held = ab.delivered_count()
        burst(cluster)
        from_k, before = ab.ckpt_k, ab_bytes(cluster, 0)
        ab.take_checkpoint()
        # The base is untouched; the segment names the round it extends
        # and holds exactly the messages appended since.
        assert storage.retrieve(ab.CHECKPOINT_KEY) == first_base
        stored = storage.retrieve(ab.SEGMENT_KEY + (from_k,))
        assert stored[:2] == (from_k, ab.k) and ab.ckpt_k == ab.k
        assert [tuple(m.id) for m in stored[2]] == delivered_ids(ab)[held:]
        assert len(stored[2]) == 8
        # ...and it cost what it holds, not what the queue holds.
        assert ab_bytes(cluster, 0) - before == codec.size(stored)

    def test_idle_tick_writes_nothing_but_counts(self):
        cluster = build()
        ab, metrics = cluster.abcasts[0], cluster.nodes[0].storage.metrics
        burst(cluster)
        ab.take_checkpoint()
        ops, taken = metrics.log_ops, ab.checkpoints_taken
        ab.take_checkpoint()
        assert metrics.log_ops == ops
        assert ab.checkpoints_taken == taken + 1

    def test_empty_rounds_still_move_the_durable_round(self):
        cluster = build()
        ab = cluster.abcasts[0]
        burst(cluster)
        ab.take_checkpoint()
        from_k = ab.ckpt_k
        ab._commit_round(frozenset())       # a round that ordered nothing
        ab.take_checkpoint()
        assert ab.ckpt_k == from_k + 1
        assert cluster.nodes[0].storage.retrieve(
            ab.SEGMENT_KEY + (from_k,)) == (from_k, from_k + 1, ())

    def test_fold_once_segments_are_as_large_as_the_base(self):
        cluster = build()
        ab = cluster.abcasts[0]
        burst(cluster, 16)
        ab.take_checkpoint()
        base_k, folds = base_round(cluster, 0), 0
        for _ in range(8):
            burst(cluster, 4)
            due = ab._segment_bytes >= ab._base_bytes
            ab.take_checkpoint()
            folded = base_round(cluster, 0) != base_k
            assert folded == due
            if folded:
                folds += 1
                base_k = base_round(cluster, 0)
                # The fold absorbed everything and dropped every segment.
                assert base_k == ab.k
                assert segment_keys(cluster, 0) == []
                assert ab.agreed.sequence() == []
            else:
                assert segment_keys(cluster, 0)
        assert folds >= 1
        finish(cluster)

    def test_ordinary_ticks_cost_the_traffic_not_the_state(self):
        """Between two folds, with a state ten times one tick's traffic,
        the bytes logged under ``ab/`` stay within twice the size of the
        messages delivered in between."""
        cluster = build(interval=1.0)
        ab = cluster.abcasts[0]
        # Per second (= per tick): did it fold, ab/ bytes logged, size of
        # the messages delivered, size of the base in force before it.
        samples = []
        seen = 0
        for second in range(80):
            pump(cluster, 6, cluster.sim.now + 0.1, node=second % 3)
            base_k, base_bytes = base_round(cluster, 0), ab._base_bytes
            before = ab_bytes(cluster, 0)
            cluster.run(until=cluster.sim.now + 1.0)
            ids = delivered_ids(ab)
            delivered = sum(message_bytes(cluster, mid) for mid in ids[seen:])
            seen = len(ids)
            samples.append((base_round(cluster, 0) != base_k,
                            ab_bytes(cluster, 0) - before, delivered,
                            base_bytes))
        folds = [i for i, sample in enumerate(samples) if sample[0]]
        between = samples[folds[-2] + 1:folds[-1]]
        assert len(between) >= 10
        # The state is at least ten times the costliest tick...
        assert between[0][3] >= 10 * max(logged for _, logged, _, _ in between)
        # ...and the ticks cost what was delivered, give or take framing.
        logged = sum(logged for _, logged, _, _ in between)
        delivered = sum(delivered for _, _, delivered, _ in between)
        assert 0 < delivered <= logged <= 2 * delivered
        finish(cluster)

    def test_segments_do_not_go_through_append(self, monkeypatch):
        def no_append(self, key, item):
            raise AssertionError(f"append({key!r}) on the checkpoint path")
        monkeypatch.setattr(StableStorage, "append", no_append)
        cluster = build(interval=0.5)
        pump(cluster, 30, 0.5, gap=0.1)
        written = set()
        for _ in range(12):
            cluster.run(until=cluster.sim.now + 0.5)
            written.update(segment_keys(cluster, 0))
        assert len(written) >= 3 and cluster.abcasts[0].ckpt_k > 0
        finish(cluster)

    def test_config_has_no_new_knob(self):
        import inspect
        assert list(inspect.signature(
            AlternativeConfig.__init__).parameters)[1:] == [
                "checkpoint_interval", "delta", "log_unordered",
                "incremental", "state_resend_interval"]


def chained(cluster, node_id=0, segments=2):
    """Give ``node_id`` a base and ``segments`` chained segments."""
    ab = cluster.abcasts[node_id]
    burst(cluster, 24)
    tick_all(cluster)
    for _ in range(segments):
        burst(cluster, 4)
        tick_all(cluster)
    assert len(segment_keys(cluster, node_id)) == segments
    return ab


def bounce(cluster, node_id=0):
    """Crash and restart; returns the broadcast as recovery rebuilt it,
    before a single event of the new incarnation has run."""
    cluster.nodes[node_id].crash()
    cluster.nodes[node_id].recover()
    return cluster.abcasts[node_id]


class TestRecoveryChain:
    def test_recovery_follows_the_chain_to_its_end(self):
        cluster = build()
        ab = chained(cluster)
        k, ids = ab.k, delivered_ids(ab)
        burst(cluster, 4)               # delivered, never made durable
        assert ab.k > k
        ab = bounce(cluster)
        assert (ab.k, ab.ckpt_k, delivered_ids(ab)) == (k, k, ids)
        finish(cluster)
        assert cluster.app(0).ids() == cluster.app(1).ids()

    def test_segments_below_the_base_are_never_looked_at(self):
        """A fold that crashed after its base write leaves its segments
        behind; they lie below the base and must not be re-applied."""
        cluster = build()
        ab = chained(cluster)
        storage = cluster.nodes[0].storage
        stale = {key: storage.retrieve(key)
                 for key in segment_keys(cluster, 0)}
        burst(cluster, 40)
        ab.take_checkpoint()            # a segment that outgrows the base
        ab.take_checkpoint()            # ...so this pass folds
        assert segment_keys(cluster, 0) == []
        for key, value in stale.items():
            storage.log(key, value)     # the deletes that never happened
        k, ids = ab.k, delivered_ids(ab)
        ab = bounce(cluster)
        assert (ab.k, delivered_ids(ab)) == (k, ids)
        finish(cluster)

    def test_chain_stops_at_a_missing_link(self):
        cluster = build()
        ab = chained(cluster, segments=3)
        storage = cluster.nodes[0].storage
        first, second, third = sorted(
            (storage.retrieve(key) for key in segment_keys(cluster, 0)),
            key=lambda segment: segment[0])
        storage.delete(ab.SEGMENT_KEY + (second[0],))
        ab = bounce(cluster)
        # Stands where the first segment ends; the third is unreachable.
        # (A lost record is a storage fault outside the paper's model:
        # the node is now behind the round it advertised, so the run is
        # not carried further.)
        assert ab.k == ab.ckpt_k == first[1] == second[0]
        assert third[0] > ab.k and len(delivered_ids(ab)) == 24 + 4

    def test_segment_contradicting_its_key_is_a_gap(self):
        cluster = build()
        ab = chained(cluster, segments=2)
        storage = cluster.nodes[0].storage
        first, second = sorted(
            (storage.retrieve(key) for key in segment_keys(cluster, 0)),
            key=lambda segment: segment[0])
        storage.log(ab.SEGMENT_KEY + (second[0],),
                    (second[0] + 1, second[1] + 1, second[2]))
        ab = bounce(cluster)
        assert ab.k == first[1]

    def test_advertised_round_never_runs_ahead_of_the_chain(self):
        cluster = build()
        ab = chained(cluster)
        burst(cluster, 4)
        advertised = ab._checkpoint_round()
        assert advertised == ab.ckpt_k < ab.k   # progress past the mark
        assert bounce(cluster).k == advertised


def whole_queue_from(cluster, sender):
    source = cluster.abcasts[sender]
    return StateMessage(source.k - 1, source.agreed.to_plain(),
                        source.view_manager.to_plain())


class TestAdoptionAndTheChain:
    def lagging(self):
        """Node 2 holds a chain, then misses traffic while down."""
        cluster = build(delta=None)     # the test hands over the state
        chained(cluster, node_id=2)
        old_k = cluster.abcasts[2].ckpt_k
        cluster.nodes[2].crash()
        burst(cluster, 12)
        cluster.nodes[2].recover()
        cluster.run(until=cluster.sim.now + 0.01)
        return cluster, old_k

    def test_whole_queue_adoption_is_sealed_by_the_next_tick(self):
        cluster, old_k = self.lagging()
        ab = cluster.abcasts[2]
        ab._on_state(whole_queue_from(cluster, 0), sender=0)
        # Nothing durable moved: the old chain is still what is on disk.
        assert ab.k > old_k and ab.ckpt_k == old_k
        assert len(segment_keys(cluster, 2)) == 2
        ab.take_checkpoint()
        assert base_round(cluster, 2) == ab.k == ab.ckpt_k
        assert segment_keys(cluster, 2) == []
        finish(cluster)

    def test_crash_before_that_tick_recovers_the_old_chain(self):
        cluster, old_k = self.lagging()
        cluster.abcasts[2]._on_state(whole_queue_from(cluster, 0), sender=0)
        assert cluster.abcasts[2].k > old_k
        ab = bounce(cluster, 2)
        assert ab.k == ab.ckpt_k == old_k
        cluster.abcasts[2].config.delta = 3   # let the peers help now
        finish(cluster)

    def test_missed_rounds_adoption_goes_out_as_the_next_segment(self):
        cluster = build()
        chained(cluster, node_id=2)
        ab = cluster.abcasts[2]
        base_k, from_k = base_round(cluster, 2), ab.ckpt_k
        cluster.nodes[2].crash()
        # How many rounds a burst makes, and how soon a lagging gossip
        # is answered, depend on message timing; the adoption does not.
        missed = 0
        while cluster.abcasts[0].k <= from_k + ab.config.delta:
            burst(cluster, 4)
            missed += 4
        cluster.nodes[2].recover()
        deadline = cluster.sim.now + 30.0
        while not ab.state_transfers_adopted and cluster.sim.now < deadline:
            cluster.run(until=cluster.sim.now + 0.25)
        assert ab.state_transfers_adopted >= 1 and ab.k > from_k
        ab._base_bytes = 1 << 30        # keep this tick an ordinary one
        ab.take_checkpoint()
        assert base_round(cluster, 2) == base_k
        stored = cluster.nodes[2].storage.retrieve(
            ab.SEGMENT_KEY + (from_k,))
        assert stored[:2] == (from_k, ab.k) and len(stored[2]) == missed
        finish(cluster)


# -- a crash at every storage operation of the new write paths ---------------


class CrashPointStorage(StableStorage):
    """A store on a :class:`SimDisk` that crashes itself at a chosen write.

    Once ``crash_at`` is set, that many writes and deletes pass and the
    next one raises :class:`InjectedCrashFault` before it lands (a write
    inside a barrier takes the barrier's earlier records with it).
    ``anchor`` delays the count until the first operation on a path that
    starts with it.  A crash of the node reopens the store from what its
    disk kept; ``operations`` carries over.
    """

    def __init__(self, node_id, disk=None):
        super().__init__(disk or SimDisk(node_hint=node_id))
        self.node_id = node_id
        self.crash_at = None
        self.anchor = None
        self.operations = []

    def reopen(self):
        self.disk.crash()
        again = CrashPointStorage(self.node_id, self.disk)
        again.operations = self.operations
        return again

    def _step(self, path, mode):
        self.operations.append(path)
        if self.crash_at is None:
            return
        if self.anchor is not None:
            if not path.startswith(self.anchor):
                return
            self.anchor = None
        if self.crash_at == 0:
            self.crash_at = None
            raise InjectedCrashFault(self.node_id, mode, path)
        self.crash_at -= 1

    def _write(self, path, value, op, logged):
        self._step(path, "write-crash")
        super()._write(path, value, op, logged)

    def _delete_raw(self, path):
        self._step(path, "delete-crash")
        super()._delete_raw(path)


def crash_cluster(**kwargs):
    return build(storage_factory=CrashPointStorage, **kwargs)


def sweep(scenario, least, anchor=None):
    """Crash at every storage operation of ``scenario``'s action.

    ``scenario()`` returns ``(cluster, victim, action)`` with the cluster
    driven to the brink; a dry run of ``action`` counts its operations
    on the victim's storage (from the first one under ``anchor``, when
    given), then each is crashed in a fresh, identical run: recover,
    more traffic, settle, ``verify_run``.
    """
    cluster, victim, action = scenario()
    storage = cluster.nodes[victim].storage
    mark = len(storage.operations)
    action()
    touched = storage.operations[mark:]
    if anchor is not None:
        first = next(i for i, path in enumerate(touched)
                     if path.startswith(anchor))
        touched = touched[first:]
    assert len(touched) >= least, touched
    for index in range(len(touched)):
        cluster, victim, action = scenario()
        storage = cluster.nodes[victim].storage
        storage.crash_at, storage.anchor = index, anchor
        with pytest.raises(InjectedCrashFault) as fault:
            action()
        assert fault.value.path == touched[index]
        cluster.nodes[victim].crash()
        cluster.run(until=cluster.sim.now + 0.5)
        cluster.nodes[victim].recover()
        burst(cluster, 4, node=(victim + 1) % 3)
        for ab in cluster.abcasts.values():
            ab.config.delta = 3
        finish(cluster)
        assert cluster.app(victim).ids() == \
            cluster.app((victim + 1) % 3).ids()
    return touched


class TestCrashAtEveryWrite:
    def test_inside_a_segment_tick(self):
        def scenario():
            cluster = crash_cluster()
            ab = chained(cluster, segments=1)
            burst(cluster, 4)
            assert ab._segment_bytes < ab._base_bytes
            return cluster, 0, ab.take_checkpoint
        touched = sweep(scenario, least=2)
        # The segment write, then the consensus records the watermark
        # released.
        assert touched[0].startswith("ab/seg/")
        assert any(path.startswith(("consensus/", "paxos/"))
                   for path in touched[1:])

    def test_inside_a_fold(self):
        def scenario():
            cluster = crash_cluster()
            ab = chained(cluster, segments=2)
            burst(cluster, 40)
            assert ab._segment_bytes < ab._base_bytes
            ab.take_checkpoint()        # a third, large segment
            burst(cluster, 4)
            assert ab._segment_bytes >= ab._base_bytes
            return cluster, 0, ab.take_checkpoint
        touched = sweep(scenario, least=4)
        # The base write, then each of the three segment deletes.
        assert touched[0] == "ab/ckpt"
        assert [path.startswith("ab/seg/") for path in touched[1:4]] == \
            [True] * 3

    def test_inside_a_join_seal(self):
        def scenario():
            cluster = crash_cluster()
            burst(cluster, 12)
            tick_all(cluster)
            burst(cluster, 4)
            joiner = cluster.add_node()

            def action():
                cluster.run(until=cluster.sim.now + 10.0)
            return cluster, joiner, action
        touched = sweep(scenario, least=2, anchor="ab/ckpt")
        assert touched[0] == "ab/ckpt" and "ab/joining" in touched

    def test_first_tick_after_a_whole_queue_adoption(self):
        def scenario():
            cluster = crash_cluster(delta=None)
            chained(cluster, node_id=2, segments=2)
            cluster.nodes[2].crash()
            burst(cluster, 12)
            cluster.nodes[2].recover()
            cluster.run(until=cluster.sim.now + 0.01)
            ab = cluster.abcasts[2]
            ab._on_state(whole_queue_from(cluster, 0), sender=0)
            return cluster, 2, ab.take_checkpoint
        touched = sweep(scenario, least=3)
        assert touched[0] == "ab/ckpt"
        assert [path.startswith("ab/seg/") for path in touched[1:3]] == \
            [True] * 2
