"""Unit tests for the replicated applications (state machines)."""

from __future__ import annotations

import pytest

from repro.apps.bank import Bank
from repro.apps.certifier import CertifyingDatabase, make_transaction
from repro.apps.counter import SequenceRecorder
from repro.apps.kvstore import KeyValueStore
from repro.core.ids import MessageId
from repro.core.messages import AppMessage


def msg(payload, seq=1, sender=0):
    return AppMessage(MessageId(sender, 1, seq), payload)


class TestKeyValueStore:
    def test_put_get(self):
        store = KeyValueStore()
        store.apply(msg(("put", "a", 1)))
        assert store.get("a") == 1
        assert store.get("missing", "dflt") == "dflt"

    def test_delete(self):
        store = KeyValueStore()
        store.apply(msg(("put", "a", 1), seq=1))
        store.apply(msg(("del", "a"), seq=2))
        assert store.get("a") is None
        assert len(store) == 0

    def test_append_is_order_sensitive(self):
        one, two = KeyValueStore(), KeyValueStore()
        ops = [msg(("append", "log", "x"), seq=1),
               msg(("append", "log", "y"), seq=2)]
        for op in ops:
            one.apply(op)
        for op in reversed(ops):
            two.apply(op)
        assert one.get("log") == ("x", "y")
        assert two.get("log") == ("y", "x")
        assert one.get("log") != two.get("log")

    def test_snapshot_restore_round_trip(self):
        store = KeyValueStore()
        store.apply(msg(("put", "a", 1)))
        clone = KeyValueStore()
        clone.restore(store.snapshot())
        assert clone.get("a") == 1
        assert clone.version == store.version

    def test_snapshot_is_isolated(self):
        store = KeyValueStore()
        store.apply(msg(("put", "a", 1)))
        snap = store.snapshot()
        store.apply(msg(("put", "a", 2), seq=2))
        assert dict(snap[0])["a"] == 1

    def test_restore_none_resets(self):
        store = KeyValueStore()
        store.apply(msg(("put", "a", 1)))
        store.restore(None)
        assert len(store) == 0 and store.version == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            KeyValueStore().apply(msg(("fly", "away")))


class TestBank:
    def test_open_deposit_transfer(self):
        bank = Bank()
        bank.apply(msg(("open", "alice", 100), seq=1))
        bank.apply(msg(("open", "bob", 0), seq=2))
        assert bank.apply(msg(("transfer", "alice", "bob", 30), seq=3))
        assert bank.balances == {"alice": 70, "bob": 30}

    def test_insufficient_funds_rejected_deterministically(self):
        bank = Bank()
        bank.apply(msg(("open", "alice", 10), seq=1))
        assert not bank.apply(msg(("transfer", "alice", "bob", 30), seq=2))
        assert bank.rejected == 1
        assert bank.balances["alice"] == 10

    def test_money_conserved(self):
        bank = Bank()
        bank.apply(msg(("open", "a", 50), seq=1))
        bank.apply(msg(("open", "b", 50), seq=2))
        bank.apply(msg(("deposit", "a", 25), seq=3))
        bank.apply(msg(("transfer", "a", "b", 60), seq=4))
        assert bank.total() == 125

    def test_reopen_is_idempotent(self):
        bank = Bank()
        bank.apply(msg(("open", "a", 50), seq=1))
        bank.apply(msg(("open", "a", 999), seq=2))
        assert bank.balances["a"] == 50

    def test_snapshot_restore(self):
        bank = Bank()
        bank.apply(msg(("open", "a", 50), seq=1))
        clone = Bank()
        clone.restore(bank.snapshot())
        assert clone.balances == {"a": 50}
        assert clone.applied == 1
        clone.restore(None)
        assert clone.balances == {}

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            Bank().apply(msg(("rob", "the-bank")))


class TestSequenceRecorder:
    def test_records_in_order(self):
        recorder = SequenceRecorder()
        recorder.apply(msg("a", seq=1))
        recorder.apply(msg("b", seq=2))
        assert recorder.payloads() == ["a", "b"]
        assert recorder.ids() == [(0, 1, 1), (0, 1, 2)]

    def test_digest_is_order_sensitive(self):
        one, two = SequenceRecorder(), SequenceRecorder()
        a, b = msg("a", seq=1), msg("b", seq=2)
        one.apply(a)
        one.apply(b)
        two.apply(b)
        two.apply(a)
        assert one.digest != two.digest

    def test_snapshot_restore_preserves_digest(self):
        recorder = SequenceRecorder()
        for i in range(5):
            recorder.apply(msg(f"m{i}", seq=i + 1))
        clone = SequenceRecorder()
        clone.restore(recorder.snapshot())
        assert clone.digest == recorder.digest
        assert clone.payloads() == recorder.payloads()
        clone.apply(msg("more", seq=6))
        recorder.apply(msg("more", seq=6))
        assert clone.digest == recorder.digest


class TestCertifyingDatabase:
    def test_commit_on_fresh_reads(self):
        db = CertifyingDatabase()
        txn = make_transaction("t1", reads=[("x", 0)], writes=[("x", 5)])
        assert db.apply(msg(txn))
        assert db.values["x"] == 5
        assert db.verdicts["t1"] is True

    def test_stale_read_aborts(self):
        db = CertifyingDatabase()
        db.apply(msg(make_transaction("t1", [("x", 0)], [("x", 5)]), seq=1))
        # t2 read x at version 0 but t1 committed version 1 meanwhile.
        stale = make_transaction("t2", [("x", 0)], [("x", 9)])
        assert not db.apply(msg(stale, seq=2))
        assert db.values["x"] == 5
        assert db.abort_rate == 0.5

    def test_disjoint_transactions_both_commit(self):
        db = CertifyingDatabase()
        db.apply(msg(make_transaction("t1", [("x", 0)], [("x", 1)]), seq=1))
        db.apply(msg(make_transaction("t2", [("y", 0)], [("y", 2)]), seq=2))
        assert db.committed == 2 and db.aborted == 0

    def test_read_returns_value_and_version(self):
        db = CertifyingDatabase()
        assert db.read("x") == (None, 0)
        db.apply(msg(make_transaction("t1", [], [("x", 7)])))
        value, version = db.read("x")
        assert value == 7 and version == 1

    def test_snapshot_restore(self):
        db = CertifyingDatabase()
        db.apply(msg(make_transaction("t1", [("x", 0)], [("x", 1)])))
        clone = CertifyingDatabase()
        clone.restore(db.snapshot())
        assert clone.values == db.values
        assert clone.verdicts == db.verdicts
        clone.restore(None)
        assert clone.committed == 0

    def test_same_order_same_verdicts(self):
        """The Section 6.2 argument: identical order ⇒ identical verdicts."""
        txns = [msg(make_transaction(f"t{i}", [("x", i % 2)],
                                     [("x", i)]), seq=i + 1)
                for i in range(6)]
        one, two = CertifyingDatabase(), CertifyingDatabase()
        for txn in txns:
            one.apply(txn)
        for txn in txns:
            two.apply(txn)
        assert one.verdicts == two.verdicts
        assert one.values == two.values
