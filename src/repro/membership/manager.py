"""Per-node view installation (the membership half of every stack).

The :class:`ViewManager` sits directly above the transport endpoint and
below every peer-consuming layer, so its ``on_start`` restores the
durable view *before* the failure detector, consensus or broadcast read
``endpoint.peers()``.  It learns about view changes from exactly two
sources, mirroring how a node learns about ordinary messages:

* **delivery** — it subscribes to the Atomic Broadcast delivery stream
  and applies every reconfiguration command at its agreed position;
* **adoption** — a Section 5.3 state transfer carries the sender's view
  alongside its Agreed queue, and the manager adopts it before the
  transferred suffix is replayed (so replayed reconfiguration commands
  are recognised as already applied).

The durable record ``(epoch, members, applied-command-ids)`` is written
*before* the in-memory view mutates (the WAL discipline the lint
patrols) and is re-read on recovery; the epoch-0 view is never logged,
so a static-membership run performs zero additional log operations —
the bit-identity guarantee the ``BENCH_PR7.json`` of commit ``42a6857``
recorded.

Recovery idempotence leans on the applied-command-id set rather than on
command no-op-ness: a replayed ``evict(5)`` that was a no-op when first
delivered could be *effective* against the node's recovered (later)
view, so every processed command id — effective or not — is remembered
durably and skipped on re-delivery.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Set, Tuple

from repro.core.ids import MessageId
from repro.membership.view import View, parse_reconfig
from repro.runtime import NodeComponent

__all__ = ["ViewManager"]


class ViewManager(NodeComponent):
    """Installs views at agreed positions; the stack's peer-set oracle.

    Parameters
    ----------
    initial_view:
        The view this node boots with: epoch 0 for founding members, the
        sponsor's current view for a joining node (superseded by the
        state transfer's view on adoption).
    collector:
        Optional omniscient observer; every install is archived for
        post-hoc uniform-view verification and timeline comparison.
    """

    name = "view-manager"

    VIEW_KEY = ("view", "current")

    # The in-memory view/applied-set mirror the durable record under
    # VIEW_KEY: the record must be on disk before the mirrors mutate,
    # or a crash between install and log would fork the view timeline.
    VOLATILE_FIELDS = ("view", "_applied")

    def __init__(self, initial_view: View,
                 collector: Optional[Any] = None):
        super().__init__()
        self.initial_view = initial_view
        self.collector = collector
        self.view = initial_view
        self._applied: Set[MessageId] = set()
        self._subscribers: List[Callable[[View], None]] = []
        # Statistics (volatile; the harness samples them).
        self.installs = 0
        self.adoptions = 0

    # -- lifecycle -----------------------------------------------------------

    def on_start(self) -> None:
        assert self.node is not None
        self._subscribers = []
        record = self.node.storage.retrieve(self.VIEW_KEY, None)
        if record is None:
            self.view = self.initial_view
            self._applied = set()
        else:
            epoch, members, applied = record
            self.view = View(int(epoch), members)
            self._applied = {MessageId(*mid) for mid in applied}

    def on_crash(self) -> None:
        self._subscribers = []

    # -- queries -------------------------------------------------------------

    def epoch(self) -> int:
        return self.view.epoch

    def members(self) -> Tuple[int, ...]:
        return self.view.members

    def is_member(self, node_id: Optional[int] = None) -> bool:
        if node_id is None:
            assert self.node is not None
            node_id = self.node.node_id
        return self.view.contains(node_id)

    def multisend_targets(self, sender: int) -> Tuple[int, ...]:
        """Destinations of a ``multisend`` from this node.

        The member set plus the sender itself (the paper's footnote 2:
        multisend always includes self), so an evicted or still-joining
        node keeps pushing its gossip *to* the members even though the
        members no longer address it.
        """
        if sender in self.view.members:
            return self.view.members
        return tuple(sorted(self.view.members + (sender,)))

    # -- subscriptions -------------------------------------------------------

    def subscribe(self, callback: Callable[[View], None]) -> None:
        """Volatile install notification (redo in ``on_start``)."""
        self._subscribers.append(callback)

    # -- delivery stream (DeliveryListener surface) --------------------------

    def on_deliver(self, message: Any) -> None:
        """Apply one delivered message if it is a reconfiguration command."""
        command = parse_reconfig(getattr(message, "payload", None))
        if command is None:
            return
        if message.id in self._applied:
            return  # recovery replay of an already-processed command
        op, target = command
        new_view = self.view.apply(op, target)
        self._persist(new_view, self._applied | {message.id})
        self._applied.add(message.id)  # repro: noqa(RES001) -- replay idempotence: the applied-command set must span every reconfiguration the log can re-deliver
        if new_view.epoch != self.view.epoch:
            self._install(new_view, origin="deliver")

    def on_restore(self, state: Any) -> None:
        """Checkpoint adoption replaces application state, not the view:
        the view travels separately (``StateMessage.view_plain``) through
        :meth:`adopt_plain`, which the broadcast layer invokes *before*
        replaying the adopted suffix."""

    # -- state transfer ------------------------------------------------------

    def to_plain(self) -> List[Any]:
        """Portable ``(epoch, members, applied)`` for a state message."""
        return [self.view.epoch, list(self.view.members),
                sorted([list(mid) for mid in self._applied])]

    def adopt_plain(self, plain: Optional[List[Any]]) -> None:
        """Adopt a transferred view if it is no older than the local one."""
        if plain is None:
            return
        epoch, members, applied = plain
        incoming = View(int(epoch), members)
        merged = self._applied | {MessageId(*mid) for mid in applied}
        if incoming.epoch < self.view.epoch:
            # Stale view — but its applied set is still knowledge (every
            # id in it is ordered before our epoch's commands).
            if merged != self._applied:
                self._persist(self.view, merged)
                self._applied = merged
            return
        if incoming.epoch == self.view.epoch:
            if merged != self._applied:
                self._persist(self.view, merged)
                self._applied = merged
            return
        self._persist(incoming, merged)
        self._applied = merged
        self.adoptions += 1
        self._install(incoming, origin="adopt")

    # -- internals -----------------------------------------------------------

    def _persist(self, view: View, applied: Set[MessageId]) -> None:
        assert self.node is not None
        self.node.storage.log(
            self.VIEW_KEY,
            (view.epoch, tuple(view.members), tuple(sorted(applied))))

    def _install(self, view: View, origin: str) -> None:
        assert self.node is not None
        self.view = view
        self.installs += 1
        self.node.sim.trace("view", self.node.node_id, "install",
                            epoch=view.epoch,
                            members=list(view.members), origin=origin)
        if self.collector is not None:
            self.collector.note_view_install(
                self.node.node_id, view.epoch, view.members,
                self.node.sim.now, origin)
        for callback in list(self._subscribers):
            callback(view)
