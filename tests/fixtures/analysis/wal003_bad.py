"""WAL003 negative fixture: the send is three calls deep.

``on_msg`` mutates a declared volatile field and then calls ``_reply``,
which calls ``_transmit``, which sends.  No single method both mutates
and sends, so a method-at-a-time check would stay silent — only the
interprocedural walk sees the path.  The finding anchors at the
``self._reply(sender)`` call in ``on_msg`` (line 16).
"""


class Proto:
    VOLATILE_FIELDS = ("state",)

    def on_msg(self, msg, sender):
        self.state = msg.value
        self._reply(sender)

    def _reply(self, sender):
        self._transmit(sender)

    def _transmit(self, sender):
        self.endpoint.send(sender, "ack")
