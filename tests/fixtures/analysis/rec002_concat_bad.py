"""REC002 negative fixture: a prefix scan nobody writes under.

The segment write was filed under a different prefix
(``ARCHIVE_KEY + (round,)``), so the recovery scan of ``SEGMENT_KEY``
only ever lists nothing.  Flattening concatenated keys must not make
every concatenation match every scan: the finding anchors at the
``storage.keys`` call (line 18), and the orphaned archive write is
REC001's (line 21).
"""


class Proto:
    SEGMENT_KEY = ("proto", "seg")
    ARCHIVE_KEY = ("proto", "archive")

    def on_start(self):
        self.segments = [
            key for key in self.node.storage.keys(self.SEGMENT_KEY)]

    def checkpoint(self, round_number, messages):
        self.node.storage.log(self.ARCHIVE_KEY + (round_number,), messages)
