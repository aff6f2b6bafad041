"""REC002 near-miss fixture: the write's key is a tuple concatenation.

``checkpoint`` files each segment under ``SEGMENT_KEY + (round,)``; the
recovery scan lists ``keys(SEGMENT_KEY)``.  Staying silent requires the
key model to flatten the ``+`` operand by operand — collapsing the
whole expression to one wildcard leaves the scan with no visible writer
(and hides the write from REC001).
"""


class Proto:
    SEGMENT_KEY = ("proto", "seg")

    def on_start(self):
        self.segments = [self.node.storage.retrieve(key)
                         for key in self.node.storage.keys(self.SEGMENT_KEY)]

    def checkpoint(self, round_number, messages):
        self.node.storage.log(self.SEGMENT_KEY + (round_number,), messages)
