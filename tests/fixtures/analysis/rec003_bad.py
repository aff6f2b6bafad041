"""REC003 negative fixture: recovery actions that compound per restart.

``on_start`` rebuilds state correctly: every key it writes is read
back on the next restart.  But it also commits two non-idempotent
effects: the retrieve-derived increment logged on line 18, and the
unguarded append inside the ``_mark`` helper on line 22.  A crash
between ``on_start`` and the next checkpoint replays both.
"""


class Proto:
    GEN_KEY = ("proto", "gen")
    SEEN_KEY = ("proto", "seen")

    def on_start(self):
        self.seen = list(self.node.storage.retrieve_list(self.SEEN_KEY))
        self.generation = self.node.storage.retrieve(self.GEN_KEY, 0) + 1
        self.node.storage.log(self.GEN_KEY, self.generation)
        self._mark("boot")

    def _mark(self, tag):
        self.node.storage.append(self.SEEN_KEY, tag)
