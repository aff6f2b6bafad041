"""Tests for the yield-point atomicity rule (ATM001).

The rule gets a negative fixture (flagged at an exact line) and a
near-miss positive fixture (structurally close, stays silent) under
``tests/fixtures/analysis/``.
"""

from __future__ import annotations

import os

from repro.analysis import analyze_source

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "fixtures", "analysis")


def check_fixture(name: str, module: str):
    path = os.path.join(FIXTURES, name)
    with open(path, encoding="utf-8") as handle:
        return analyze_source(handle.read(), module=module, path=path)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# -- ATM001: interrupted read-modify-write ------------------------------------

def test_atm001_flags_stale_write_after_yield():
    findings = check_fixture("atm001_bad.py", "repro.core.fixture")
    assert rule_ids(findings) == ["ATM001", "ATM001"]
    direct, interproc = findings
    assert direct.line == 17  # self.pending = count + 1
    assert "self.pending" in direct.message
    assert "'count'" in direct.message
    assert interproc.line == 22  # the self._note(depth) call site
    assert "Proto._note" in interproc.message
    assert "self.queue_depth" in interproc.message


def test_atm001_counts_await_and_gather_as_boundaries():
    findings = analyze_source(
        "class Proto:\n"
        "    async def drain(self):\n"
        "        count = self.pending\n"
        "        await asyncio.gather(self.flush(), self.sync())\n"
        "        self.pending = count + 1\n",
        module="repro.core.fixture", path="fixture.py")
    atm = [f for f in findings if f.rule_id == "ATM001"]
    assert len(atm) == 1
    assert atm[0].line == 5


def test_atm001_near_miss_reread_and_other_field_stay_silent():
    assert check_fixture("atm001_ok.py", "repro.core.fixture") == []


def test_atm001_out_of_scope_module_stays_silent():
    assert check_fixture("atm001_bad.py", "repro.analysis.fixture") == []
