"""The chaos timeline vocabulary.

A timeline is a list of :class:`ChaosEvent` records sorted by time; the
controller applies each one to the running cluster when the clock
reaches it.  Every scenario :func:`~repro.harness.scenario.run_scenario`
runs — a chaos seed, churn, overload, the CLI's live cross-check — is
driven by one.  Events are plain data — building a timeline performs no
side effects — so a scenario can be printed, compared and replayed
verbatim, which is what makes failing seeds reproducible.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["ChaosEvent", "format_timeline", "KINDS"]

# Every kind the controllers understand.  ``crash``/``recover`` act on
# one node; ``partition``/``heal_all`` on the link matrix; ``loss``
# mutates the channel loss rate (``loss_restore`` returns to the
# scenario's base rate); ``torn_write`` arms a one-shot disk fault that
# crashes its victim mid-log; ``clock_jump`` skews the live runtime's
# clock; ``submit`` A-broadcasts a payload (redirected to an up node if
# the chosen one is down); ``join``/``leave``/``evict`` reconfigure the
# membership through ordered commands (``join`` also builds and starts
# the new node's stack; ``evict`` additionally crashes a running
# victim — eviction models expelling a faulty process).  Gray failures:
# ``slow_disk`` gives a victim's SimDisk a per-append latency draw
# (``slow_disk_restore`` heals it); ``limp`` adds constant delay to
# every message touching a slow-but-alive victim (``limp_restore``
# heals it).  ``restore`` ends a chaos timeline: after every other event
# it heals all faults still in force and recovers every crashed node.
KINDS = ("crash", "recover", "partition", "heal_all", "loss",
         "loss_restore", "torn_write", "clock_jump", "submit",
         "join", "leave", "evict",
         "slow_disk", "slow_disk_restore", "limp", "limp_restore",
         "restore")


class ChaosEvent:
    """One planned (or dynamically injected) fault-timeline entry."""

    __slots__ = ("time", "kind", "node", "args")

    def __init__(self, time: float, kind: str, node: Optional[int] = None,
                 **args: Any):
        if kind not in KINDS:
            raise ValueError(f"unknown chaos event kind {kind!r}")
        self.time = time
        self.kind = kind
        self.node = node
        self.args: Dict[str, Any] = args

    def describe(self) -> str:
        """One canonical human-readable timeline line."""
        parts = [f"t={self.time:7.3f}", self.kind]
        if self.node is not None:
            parts.append(f"node={self.node}")
        for key in sorted(self.args):
            parts.append(f"{key}={self.args[key]!r}")
        return "  ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ChaosEvent {self.describe()}>"


def format_timeline(events: List[ChaosEvent]) -> str:
    """Render a timeline, one event per line, in application order."""
    return "\n".join(event.describe() for event in events)
