"""Resource-bounds rule (RES family).

The paper's retransmission and buffer layers may accumulate state, but
every accumulation needs a bound: Section 5's practical considerations
(and PR 8's overload work) hinge on queues that shed load instead of
growing until the process dies.  Whether a container grows with the run
is a property of executions, checked by a run
(``tests/integration/test_bounded_state.py``), and a node's turn is
one journal frame whatever it writes (:meth:`repro.runtime.node.Node._turn`),
so a loop of writes costs one fsync.  The rule makes the remaining
accident machine-checked:

* **RES002 — blocking call in async code.**  ``time.sleep`` / sync file
  I/O / ``subprocess`` inside an ``async def`` stalls the whole
  LiveRuntime event loop, turning one slow node into a gray failure of
  every component sharing the loop.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.cfg import scoped_walk
from repro.analysis.engine import Finding
from repro.analysis.registry import Rule
from repro.analysis.symbols import attr_path

__all__ = ["RES_RULES", "BlockingAsyncCallRule"]


class BlockingAsyncCallRule(Rule):
    """RES002: no blocking call inside LiveRuntime async code."""

    id = "RES002"
    name = "blocking-call-in-async"
    summary = ("time.sleep / sync file I/O / subprocess inside an "
               "async function")
    rationale = ("The live runtime multiplexes every node's protocol "
                 "stack on one event loop; a blocking call freezes "
                 "all of them at once — a self-inflicted gray "
                 "failure.")
    scope = ("repro.runtime", "repro.harness")

    #: ``(module, attr)`` call paths that block the loop.
    _BLOCKING_PATHS = frozenset({
        ("time", "sleep"), ("os", "fsync"), ("os", "fdatasync"),
        ("os", "replace"), ("os", "rename"), ("os", "remove"),
        ("os", "unlink"),
    })

    def check(self, ctx) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in scoped_walk(func):
                if not isinstance(node, ast.Call):
                    continue
                reason = self._blocking_reason(node)
                if reason is not None:
                    yield ctx.finding(
                        self.id, node,
                        f"blocking call {reason} inside async function "
                        f"{func.name!r}: this stalls the whole event "
                        f"loop; use the asyncio equivalent or "
                        f"run_in_executor")

    def _blocking_reason(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return "open() (sync file I/O)"
            return None
        path = attr_path(func)
        if len(path) == 2 and path in self._BLOCKING_PATHS:
            return f"{path[0]}.{path[1]}()"
        if path[:1] == ("subprocess",):
            return f"subprocess.{path[-1]}()"
        return None


RES_RULES = (BlockingAsyncCallRule(),)
