"""Resource-bounds rules (RES family).

The paper's retransmission and buffer layers may accumulate state, but
every accumulation needs a bound: Section 5's practical considerations
(and PR 8's overload work) hinge on queues that shed load instead of
growing until the process dies.  Whether a container grows with the run
is a property of executions, checked by a run
(``tests/integration/test_bounded_state.py``).  These rules make the
two remaining accidents machine-checked:

* **RES002 — blocking call in async code.**  ``time.sleep`` / sync file
  I/O / ``subprocess`` inside an ``async def`` stalls the whole
  LiveRuntime event loop, turning one slow node into a gray failure of
  every component sharing the loop.
* **RES003 — durable write amplification.**  Storage writes issued in a
  loop outside a ``write_barrier()`` hit the disk once per iteration;
  the barrier exists to group-commit them (ROADMAP item 4).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.cfg import scoped_walk
from repro.analysis.engine import Finding
from repro.analysis.registry import PROTOCOL_SCOPE, Rule
from repro.analysis.sites import classify, opens_write_barrier
from repro.analysis.symbols import attr_path

__all__ = ["RES_RULES", "BlockingAsyncCallRule", "WriteAmplificationRule"]

_RES_SCOPE = PROTOCOL_SCOPE + ("repro.transport",)


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


class WriteAmplificationRule(Rule):
    """RES003: storage writes in a loop belong inside a write barrier."""

    id = "RES003"
    name = "durable-write-amplification"
    summary = ("storage writes issued in a loop outside a "
               "write_barrier()")
    rationale = ("Each bare storage write is a separate durable "
                 "commit; a loop of them turns one logical state "
                 "change into O(n) disk round-trips — the exact cost "
                 "the write barrier's group commit exists to "
                 "amortize (ROADMAP item 4).")
    scope = _RES_SCOPE

    def check(self, ctx) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            yield from self._visit(ctx, func, in_loop=False,
                                   in_barrier=False)

    def _visit(self, ctx, node: ast.AST, in_loop: bool,
               in_barrier: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue  # other scopes lint on their own
            loop = in_loop or isinstance(child, (ast.For, ast.While,
                                                 ast.AsyncFor))
            barrier = in_barrier or opens_write_barrier(child)
            if isinstance(child, ast.Call) and loop and not barrier:
                site = classify(child)
                if site is not None and site.kind == "write":
                    field = ".".join(site.receiver + (site.op,)) + "()"
                    yield ctx.finding(
                        self.id, child,
                        f"storage write {field} inside a loop with no "
                        f"enclosing write_barrier(): each iteration "
                        f"is a separate durable commit; wrap the loop "
                        f"in `with storage.write_barrier():` to group "
                        f"commit")
            yield from self._visit(ctx, child, loop, barrier)


RES_RULES = (BlockingAsyncCallRule(), WriteAmplificationRule())
