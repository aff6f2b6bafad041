"""Simulation-coroutine rules (SIM family).

Tasks in this codebase are plain Python generators driven by the
discrete-event kernel (:mod:`repro.runtime.sim`).  Two silent failure
modes follow from that design:

* calling a generator-returning task function and discarding the result
  creates a generator object that is never iterated — the task simply
  never runs, with no error (the gossip task that was never spawned);
* ``yield``-ing a value the kernel cannot interpret as a wait request.
  The kernel raises for most of these, but raw mutable containers are a
  common enough slip (``yield [event_a, event_b]`` instead of
  ``yield AnyOf([event_a, event_b])``) to deserve a static check.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.engine import Finding, ModuleContext
from repro.analysis.registry import Rule

__all__ = ["SIM_RULES"]

_SCOPE_BOUNDARY = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                   ast.ClassDef)


def _contains_yield(body) -> bool:
    """True if the statements contain a yield in their own scope
    (nested function/class/lambda bodies are pruned)."""
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, _SCOPE_BOUNDARY):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


class LostTaskRule(Rule):
    """SIM001: a discarded generator call is a task that never runs."""

    id = "SIM001"
    name = "no-lost-task"
    summary = ("call to a generator task function whose result is "
               "discarded — the coroutine never executes")
    rationale = ("Kernel tasks only run when spawned (Simulator.spawn / "
                 "Node.spawn), joined (yield task) or delegated "
                 "(yield from).  A bare call builds a generator object "
                 "and drops it: the paper's 'fork task' statement "
                 "silently becomes a no-op.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        module_gens: Set[str] = set()
        method_gens: Set[str] = set()
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _contains_yield(node.body):
                    module_gens.add(node.name)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) and \
                            _contains_yield(item.body):
                        method_gens.add(item.name)
        if not module_gens and not method_gens:
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            name = ""
            if isinstance(func, ast.Name) and func.id in module_gens:
                name = func.id
            elif isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "self" \
                    and func.attr in method_gens:
                name = func.attr
            if name:
                yield ctx.finding(
                    self.id, node.value,
                    f"result of generator task function {name!r} is "
                    f"discarded — the task never runs; spawn it, "
                    f"'yield from' it, or return it")


class RawMutableYieldRule(Rule):
    """SIM002: the kernel cannot interpret a raw container as a wait."""

    id = "SIM002"
    name = "no-raw-mutable-yield"
    summary = ("yield of a raw list/dict/set — not a wait request the "
               "kernel understands")
    rationale = ("Task.wait_on accepts float, Event, Task, AnyOf or None. "
                 "A raw container (e.g. a list of events) is rejected at "
                 "runtime mid-simulation; this catches it at lint time "
                 "and points to AnyOf.")

    _BUILDERS = frozenset({"list", "dict", "set"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Yield) or node.value is None:
                continue
            value = node.value
            if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                  ast.SetComp, ast.DictComp)):
                kind = type(value).__name__
                hint = " (a list of events wants AnyOf([...]))" \
                    if isinstance(value, (ast.List, ast.ListComp)) else ""
            elif isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Name) \
                    and value.func.id in self._BUILDERS:
                kind = f"{value.func.id}(...)"
                hint = ""
            else:
                continue
            yield ctx.finding(
                self.id, value,
                f"yield of raw mutable {kind} — the kernel accepts only "
                f"float/Event/Task/AnyOf/None wait requests{hint}")


SIM_RULES = (LostTaskRule(), RawMutableYieldRule())
