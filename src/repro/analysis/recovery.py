"""Recovery-completeness rules (REC family).

The paper's recovery procedure (Figure 4) is a *total* replay: on
restart a process reloads **every** piece of durable state it ever
wrote — the incarnation counter, logged proposals, decisions, delivered
prefixes.  A storage key that protocol code writes but never reads back
during recovery is wasted-log-bandwidth at best; at worst it is state
the author *believed* survives crashes but that every recovery silently
ignores (the bug class these rules exist for).  The dual failure is the
phantom read: recovery code retrieving a key nobody writes, which
"works" only because ``retrieve`` has a default.

Both rules are whole-program: the write side is collected from every
module in scope, and the read side is the closure of ``on_start`` —
every method reachable from any concrete component's ``on_start``
through resolved calls, address-taken handler registrations
(``endpoint.register(T, self._on_msg)``) and spawned generator tasks.
A read performed lazily by a message handler still counts: the handler
is registered during recovery, so its reads are part of the recovery
surface.

What a storage call is, how its key becomes a comparable pattern and
how key-forwarding helpers are seen through is
:mod:`repro.analysis.sites`' business; the closure is its
``reachable(..., follow_refs=True)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.engine import Finding, ProjectContext
from repro.analysis.registry import PROTOCOL_SCOPE, Rule
from repro.analysis.sites import KeyShape, reachable, site_index
from repro.analysis.symbols import ClassInfo

__all__ = ["RECOVERY_RULES", "recovery_surface"]


class _StorageEvent(NamedTuple):
    """One storage read or write at a concrete call site."""

    shape: KeyShape
    call: ast.Call
    where: str
    module: str


class _RecoverySurface:
    """Every in-scope write, and the reads of the ``on_start`` closure."""

    def __init__(self, project: ProjectContext, scope_rule: Rule):
        index = site_index(project)
        self.writes: List[_StorageEvent] = []
        #: ``(concrete, defining, func)`` of every in-scope ``on_start``;
        #: empty when nothing defines one (fixtures), and then the REC
        #: rules have nothing to check against.
        self.roots: list = []
        reads_by_func: Dict[int, List[_StorageEvent]] = {}
        for ctx in project.in_scope(scope_rule):
            symbols = project.symbols.modules[ctx.module]
            functions: List[Tuple[Optional[ClassInfo], str, ast.AST]] = [
                (None, name, func)
                for name, func in symbols.functions.items()]
            for info in symbols.classes.values():
                functions += [(info, name, func)
                              for name, func in info.methods.items()]
                found = project.symbols.find_method(info.qualname,
                                                    "on_start")
                if found is not None:
                    self.roots.append((info,) + found)
            for owner, name, func in functions:
                where = f"{owner.name}.{name}" if owner else name
                for site in index.storage_sites(func, owner):
                    event = _StorageEvent(site.shape, site.call, where,
                                          ctx.module)
                    if site.kind == "write":
                        self.writes.append(event)
                    elif site.kind in ("read", "scan"):
                        reads_by_func.setdefault(id(func), []).append(event)
        self.reads = [
            read for reached in reachable(project, self.roots,
                                          follow_refs=True)
            for read in reads_by_func.get(id(reached.func), ())]


def recovery_surface(project: ProjectContext,
                     scope_rule: Rule) -> _RecoverySurface:
    """The REC family's shared whole-program pass (built once)."""
    cache = project.analysis_cache.get("recovery")
    if not isinstance(cache, _RecoverySurface):
        cache = _RecoverySurface(project, scope_rule)
        project.analysis_cache["recovery"] = cache
    return cache


class UnrecoveredWriteRule(Rule):
    """REC001: every durable write must be read back during recovery."""

    id = "REC001"
    name = "recovery-completeness"
    summary = ("a storage key written by protocol code is never read "
               "back on any recovery path (the on_start closure)")
    rationale = ("Figure 4's recovery is a total replay of the log; a "
                 "key that recovery never consults is state the author "
                 "thinks survives crashes but that every restart silently "
                 "drops — precisely the failure mode the crash-recovery "
                 "model exists to exclude.")
    scope = PROTOCOL_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        surface = recovery_surface(project, self)
        if not surface.roots:
            return
        recovery_reads = surface.reads
        for write in surface.writes:
            if write.shape.opaque:
                continue  # nothing literal to match against
            if any(write.shape.matches(read.shape)
                   for read in recovery_reads):
                continue
            finding = project.finding(
                self.id, write.module, write.call,
                f"{write.where}: storage key {write.shape.describe()} is "
                f"written but never read back on any recovery path — "
                f"restart silently drops it (add a retrieve to the "
                f"on_start closure, or stop logging it)")
            if finding is not None:
                yield finding


class PhantomRecoveryReadRule(Rule):
    """REC002: recovery must not read keys nobody writes."""

    id = "REC002"
    name = "no-phantom-recovery-read"
    summary = ("a recovery path retrieves a storage key that no code "
               "path ever writes")
    rationale = ("A phantom read 'works' only through retrieve's default "
                 "value, which usually means the write side was renamed "
                 "or removed and recovery now silently reconstructs "
                 "nothing.")
    scope = PROTOCOL_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        surface = recovery_surface(project, self)
        if not surface.roots:
            return
        writes = surface.writes
        emitted: Set[Tuple[str, int, int]] = set()
        for read in surface.reads:
            if read.shape.opaque:
                continue
            if any(read.shape.matches(write.shape) for write in writes):
                continue
            finding = project.finding(
                self.id, read.module, read.call,
                f"{read.where}: recovery reads storage key "
                f"{read.shape.describe()} that no code path writes — the "
                f"retrieve only ever returns its default")
            if finding is None:
                continue
            key = (finding.path, finding.line, finding.col)
            if key in emitted:
                continue
            emitted.add(key)
            yield finding


RECOVERY_RULES = (UnrecoveredWriteRule(), PhantomRecoveryReadRule())
