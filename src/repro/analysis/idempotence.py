"""Recovery idempotence rule (REC003).

Section 4 re-runs ``on_start`` on every recovery, and a process may
crash *during* recovery — so everything the recovery procedure does to
stable storage must be idempotent, or a crash mid-recovery (or simply
the next recovery) compounds the effect.

REC003 walks the **direct** recovery closure — functions reachable from
``on_start`` through plain calls, excluding handlers that are merely
registered (they run later, after recovery completed) and coroutines
passed to ``spawn(...)`` (same reason: ``node.spawn(self._gossip_task(),
...)`` *calls* ``_gossip_task`` only to build the generator), i.e.
``sites.reachable(..., skip_spawned=True)`` — and flags two shapes:

* **unguarded append** — ``storage.append(K, item)`` with no read
  (``retrieve``/``retrieve_list``/``contains``) or ``delete`` of a
  matching key in the *same function*: every recovery re-appends, so
  the durable list grows (and with it, replayed state) once per crash.
* **retrieve-derived increment** — a durable write whose value is an
  arithmetic derivation of a value retrieved from the *same* key
  (``log(K, retrieve(K) + 1)``, possibly through a local or a
  key-forwarding helper): crashing between the retrieve and the write —
  or after the write but before recovery completes — advances the
  counter again on the next recovery.

Duplicate *sends* during recovery are deliberately not flagged: the
paper's fair-lossy channels already force every protocol to tolerate
message duplication (reception dedups by message id), so a re-send is
harmless by construction — unlike a duplicated durable effect, which
survives the crash that caused it.

Some counters are *meant* to advance monotonically per recovery — the
incarnation number of Section 4.1 is the canonical example.  Those
sites carry a ``# repro: noqa(REC003)`` with the justification; the
rule exists to make that choice explicit.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import value_sources
from repro.analysis.engine import Finding, ProjectContext
from repro.analysis.recovery import recovery_surface
from repro.analysis.registry import PROTOCOL_SCOPE, Rule
from repro.analysis.sites import KeyShape, Site, reachable, site_index
from repro.analysis.symbols import ClassInfo, self_field

__all__ = ["IDEMPOTENCE_RULES", "NonIdempotentRecoveryRule"]


def _has_arithmetic(expr: ast.AST) -> bool:
    return any(isinstance(node, ast.BinOp) for node in ast.walk(expr))


def _reads_in(expr: ast.AST, sites: List[Site]) -> List[KeyShape]:
    """Key shapes of the storage reads that sit inside ``expr``."""
    inside = {id(node) for node in ast.walk(expr)}
    return [site.shape for site in sites
            if site.kind == "read" and id(site.call) in inside]


class NonIdempotentRecoveryRule(Rule):
    """REC003: recovery effects must be idempotent."""

    id = "REC003"
    name = "non-idempotent-recovery"
    summary = ("a function reachable from on_start performs a "
               "non-idempotent durable effect (unguarded append or "
               "retrieve-derived increment)")
    rationale = ("Section 4: recovery re-runs on every restart and may "
                 "itself be interrupted by a crash; a durable append "
                 "or counter bump without a logged guard compounds "
                 "once per recovery.")
    scope = PROTOCOL_SCOPE
    requires_project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        roots = recovery_surface(project, self).roots
        index = site_index(project)
        seen_positions: Set[Tuple[str, int, int]] = set()
        for concrete, defining, func, _ in reachable(project, roots,
                                                     skip_spawned=True):
            owner = defining or concrete
            sites = [site for site in index.storage_sites(func, owner)
                     if not site.shape.opaque]
            for finding in self._check_function(project, owner, func,
                                                sites):
                position = (finding.path, finding.line, finding.col)
                if position in seen_positions:
                    continue  # same body walked for several subclasses
                seen_positions.add(position)
                yield finding

    # -- per-function scan -------------------------------------------------

    def _check_function(self, project: ProjectContext, owner: ClassInfo,
                        func: ast.AST,
                        sites: List[Site]) -> Iterator[Finding]:
        guards = [site.shape for site in sites
                  if site.kind in ("read", "probe", "scan", "delete")]
        # Bindings whose value derives from a retrieve: name/field ->
        # (source key shape, arithmetic applied at bind time).
        reads: Dict[str, Tuple[KeyShape, bool]] = {}
        assigns = sorted(
            (node for node in ast.walk(func)
             if isinstance(node, (ast.Assign, ast.AnnAssign))),
            key=lambda node: (node.lineno, node.col_offset))
        for stmt in assigns:
            sources = _reads_in(stmt.value, sites) if stmt.value else []
            if not sources:
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                slot = self._slot_of(target)
                if slot is not None:
                    # Several sources: keep the first (deterministic).
                    reads[slot] = (sources[0], _has_arithmetic(stmt.value))

        for write in sites:
            if write.kind != "write":
                continue
            if write.op == "append" and \
                    not any(write.shape.matches(guard) for guard in guards):
                yield self._append_finding(project, owner, write)
            else:
                yield from self._increment_finding(project, owner, write,
                                                   reads, sites)

    @staticmethod
    def _slot_of(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        field = self_field(target)
        return f"self.{field}" if field is not None else None

    # -- findings ----------------------------------------------------------

    def _append_finding(self, project: ProjectContext, owner: ClassInfo,
                        write: Site) -> Finding:
        where = f"{owner.name}.{getattr(write.call.func, 'attr', '?')}"
        finding = project.finding(
            self.id, owner.module, write.call,
            f"non-idempotent recovery: storage.append to "
            f"{write.shape.describe()} is reachable from on_start with "
            f"no read or delete of a matching key in the same function "
            f"— every recovery re-appends, duplicating the durable "
            f"list ({where})")
        assert finding is not None
        return finding

    def _increment_finding(self, project: ProjectContext,
                           owner: ClassInfo, write: Site,
                           reads: Dict[str, Tuple[KeyShape, bool]],
                           sites: List[Site]) -> Iterator[Finding]:
        if write.value is None:
            return
        # Inline form: log(K, int(retrieve(K, 0)) + 1).
        arith_here = _has_arithmetic(write.value)
        derived: List[Tuple[KeyShape, bool]] = \
            [(shape, arith_here) for shape in _reads_in(write.value, sites)]
        # Through a binding: x = retrieve(K) + 1; log(K, x).
        names, fields = value_sources(write.value)
        for slot in sorted(names) + [f"self.{f}" for f in sorted(fields)]:
            record = reads.get(slot)
            if record is not None:
                shape, arith = record
                derived.append((shape, arith or arith_here))
        for shape, arith in derived:
            if arith and shape.matches(write.shape):
                yield_finding = project.finding(
                    self.id, owner.module, write.call,
                    f"non-idempotent recovery: this durable write to "
                    f"{write.shape.describe()} stores an arithmetic "
                    f"derivation of a value retrieved from the same "
                    f"key — a crash during recovery advances the "
                    f"counter once more on the next restart; guard it "
                    f"with a logged marker or suppress with a "
                    f"justification if monotonic advance is intended")
                assert yield_finding is not None
                yield yield_finding
                return


IDEMPOTENCE_RULES = (NonIdempotentRecoveryRule(),)
