"""Analyzer engine: parse modules, run rules, honour suppressions.

The engine is AST-only — no imports of the code under analysis — so it
can lint a broken working tree and runs in seconds as a CI gate.  Rules
come in two shapes:

* **module rules** inspect one file at a time (``check(ctx)``);
* **project rules** (``requires_project = True``) see every analyzed
  module at once through a :class:`ProjectContext` — symbol table, call
  graph — and implement ``check_project(project)``.  ``analyze_source``
  wraps a single module in a one-module project so fixture tests can
  drive them the same way.

Suppressions
------------
A finding is suppressed by a comment on the flagged line::

    delay = random.random()  # repro: noqa(DET004) -- reviewed: seeded upstream

``# repro: noqa`` with no rule list suppresses every rule on that line.
The text after ``--`` is a free-form justification; reviewers should
treat a bare suppression (no justification) as a smell.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.registry import Rule, RuleRegistry, default_registry
from repro.errors import AnalysisError

__all__ = ["Finding", "ModuleContext", "ProjectContext", "Report",
           "analyze_source", "analyze_paths", "iter_python_files",
           "module_name_for_path", "parse_paths"]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\(\s*(?P<rules>[A-Za-z0-9_,\s]+)\s*\))?")

#: The ``--`` justification that must follow a noqa (NOQ001's contract).
_JUSTIFIED_RE = re.compile(r"\s*--\s*\S")

_ALL_RULES = "*"
#: Marker for an *unjustified* blanket noqa: suppresses everything
#: except NOQ001, which must be able to flag the bare comment itself.
_ALL_BUT_NOQA = "*-noqa"
_NOQA_RULE_ID = "NOQ001"


class Finding:
    """One rule violation at a source location."""

    __slots__ = ("rule_id", "path", "line", "col", "message")

    def __init__(self, rule_id: str, path: str, line: int, col: int,
                 message: str):
        self.rule_id = rule_id
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule_id, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Finding {self.rule_id} {self.location()}>"


class ModuleContext:
    """Everything a rule needs to inspect one module."""

    __slots__ = ("module", "path", "tree", "source", "lines")

    def __init__(self, module: str, path: str, tree: ast.Module,
                 source: str):
        self.module = module
        self.path = path
        self.tree = tree
        self.source = source
        self.lines = source.splitlines()

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(rule_id, self.path,
                       getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), message)


class ProjectContext:
    """Every analyzed module at once, for whole-program rules."""

    def __init__(self, contexts: Sequence[ModuleContext]):
        self.contexts = list(contexts)
        self.by_module: Dict[str, ModuleContext] = {
            ctx.module: ctx for ctx in self.contexts}
        self._symbols: Optional[object] = None
        self._resolver: Optional[object] = None
        #: Scratch space for rule families that share one expensive
        #: whole-program pass (e.g. the REC rules' recovery closure),
        #: keyed by family name.
        self.analysis_cache: Dict[str, object] = {}

    @property
    def symbols(self):
        """Lazily-built project symbol table."""
        if self._symbols is None:
            from repro.analysis.symbols import SymbolTable
            self._symbols = SymbolTable(
                (ctx.module, ctx.path, ctx.tree) for ctx in self.contexts)
        return self._symbols

    @property
    def resolver(self):
        """Lazily-built call resolver over :attr:`symbols`."""
        if self._resolver is None:
            from repro.analysis.callgraph import CallResolver
            self._resolver = CallResolver(self.symbols)
        return self._resolver

    def in_scope(self, rule: Rule) -> List[ModuleContext]:
        """The modules a project rule should treat as analysis roots."""
        return [ctx for ctx in self.contexts if rule.applies_to(ctx.module)]

    def classes_in_scope(self, rule: Rule):
        """``(ctx, ClassInfo)`` for every class of every root module."""
        for ctx in self.in_scope(rule):
            for info in self.symbols.modules[ctx.module].classes.values():
                yield ctx, info

    def finding(self, rule_id: str, module: str, node: ast.AST,
                message: str) -> Optional[Finding]:
        """Finding anchored at ``node`` in ``module`` (None if unknown)."""
        ctx = self.by_module.get(module)
        if ctx is None:
            return None
        return ctx.finding(rule_id, node, message)


class Report:
    """Outcome of one analyzer run."""

    __slots__ = ("findings", "files_analyzed")

    def __init__(self, findings: List[Finding], files_analyzed: int):
        self.findings = findings
        self.files_analyzed = files_analyzed

    @property
    def clean(self) -> bool:
        return not self.findings


def _suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line number -> suppressed rule ids (``*`` = all)."""
    table: Dict[int, Set[str]] = {}
    for number, line in enumerate(lines, start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            selected = {_ALL_RULES}
        else:
            selected = {part.strip().upper()
                        for part in rules.split(",") if part.strip()}
        if not _JUSTIFIED_RE.match(line[match.end():]):
            # An unjustified noqa must not suppress NOQ001 — the rule
            # that flags exactly this comment.
            selected.discard(_NOQA_RULE_ID)
            if _ALL_RULES in selected:
                selected = (selected - {_ALL_RULES}) | {_ALL_BUT_NOQA}
        table[number] = selected
    return table


def module_name_for_path(path: str) -> str:
    """Dotted module name, anchored at the innermost ``repro`` directory.

    ``/repo/src/repro/runtime/sim.py`` -> ``repro.runtime.sim``.  Files
    outside a ``repro`` tree fall back to their stem, which simply means
    only unscoped rules apply to them.
    """
    normalized = os.path.normpath(os.path.abspath(path))
    parts = normalized.split(os.sep)
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    anchors = [i for i, part in enumerate(parts[:-1]) if part == "repro"]
    if not anchors:
        return stem
    tail = parts[anchors[-1]:-1] + ([] if stem == "__init__" else [stem])
    return ".".join(tail)


def _parse_context(source: str, module: str, path: str) -> ModuleContext:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(
            f"{path}:{exc.lineno}: cannot parse: {exc.msg}") from exc
    return ModuleContext(module, path, tree, source)


def _live_filter(contexts: Sequence[ModuleContext]):
    """A ``live(finding) -> bool`` predicate honouring noqa comments."""
    suppressed: Dict[str, Dict[int, Set[str]]] = {
        ctx.path: _suppressions(ctx.lines) for ctx in contexts}

    def live(finding: Finding) -> bool:
        allowed = suppressed.get(finding.path, {}).get(finding.line, ())
        if _ALL_RULES in allowed or finding.rule_id in allowed:
            return False
        return not (_ALL_BUT_NOQA in allowed and
                    finding.rule_id != _NOQA_RULE_ID)

    return live


def _module_findings(ctx: ModuleContext,
                     registry: RuleRegistry) -> Iterator[Finding]:
    for rule in registry.rules():
        if rule.requires_project or not rule.applies_to(ctx.module):
            continue
        yield from rule.check(ctx)


def _project_findings(contexts: Sequence[ModuleContext],
                      registry: RuleRegistry) -> Iterator[Finding]:
    project_rules = [rule for rule in registry.rules()
                     if rule.requires_project]
    if not project_rules:
        return
    project = ProjectContext(contexts)
    for rule in project_rules:
        yield from rule.check_project(project)


def _run_rules(contexts: Sequence[ModuleContext],
               registry: RuleRegistry) -> List[Finding]:
    """Module rules per file, project rules once, suppressions applied."""
    live = _live_filter(contexts)
    findings: List[Finding] = []
    for ctx in contexts:
        findings.extend(f for f in _module_findings(ctx, registry)
                        if live(f))
    findings.extend(f for f in _project_findings(contexts, registry)
                    if live(f))
    findings.sort(key=Finding.sort_key)
    return findings


def analyze_source(source: str, *, module: str = "<string>",
                   path: str = "<string>",
                   registry: Optional[RuleRegistry] = None) -> List[Finding]:
    """Run every applicable rule over ``source``; returns live findings.

    Project rules see a one-module project: cross-module resolution is
    unavailable, which is exactly what fixture tests want.
    """
    if registry is None:
        registry = default_registry()
    ctx = _parse_context(source, module, path)
    return _run_rules([ctx], registry)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a deterministic list of ``.py`` files.

    Every invalid argument is collected before raising, so a user fixing
    a long command line sees all the bad paths at once, not one per run.
    """
    paths = list(paths)
    missing = [path for path in paths
               if not os.path.isfile(path) and not os.path.isdir(path)]
    if missing:
        raise AnalysisError("no such file or directory: " +
                            ", ".join(repr(path) for path in missing))
    for path in paths:
        if os.path.isfile(path):
            yield path
        else:
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames
                               if d not in ("__pycache__", ".git")]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)


def parse_paths(paths: Iterable[str]) -> List[ModuleContext]:
    """Parse every python file under ``paths``."""
    contexts: List[ModuleContext] = []
    for filepath in iter_python_files(paths):
        with open(filepath, encoding="utf-8") as handle:
            source = handle.read()
        contexts.append(_parse_context(
            source, module_name_for_path(filepath), filepath))
    return contexts


def analyze_paths(paths: Iterable[str], *,
                  registry: Optional[RuleRegistry] = None) -> Report:
    """Analyze every python file under ``paths``."""
    if registry is None:
        registry = default_registry()
    contexts = parse_paths(paths)
    return Report(_run_rules(contexts, registry), len(contexts))
