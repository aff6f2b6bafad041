"""Rule registry for the protocol-aware static analyzer.

A rule is a small object that inspects one module's AST and yields
:class:`~repro.analysis.engine.Finding` objects.  Rules self-describe
(id, summary, paper rationale) so the CLI can list them and the docs can
be generated from the same source of truth.

Rules are *scoped*: each rule declares the package prefixes it applies
to (``None`` means everywhere).  The blocking-call rule, for example,
only patrols the packages that run on the live event loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.engine import Finding, ModuleContext

__all__ = ["PROTOCOL_SCOPE", "Rule", "RuleRegistry", "default_registry"]

#: The packages that hold protocol code (components that log, send and
#: recover); most whole-program rules patrol these, plus the transport
#: and/or harness packages where their subject also lives there.
PROTOCOL_SCOPE = ("repro.core", "repro.consensus", "repro.quorum",
                  "repro.multigroup", "repro.fdetect", "repro.apps",
                  "repro.baselines", "repro.membership", "repro.flow")


class Rule:
    """Base class for analyzer rules.

    Class attributes
    ----------------
    id:
        Stable identifier (``ATM001``, ``RES002``) used in reports.
    name:
        Short kebab-case name for listings.
    summary:
        One-line description of what the rule flags.
    rationale:
        Why the rule exists, anchored to the paper (section/figure).
    scope:
        Dotted package prefixes the rule patrols; ``None`` = all modules.
    """

    id: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""
    scope: Optional[Tuple[str, ...]] = None
    #: Project rules see every analyzed module at once (symbol table,
    #: call graph) and implement :meth:`check_project` instead of
    #: :meth:`check`; ``scope`` then selects their analysis *roots*.
    requires_project: bool = False

    def applies_to(self, module: str) -> bool:
        """True if ``module`` (dotted name) falls inside the rule's scope."""
        if self.scope is None:
            return True
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in self.scope)

    def check(self, ctx: "ModuleContext") -> Iterator["Finding"]:
        """Yield findings for one module (override in subclasses)."""
        raise NotImplementedError  # pragma: no cover

    def check_project(self, project) -> Iterator["Finding"]:
        """Yield findings for a whole project (project rules only)."""
        raise NotImplementedError  # pragma: no cover


class RuleRegistry:
    """Ordered collection of rules, addressable by id."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        """Add one rule; duplicate ids are a configuration error."""
        if not rule.id:
            raise AnalysisError(f"rule {type(rule).__name__} has no id")
        if rule.id in self._rules:
            raise AnalysisError(f"duplicate rule id {rule.id!r}")
        self._rules[rule.id] = rule
        return rule

    def get(self, rule_id: str) -> Rule:
        """The rule registered under ``rule_id`` (raises if unknown)."""
        try:
            return self._rules[rule_id]
        except KeyError:
            raise AnalysisError(f"unknown rule id {rule_id!r}") from None

    def rules(self) -> List[Rule]:
        """All rules, in registration order."""
        return list(self._rules.values())

    def ids(self) -> List[str]:
        return list(self._rules)

    def select(self, ids: Optional[Iterable[str]] = None) -> List[Rule]:
        """The subset named by ``ids`` (or everything when ``None``)."""
        if ids is None:
            return self.rules()
        return [self.get(rule_id) for rule_id in ids]

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules


def default_registry() -> RuleRegistry:
    """The registry holding every built-in rule family."""
    # Imported here so the registry module stays import-cycle-free.
    from repro.analysis.atomicity import ATOMICITY_RULES
    from repro.analysis.resources import RES_RULES

    registry = RuleRegistry()
    for rule in (*ATOMICITY_RULES, *RES_RULES):
        registry.register(rule)
    return registry
