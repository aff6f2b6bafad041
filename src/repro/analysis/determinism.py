"""Determinism rules (DET family).

The simulated runtime promises that a run is a pure function of the seed
(:mod:`repro.runtime.sim`): ties are broken by scheduling order and every
random draw flows from a named stream of
:class:`repro.runtime.rng.SeedSequence`.  That promise dies the moment
protocol code reads the wall clock, asks the OS for entropy, or iterates
a hash-ordered ``set``, so these rules ban such constructs inside the
deterministic core — ``repro.runtime``, ``repro.core``,
``repro.consensus``, ``repro.transport``, ``repro.membership`` and
``repro.flow``.

The live runtime (``repro.runtime.live``/``live_net``) is *by design*
wall-clock and OS-entropy territory: it maps the same protocol code onto
asyncio and UDP, where time is real.  It is carved out of the scope by
explicit rule configuration (``LIVE_RUNTIME_EXCLUDE``) rather than
``# repro: noqa`` comments — the whole module is outside the determinism
contract, and that decision belongs in one audited place, not scattered
per-line (docs/ANALYSIS.md, "Scope configuration").

Sanctioned escape hatches (a seeded ``random.Random`` at the simulation
boundary, the soft real-time pacer's injected wall clock) carry a
``# repro: noqa(DET...)`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.analysis.engine import Finding, ModuleContext
from repro.analysis.registry import Rule
from repro.analysis.symbols import attr_path

__all__ = ["DETERMINISM_RULES"]

#: Packages whose behaviour must be a pure function of the seed.  The
#: runtime package is included so the deterministic substrate
#: (``repro.runtime.sim``, primitives, node, rng) stays patrolled.
DETERMINISTIC_SCOPE: Tuple[str, ...] = (
    "repro.runtime", "repro.core", "repro.consensus", "repro.transport",
    "repro.membership", "repro.flow")

#: The live runtime legitimately uses the wall clock and real sockets;
#: the trailing ``*`` globs both ``repro.runtime.live`` and
#: ``repro.runtime.live_net``.
LIVE_RUNTIME_EXCLUDE: Tuple[str, ...] = ("repro.runtime.live*",)

_WALL_CLOCK_TIME = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "sleep", "localtime", "gmtime",
})
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})
_UUID_FNS = frozenset({"uuid1", "uuid4"})


def _imported_names(tree: ast.Module) -> Set[str]:
    """Top-level module names imported anywhere in the module."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


class WallClockRule(Rule):
    """DET001: wall-clock reads make runs irreproducible."""

    id = "DET001"
    name = "no-wall-clock"
    summary = ("reference to time.time/monotonic/sleep or datetime.now "
               "inside the deterministic core")
    rationale = ("Virtual time is the only clock of the model (Section 2; "
                 "kernel.py's determinism contract).  Real timestamps vary "
                 "run to run, breaking seed-reproducibility and the "
                 "trace-equivalence tests.")
    scope = DETERMINISTIC_SCOPE
    exclude = LIVE_RUNTIME_EXCLUDE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if "time" not in _imported_names(ctx.tree) and \
                "datetime" not in _imported_names(ctx.tree):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            path = attr_path(node)
            if len(path) < 2:
                continue
            if path[0] == "time" and path[-1] in _WALL_CLOCK_TIME:
                yield ctx.finding(
                    self.id, node,
                    f"wall-clock reference time.{path[-1]} — use virtual "
                    f"time (SimRuntime.now / yield <delay>) instead")
            elif path[0] == "datetime" and path[-1] in _WALL_CLOCK_DATETIME:
                yield ctx.finding(
                    self.id, node,
                    f"wall-clock reference datetime.{path[-1]} — use "
                    f"virtual time (SimRuntime.now) instead")


class UuidRule(Rule):
    """DET002: uuid1/uuid4 draw from the host, not the seed."""

    id = "DET002"
    name = "no-uuid"
    summary = "uuid.uuid1/uuid4 call inside the deterministic core"
    rationale = ("Message identity must be reproducible: ids are "
                 "(node, incarnation, seq) tuples (repro.core.ids), minted "
                 "from durably-logged counters — never host randomness.")
    scope = DETERMINISTIC_SCOPE
    exclude = LIVE_RUNTIME_EXCLUDE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "uuid":
                for alias in node.names:
                    if alias.name in _UUID_FNS:
                        yield ctx.finding(
                            self.id, node,
                            f"import of uuid.{alias.name} — mint ids from "
                            f"seeded/durable counters instead")
            elif isinstance(node, ast.Attribute):
                path = attr_path(node)
                if len(path) == 2 and path[0] == "uuid" \
                        and path[1] in _UUID_FNS:
                    yield ctx.finding(
                        self.id, node,
                        f"uuid.{path[1]} is host entropy — mint ids from "
                        f"seeded/durable counters instead")


class OsEntropyRule(Rule):
    """DET003: OS entropy sources are unseedable."""

    id = "DET003"
    name = "no-os-entropy"
    summary = ("os.urandom / secrets.* / random.SystemRandom inside the "
               "deterministic core")
    rationale = ("The kernel's reproducibility contract requires every "
                 "random draw to flow from SeedSequence streams; kernel "
                 "entropy cannot be replayed.")
    scope = DETERMINISTIC_SCOPE
    exclude = LIVE_RUNTIME_EXCLUDE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "secrets":
                yield ctx.finding(
                    self.id, node, "import from secrets — OS entropy is "
                    "not reproducible; use SeedSequence streams")
            elif isinstance(node, ast.Attribute):
                path = attr_path(node)
                if path[:2] == ("os", "urandom"):
                    yield ctx.finding(
                        self.id, node, "os.urandom is OS entropy — use "
                        "SeedSequence streams")
                elif path and path[0] == "secrets":
                    yield ctx.finding(
                        self.id, node, f"secrets.{path[-1]} is OS entropy "
                        f"— use SeedSequence streams")
                elif path[:2] == ("random", "SystemRandom"):
                    yield ctx.finding(
                        self.id, node, "random.SystemRandom is OS entropy "
                        "— use SeedSequence streams")


class GlobalRandomRule(Rule):
    """DET004: the module-level random API is shared, unseeded state."""

    id = "DET004"
    name = "no-global-random"
    summary = ("call through the module-level random API (random.random, "
               "random.choice, random.Random, ...) inside the "
               "deterministic core")
    rationale = ("Draws on the global Mersenne Twister couple unrelated "
                 "subsystems and are perturbed by any third-party import; "
                 "the only sanctioned randomness is a named stream from "
                 "SeedSequence.stream() (repro.runtime.rng).  Even a seeded "
                 "random.Random(...) construction must be justified with "
                 "a noqa: it is the seed boundary.")
    scope = DETERMINISTIC_SCOPE
    exclude = LIVE_RUNTIME_EXCLUDE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield ctx.finding(
                            self.id, node,
                            f"from random import {alias.name} — draw from "
                            f"a SeedSequence stream instead")
            elif isinstance(node, ast.Call):
                path = attr_path(node.func)
                if len(path) == 2 and path[0] == "random" \
                        and path[1] != "SystemRandom":
                    yield ctx.finding(
                        self.id, node,
                        f"module-level random.{path[1]}(...) — draw from a "
                        f"named SeedSequence stream (or justify the seed "
                        f"boundary with a noqa)")


class SetIterationRule(Rule):
    """DET005: iterating a fresh set observes hash order."""

    id = "DET005"
    name = "no-unordered-set-iteration"
    summary = ("iteration directly over a set literal or set()/frozenset() "
               "call inside the deterministic core")
    rationale = ("Set iteration order follows the hash seed, not program "
                 "logic; with string payloads it varies across interpreter "
                 "invocations (PYTHONHASHSEED), so batches and message "
                 "fan-outs must iterate sorted() views — cf. the "
                 "deterministic batch-ordering rule of Section 4.2.")
    scope = DETERMINISTIC_SCOPE
    exclude = LIVE_RUNTIME_EXCLUDE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters: list = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if isinstance(it, ast.Set):
                    yield ctx.finding(
                        self.id, it, "iteration over a set literal — wrap "
                        "in sorted() for a deterministic order")
                elif isinstance(it, ast.Call) and \
                        isinstance(it.func, ast.Name) and \
                        it.func.id in ("set", "frozenset"):
                    yield ctx.finding(
                        self.id, it,
                        f"iteration over {it.func.id}(...) — wrap in "
                        f"sorted() for a deterministic order")


DETERMINISM_RULES = (WallClockRule(), UuidRule(), OsEntropyRule(),
                     GlobalRandomRule(), SetIterationRule())
