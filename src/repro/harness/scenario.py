"""Scenario runner: the one place a cluster is built, driven, settled
and verified, on either runtime.

A :class:`Scenario` is data: a :class:`ClusterConfig`, the runtime
(``"sim"`` or ``"live"``), an optional workload and (sim) fault
installer, and a timeline of :class:`~repro.chaos.events.ChaosEvent`
records that the runtime's chaos controller replays up to ``duration``.
Then :func:`run_scenario` drains the workload's backoff retries, settles
and runs :func:`verify_run` — plus :func:`verify_overload_safety` when
the config has admission control — the same way on both runtimes.
Churn, overload, every chaos seed and the CLI's live cross-check are
scenarios like any other::

    result = run_scenario(Scenario(
        cluster=ClusterConfig(n=5, seed=3, protocol="alternative"),
        workload=PoissonWorkload(rate_per_node=2.0, duration=20.0),
        faults=RandomFaults(mttf=8.0, mttr=2.0, stabilize_at=25.0, seed=3),
        duration=30.0,
    ))
    result.metrics.throughput
    result.report.canonical   # the verified total order

Every run is verified unless explicitly disabled — experiments never
report numbers from an incorrect execution.  :func:`check_reproducible`
runs a sim scenario twice and demands equal
:meth:`ScenarioResult.signature` values.
"""

from __future__ import annotations

import contextlib
import copy
import tempfile
from typing import Any, List, Optional, Sequence, Tuple

from repro.chaos.controller import LiveChaosController, SimChaosController
from repro.chaos.events import ChaosEvent
from repro.errors import ReproError, VerificationError
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.live import LiveCluster
from repro.harness.verify import (VerificationReport,
                                  verify_overload_safety, verify_run)
from repro.metrics.collector import RunMetrics

__all__ = ["Scenario", "ScenarioResult", "check_reproducible",
           "run_scenario"]

_CONTROLLERS = {"sim": SimChaosController, "live": LiveChaosController}

# What a workload counts about its own submissions (signature input).
_WORKLOAD_COUNTERS = ("submitted", "offered", "rejected_attempts",
                      "retries", "gave_up")

# The parts of ScenarioResult.signature(), in order, for error messages.
_SIGNATURE_PARTS = ("applied timeline", "canonical order", "view installs",
                    "flow snapshots", "workload counters", "final clock")


class Scenario:
    """Declarative description of one experiment run.

    ``settle_limit`` is the instant of the run's clock by which it must
    have settled.  ``directory`` roots a live cluster's per-node storage;
    a temporary one, removed afterwards, when omitted.
    """

    def __init__(self,
                 cluster: ClusterConfig,
                 workload: Optional[Any] = None,
                 faults: Optional[Any] = None,
                 duration: float = 30.0,
                 settle_limit: Optional[float] = None,
                 verify: bool = True,
                 check_termination: bool = True,
                 good_nodes: Optional[List[int]] = None,
                 tracer: Optional[Any] = None,
                 runtime: str = "sim",
                 timeline: Sequence[ChaosEvent] = (),
                 directory: Optional[str] = None):
        if runtime not in _CONTROLLERS:
            raise ReproError(f"unknown runtime {runtime!r}")
        self.cluster = cluster
        self.workload = workload
        self.faults = faults
        self.duration = duration
        self.settle_limit = settle_limit or (duration * 3)
        self.verify = verify
        self.check_termination = check_termination
        self.good_nodes = good_nodes
        # Optional repro.runtime.trace.Tracer attached before the run starts.
        self.tracer = tracer
        self.runtime = runtime
        self.timeline = list(timeline)
        self.directory = directory


class ScenarioResult:
    """A finished (and, by default, verified) run."""

    def __init__(self, scenario: Scenario, cluster: Any, controller: Any):
        self.scenario = scenario
        self.cluster = cluster
        self.controller = controller
        self.metrics: Optional[RunMetrics] = None
        self.report: Optional[VerificationReport] = None
        self.settled = False

    @property
    def timeline(self) -> List[ChaosEvent]:
        """Every event actually applied, dynamic ones included."""
        return self.controller.applied

    def signature(self) -> Tuple[Any, ...]:
        """The unit of reproducibility: two runs of one sim scenario must
        produce equal signatures, bit for bit."""
        workload = self.scenario.workload
        return (
            tuple((event.time, event.kind, event.node,
                   sorted(event.args.items())) for event in self.timeline),
            tuple(self.report.canonical) if self.report else None,
            tuple(self.cluster.collector.view_installs),
            self.metrics.flow,
            tuple((name, getattr(workload, name))
                  for name in _WORKLOAD_COUNTERS if hasattr(workload, name)),
            self.metrics.duration)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Build, drive, settle and verify one scenario.

    An exception escaping a run that got as far as building its cluster
    carries the partial :class:`ScenarioResult` as ``scenario_result``,
    so a caller reporting the failure can still read its applied
    timeline and counters.
    """
    with contextlib.ExitStack() as stack:
        if scenario.runtime == "sim":
            cluster: Any = Cluster(scenario.cluster)
        else:
            directory = scenario.directory or stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-live-"))
            cluster = stack.enter_context(
                LiveCluster(scenario.cluster, directory))
        controller = _CONTROLLERS[scenario.runtime](
            cluster, scenario.cluster.network.loss_rate)
        result = ScenarioResult(scenario, cluster, controller)
        try:
            _drive(scenario, result)
        except Exception as exc:
            exc.scenario_result = result  # type: ignore[attr-defined]
            raise
    return result


def _drive(scenario: Scenario, result: ScenarioResult) -> None:
    cluster, workload = result.cluster, scenario.workload
    if scenario.tracer is not None:
        cluster.runtime.tracer = scenario.tracer
    cluster.start()
    if scenario.faults is not None:
        scenario.faults.install(cluster.sim, cluster.nodes)
    if workload is not None:
        workload.install(cluster)
    result.controller.run_timeline(scenario.timeline, scenario.duration)

    # Submissions still in a backoff chain are load yet to arrive: drain
    # them before settling, or the settled cluster would miss them.
    deadline = scenario.settle_limit
    while getattr(workload, "pending_retries", 0) \
            and cluster.runtime.now < deadline:
        cluster.run(min(deadline, cluster.runtime.now
                        + cluster.SETTLE_INTERVAL))
    if getattr(workload, "pending_retries", 0):
        raise VerificationError(
            f"{workload.pending_retries} broadcasts still retrying at "
            f"t={deadline}; the backoff schedule must be finite")
    result.settled = cluster.settle(within=deadline - cluster.runtime.now)
    if scenario.verify and scenario.check_termination \
            and not result.settled:
        raise VerificationError(
            f"run did not settle by t={deadline} (deliveries still in "
            f"flight); raise settle_limit or check liveness")
    if scenario.verify:
        result.report = verify_run(
            cluster, good_nodes=scenario.good_nodes,
            check_termination=scenario.check_termination)
        if scenario.cluster.flow is not None:
            verify_overload_safety(
                cluster, offered=getattr(workload, "offered", None),
                rejected=getattr(workload, "rejected_attempts", None))
    result.metrics = cluster.metrics()


def check_reproducible(scenario: Scenario) -> ScenarioResult:
    """Run a sim scenario twice and demand bit-identical signatures.

    Each run gets its own deep copy of the scenario, so stateful parts —
    a workload's counters and backoff stream, a ``RandomFaults`` stream —
    start fresh both times.  Returns the first run.
    """
    if scenario.runtime != "sim":
        raise ReproError("reproducibility needs the deterministic sim "
                         "runtime; live timing is the wall clock's")
    first = run_scenario(copy.deepcopy(scenario))
    second = run_scenario(copy.deepcopy(scenario))
    diverged = [part for part, a, b in zip(
        _SIGNATURE_PARTS, first.signature(), second.signature()) if a != b]
    if diverged:
        raise VerificationError(
            f"scenario is not reproducible: {', '.join(diverged)} "
            f"diverge between two same-seed runs")
    return first
