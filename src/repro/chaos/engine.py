"""Seeded scenario exploration: derive, run, verify, reproduce.

One seed fully determines one scenario: cluster size, protocol, base
loss rate, which nemeses participate, their fault timelines and the
submission workload are all drawn from a stream seeded by
``(master_seed, seed)``.  :func:`explore` sweeps N seeds and
reports every invariant violation; :func:`reproduce` re-runs one seed
with the exact fault timeline printed, which is the complete minimised
reproducer — nothing else went into the run.

Scenario derivation intentionally samples *configurations*, not just
fault timings: small and larger clusters, both paper protocols,
lossless and lossy networks — the cross product where ordering bugs
historically hide.
"""

from __future__ import annotations

import random
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.events import ChaosEvent, format_timeline
from repro.chaos.nemesis import MembershipChurnNemesis, Nemesis, \
    default_nemeses, overload_nemeses
from repro.errors import ReproError
from repro.flow.controller import FlowConfig
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario, run_scenario
from repro.storage.disk import SimDisk
from repro.storage.stable import StableStorage
from repro.transport.network import NetworkConfig

__all__ = ["ChaosConfig", "ChaosReport", "SeedResult", "chaos_scenario",
           "explore", "plan_scenario", "reproduce", "run_seed"]


class ChaosConfig:
    """Knobs of an exploration sweep (everything else derives per seed)."""

    def __init__(self,
                 seeds: int = 25,
                 runtime: str = "sim",
                 master_seed: int = 0,
                 horizon: float = 8.0,
                 n_choices: Sequence[int] = (3, 4, 5),
                 protocols: Sequence[str] = ("basic", "alternative"),
                 base_loss_choices: Sequence[float] = (0.0, 0.05, 0.15),
                 submissions: Tuple[int, int] = (6, 12),
                 settle_limit: float = 300.0,
                 nemeses: Optional[Sequence[Nemesis]] = None,
                 churn: bool = False,
                 overload: bool = False):
        if runtime not in ("sim", "live"):
            raise ReproError(f"unknown chaos runtime {runtime!r}")
        self.seeds = seeds
        self.runtime = runtime
        self.master_seed = master_seed
        self.horizon = horizon
        self.n_choices = tuple(n_choices)
        self.protocols = tuple(protocols)
        self.base_loss_choices = tuple(base_loss_choices)
        self.submissions = submissions
        self.settle_limit = settle_limit
        self.nemeses = list(nemeses) if nemeses is not None \
            else default_nemeses(runtime)
        # Membership churn is opt-in: appending the nemesis changes the
        # per-seed draw sequence, so ``churn=True`` defines a *different*
        # scenario family rather than perturbing the default one.
        self.churn = churn
        if churn:
            self.nemeses.extend(
                nemesis for nemesis in [MembershipChurnNemesis()]
                if runtime in nemesis.runtimes)
        # Overload/gray-failure battery is opt-in for the same reason as
        # churn: appending nemeses (and drawing flow parameters) defines
        # a different scenario family; legacy seeds stay bit-identical.
        self.overload = overload
        if overload:
            self.nemeses.extend(overload_nemeses(runtime))


class SeedResult:
    """Outcome of one chaos run."""

    def __init__(self, seed: int, ok: bool, params: Dict[str, Any],
                 timeline: List[ChaosEvent],
                 counters: Dict[str, int],
                 error: Optional[str] = None):
        self.seed = seed
        self.ok = ok
        self.params = params
        self.timeline = timeline
        self.counters = counters
        self.error = error

    def describe(self) -> str:
        """One summary line for sweep output."""
        status = "ok" if self.ok else "FAIL"
        knobs = ", ".join(f"{key}={value}" for key, value in
                          sorted(self.params.items()))
        extras = ", ".join(f"{key}={value}" for key, value in
                           sorted(self.counters.items()) if value)
        line = f"seed {self.seed:4d}  {status:4s}  [{knobs}]"
        if extras:
            line += f"  ({extras})"
        if self.error:
            line += f"\n    {self.error.splitlines()[-1]}"
        return line


class ChaosReport:
    """Aggregate of one exploration sweep."""

    def __init__(self, results: List[SeedResult]):
        self.results = results

    @property
    def failures(self) -> List[SeedResult]:
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def totals(self) -> Dict[str, int]:
        """Sum of every per-run counter across the sweep."""
        totals: Dict[str, int] = {}
        for result in self.results:
            for key, value in result.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals


def _derive_params(config: ChaosConfig, rng: random.Random) -> Dict[str, Any]:
    """Draw one scenario's configuration (fixed draw order: determinism)."""
    params: Dict[str, Any] = {
        "n": rng.choice(config.n_choices),
        "protocol": rng.choice(config.protocols),
        "base_loss": rng.choice(config.base_loss_choices),
    }
    # A retired per-seed coin, still drawn so that every later draw of
    # every seed keeps its value.
    rng.choice((False, True))
    params["cluster_seed"] = rng.randrange(2 ** 31)
    if config.overload:
        # Flow parameters are drawn only in the overload family, after
        # the legacy draws, so the base family's derivations are
        # untouched seed for seed.
        params["flow_rate"] = rng.choice((4.0, 8.0, 16.0))
        params["flow_burst"] = rng.choice((4, 8))
        params["max_unordered"] = rng.choice((16, 32))
    return params


def _pick_nemeses(config: ChaosConfig, rng: random.Random) -> List[Nemesis]:
    """A non-empty random subset of the battery (fixed draw order)."""
    picked = [nemesis for nemesis in config.nemeses if rng.random() < 0.7]
    if not picked:
        picked = [rng.choice(config.nemeses)]
    return picked


def _plan_workload(config: ChaosConfig, rng: random.Random,
                   seed: int, n: int) -> List[ChaosEvent]:
    count = rng.randint(*config.submissions)
    events = []
    for index in range(count):
        events.append(ChaosEvent(
            rng.uniform(0.1, 0.8 * config.horizon), "submit",
            node=rng.randrange(n), payload=f"chaos-{seed}-{index}"))
    return events


def plan_scenario(config: ChaosConfig,
                  seed: int) -> Tuple[Dict[str, Any], List[Nemesis],
                                      List[ChaosEvent]]:
    """Everything one seed determines, before any cluster exists."""
    rng = random.Random(f"chaos:{config.master_seed}:{seed}")
    params = _derive_params(config, rng)
    nemeses = _pick_nemeses(config, rng)
    node_ids = list(range(params["n"]))
    events: List[ChaosEvent] = []
    for nemesis in nemeses:
        events.extend(nemesis.plan(rng, node_ids, config.horizon))
    events.extend(_plan_workload(config, rng, seed, params["n"]))
    events.sort(key=lambda event: event.time)
    params["nemeses"] = "+".join(nemesis.name for nemesis in nemeses)
    return params, nemeses, events


def _flow_config(params: Dict[str, Any]) -> Optional[FlowConfig]:
    """The scenario's admission control, when the overload family drew one."""
    if "flow_rate" not in params:
        return None
    return FlowConfig(rate=params["flow_rate"],
                      burst=params["flow_burst"],
                      max_unordered=params["max_unordered"])


def chaos_scenario(config: ChaosConfig, params: Dict[str, Any],
                   events: List[ChaosEvent]) -> Scenario:
    """The seed's scenario: its cluster, then its timeline ending in a
    fair world (``restore``).  Live clusters ignore the disk factory."""
    disk_seed_base = params["cluster_seed"]

    def faulty_factory(node_id: int) -> StableStorage:
        return StableStorage(SimDisk(
            rng=random.Random(f"disk:{disk_seed_base}:{node_id}"),
            node_hint=node_id))

    cluster = ClusterConfig(
        n=params["n"], seed=params["cluster_seed"],
        protocol=params["protocol"],
        network=NetworkConfig(loss_rate=params["base_loss"]),
        storage_factory=faulty_factory,
        flow=_flow_config(params))
    return Scenario(cluster, runtime=config.runtime,
                    timeline=events + [ChaosEvent(config.horizon, "restore")],
                    duration=config.horizon,
                    settle_limit=config.horizon + config.settle_limit)


def _collect_counters(cluster: Any,
                      controller: Any) -> Dict[str, int]:
    counters = dict(controller.fault_counts)
    quarantined = sum(node.storage.metrics.quarantined
                      for node in cluster.nodes.values())
    if quarantined:
        counters["quarantined"] = quarantined
    for node in cluster.nodes.values():
        disk = node.storage.disk
        if isinstance(disk, SimDisk):
            for mode, count in disk.injected.items():
                if count:
                    counters[mode] = counters.get(mode, 0) + count
    flows = getattr(cluster, "flows", None)
    if flows:
        counters["flow_accepted"] = sum(
            controller.accepted for controller in flows.values())
        counters["flow_rejected"] = sum(
            controller.rejected for controller in flows.values())
    counters["delivered"] = len(cluster.collector.first_delivery)
    counters["refutations"] = cluster.refutations()
    counters["resends"] = cluster.resends()
    counters["ballots_retired"] = cluster.ballots_retired()
    return counters


def run_seed(config: ChaosConfig, seed: int) -> SeedResult:
    """Run one fully-derived scenario and verify the paper's properties."""
    params, _, events = plan_scenario(config, seed)
    try:
        result = run_scenario(chaos_scenario(config, params, events))
        error = None
    except Exception as exc:
        result = getattr(exc, "scenario_result", None)
        if result is None:
            raise  # no cluster was built: nothing ran to report on
        error = f"{type(exc).__name__}: {exc}" \
            if isinstance(exc, ReproError) else traceback.format_exc()
    return SeedResult(seed, error is None, params, result.timeline,
                      _collect_counters(result.cluster, result.controller),
                      error)


def explore(config: ChaosConfig,
            emit=None) -> ChaosReport:
    """Sweep ``config.seeds`` scenarios; report every failing seed."""
    results = []
    for seed in range(config.seeds):
        result = run_seed(config, seed)
        results.append(result)
        if emit is not None:
            emit(result.describe())
    return ChaosReport(results)


def reproduce(config: ChaosConfig, seed: int, emit=print) -> SeedResult:
    """Re-run one seed and print the exact fault timeline applied."""
    params, _, planned = plan_scenario(config, seed)
    emit(f"seed {seed} scenario: " + ", ".join(
        f"{key}={value}" for key, value in sorted(params.items())))
    emit("planned timeline:")
    emit(format_timeline(planned))
    result = run_seed(config, seed)
    emit("applied timeline:")
    emit(format_timeline(result.timeline))
    emit(result.describe())
    if result.error:
        emit(result.error)
    return result
