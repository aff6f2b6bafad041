"""A seeded run is a pure function of its seed, in every interpreter.

The simulator promises that a run depends on nothing but its seed: no
wall clock, no host entropy, no draw outside a named
:class:`~repro.runtime.rng.SeedSequence` stream, and no order that
follows the hash seed (a ``set`` of strings iterates differently under
each ``PYTHONHASHSEED``).  This module checks the promise on runs: it
makes a fixed set of seeded runs and prints one line for each, the
run's name, its event count and the sha256 of its full trace::

    PYTHONPATH=src python -m tests.integration.test_determinism
    PYTHONPATH=src python -m tests.integration.test_determinism stack-ct

(with names, it prints those runs' full traces instead).  Every run goes
through :func:`~repro.harness.scenario.check_reproducible`, so each is
made twice in one interpreter and must match event for event; the test
then starts two interpreters at once, under hash seeds 1 and 2, and
requires their lines to be identical.  On a mismatch it names the run
and the first trace event that differs.

The runs are the existing drivers: the chaos default, churn and overload
families (seeds 0 and 1), a ``RandomFaults`` scenario, and the scripted
churn and saturation scenarios (``repro churn``/``overload``); the five
cluster stacks and multigroup as ``test_one_size`` drives them; the
membership join and leave and the ``QuorumRegister`` of
``test_msgflow``; and consensus from Atomic Broadcast.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from typing import Any, Callable, Dict, List

from repro.chaos.engine import ChaosConfig, chaos_scenario, plan_scenario
from repro.chaos.inject import RandomFaults
from repro.core.alternative import AlternativeConfig
from repro.flow.scenario import overload_scenario
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import (Scenario, check_reproducible,
                                    trace_difference)
from repro.membership.scenario import churn_scenario
from repro.metrics.collector import MetricsCollector
from repro.workloads.generators import PoissonWorkload
from tests.integration.test_msgflow import drive_membership, drive_register
from tests.integration.test_one_size import drive
from tests.unit.test_equivalence import build

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir)
HASH_SEEDS = ("1", "2")


class Keeper:
    """Keeps every event of the runtime behind the medium it watches:
    in the collector a cluster attached, or in a fresh one."""

    collector: Any = None

    def watch(self, network: Any) -> None:
        runtime = network.sim
        if runtime.sink is None:
            runtime.sink = MetricsCollector()
        runtime.sink.keep_events()
        self.collector = runtime.sink


def kept(driver: Callable[[Keeper], Any]) -> Callable[[], Any]:
    """A run function for ``check_reproducible``: ``driver`` run once
    with a fresh keeper, returning the collector that kept its events."""
    def run() -> Any:
        keeper = Keeper()
        driver(keeper)
        return keeper.collector
    return run


def chaos(family: str, seed: int) -> Scenario:
    config = ChaosConfig(churn=family == "churn",
                         overload=family == "overload")
    params, _, events = plan_scenario(config, seed)
    return chaos_scenario(config, params, events)


def random_faults() -> Scenario:
    return Scenario(
        ClusterConfig(n=3, seed=6, protocol="alternative",
                      alt=AlternativeConfig(checkpoint_interval=1.0)),
        workload=PoissonWorkload(2.0, 10.0, seed=6),
        faults=RandomFaults(mttf=4.0, mttr=1.0, stabilize_at=12.0, seed=6),
        duration=15.0, settle_limit=90.0)


def stack(protocol: str) -> Callable[[], Any]:
    return kept(lambda keeper: drive(
        protocol, lambda cluster: keeper.watch(cluster.network)))


def reduction(keeper: Keeper) -> None:
    """Two instances of consensus from Atomic Broadcast, every node
    proposing to each."""
    sim, _, reductions = build(seed=4, watch=keeper.watch)
    for k in range(2):
        for node_id, box in reductions.items():
            sim.schedule(0.5 + 0.2 * k, box.propose, k, f"k{k}v{node_id}")
    sim.run(until=10.0)


#: Run name -> what ``check_reproducible`` takes for it, made afresh.
RUNS: Dict[str, Callable[[], Any]] = {
    **{f"chaos-{family}-{seed}": (lambda family=family, seed=seed:
                                  chaos(family, seed))
       for family in ("default", "churn", "overload") for seed in (0, 1)},
    "random-faults": random_faults,
    "churn": churn_scenario,
    "overload": overload_scenario,
    **{f"stack-{protocol}": (lambda protocol=protocol: stack(protocol))
       for protocol in ("basic", "alternative", "eager", "ct", "sequencer",
                        "multigroup")},
    "membership": lambda: kept(drive_membership),
    "register": lambda: kept(drive_register),
    "reduction": lambda: kept(reduction),
}


def collector_of(name: str) -> MetricsCollector:
    """Run ``name`` through ``check_reproducible``; its first collector."""
    result = check_reproducible(RUNS[name]())
    if isinstance(result, MetricsCollector):
        return result
    return result.cluster.collector


def fingerprint(name: str) -> str:
    collector = collector_of(name)
    digest = hashlib.sha256(collector.format_text().encode()).hexdigest()
    return f"{name} {len(collector.events)} {digest}"


def main(names: List[str]) -> None:
    if names:
        for name in names:
            print(collector_of(name).format_text())
    else:
        for name in RUNS:
            print(fingerprint(name))


def under_two_hash_seeds(*names: str) -> List[str]:
    """The entry point's output under each of :data:`HASH_SEEDS`, the
    two interpreters started at once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    children = []
    for seed in HASH_SEEDS:
        children.append(subprocess.Popen(
            [sys.executable, "-m", "tests.integration.test_determinism",
             *names], cwd=ROOT, env={**env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    outputs = []
    for seed, child in zip(HASH_SEEDS, children):
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, f"PYTHONHASHSEED={seed}:\n{err}"
        outputs.append(out)
    return outputs


def test_two_hash_seeds_give_the_same_traces():
    one, other = under_two_hash_seeds()
    lines = one.splitlines()
    assert [line.split()[0] for line in lines] == list(RUNS)
    assert all(int(line.split()[1]) > 0 for line in lines)
    for line, twin in zip(lines, other.splitlines()):
        if line != twin:
            name = line.split()[0]
            difference = trace_difference(*under_two_hash_seeds(name))
            raise AssertionError(
                f"run {name} differs between PYTHONHASHSEED="
                f"{HASH_SEEDS[0]} and {HASH_SEEDS[1]}: {difference}")
    assert one == other


def test_a_difference_is_named_by_its_first_event():
    assert trace_difference("a\nb\nc", "a\nb\nc") is None
    assert trace_difference("a\nb\nc", "a\nx\nc") == \
        "trace event 1 differs:\n  b\n  x"
    assert trace_difference("a", "a\nb") == \
        "trace event 1 differs:\n  (no event)\n  b"


if __name__ == "__main__":
    main(sys.argv[1:])
