"""repro — Atomic Broadcast in Asynchronous Crash-Recovery Distributed Systems.

A complete, executable reproduction of Rodrigues & Raynal (ICDCS 2000):
the consensus-based Atomic Broadcast protocols for the crash-recovery
model (Figures 2-4), every substrate they stand on (fair-lossy transport,
stable storage, failure detection, crash-recovery consensus), the
baselines they are compared against, and a scenario harness that verifies
the Validity / Integrity / Termination / Total Order properties on every
run.

Quickstart::

    from repro import ClusterConfig, Scenario, run_scenario
    from repro.workloads import PoissonWorkload

    result = run_scenario(Scenario(
        cluster=ClusterConfig(n=3, seed=1, protocol="basic"),
        workload=PoissonWorkload(rate_per_node=2.0, duration=10.0, seed=1),
        duration=15.0,
    ))
    print(result.metrics.throughput, len(result.report.canonical))

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
reproduced claims.
"""

from repro.chaos.inject import FaultSchedule, RandomFaults
from repro.core import (AlternativeAtomicBroadcast, AlternativeConfig,
                        AppMessage, BasicAtomicBroadcast, MessageId)
from repro.harness import (Cluster, ClusterConfig, Scenario, ScenarioResult,
                           run_scenario, verify_run)
from repro.runtime import SeedSequence, Simulator
from repro.transport import NetworkConfig

__version__ = "1.0.0"

__all__ = [
    "AlternativeAtomicBroadcast",
    "AlternativeConfig",
    "AppMessage",
    "BasicAtomicBroadcast",
    "Cluster",
    "ClusterConfig",
    "FaultSchedule",
    "MessageId",
    "NetworkConfig",
    "RandomFaults",
    "Scenario",
    "ScenarioResult",
    "SeedSequence",
    "Simulator",
    "run_scenario",
    "verify_run",
    "__version__",
]
