"""Command-line interface: run verified scenarios from a shell.

Examples::

    python -m repro run --protocol alternative -n 5 --seed 3 \
        --loss 0.1 --rate 2 --duration 20 --faults random

    python -m repro compare --seed 7 --rate 3 --duration 10

    python -m repro info

Every ``run`` verifies the four Atomic Broadcast properties before
printing metrics, so a zero exit status certifies a correct execution.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.lint import add_lint_arguments, execute_lint
from repro.chaos.events import ChaosEvent
from repro.chaos.inject import RandomFaults
from repro.core.alternative import AlternativeConfig
from repro.errors import ReproError, VerificationError
from repro.harness.cluster import PROTOCOLS, ClusterConfig
from repro.harness.report import format_table
from repro.harness.scenario import Scenario, check_reproducible, \
    run_scenario
from repro.metrics.collector import MetricsCollector
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Atomic Broadcast in asynchronous crash-recovery "
                    "systems (Rodrigues & Raynal, ICDCS 2000) — "
                    "scenario runner")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one verified scenario")
    run.add_argument("--runtime", choices=["sim", "live"], default="sim",
                     help="sim: deterministic virtual time; live: asyncio "
                          "+ localhost UDP + file storage, with one "
                          "scripted kill/restart, cross-checked against "
                          "the sim runtime")
    run.add_argument("--protocol", choices=PROTOCOLS, default="basic")
    run.add_argument("-n", "--nodes", type=int, default=3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--loss", type=float, default=0.05,
                     help="network loss rate (0 <= p < 1)")
    run.add_argument("--duplicates", type=float, default=0.0,
                     help="network duplication rate")
    run.add_argument("--rate", type=float, default=1.5,
                     help="Poisson A-broadcast rate per node")
    run.add_argument("--duration", type=float, default=15.0,
                     help="workload duration (virtual time)")
    run.add_argument("--faults", choices=["none", "random"],
                     default="none")
    run.add_argument("--mttf", type=float, default=8.0)
    run.add_argument("--mttr", type=float, default=2.0)
    run.add_argument("--checkpoint-interval", type=float, default=2.0,
                     help="alternative protocol: checkpoint period")
    run.add_argument("--delta", type=int, default=3,
                     help="alternative protocol: state-transfer trigger")
    run.add_argument("--log-unordered", action="store_true",
                     help="alternative protocol: Section 5.4 batching")
    run.add_argument("--trace", type=int, default=0, metavar="N",
                     help="print the last N protocol trace events")

    compare = commands.add_parser(
        "compare", help="run every protocol on one workload")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("-n", "--nodes", type=int, default=3)
    compare.add_argument("--rate", type=float, default=2.0)
    compare.add_argument("--duration", type=float, default=10.0)

    chaos = commands.add_parser(
        "chaos", help="seeded random fault-scenario exploration: every "
                      "run is verified against the paper's invariants "
                      "and every failure reproduces from its seed")
    chaos.add_argument("--seeds", type=int, default=25,
                       help="number of seeds to explore")
    chaos.add_argument("--runtime", choices=["sim", "live"], default="sim",
                       help="sim: virtual-time scenarios with partitions "
                            "and disk faults; live: real asyncio/UDP/file "
                            "runs with kills, loss bursts and clock skew")
    chaos.add_argument("--master-seed", type=int, default=0,
                       help="namespace for the per-seed derivations")
    chaos.add_argument("--horizon", type=float, default=8.0,
                       help="scenario length (virtual or wall seconds)")
    chaos.add_argument("--reproduce", type=int, default=None, metavar="SEED",
                       help="re-run one seed with its exact fault "
                            "timeline printed")
    chaos.add_argument("--quiet", action="store_true",
                       help="print failing seeds only")
    chaos.add_argument("--churn", action="store_true",
                       help="add the membership-churn nemesis (joins, "
                            "leaves and evictions composed with the "
                            "fault scenarios); a different scenario "
                            "family from the default sweep")
    chaos.add_argument("--overload", action="store_true",
                       help="add the overload/gray-failure battery "
                            "(saturation bursts, slow disks, limping "
                            "nodes) with per-node admission control; a "
                            "different scenario family from the default "
                            "sweep")

    churn = commands.add_parser(
        "churn", help="seeded elastic-reconfiguration scenario: grow by "
                      "join-by-state-transfer, shrink by ordered "
                      "leave/evict under a crash storm, then verify "
                      "uniform total order across every epoch")
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--runtime", choices=["sim", "live"], default="sim")
    churn.add_argument("--settle-limit", type=float, default=300.0,
                       help="virtual (sim) or wall (live) settle budget")
    churn.add_argument("--check-reproducibility", action="store_true",
                       help="run the sim scenario twice and require "
                            "identical signatures and full traces")

    overload = commands.add_parser(
        "overload", help="seeded saturation scenario: a >10x overload "
                         "burst against admission control while one "
                         "node's disk limps, with exact accounting of "
                         "every accepted/rejected broadcast and bounded "
                         "queues verified end to end")
    overload.add_argument("--seed", type=int, default=0)
    overload.add_argument("--settle-limit", type=float, default=300.0,
                          help="virtual-time settle budget")
    overload.add_argument("--check-reproducibility", action="store_true",
                          help="run the scenario twice and require "
                               "identical signatures and full traces")

    lint = commands.add_parser(
        "lint", help="protocol-aware static analysis (interrupted "
                     "read-modify-write, blocking call in async code)")
    add_lint_arguments(lint)

    wirefuzz = commands.add_parser(
        "wirefuzz", help="seeded fuzz of the codec: frame "
                         "round-trips for every message class with a "
                         "type-id, adversarial datagrams that must "
                         "fail only with WireCodecError, and damaged "
                         "storage journals and compaction snapshots that "
                         "must reopen, without raising, to a prefix of "
                         "what was logged")
    wirefuzz.add_argument("--iterations", type=int, default=500,
                          help="round-trip iterations (adversarial "
                               "decodes run 4x this, damaged stores a "
                               "tenth of it)")
    wirefuzz.add_argument("--seed", type=int, default=0)

    commands.add_parser("info", help="list protocols and experiments")
    return parser


def _cluster_config(args) -> ClusterConfig:
    alt = AlternativeConfig(
        checkpoint_interval=args.checkpoint_interval or None,
        delta=args.delta or None,
        log_unordered=args.log_unordered)
    return ClusterConfig(n=args.nodes, seed=args.seed,
                         protocol=args.protocol,
                         network=NetworkConfig(
                             loss_rate=args.loss,
                             duplicate_rate=args.duplicates),
                         alt=alt)


def _print_trace(args, collector: MetricsCollector) -> None:
    if collector.events is not None:
        print(f"\nlast {args.trace} trace events "
              f"({len(collector.events)} recorded; "
              f"counts {collector.counts()}):")
        print(collector.format_text(limit=args.trace))


def _run_live(args) -> int:
    """One live run (asyncio + UDP + files) cross-checked against sim.

    A single sender keeps the A-delivery order a pure function of the
    submission sequence (batches always respect the deterministic
    MessageId order), so the live run of the timeline is comparable to
    a sim run of the same timeline even though live timing is
    non-deterministic.
    """
    if args.faults == "random":
        raise ReproError(
            "--faults random is not supported with --runtime live; the "
            "live runner always injects one scripted kill/restart")
    count = max(1, int(args.rate * args.duration))
    window = 0.6 * args.duration
    victim = args.nodes - 1
    timeline = [ChaosEvent(0.1 + i * window / count, "submit", node=0,
                           payload=f"live-{i}") for i in range(count)]
    timeline += [ChaosEvent(0.45 * args.duration, "crash", node=victim),
                 ChaosEvent(0.75 * args.duration, "recover", node=victim)]
    timeline.sort(key=lambda event: event.time)
    results = {runtime: run_scenario(Scenario(
        _cluster_config(args), runtime=runtime, timeline=timeline,
        duration=args.duration,
        settle_limit=args.duration + max(10.0, args.duration),
        trace=bool(args.trace) and runtime == "live"))
        for runtime in ("live", "sim")}
    orders = {runtime: [result.cluster.collector.broadcast_payloads[mid]
                        for mid in result.report.canonical]
              for runtime, result in results.items()}
    live = results["live"]
    net = live.metrics.network
    match = orders["live"] == orders["sim"]
    print(format_table(
        f"live · {args.protocol} · n={args.nodes} · seed={args.seed} · "
        f"loss={args.loss} (injected, over UDP)",
        ["metric", "value"],
        [
            ["messages broadcast", count],
            ["messages delivered (canonical)", len(orders["live"])],
            ["kill/restart survived",
             f"node {victim} (recoveries: "
             f"{live.cluster.nodes[victim].recovery_count})"],
            ["UDP datagrams sent", net["sent"]],
            ["suspicions refuted", live.metrics.refutations],
            ["paxos re-sends / ballots retired",
             f"{live.metrics.resends} / {live.metrics.ballots_retired}"],
            ["injected loss / duplicates",
             f"{net['lost']} / {net['duplicated']}"],
            ["wall-clock time (s)", round(live.metrics.duration, 2)],
            ["properties verified", "yes"],
            ["delivery order matches sim", "yes" if match else "NO"],
        ]))
    _print_trace(args, live.cluster.collector)
    if not match:
        raise VerificationError(
            f"live delivery order diverged from sim: "
            f"live={orders['live']} sim={orders['sim']}")
    return 0


def _run(args) -> int:
    if args.runtime == "live":
        return _run_live(args)
    faults = None
    if args.faults == "random":
        faults = RandomFaults(mttf=args.mttf, mttr=args.mttr,
                              stabilize_at=args.duration * 1.2,
                              seed=args.seed)
    result = run_scenario(Scenario(
        cluster=_cluster_config(args),
        workload=PoissonWorkload(args.rate, args.duration,
                                 seed=args.seed),
        faults=faults,
        duration=args.duration * 1.5,
        settle_limit=args.duration * 20,
        trace=bool(args.trace)))
    metrics = result.metrics
    latency = metrics.latency_summary()
    print(format_table(
        f"{args.protocol} · n={args.nodes} · seed={args.seed} · "
        f"loss={args.loss} · faults={args.faults}",
        ["metric", "value"],
        [
            ["messages broadcast", metrics.messages_broadcast],
            ["messages delivered", metrics.messages_delivered],
            ["consensus rounds", result.report.rounds
             if result.report else "-"],
            ["throughput (msg/time)", round(metrics.throughput, 3)],
            ["latency p50", round(latency["p50"], 4)],
            ["latency p95", round(latency["p95"], 4)],
            ["log ops (total)", metrics.total_log_ops()],
            ["log ops by layer", str(metrics.log_ops_by_prefix())],
            ["network msgs", metrics.network["sent"]],
            ["suspicions refuted", metrics.refutations],
            ["paxos re-sends / ballots retired",
             f"{metrics.resends} / {metrics.ballots_retired}"],
            ["crashes survived",
             sum(stats["crashes"]
                 for stats in metrics.node_stats.values())],
            ["properties verified", "yes"],
        ]))
    _print_trace(args, result.cluster.collector)
    return 0


def _chaos(args) -> int:
    from repro.chaos.engine import ChaosConfig, explore, reproduce
    config = ChaosConfig(seeds=args.seeds, runtime=args.runtime,
                         master_seed=args.master_seed,
                         horizon=args.horizon, churn=args.churn,
                         overload=args.overload)
    if args.runtime == "live":
        # Real seconds per scenario: keep the per-seed cost bounded.
        config.settle_limit = 30.0
        config.n_choices = (3,)
    if args.reproduce is not None:
        result = reproduce(config, args.reproduce)
        return 0 if result.ok else 1
    emit = None if args.quiet else print
    report = explore(config, emit=emit)
    totals = ", ".join(f"{key}={value}"
                       for key, value in sorted(report.totals().items()))
    print(f"\n{len(report.results)} seeds, "
          f"{len(report.failures)} failures  ({totals})")
    family = ("--churn " if args.churn else "") + \
        ("--overload " if args.overload else "")
    for failure in report.failures:
        print(f"  reproduce with: repro chaos --runtime {args.runtime} "
              f"--master-seed {args.master_seed} "
              f"--horizon {args.horizon} {family}"
              f"--reproduce {failure.seed}")
    return 0 if report.ok else 1


def _churn(args) -> int:
    from repro.membership.scenario import ChurnReport, churn_scenario
    scenario = churn_scenario(seed=args.seed, runtime=args.runtime,
                              settle_limit=args.settle_limit)
    if args.check_reproducibility:
        print(ChurnReport(check_reproducible(scenario)).describe())
        print("\nview-install timeline bit-identical across re-runs: yes")
        return 0
    print(ChurnReport(run_scenario(scenario)).describe())
    return 0


def _overload(args) -> int:
    from repro.flow.scenario import OverloadReport, overload_scenario
    scenario = overload_scenario(seed=args.seed,
                                 settle_limit=args.settle_limit)
    if args.check_reproducibility:
        print(OverloadReport(check_reproducible(scenario)).describe())
        print("\noverload signature bit-identical across re-runs: yes")
        return 0
    print(OverloadReport(run_scenario(scenario)).describe())
    return 0


def _compare(args) -> int:
    rows = []
    for protocol in PROTOCOLS:
        loss = 0.0 if protocol in ("ct",) else 0.05
        result = run_scenario(Scenario(
            cluster=ClusterConfig(n=args.nodes, seed=args.seed,
                                  protocol=protocol,
                                  network=NetworkConfig(loss_rate=loss)),
            workload=PoissonWorkload(args.rate, args.duration,
                                     seed=args.seed),
            duration=args.duration * 1.5,
            settle_limit=args.duration * 20))
        metrics = result.metrics
        latency = metrics.latency_summary()
        rows.append([protocol, metrics.messages_delivered,
                     round(latency["p50"], 4),
                     metrics.total_log_ops(),
                     metrics.network["sent"]])
    print(format_table(
        f"protocol comparison · n={args.nodes} · seed={args.seed}",
        ["protocol", "delivered", "lat p50", "log ops", "msgs"],
        rows))
    return 0


def _wirefuzz(args) -> int:
    from repro.runtime.wirefuzz import run_fuzz
    report = run_fuzz(args.iterations, seed=args.seed)
    print(report.summary())
    for suite, sub_seed, description in report.defects:
        print(f"  [{suite}] seed={sub_seed}: {description}")
    return 0 if report.ok else 1


def _info() -> int:
    print("protocols:")
    descriptions = {
        "basic": "Figure 2 — minimal logging, replay recovery",
        "alternative": "Figures 3-4 — checkpoints, state transfer, "
                       "batching",
        "eager": "baseline — logs every Unordered/Agreed update",
        "ct": "baseline — Chandra-Toueg transformation (crash-stop)",
        "sequencer": "baseline — fixed sequencer (no fault tolerance)",
    }
    for protocol in PROTOCOLS:
        print(f"  {protocol:12s} {descriptions[protocol]}")
    print("\nexperiments: pytest benchmarks/ --benchmark-only "
          "(tables E1-E11 + X1-X2)")
    print("docs: README.md · DESIGN.md · EXPERIMENTS.md")
    return 0


def _dispatch(args) -> int:
    if args.command == "run":
        return _run(args)
    if args.command == "chaos":
        return _chaos(args)
    if args.command == "churn":
        return _churn(args)
    if args.command == "overload":
        return _overload(args)
    if args.command == "compare":
        return _compare(args)
    if args.command == "lint":
        return execute_lint(args.paths, args.output_format,
                            args.list_rules)
    if args.command == "wirefuzz":
        return _wirefuzz(args)
    return _info()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit status.

    Library errors (including analyzer failures) exit with a clean
    one-line message on stderr — never a traceback.  A reader that
    closes the pipe early (``repro run | head -1``) is not a failure:
    the command stops quietly, with the status it earned if it had
    finished, else 0.
    """
    args = build_parser().parse_args(argv)
    status = 0
    try:
        status = _dispatch(args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter's exit-time
        # flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except ReproError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
