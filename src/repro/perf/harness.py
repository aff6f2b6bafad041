"""Run perf cells and collect determinism + wall-clock metrics.

Separation of concerns: :mod:`repro.perf.matrix` defines *what* runs,
this module runs it and measures, :mod:`repro.perf.trajectory` turns the
measurements into ``BENCH_*.json`` documents and printable tables.
"""

from __future__ import annotations

import resource
import tempfile
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import VerificationError
from repro.harness.scenario import run_scenario
from repro.perf.matrix import PerfCell, storage_comparison_cell

__all__ = ["CellResult", "run_cell", "run_matrix", "compare_determinism",
           "measure_storage_comparison", "measure_wire_comparison",
           "measure_codec_comparison", "measure_group_commit_comparison"]


class CellResult:
    """Metrics of one cell run: the deterministic and the worldly."""

    def __init__(self, cell: PerfCell, determinism: Dict[str, int],
                 wall: Dict[str, float]):
        self.cell = cell
        self.determinism = determinism
        self.wall = wall

    def to_plain(self) -> Dict[str, Any]:
        return {"cell": self.cell.params(),
                "determinism": dict(self.determinism),
                "wall": dict(self.wall)}


def _peak_rss_kb() -> int:
    """Peak resident set of this process so far, in KiB.

    ``ru_maxrss`` is a high-water mark: it never decreases across cells,
    so per-cell values are upper bounds — comparable across PRs only for
    the first cell of a run (the smoke cell), which is why drift checks
    ignore wall metrics entirely.
    """
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_cell(cell: PerfCell, isolation: str = "snapshot") -> CellResult:
    """Run one cell and measure it.

    Raises :class:`~repro.errors.VerificationError` if the run fails the
    Atomic Broadcast properties — the trajectory never records numbers
    from an incorrect execution.
    """
    start = time.perf_counter()
    result = run_scenario(cell.scenario(isolation=isolation))
    wall_seconds = time.perf_counter() - start
    if result.report is None:  # pragma: no cover - verify is always on
        raise VerificationError(f"cell {cell.name} ran unverified")
    metrics = result.metrics
    sim = result.cluster.sim
    determinism = {
        "events_processed": sim.events_processed,
        "log_ops": metrics.total_log_ops(),
        "bytes_logged": metrics.total_bytes_logged(),
        "messages_broadcast": metrics.messages_broadcast,
        "messages_delivered": metrics.messages_delivered,
    }
    if cell.flow is not None:
        # Flow keys exist only on throttled cells, so the 16 legacy
        # cells' determinism dicts stay byte-identical to old baselines.
        cluster = result.cluster
        determinism["flow_accepted"] = sum(
            controller.accepted for controller in cluster.flows.values())
        determinism["flow_rejected"] = sum(
            controller.rejected for controller in cluster.flows.values())
        determinism["unordered_high_water"] = max(
            getattr(abcast, "unordered_high_water", 0)
            for abcast in cluster.abcasts.values())
    wall = {
        "wall_seconds": round(wall_seconds, 4),
        "deliveries_per_sec": round(
            metrics.messages_delivered / wall_seconds, 1),
        "events_per_sec": round(sim.events_processed / wall_seconds, 1),
        "peak_rss_kb": _peak_rss_kb(),
    }
    return CellResult(cell, determinism, wall)


def run_matrix(cells: Iterable[PerfCell],
               isolation: str = "snapshot") -> List[CellResult]:
    """Run every cell, in matrix order."""
    return [run_cell(cell, isolation=isolation) for cell in cells]


def compare_determinism(baseline: Dict[str, Dict[str, int]],
                        results: Iterable[CellResult]) -> List[str]:
    """Diff fresh results against a baseline's determinism metrics.

    ``baseline`` maps cell name -> determinism dict (the shape stored in
    a BENCH document's ``matrix`` section).  Returns human-readable
    drift descriptions; empty means bit-identical.  Cells missing from
    the baseline are reported too — a silently shrinking matrix must not
    pass as "no drift".
    """
    drifts: List[str] = []
    for result in results:
        name = result.cell.name
        expected = baseline.get(name)
        if expected is None:
            drifts.append(f"{name}: not present in baseline")
            continue
        for key, actual in result.determinism.items():
            want = expected.get(key)
            if want != actual:
                drifts.append(
                    f"{name}: {key} = {actual}, baseline has {want}")
    return drifts


def measure_storage_comparison(repeats: int = 3) -> Dict[str, Any]:
    """Before/after measurement of the MemoryStorage isolation rework.

    Runs the E6-batching workload cell under the legacy
    ``deepcopy``-per-operation isolation and the snapshot isolation,
    ``repeats`` times each, keeping the best wall time per mode (the
    usual way to beat scheduler noise).  Determinism metrics must be
    identical between modes — the optimisation swaps copies, not
    behaviour — and that is asserted here, not assumed.
    """
    cell = storage_comparison_cell()
    modes: Dict[str, CellResult] = {}
    for isolation in ("deepcopy", "snapshot"):
        best: Optional[CellResult] = None
        for _ in range(repeats):
            result = run_cell(cell, isolation=isolation)
            if best is None or (result.wall["wall_seconds"]
                                < best.wall["wall_seconds"]):
                best = result
        assert best is not None
        modes[isolation] = best
    if modes["deepcopy"].determinism != modes["snapshot"].determinism:
        raise VerificationError(
            "storage isolation modes diverged on determinism metrics: "
            f"{modes['deepcopy'].determinism} != "
            f"{modes['snapshot'].determinism}")
    before = modes["deepcopy"].wall
    after = modes["snapshot"].wall
    return {
        "cell": cell.params(),
        "determinism": modes["snapshot"].determinism,
        "before": dict(before),
        "after": dict(after),
        "speedup_deliveries_per_sec": round(
            after["deliveries_per_sec"] / before["deliveries_per_sec"], 2),
    }


def _run_live_burst(version: int, count: int, seed: int) -> Dict[str, Any]:
    """One live burst run under a chosen wire version; all metrics."""
    from repro.harness.cluster import ClusterConfig
    from repro.harness.live import LiveCluster
    from repro.runtime.wire import WireConfig
    from repro.transport.network import NetworkConfig
    from repro.transport.stubborn import StubbornConfig

    config = ClusterConfig(
        n=3, seed=seed, protocol="basic",
        network=NetworkConfig(loss_rate=0.0),
        wire=WireConfig(version=version),
        # v1 mode reproduces the pre-binary transport exactly: one
        # datagram per stubborn envelope, one per ack.
        stubborn=StubbornConfig(coalesce=(version == 2)))
    with tempfile.TemporaryDirectory() as root:
        with LiveCluster(config, root) as cluster:
            cluster.start()
            start = time.perf_counter()
            # Submit in waves: a single huge burst would grow the gossip
            # state past the 64 KiB datagram limit (the size guard would
            # correctly refuse to send it); waves keep the pipeline full
            # while ordering drains the backlog.
            for first in range(0, count, 50):
                for index in range(first, min(first + 50, count)):
                    cluster.submit(index % config.n, f"wire-{index}")
                cluster.run_for(0.02)
            settled = cluster.settle(limit=120.0)
            wall = time.perf_counter() - start
            if not settled or len(cluster.collector.first_delivery) != count:
                raise VerificationError(
                    f"wire v{version} burst did not settle: "
                    f"{len(cluster.collector.first_delivery)}/{count} "
                    f"delivered")
            network = cluster.network
            stubborn = cluster.stubborn.metrics.snapshot() \
                if cluster.stubborn is not None else {}
            group_commits = sum(node.storage.group_commits
                                for node in cluster.nodes.values())
            return {
                "wall_seconds": round(wall, 4),
                "deliveries_per_sec": round(count / wall, 1),
                "datagrams_sent": network.datagrams_sent,
                "frames_coalesced": network.frames_coalesced,
                "bytes_sent": network.wire_bytes_sent,
                "stubborn_batches": stubborn.get("batches_sent", 0),
                "piggybacked_acks": stubborn.get("piggybacked_acks", 0),
                "group_commits": group_commits,
            }


def measure_wire_comparison(count: int = 300, repeats: int = 3,
                            seed: int = 42) -> Dict[str, Any]:
    """Before/after measurement of the binary wire path, end to end.

    Runs the same live burst workload (``count`` messages flooded into a
    3-node localhost-UDP cluster, then settled) under wire v1 with no
    coalescing — the pre-binary transport — and under wire v2 with
    datagram + stubborn coalescing, ``repeats`` times each, keeping the
    best wall time per mode.  Every run must deliver every message or
    the measurement is rejected, so the speedup is for equivalent work.
    """
    modes: Dict[str, Dict[str, Any]] = {}
    for label, version in (("before", 1), ("after", 2)):
        best: Optional[Dict[str, Any]] = None
        for _ in range(repeats):
            run = _run_live_burst(version, count, seed)
            if best is None or run["wall_seconds"] < best["wall_seconds"]:
                best = run
        assert best is not None
        modes[label] = best
    return {
        "workload": {"n": 3, "count": count, "seed": seed},
        "before": modes["before"],
        "after": modes["after"],
        "speedup_deliveries_per_sec": round(
            modes["after"]["deliveries_per_sec"]
            / modes["before"]["deliveries_per_sec"], 2),
        "datagram_ratio": round(
            modes["before"]["datagrams_sent"]
            / max(1, modes["after"]["datagrams_sent"]), 2),
        "bytes_ratio": round(
            modes["before"]["bytes_sent"]
            / max(1, modes["after"]["bytes_sent"]), 2),
    }


def measure_codec_comparison(iterations: int = 4000,
                             repeats: int = 3) -> Dict[str, Any]:
    """Before/after measurement of the wire codec itself.

    Times the full serialise-then-parse pipeline (encode + decode, the
    per-datagram work of the live transport) over a corpus of
    representative protocol messages — gossip with payloads and a populated
    digest, paxos rounds, stubborn envelopes/acks/batches — under wire v1
    (tagged JSON) and v2 (binary), keeping the best of ``repeats``.
    Every decoded message is the encoder's input (same sender, type and
    fields) or the measurement aborts.
    """
    from repro.core.messages import AppMessage
    from repro.runtime import wire

    def corpus() -> List[Any]:
        from repro.core.messages import MessageId
        apps = [AppMessage(MessageId(sender, 1, seq),
                           f"payload-{sender}-{seq}")
                for sender in range(3) for seq in range(8)]
        return [
            wire.rebuild("ab.gossip", {
                "k": 12, "payloads": frozenset(apps), "ckpt_k": 8,
                "known": frozenset(app.id for app in apps),
                "want": frozenset({MessageId(2, 1, 9)})}),
            wire.rebuild("paxos.accept", {"k": 7, "ballot": (2, 1),
                                          "value": tuple(apps[:6])}),
            wire.rebuild("paxos.accepted", {"k": 7, "ballot": (2, 1)}),
            wire.rebuild("stub.data", {
                "seq": 991, "inner_type": "fd.alive",
                "inner_fields": {"epoch": 3}}),
            wire.rebuild("stub.ack", {"seq": 991}),
            wire.rebuild("stub.batch", {
                "entries": tuple((index, "paxos.decide",
                                  {"k": index, "value": tuple(apps[:4])})
                                 for index in range(6)),
                "acks": (1, 2, 3, 4)}),
        ]

    messages = corpus()
    results: Dict[str, Dict[str, Any]] = {}
    for label, version in (("before", 1), ("after", 2)):
        encoded = [wire.encode(5, message, version=version)
                   for message in messages]
        for data, message in zip(encoded, messages):
            sender, got = wire.decode(data)
            if sender != 5 or got.type != message.type:
                raise VerificationError(
                    f"codec bench round-trip failed for {message.type}")
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(iterations):
                for message in messages:
                    wire.decode(wire.encode(5, message, version=version))
            wall = time.perf_counter() - start
            best = wall if best is None else min(best, wall)
        assert best is not None
        count = iterations * len(messages)
        results[label] = {
            "wall_seconds": round(best, 4),
            "messages_per_sec": round(count / best, 1),
            "bytes_per_message": round(
                sum(len(data) for data in encoded) / len(encoded), 1),
        }
    return {
        "workload": {"iterations": iterations,
                     "corpus_size": len(messages)},
        "before": results["before"],
        "after": results["after"],
        "speedup_messages_per_sec": round(
            results["after"]["messages_per_sec"]
            / results["before"]["messages_per_sec"], 2),
        "bytes_ratio": round(
            results["before"]["bytes_per_message"]
            / results["after"]["bytes_per_message"], 2),
    }


def measure_group_commit_comparison(records: int = 400, batch: int = 8,
                                    repeats: int = 3) -> Dict[str, Any]:
    """Before/after measurement of FileStorage group commit.

    Logs ``records`` values in ``write_barrier()`` batches of ``batch``
    against a real directory, with per-record fsyncs (classic mode)
    versus one journal fsync per barrier (group commit), keeping the
    best wall time of ``repeats`` per mode.  Every record is read back
    and checked in both modes before timings are accepted.
    """
    from repro.storage.file import FileStorage

    def one_run(group_commit: bool) -> float:
        with tempfile.TemporaryDirectory() as root:
            storage = FileStorage(root, group_commit=group_commit)
            payload = {"round": 0, "estimate": ("value", 1.5, None)}
            start = time.perf_counter()
            index = 0
            while index < records:
                with storage.write_barrier():
                    for _ in range(min(batch, records - index)):
                        storage.log(("bench", index),
                                    dict(payload, round=index))
                        index += 1
            wall = time.perf_counter() - start
            for check in range(0, records, max(1, records // 16)):
                value = storage.retrieve(("bench", check))
                if value is None or value["round"] != check:
                    raise VerificationError(
                        f"group-commit bench read-back failed at {check}")
            return wall

    walls: Dict[str, float] = {}
    for label, group_commit in (("before", False), ("after", True)):
        walls[label] = min(one_run(group_commit) for _ in range(repeats))
    return {
        "workload": {"records": records, "batch": batch},
        "before": {"wall_seconds": round(walls["before"], 4),
                   "records_per_sec": round(records / walls["before"], 1)},
        "after": {"wall_seconds": round(walls["after"], 4),
                  "records_per_sec": round(records / walls["after"], 1)},
        "speedup_records_per_sec": round(
            walls["before"] / walls["after"], 2),
    }
