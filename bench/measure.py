"""Run one workload once and turn what was observed into metrics.

The stack is driven only through its public entry points —
``Cluster``/``ClusterConfig``, ``LiveCluster``, ``install_timeline``,
``ScheduledWorkload``, ``MetricsCollector`` — and every run is checked
with ``verify_run`` before a number is reported.  :func:`run_pass` is
one pass: untraced (end-to-end numbers) or, given a tracer, traced
(per-layer numbers only).
"""

from __future__ import annotations

import gc
import heapq
import resource
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.inject import FaultEvent, install_timeline
from repro.core.alternative import AlternativeConfig
from repro.fdetect.heartbeat import HeartbeatDetector
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.live import LiveCluster
from repro.harness.verify import verify_run
from repro.transport.network import NetworkConfig
from repro.workloads.generators import ScheduledWorkload

from bench import metrics as m
from bench.trace import (LAYERS, Probes, Tracer, instrument,
                         instrument_storage, instrument_wire, restore_wire,
                         runtime_of)
from bench.workloads import Schedule, Workload, make_schedule

# Set-up is repeated and its median reported: at least MIN times, and
# cheap set-ups (a 25-node sim cluster builds in ~6 ms) until the
# repeats have taken SETUP_BUDGET_S, so the median is of many samples.
SETUP_MIN_REPEATS = {"sim": 5, "live": 3}
SETUP_MAX_REPEATS = 40
SETUP_BUDGET_S = 0.5
WARMUP_S = 1.0            # live: loop time before the first request is due
SETTLE_S = {"sim": 120.0, "live": 30.0}
POLL_S = 0.05             # traced pass: failure-detector polling period
SIM_CHUNKS = 100          # run(until=…) calls per sim pass, a shot after each
LIVE_SHOT_EVERY_S = 0.1
SHOTS_PER_SETUP = 3
FAMILIES = ("ab", "paxos", "fd", "stub")
LOG_PREFIXES = ("paxos", "consensus", "ab", "fd")


class HostSpeed:
    """How fast this host runs Python now, against the box that sized the runs.

    CPU time on a shared VM is not a property of the program alone: on
    the sizing box the same run cost 1.5x more CPU for minutes at a
    time, and 1.4x more while another process kept the second core
    busy.  So a fixed kernel (a *shot*) is timed between the pieces of
    measured work, and CPU-time metrics are reported at reference speed:
    measured x ``factor``.  The shots' mean, not their median, because
    the CPU time it rescales is itself a sum over the same period.  The
    kernel allocates no containers, so the cyclic GC never runs in it
    however large the cluster's heap is.
    """

    KERNEL_STEPS = 10_000
    REFERENCE_S = 0.0014      # one shot on the sizing box when quiet

    def __init__(self) -> None:
        self.shots: List[float] = []

    def shot(self) -> None:
        started = time.process_time()
        table: Dict[int, int] = {}
        value = 0
        for step in range(self.KERNEL_STEPS):
            table[step & 1023] = value
            value = table.get((step * 7) & 1023, 0) + step
        self.shots.append(time.process_time() - started)

    @property
    def cpu_s(self) -> float:
        return sum(self.shots)

    @property
    def factor(self) -> float:
        """Multiply CPU seconds measured here by this; 1.0 = the sizing box."""
        return self.REFERENCE_S * len(self.shots) / self.cpu_s \
            if self.shots else 1.0


class Observed:
    """Everything one pass saw, before it is reduced to metrics."""

    def __init__(self, workload: Workload, schedule: Schedule) -> None:
        self.workload = workload
        self.schedule = schedule
        self.cluster: Any = None
        self.storages: List[Any] = []      # every handle, retired ones too
        self.setups: List[Tuple[float, float]] = []   # (wall s, CPU s) each
        self.setup_speed = HostSpeed()
        self.speed = HostSpeed()           # of the measured section
        self.t0 = 0.0                      # runtime clock at the first due
        self.before: Dict[str, float] = {}
        self.after: Dict[str, float] = {}
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.settled = False
        self.crashes: List[Tuple[int, float]] = []
        self.recoveries: List[Tuple[int, float]] = []
        self.late_max_s = 0.0
        self.reopen_s: List[float] = []
        self.detect_s: List[float] = []
        self.verify_s = 0.0


def _config(workload: Workload, seed: int) -> ClusterConfig:
    alt = None
    if workload.protocol == "alternative":
        alt = AlternativeConfig(
            checkpoint_interval=workload.checkpoint_interval)
    return ClusterConfig(n=workload.n, seed=seed,
                         protocol=workload.protocol,
                         network=NetworkConfig(loss_rate=workload.loss_rate),
                         alt=alt)


def counters(cluster: Any, storages: List[Any]) -> Dict[str, float]:
    """The counters each layer already exposes, flattened."""
    network = cluster.network
    out: Dict[str, float] = {
        "events": runtime_of(cluster).events_processed,
        "delivered": len(cluster.collector.first_delivery),
        "net.sent": network.metrics.sent,
        "net.bytes": network.metrics.bytes_sent,
        "net.lost": network.metrics.lost,
    }
    for name in ("datagrams_sent", "frames_sent", "wire_bytes_sent",
                 "oversize_drops", "send_overflows"):
        out["live." + name] = getattr(network, name, 0)
    for key in ("log_ops", "bytes_logged", "retrievals"):
        out["storage." + key] = sum(getattr(s.metrics, key)
                                    for s in storages)
    for storage in storages:
        for prefix, count in storage.metrics.ops_by_prefix.items():
            out["ops." + prefix] = out.get("ops." + prefix, 0) + count
        for name in ("group_commits", "group_commit_records", "dir_fsyncs"):
            out["file." + name] = out.get("file." + name, 0) \
                + getattr(storage, name, 0)
    if cluster.stubborn is not None:
        for key, value in cluster.stubborn.metrics.snapshot().items():
            out["stub." + key] = value
    return out


def _suspected_by_peer(cluster: Any, victim: int) -> bool:
    return any(node.up and node_id != victim
               and node.get_component(HeartbeatDetector).is_suspected(victim)
               for node_id, node in cluster.nodes.items())


# -- the simulated runtime -----------------------------------------------------


def _run_sim(obs: Observed, seed: int, tracer: Optional[Tracer],
             probes: Probes) -> None:
    workload, schedule = obs.workload, obs.schedule
    config = _config(workload, seed)
    faults = [FaultEvent(when, outage.node, action)
              for outage in schedule.outages
              for when, action in ((outage.down_at, FaultEvent.CRASH),
                                   (outage.up_at, FaultEvent.RECOVER))]

    def build() -> Cluster:
        cluster = Cluster(config)
        if tracer is not None:
            instrument(tracer, probes, cluster)
        cluster.start()
        ScheduledWorkload(schedule.plan).install(cluster)
        install_timeline(cluster.sim, cluster.nodes, faults)
        return cluster

    cluster = _timed_setups(obs, build, lambda discarded: None,
                            1 if tracer else SETUP_MIN_REPEATS["sim"])
    obs.cluster = cluster
    obs.storages = [node.storage for node in cluster.nodes.values()]
    obs.crashes = [(o.node, o.down_at) for o in schedule.outages]
    obs.recoveries = [(o.node, o.up_at) for o in schedule.outages]

    chunk_ends = {schedule.end * (i + 1) / SIM_CHUNKS
                  for i in range(SIM_CHUNKS)}
    stops = set(chunk_ends)
    undetected = list(schedule.outages) if tracer else []
    for outage in undetected:   # stop often enough to time the detector
        stops.update(outage.down_at + POLL_S * i for i in
                     range(1, int((outage.up_at - outage.down_at) / POLL_S)))
    drive = tracer.drive if tracer else _call

    _begin_section(obs, tracer, probes)
    for stop in sorted(stops):
        drive(cluster.run, stop)
        if stop in chunk_ends:
            obs.speed.shot()
        for outage in [o for o in undetected if o.down_at < stop]:
            if stop >= outage.up_at:
                undetected.remove(outage)
            elif _suspected_by_peer(cluster, outage.node):
                obs.detect_s.append(stop - outage.down_at)
                undetected.remove(outage)
    obs.settled = drive(cluster.settle, schedule.end + SETTLE_S["sim"])
    _end_section(obs)


# -- the live runtime ----------------------------------------------------------


def _run_live(obs: Observed, seed: int, tracer: Optional[Tracer],
              probes: Probes, storage_root: str) -> None:
    workload, schedule = obs.workload, obs.schedule
    config = _config(workload, seed)
    drive = tracer.drive if tracer else _call

    def build() -> LiveCluster:
        cluster = LiveCluster(config, tempfile.mkdtemp(dir=storage_root))
        try:
            if tracer is not None:
                instrument(tracer, probes, cluster)
            cluster.start()
            drive(cluster.run_for, WARMUP_S)
        except BaseException:
            cluster.close()
            raise
        return cluster

    def discard(cluster: LiveCluster) -> None:
        cluster.close()
        shutil.rmtree(cluster.directory, ignore_errors=True)

    cluster = _timed_setups(obs, build, discard,
                            1 if tracer else SETUP_MIN_REPEATS["live"])
    obs.cluster = cluster
    obs.storages = [node.storage for node in cluster.nodes.values()]
    runtime = cluster.runtime

    # One timeline of everything the generator does, in due order.
    timeline: List[Tuple[float, int, str, Any]] = []
    for index, (due, node, payload) in enumerate(schedule.plan):
        timeline.append((due, index, "submit", (node, payload)))
    for index, outage in enumerate(schedule.outages):
        timeline.append((outage.down_at, index, "kill", outage))
        timeline.append((outage.up_at, index, "restart", outage))
    heapq.heapify(timeline)
    undetected: Dict[int, float] = {}      # victim -> when it was killed

    _begin_section(obs, tracer, probes)
    obs.t0 = t0 = runtime.now
    next_shot = t0
    while timeline:
        if runtime.now >= next_shot:
            obs.speed.shot()
            next_shot = runtime.now + LIVE_SHOT_EVERY_S
        due, index, action, arg = heapq.heappop(timeline)
        wait = t0 + due - runtime.now
        if wait > 0:
            drive(cluster.run_for, wait)
        if runtime.errors:
            runtime.check_errors()
        if action == "submit":
            obs.late_max_s = max(obs.late_max_s, runtime.now - (t0 + due))
            cluster.submit(*arg)
        elif action == "kill":
            started = time.perf_counter()
            cluster.kill(arg.node)
            obs.reopen_s.append(time.perf_counter() - started)
            obs.crashes.append((arg.node, runtime.now))
            storage = cluster.nodes[arg.node].storage
            obs.storages.append(storage)
            if tracer is not None:
                instrument_storage(tracer, storage)
                undetected[arg.node] = runtime.now
                heapq.heappush(timeline, (due + POLL_S, index, "poll", arg))
        elif action == "restart":
            obs.recoveries.append((arg.node, runtime.now))
            undetected.pop(arg.node, None)
            cluster.restart(arg.node)
        elif arg.node in undetected:       # poll
            if _suspected_by_peer(cluster, arg.node):
                obs.detect_s.append(runtime.now - undetected.pop(arg.node))
            else:
                heapq.heappush(timeline, (due + POLL_S, index, "poll", arg))
    obs.settled = drive(cluster.settle, SETTLE_S["live"])
    runtime.check_errors()
    _end_section(obs)


# -- shared scaffolding --------------------------------------------------------


def _call(fn: Callable, *args: Any) -> Any:
    return fn(*args)


def _timed_setups(obs: Observed, build: Callable[[], Any],
                  discard: Callable[[Any], None], repeats: int) -> Any:
    """Set up at least ``repeats`` times, timing each; keep the last."""
    cluster = None
    while len(obs.setups) < repeats or (
            repeats > 1 and len(obs.setups) < SETUP_MAX_REPEATS
            and sum(wall for wall, _ in obs.setups) < SETUP_BUDGET_S):
        if cluster is not None:
            discard(cluster)
            cluster = None
            gc.collect()
        wall, cpu = time.perf_counter(), time.process_time()
        cluster = build()
        obs.setups.append((time.perf_counter() - wall,
                           time.process_time() - cpu))
        for _ in range(SHOTS_PER_SETUP):
            obs.setup_speed.shot()
    return cluster


def setup_seconds(setups: List[Tuple[float, float]], factor: float) -> float:
    """Median set-up time, its CPU share rescaled to reference speed.

    Waiting (the live warm-up) takes the same time on any host; only
    the busy part scales with how fast the host runs.
    """
    return m.median([max(0.0, wall - cpu) + cpu * factor
                     for wall, cpu in setups])


def _begin_section(obs: Observed, tracer: Optional[Tracer],
                   probes: Probes) -> None:
    if tracer is not None:     # set-up and warm-up are not the section
        tracer.reset()
        probes.reset()
    gc.collect()
    obs.before = counters(obs.cluster, obs.storages)
    obs.wall_s, obs.cpu_s = time.perf_counter(), time.process_time()


def _end_section(obs: Observed) -> None:
    obs.wall_s = time.perf_counter() - obs.wall_s
    obs.cpu_s = time.process_time() - obs.cpu_s - obs.speed.cpu_s
    obs.after = counters(obs.cluster, obs.storages)


def run_pass(workload: Workload, seed: int, seconds: float,
             storage_root: str, tracer: Optional[Tracer] = None,
             trace_path: Optional[str] = None) -> Dict[str, Any]:
    """One pass of one workload; never raises for a failing program.

    Returns ``{"attempted", "failed", "correct", "error", "metrics",
    "info"}``.  A run that raises, does not settle or fails
    ``verify_run`` fails every request it attempted; the exception type
    and the last counters are reported under ``info``.
    """
    schedule = make_schedule(workload, seed, seconds)
    obs = Observed(workload, schedule)
    probes = Probes()
    wire_originals = instrument_wire(tracer) if tracer else {}
    error: Optional[str] = None
    try:
        if workload.runtime == "sim":
            _run_sim(obs, seed, tracer, probes)
        else:
            _run_live(obs, seed, tracer, probes, storage_root)
        if not obs.settled:
            raise TimeoutError("the cluster did not settle")
        started = time.perf_counter()
        verify_run(obs.cluster)
        obs.verify_s = time.perf_counter() - started
        result = _reduce(obs, tracer, probes)
    except Exception as exc:  # boundary: report the failure, keep going
        error = f"{type(exc).__name__}: {exc}"
        result = {"attempted": len(schedule.plan),
                  "failed": len(schedule.plan), "metrics": {},
                  "info": {"last_counters": _last_counters(obs)}}
    finally:
        restore_wire(wire_originals)
        if workload.runtime == "live" and obs.cluster is not None:
            directory = obs.cluster.directory
            try:
                obs.cluster.close()
            except Exception as exc:  # a callback error surfaced at close
                error = error or f"{type(exc).__name__}: {exc}"
            shutil.rmtree(directory, ignore_errors=True)
    if error is not None:
        result["failed"] = result["attempted"]
    result["error"] = error
    result["correct"] = error is None and result["failed"] == 0
    if tracer is not None and trace_path is not None:
        tracer.dump(trace_path, {"workload": workload.name, "seed": seed,
                                 "seconds": seconds,
                                 "layer_self_ms": tracer.layer_self_ms()})
    return result


def _last_counters(obs: Observed) -> Dict[str, float]:
    if obs.cluster is None:
        return {}
    try:
        return counters(obs.cluster, obs.storages)
    except Exception:  # best effort on an already-failed run
        return dict(obs.after or obs.before)


# -- reduction to metrics ------------------------------------------------------


def _reduce(obs: Observed, tracer: Optional[Tracer],
            probes: Probes) -> Dict[str, Any]:
    workload, schedule, cluster = obs.workload, obs.schedule, obs.cluster
    collector = cluster.collector
    live = workload.runtime == "live"
    to_ms = 1000.0

    due_of_payload = {payload: obs.t0 + due
                      for due, _node, payload in schedule.plan}
    due = {mid: due_of_payload[payload]
           for mid, payload in collector.broadcast_payloads.items()
           if payload in due_of_payload}
    first = collector.first_delivery
    latency = m.latencies(due, first)
    delivered = len(latency)
    attempted = len(schedule.plan)

    delta = {key: obs.after.get(key, 0) - obs.before.get(key, 0)
             for key in obs.after}
    per = (lambda value: m.ratio(value, delivered))
    # First request due -> last first-delivery, on the runtime's clock.
    section_s = max(first.values(), default=0.0) - obs.t0 - workload.start
    rejoin = m.rejoin_times(obs.recoveries, collector.deliveries, first)

    e2e = {
        "setup_s": (setup_seconds(obs.setups, obs.setup_speed.factor), "s"),
        "deliveries_per_s": (m.ratio(delivered, section_s), "1/s"),
        "cpu_ms_per_delivery": (
            per(obs.cpu_s * obs.speed.factor * to_ms), "ms"),
        "deliver_p50_ms": (m.median(latency) * to_ms, "ms"),
        "deliver_p99_ms": (m.percentile(latency, 0.99) * to_ms, "ms"),
        "net_msgs_per_delivery": (per(delta["live.datagrams_sent"] if live
                                      else delta["net.sent"]), "count"),
        "net_bytes_per_delivery": (per(delta["live.wire_bytes_sent"] if live
                                       else delta["net.bytes"]), "bytes"),
        "log_ops_per_delivery": (per(delta["storage.log_ops"]), "count"),
        "log_bytes_per_delivery": (per(delta["storage.bytes_logged"]),
                                   "bytes"),
        "service_gap_max_ms": (m.service_gap_max(
            due.values(), (first[mid] for mid in due if mid in first))
            * to_ms, "ms"),
        "rejoin_p50_ms": (m.median(rejoin) * to_ms, "ms"),
        "failed_frac": (m.ratio(attempted - delivered, attempted), "ratio"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "latency_samples": delivered,
        "samples_beyond_p99": m.samples_beyond(delivered, 0.99),
        "recoveries": len(obs.recoveries),
        "rejoin_samples": len(rejoin),
        "section_s": section_s,
        "section_wall_s": obs.wall_s,
        "host_speed": obs.speed.factor,
        "host_speed_samples": len(obs.speed.shots),
        "cpu_ms_per_delivery_as_timed": per(obs.cpu_s * to_ms),
        "gen_late_max_ms": obs.late_max_s * to_ms,
        "verify_s": obs.verify_s,
        "setup_samples": len(obs.setups),
    }
    result = {"attempted": attempted, "failed": attempted - delivered,
              "metrics": {name: m.as_metric(*pair)
                          for name, pair in e2e.items()},
              "info": info}
    if tracer is not None:
        result["layer"] = _reduce_layers(obs, tracer, probes, delta,
                                         delivered, due)
    return result


def _reduce_layers(obs: Observed, tracer: Tracer, probes: Probes,
                   delta: Dict[str, float], delivered: int,
                   due: Dict[Any, float]) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics of a traced pass (names: bench/README.md).

    Span times are reported at reference speed, like the CPU metrics.
    """
    cluster, schedule = obs.cluster, obs.schedule
    collector = cluster.collector
    first = collector.first_delivery
    to_ms = 1000.0
    speed = obs.speed.factor
    per = (lambda value: m.ratio(value, delivered))
    nodes = cluster.nodes
    abcasts = list(cluster.abcasts.values())
    out: Dict[str, Tuple[float, str]] = {}

    def self_us(layer: str, *names: str) -> float:
        return sum(tracer.self_ms(layer, name) for name in names) \
            * 1000.0 * speed

    # runtime
    events = delta["events"]
    out["runtime.events_per_delivery"] = (per(events), "count")
    out["runtime.dispatch_self_us_per_event"] = (m.ratio(
        self_us("runtime", "dispatch") + tracer.kernel_ns / 1000.0 * speed,
        events),
        "us")
    out["runtime.wire.encode_us_per_frame"] = (m.ratio(
        self_us("runtime", "wire.encode_frame", "wire.encode"),
        delta["live.frames_sent"]), "us")
    out["runtime.wire.decode_us_per_datagram"] = (m.ratio(
        self_us("runtime", "wire.decode_datagram"),
        tracer.count("runtime", "wire.decode_datagram")), "us")
    out["runtime.wire.bytes_per_frame"] = (m.ratio(
        delta["live.wire_bytes_sent"], delta["live.frames_sent"]), "bytes")
    out["runtime.live_net.datagrams_per_delivery"] = (
        per(delta["live.datagrams_sent"]), "count")
    out["runtime.live_net.frames_per_datagram"] = (m.ratio(
        delta["live.frames_sent"], delta["live.datagrams_sent"]), "count")
    out["runtime.live_net.dropped"] = (
        delta["live.oversize_drops"] + delta["live.send_overflows"], "count")

    # transport
    by_type = probes.msgs_by_type
    msgs = m.family_totals(by_type, FAMILIES)
    sizes = m.family_totals(probes.bytes_by_type, FAMILIES)
    for family in FAMILIES:
        out[f"transport.msgs_per_delivery.{family}"] = (
            per(msgs[family]), "count")
        out[f"transport.bytes_per_delivery.{family}"] = (
            per(sizes[family]), "bytes")
    out["transport.send_self_us_per_msg"] = (m.ratio(self_us(
        "transport", "endpoint.send", "endpoint.multisend", "medium.send",
        "medium.multisend", "stubborn.send", "stubborn.multisend"),
        delta["net.sent"]), "us")
    out["transport.lost_frac"] = (
        m.ratio(delta["net.lost"], delta["net.sent"]), "ratio")
    stub = (lambda key: delta.get("stub." + key, 0))
    out["transport.stubborn.retransmit_frac"] = (m.ratio(
        stub("retransmissions"), stub("data_sent")), "ratio")
    out["transport.stubborn.entries_per_batch"] = (m.ratio(
        stub("batched_entries"), stub("batches_sent")), "count")
    out["transport.stubborn.piggyback_frac"] = (m.ratio(
        stub("piggybacked_acks"), stub("acks_sent")), "ratio")
    out["transport.stubborn.backlog_high_water"] = (
        obs.after.get("stub.backlog_high_water", 0), "count")

    # storage
    for prefix in LOG_PREFIXES:
        out[f"storage.log_ops_per_delivery.{prefix}"] = (
            per(delta.get("ops." + prefix, 0)), "count")
    out["storage.retrievals_per_delivery"] = (
        per(delta["storage.retrievals"]), "count")
    out["storage.write_self_us_per_op"] = (m.ratio(self_us(
        "storage", "log", "append", "barrier.enter", "barrier.exit"),
        delta["storage.log_ops"]), "us")
    out["storage.barrier_us_p50"] = (m.median(
        tracer.barrier_ns) / 1000.0 * speed, "us")
    out["storage.fsyncs_per_delivery"] = (per(
        delta.get("file.group_commits", 0)
        + delta.get("file.dir_fsyncs", 0)), "count")
    out["storage.records_per_group_commit"] = (m.ratio(
        delta.get("file.group_commit_records", 0),
        delta.get("file.group_commits", 0)), "count")
    out["storage.reopen_ms_p50"] = (
        m.median(obs.reopen_s) * to_ms * speed, "ms")
    out["storage.resident_bytes_end"] = (sum(
        node.storage.total_bytes_stored() for node in nodes.values()),
        "bytes")

    # fdetect
    out["fdetect.msgs_per_s"] = (m.ratio(
        by_type.get("fd.alive", 0), schedule.duration), "1/s")
    out["fdetect.handler_us_per_msg"] = (m.ratio(
        self_us("fdetect", "handle.fd"),
        tracer.count("fdetect", "handle.fd")), "us")
    out["fdetect.detect_ms_p50"] = (m.median(obs.detect_s) * to_ms, "ms")

    # consensus
    batches = [len(value) for value in collector.decisions.values()]
    instances = len(batches)
    out["consensus.batch_size_p50"] = (m.median(batches), "count")
    out["consensus.instances_per_delivery"] = (per(instances), "count")
    out["consensus.msgs_per_instance"] = (m.ratio(
        msgs["paxos"], instances), "count")
    out["consensus.prepare_frac"] = (m.ratio(
        by_type.get("paxos.prepare", 0), by_type.get("paxos.accept", 0)),
        "ratio")
    out["consensus.ballots_per_decision"] = (m.ratio(
        by_type.get("paxos.prepare", 0), len(nodes) * instances), "count")
    # Due -> first proposed -> decided -> first delivered, for the
    # median request (see metrics.median_request), so the three add up.
    proposed, decided = probes.proposed_at, probes.decided_at
    queue_wait, decide, after_decide = m.median_request(
        {mid: first[mid] - when for mid, when in due.items()
         if mid in first},
        [{mid: proposed[mid] - due[mid] for mid in due if mid in proposed},
         {mid: decided[mid] - proposed[mid] for mid in due
          if mid in decided and mid in proposed},
         {mid: first[mid] - decided[mid] for mid in due
          if mid in first and mid in decided}])
    out["consensus.decide_ms_p50"] = (decide * to_ms, "ms")
    out["consensus.handler_us_per_msg"] = (m.ratio(
        self_us("consensus", "handle.paxos"),
        tracer.count("consensus", "handle.paxos")), "us")
    out["consensus.propose_self_us"] = (m.ratio(
        self_us("consensus", "propose"),
        tracer.count("consensus", "propose")), "us")

    # core
    out["core.queue_wait_ms_p50"] = (queue_wait * to_ms, "ms")
    out["core.deliver_after_decide_ms_p50"] = (after_decide * to_ms, "ms")
    out["core.deliver_spread_ms_p50"] = (m.median(m.delivery_spreads(
        collector.deliveries, first,
        {i: [t for node, t in obs.crashes if node == i] for i in nodes},
        {i: [t for node, t in obs.recoveries if node == i] for i in nodes}))
        * to_ms, "ms")
    out["core.handler_us_per_msg"] = (m.ratio(
        self_us("core", "handle.ab"), tracer.count("core", "handle.ab")),
        "us")
    out["core.submit_self_us"] = (m.ratio(
        self_us("core", "submit"), tracer.count("core", "submit")), "us")
    out["core.unordered_high_water"] = (max(
        ab.unordered_high_water for ab in abcasts), "count")
    recoveries = len(obs.recoveries)
    total = (lambda attr: sum(getattr(ab, attr, 0) for ab in abcasts))
    out["core.replayed_rounds_per_recovery"] = (m.ratio(
        total("replayed_rounds"), recoveries), "count")
    out["core.rounds_skipped_per_recovery"] = (m.ratio(
        total("rounds_skipped"), recoveries), "count")
    out["core.checkpoints"] = (total("checkpoints_taken"), "count")
    out["core.state_transfers"] = (total("state_transfers_adopted"), "count")
    out["core.state_transfer_bytes"] = (
        probes.bytes_by_type.get("ab.state", 0), "bytes")

    # apps
    out["apps.apply_us_per_delivery"] = (
        per(self_us("apps", "on_deliver")), "us")

    # every layer's busy time, and whether the decomposition closes
    layer_ms = tracer.layer_self_ms()
    for layer in LAYERS:
        out[f"{layer}.self_us_per_delivery"] = (
            per(layer_ms.get(layer, 0.0) * 1000.0 * speed), "us")
    out["bench.self_us_per_delivery"] = (
        per(layer_ms.get("bench", 0.0) * 1000.0 * speed), "us")
    out["bench.cpu_closure_frac"] = (m.ratio(
        sum(layer_ms.values()), obs.cpu_s * to_ms), "ratio")
    out["bench.gen_late_max_ms"] = (obs.late_max_s * to_ms, "ms")
    out["bench.verify_s"] = (obs.verify_s, "s")
    out["bench.host_speed"] = (speed, "ratio")
    return {name: m.as_metric(*pair) for name, pair in out.items()}
