"""Broadcast workload generators.

A workload schedules ``A-broadcast`` submissions against a cluster.  All
generators are seeded and therefore deterministic; submissions aimed at a
node that happens to be down are silently skipped (a down process cannot
invoke ``A-broadcast``), which the paper's model permits.

When the cluster runs with admission control
(:class:`~repro.flow.controller.FlowConfig`), a submission can be
rejected with :class:`~repro.errors.OverloadError`.  Every generator
then applies *backpressure*: the rejected broadcast is retried after a
seeded, jittered exponential backoff
(:class:`~repro.flow.controller.BackoffPolicy`) until it is accepted or
the retry budget runs out.  The backoff stream is created lazily and
drawn from only on rejection, so workloads against unthrottled clusters
(the default) consume exactly the randomness they always did.

* :class:`PoissonWorkload` — independent Poisson arrivals per node
  (open-loop offered load).
* :class:`BurstyWorkload` — on/off (burst/silence) arrival pattern.
* :class:`SkewedWorkload` — Zipf-like weights: a few hot senders.
* :class:`ClosedLoopWorkload` — each node keeps a fixed window of
  outstanding blocking broadcasts (measures sustainable throughput).
* :class:`ScheduledWorkload` — an explicit (time, node, payload) list.
"""

from __future__ import annotations

import random  # seeded per-workload random.Random instances only
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import OverloadError
from repro.flow.controller import BackoffPolicy

__all__ = [
    "PoissonWorkload",
    "BurstyWorkload",
    "SkewedWorkload",
    "ClosedLoopWorkload",
    "ScheduledWorkload",
]


def _default_payload(node_id: int, index: int) -> Any:
    return ("msg", node_id, index)


class _SubmissionWorkload:
    """Shared machinery: pre-draw (time, node) pairs, install as timers.

    Overload handling: a submission the node's flow controller rejects
    is rescheduled after a jittered exponential backoff, and the
    ``offered`` / ``rejected_attempts`` / ``retries`` / ``gave_up``
    counters record the whole exchange.  ``pending_retries`` counts
    broadcasts still in a backoff chain — a harness can drain them
    before verifying exact admission accounting.
    """

    def __init__(self, payload_fn: Optional[Callable[[int, int], Any]] = None,
                 backoff: Optional[BackoffPolicy] = None, seed: int = 0):
        self.payload_fn = payload_fn or _default_payload
        self.backoff = backoff or BackoffPolicy()
        self.seed = seed
        self.submitted = 0
        self.offered = 0            # admission attempts, retries included
        self.rejected_attempts = 0
        self.retries = 0
        self.gave_up = 0
        self.pending_retries = 0
        # Lazy: only a throttled cluster ever draws from this stream, so
        # unthrottled runs keep their historical randomness untouched.
        self._backoff_rng: Optional[random.Random] = None

    def arrivals(self, cluster) -> List[Tuple[float, int]]:
        """Return the (time, node_id) submission plan."""
        raise NotImplementedError

    def install(self, cluster) -> int:
        """Schedule every submission on the cluster; returns the count."""
        plan = sorted(self.arrivals(cluster))
        counters = {node_id: 0 for node_id in cluster.node_ids()}
        for when, node_id in plan:
            counters[node_id] += 1
            payload = self.payload_fn(node_id, counters[node_id])
            cluster.runtime.schedule(when, self._submit, cluster, node_id,
                                     payload)
        return len(plan)

    def _backoff_stream(self) -> random.Random:
        if self._backoff_rng is None:
            self._backoff_rng = random.Random(f"flow-backoff:{self.seed}")
        return self._backoff_rng

    def _submit(self, cluster, node_id: int, payload: Any,
                attempt: int = 0) -> None:
        if not cluster.nodes[node_id].up:
            if attempt:
                self.pending_retries -= 1
            return  # a down process cannot invoke A-broadcast
        self.offered += 1
        try:
            cluster.submit(node_id, payload)
        except OverloadError:
            self.rejected_attempts += 1
            delay = self.backoff.delay(attempt, self._backoff_stream())
            if delay is None:
                self.gave_up += 1
                if attempt:
                    self.pending_retries -= 1
                return
            self.retries += 1
            if not attempt:
                self.pending_retries += 1
            cluster.runtime.schedule(delay, self._submit, cluster, node_id,
                                     payload, attempt + 1)
            return
        if attempt:
            self.pending_retries -= 1
        self.submitted += 1


class PoissonWorkload(_SubmissionWorkload):
    """Independent Poisson arrivals at every node."""

    def __init__(self, rate_per_node: float, duration: float,
                 start: float = 0.5, seed: int = 0,
                 payload_fn: Optional[Callable[[int, int], Any]] = None):
        super().__init__(payload_fn, seed=seed)
        self.rate_per_node = rate_per_node
        self.duration = duration
        self.start = start

    def arrivals(self, cluster) -> List[Tuple[float, int]]:
        rng = random.Random(self.seed)
        plan: List[Tuple[float, int]] = []
        for node_id in cluster.node_ids():
            t = self.start
            while True:
                t += rng.expovariate(self.rate_per_node)
                if t >= self.start + self.duration:
                    break
                plan.append((t, node_id))
        return plan


class BurstyWorkload(_SubmissionWorkload):
    """On/off arrivals: bursts of back-to-back messages, then silence."""

    def __init__(self, burst_size: int, burst_spacing: float,
                 bursts: int, intra_gap: float = 0.01,
                 start: float = 0.5, seed: int = 0,
                 payload_fn: Optional[Callable[[int, int], Any]] = None):
        super().__init__(payload_fn, seed=seed)
        self.burst_size = burst_size
        self.burst_spacing = burst_spacing
        self.bursts = bursts
        self.intra_gap = intra_gap
        self.start = start

    def arrivals(self, cluster) -> List[Tuple[float, int]]:
        rng = random.Random(self.seed)
        node_ids = cluster.node_ids()
        plan: List[Tuple[float, int]] = []
        t = self.start
        for _ in range(self.bursts):
            sender = rng.choice(node_ids)
            for i in range(self.burst_size):
                plan.append((t + i * self.intra_gap, sender))
            t += self.burst_spacing
        return plan


class SkewedWorkload(_SubmissionWorkload):
    """Zipf-weighted senders: node ``i`` sends with weight ``1/(i+1)^s``."""

    def __init__(self, total_messages: int, duration: float,
                 skew: float = 1.0, start: float = 0.5, seed: int = 0,
                 payload_fn: Optional[Callable[[int, int], Any]] = None):
        super().__init__(payload_fn, seed=seed)
        self.total_messages = total_messages
        self.duration = duration
        self.skew = skew
        self.start = start

    def arrivals(self, cluster) -> List[Tuple[float, int]]:
        rng = random.Random(self.seed)
        node_ids = cluster.node_ids()
        weights = [1.0 / (i + 1) ** self.skew for i in range(len(node_ids))]
        plan: List[Tuple[float, int]] = []
        for _ in range(self.total_messages):
            when = self.start + rng.random() * self.duration
            sender = rng.choices(node_ids, weights=weights)[0]
            plan.append((when, sender))
        return plan


class ScheduledWorkload(_SubmissionWorkload):
    """Explicit submission plan: ``[(time, node_id, payload), ...]``.

    The plan is explicit, so ``seed`` seeds only the backoff stream.
    Only the next submission is ever pending: each one schedules its
    successor, so a long plan costs one timer, not one per entry.
    """

    def __init__(self, plan: Sequence[Tuple[float, int, Any]],
                 seed: int = 0):
        super().__init__(seed=seed)
        self.plan = list(plan)

    def arrivals(self, cluster) -> List[Tuple[float, int]]:  # pragma: no cover
        raise NotImplementedError("ScheduledWorkload installs directly")

    def install(self, cluster) -> int:
        """Schedule the first submission (time order, ties in plan
        order); returns the plan's length."""
        plan = sorted(self.plan, key=lambda entry: entry[0])
        if plan:
            runtime = cluster.runtime
            start = runtime.now
            runtime.schedule(plan[0][0], self._submit_due, cluster, plan, 0,
                             start)
        return len(plan)

    def _submit_due(self, cluster, plan: List[Tuple[float, int, Any]],
                    index: int, start: float) -> None:
        """Submit every entry due now, from ``index``; schedule the next.

        The step to the next entry is the difference of the two due
        times, so ``now + step`` is the due time itself; a live clock
        running late steps by zero."""
        runtime = cluster.runtime
        when = plan[index][0]
        end = index
        while end < len(plan) and plan[end][0] == when:
            end += 1
        if end < len(plan):
            step = (start + plan[end][0]) - runtime.now
            runtime.schedule(max(0.0, step), self._submit_due, cluster, plan,
                             end, start)
        for _, node_id, payload in plan[index:end]:
            self._submit(cluster, node_id, payload)


class ClosedLoopWorkload:
    """Fixed number of outstanding blocking broadcasts per node.

    Each node runs ``window`` client tasks; every task issues a blocking
    ``A-broadcast`` and immediately issues the next one when it returns.
    This measures *sustainable* ordered throughput, the metric batching
    (Section 5.4) is supposed to improve.  Client tasks die with the node
    on a crash and are restarted on recovery by re-installation (closed
    loops are used in failure-free benches).
    """

    def __init__(self, window: int = 4, start: float = 0.5,
                 messages_per_client: Optional[int] = None,
                 payload_fn: Optional[Callable[[int, int], Any]] = None,
                 backoff: Optional[BackoffPolicy] = None):
        self.window = window
        self.start = start
        self.messages_per_client = messages_per_client
        self.payload_fn = payload_fn or _default_payload
        self.backoff = backoff or BackoffPolicy()
        self.submitted = 0
        self.rejected_attempts = 0
        self.gave_up = 0
        self._backoff_rng: Optional[random.Random] = None

    def install(self, cluster) -> int:
        for node_id in cluster.node_ids():
            for client in range(self.window):
                cluster.runtime.schedule(self.start, self._start_client,
                                         cluster, node_id, client)
        return 0

    def _start_client(self, cluster, node_id: int, client: int) -> None:
        node = cluster.nodes[node_id]
        if not node.up:
            return
        node.spawn(self._client_loop(cluster, node_id, client),
                   f"client-{client}")

    def _client_loop(self, cluster, node_id: int, client: int):
        rsm = cluster.rsms[node_id]
        index = 0
        while (self.messages_per_client is None
               or index < self.messages_per_client):
            index += 1
            payload = self.payload_fn(node_id, client * 1_000_000 + index)
            # A closed-loop client is the textbook backpressure citizen:
            # on rejection it sleeps out the backoff and re-offers the
            # same command instead of issuing the next one.
            attempt = 0
            while True:
                try:
                    yield from rsm.broadcast(payload)
                except OverloadError:
                    self.rejected_attempts += 1
                    if self._backoff_rng is None:
                        self._backoff_rng = random.Random(
                            f"flow-backoff:closed:{node_id}:{client}")
                    delay = self.backoff.delay(attempt, self._backoff_rng)
                    if delay is None:
                        self.gave_up += 1
                        break
                    attempt += 1
                    yield delay
                    continue
                self.submitted += 1
                break
