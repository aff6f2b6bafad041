"""Metric definitions as pure functions over observed times.

Everything here takes plain lists/dicts (the shapes a
``MetricsCollector`` already holds), so the definitions can be checked
on hand-built data without running a cluster.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (need not be sorted)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond percentile ``q``."""
    return count - max(1, math.ceil(q * count)) if count else 0


def supports(count: int, q: float) -> bool:
    """The percentile rule: ``q`` is reportable from ``count`` samples."""
    return samples_beyond(count, q) >= MIN_BEYOND


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5)


def latencies(due: Dict[Hashable, float],
              first_delivery: Dict[Hashable, float]) -> List[float]:
    """Due time -> first A-delivery anywhere, per delivered request."""
    return [first_delivery[mid] - when for mid, when in due.items()
            if mid in first_delivery]


def service_gap_max(due_times: Iterable[float],
                    delivery_times: Iterable[float]) -> float:
    """Longest time without a first-delivery while a request was waiting.

    The clock of a gap starts at the previous first-delivery — or, if
    nothing was waiting then, when the next request falls due — and
    stops at the next first-delivery.  Silence with nobody waiting
    (sparse arrivals, the tail after the last request) is not an
    outage; a request that is never delivered is ``failed``, not a gap.
    """
    timeline = sorted([(when, 0) for when in due_times]
                      + [(when, 1) for when in delivery_times])
    longest = 0.0
    waiting = 0
    since = 0.0
    for when, is_delivery in timeline:
        if not is_delivery:
            if waiting == 0:
                since = when
            waiting += 1
        elif waiting:
            longest = max(longest, when - since)
            waiting -= 1
            since = when
    return longest


def rejoin_times(recoveries: Sequence[Tuple[int, float]],
                 deliveries: Sequence[Tuple[int, int, Hashable, float]],
                 first_delivery: Dict[Hashable, float]) -> List[float]:
    """Per recovery: call -> that node delivering something *new*.

    ``recoveries`` holds ``(node, time of recover()/restart())``;
    ``deliveries`` is ``MetricsCollector.deliveries``.  "New" means the
    message's cluster-wide first delivery came after the call: replayed
    history does not count, and a state-transferred node (which never
    re-delivers the history it skipped) is still timed by the first
    message it delivers in step with the others.  A recovery that never
    delivers anything new contributes no sample.
    """
    times: List[float] = []
    for node, called in recoveries:
        for at_node, _stream, mid, when in deliveries:
            if at_node == node and when >= called \
                    and first_delivery.get(mid, -1.0) > called:
                times.append(when - called)
                break
    return times


def up_at(node_crashes: Sequence[float], node_recoveries: Sequence[float],
          when: float) -> bool:
    """Was a node (started at 0) up at ``when``, given its history?"""
    last_crash = max((t for t in node_crashes if t <= when), default=None)
    if last_crash is None:
        return True
    return any(last_crash <= t <= when for t in node_recoveries)


def delivery_spreads(deliveries: Sequence[Tuple[int, int, Hashable, float]],
                     first_delivery: Dict[Hashable, float],
                     crashes: Dict[int, Sequence[float]],
                     recoveries: Dict[int, Sequence[float]]) -> List[float]:
    """First -> last A-deliver of each message among nodes up at the first.

    A node that was down when the message was first delivered catches up
    on recovery, minutes later; that is rejoin time, not spread.
    """
    last: Dict[Hashable, float] = {}
    seen = set()
    for node, _stream, mid, when in deliveries:
        if (node, mid) in seen:
            continue  # replayed history after a recovery
        seen.add((node, mid))
        first = first_delivery[mid]
        if up_at(crashes.get(node, ()), recoveries.get(node, ()), first):
            last[mid] = max(last.get(mid, first), when)
    return [last[mid] - first_delivery[mid] for mid in last]


def median_request(total: Dict[Hashable, float],
                   parts: Sequence[Dict[Hashable, float]]) -> List[float]:
    """Where the *median request's* latency went, part by part.

    Medians of parts do not add up to the median of their sum, so the
    parts are averaged over the requests whose total lies between the
    45th and 55th percentile: they then sum to (that band's mean of)
    the total, which is the median latency to well within a percent.
    Returns one value per entry of ``parts``; requests missing from any
    part are left out.
    """
    complete = sorted((value, key) for key, value in total.items()
                      if all(key in part for part in parts))
    if not complete:
        return [0.0 for _ in parts]
    low = int(len(complete) * 0.45)
    band = complete[low:max(low + 1, int(len(complete) * 0.55))]
    return [sum(part[key] for _, key in band) / len(band) for part in parts]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def family_totals(by_type: Dict[str, float],
                  families: Sequence[str]) -> Dict[str, float]:
    """Sum per-message-type counters by the prefix before the dot."""
    totals = {family: 0.0 for family in families}
    for tag, value in by_type.items():
        family = tag.split(".", 1)[0]
        if family in totals:
            totals[family] += value
    return totals


def as_metric(value: Any, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}
