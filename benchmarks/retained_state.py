"""What a settled run keeps alive: only what is in flight, whatever its length.

Two simulated workloads of ``bench/workloads.py`` (``sim-n3-steady`` and
``sim-n25-fanout``) run here at two lengths, ``--seconds`` and twice
that, each in a child process of its own (built as ``deliver_lag.py``
builds it; nothing under ``bench/`` is written).  Once a run has
settled, a full collection runs, and the script prints per node:

* the live ``Task``, ``_AnyOfWaiter``, ``Signal``, ``Event`` and
  ``_Attempt`` objects (``gc.get_objects``, divided by n);
* the protocol's in-flight state, averaged over the nodes:
  ``attempts``, ``members`` and ``signals`` — the consensus box's
  attempts, pinned member sets and decision signals — and ``omega_w``,
  the waiters parked on Ω's ``changed`` signal;
* and ``peak_rss_mb``, the child's peak resident set, read before the
  objects are counted.

``--check`` fails if a protocol count is higher in the longer run than
in the shorter one: a settled run keeps a bounded number of instances in
flight, so none of them may grow with run length.  Usage::

    python3 benchmarks/retained_state.py --seconds 15 --seed 11
    python3 benchmarks/retained_state.py --seconds 2 --check
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from deliver_lag import SETTLE_S, build  # noqa: E402

SHAPES = ("sim-n3-steady", "sim-n25-fanout")
OBJECTS = ("Task", "_AnyOfWaiter", "Signal", "Event", "_Attempt")
PROTOCOL = ("attempts", "members", "signals", "omega_w")


def _waiters(signal) -> int:
    """Tasks parked on ``signal``'s next notification."""
    event = signal._event
    return 0 if event is None or event.fired else len(event._waiters)


def measure(name: str, seed: int, seconds: float) -> dict:
    """One settled run's per-node counts and its peak RSS."""
    workload, schedule, cluster = build(name, seed, seconds)
    cluster.run(until=schedule.end)
    if not cluster.settle(within=SETTLE_S):
        raise SystemExit(f"{name} did not settle")
    row = {"peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    n = len(cluster.nodes)
    boxes = list(cluster.consensuses.values())
    row["attempts"] = sum(len(box._attempts) for box in boxes) / n
    row["members"] = sum(len(box._instance_members) for box in boxes) / n
    row["signals"] = sum(len(box._decided_signal) for box in boxes) / n
    row["omega_w"] = sum(_waiters(box.omega.changed) for box in boxes) / n
    gc.collect()
    live = Counter(type(thing).__name__ for thing in gc.get_objects())
    for kind in OBJECTS:
        row[kind] = live[kind] / n
    return row


def child(name: str, seed: int, seconds: float) -> dict:
    """:func:`measure` in a fresh interpreter, so each RSS is its own."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", name,
         "--seed", str(seed), "--seconds", repr(seconds)],
        stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--check", action="store_true",
                        help="fail if a protocol count grows with run "
                             "length")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(measure(args.child, args.seed, args.seconds)))
        return
    columns = OBJECTS + PROTOCOL
    print(f"seed {args.seed}; per node, after settling")
    print(f"{'workload':<16}{'s':>4}"
          + "".join(f"{column:>13}" for column in columns)
          + f"{'peak_rss_mb':>13}")
    grown = []
    for name in SHAPES:
        rows = []
        for seconds in (args.seconds, 2 * args.seconds):
            row = child(name, args.seed, seconds)
            rows.append(row)
            print(f"{name:<16}{seconds:>4g}"
                  + "".join(f"{row[column]:>13.1f}" for column in columns)
                  + f"{row['peak_rss_mb']:>13.1f}")
        short, long = rows
        grown += [(name, column, short[column], long[column])
                  for column in PROTOCOL if long[column] > short[column]]
    if args.check and grown:
        for name, column, before, after in grown:
            print(f"  {name}: {column} {before:g} -> {after:g} per node")
        sys.exit(f"retained_state: {len(grown)} protocol counts grow with "
                 f"run length")


if __name__ == "__main__":
    main()
