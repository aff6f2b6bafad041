#!/usr/bin/env python3
"""The benchmark driver.

    python3 bench/run.py --workload sim-n3-steady --seed 3 --seconds 15 --trace 0
    python3 bench/run.py [--seed N] [--workloads a,b] [--trace] [--smoke]

With ``--workload`` it runs that one workload in this process and ends
its output with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of the untraced pass, or with
``--trace 1`` the per-layer metrics (the untraced pass still runs first;
the traced pass never contributes an end-to-end number).  Without it,
each selected workload runs in a fresh child process, one after
another.  Exit status is non-zero when any request failed.  Names,
definitions and bounds: bench/README.md and BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SMOKE_SECONDS = 2.0
DEFAULT_SEED = 11
FSYNC_PROBES = 200
STORAGE_FREE_BYTES = 256 << 20     # a live run keeps < 60 MB of logs

FIXED = ("fixed for every workload: payload = unique 128-byte ASCII string; "
         "gossip_interval=0.25 fd_period=0.5 fd_timeout=2.0 "
         "attempt_timeout=1.0; sim link delay uniform 10-100 ms virtual; "
         "live = loopback UDP, no injected delay or loss, stubborn channel "
         "and group-commit FileStorage at their live defaults")


def _load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _filesystem_of(path: str) -> str:
    """Type of the filesystem holding ``path`` (from /proc/mounts)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _dev, mount, fstype = line.split()[:3]
                if len(mount) > len(best) and \
                        (path + "/").startswith(mount.rstrip("/") + "/"):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _storage_root(requested: Optional[str]) -> Tuple[str, bool]:
    """Directory for live nodes' files, and whether we created it.

    tmpfs by default: on this box's disk an fsync storm stalls the
    generator for seconds and the run measures the disk, not the
    program.  Without /dev/shm the files go under bench/out (a warning
    says so, and bench.fsync_probe_us shows it in the numbers).
    """
    if requested is not None:
        os.makedirs(requested, exist_ok=True)
        return requested, False
    try:
        if shutil.disk_usage("/dev/shm").free >= STORAGE_FREE_BYTES:
            return tempfile.mkdtemp(prefix="abcast-bench-",
                                    dir="/dev/shm"), True
    except OSError:
        pass
    print("warning: /dev/shm is not usable; live storage goes to "
          f"{OUT_DIR} (disk-backed: fsync cost will dominate)",
          file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="storage-", dir=OUT_DIR), True


def _fsync_probe_us(directory: str) -> float:
    """Median cost of one small write+fsync in the storage directory."""
    from bench.metrics import median
    path = os.path.join(directory, "fsync-probe")
    costs = []
    with open(path, "wb") as handle:
        for _ in range(FSYNC_PROBES):
            handle.write(b"x" * 256)
            handle.flush()
            started = time.perf_counter()
            os.fsync(handle.fileno())
            costs.append(time.perf_counter() - started)
    os.unlink(path)
    return median(costs) * 1e6


def run_one(name: str, seed: int, seconds: float, trace: bool,
            storage_dir: Optional[str]) -> int:
    """Run one workload here; print the report and the result line."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from bench import workloads
    from bench.measure import run_pass
    from bench.metrics import as_metric, ratio, supports
    from bench.trace import Tracer

    spec = _load_spec()
    workload = workloads.by_name(name)
    root, created = _storage_root(storage_dir)
    os.makedirs(OUT_DIR, exist_ok=True)
    traced = None
    try:
        fsync_us = _fsync_probe_us(root)
        storage_fs = _filesystem_of(root)
        result = run_pass(workload, seed, seconds, root)
        if trace and result["error"] is None:
            traced = run_pass(
                workload, seed, seconds, root, tracer=Tracer(),
                trace_path=os.path.join(OUT_DIR, f"trace-{name}.json"))
    finally:
        if created:
            shutil.rmtree(root, ignore_errors=True)
    metrics = dict(result["metrics"])
    error = result["error"]
    info = dict(result["info"], **{"bench.storage_fs": storage_fs,
                                   "bench.fsync_probe_us": fsync_us})
    if traced is not None and traced["error"] is not None:
        error = "traced pass: " + traced["error"]
    elif traced is not None:
        metrics.update(traced["layer"])
        metrics["bench.trace_overhead_frac"] = as_metric(ratio(
            traced["metrics"]["cpu_ms_per_delivery"]["value"],
            metrics["cpu_ms_per_delivery"]["value"]) - 1.0, "ratio")
        metrics["bench.fsync_probe_us"] = as_metric(fsync_us, "us")
    if error is not None:      # a run that fails, fails every request
        metrics["failed_frac"] = as_metric(1.0, "ratio")

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  "
          f"({workload.runtime}, {workload.protocol}, n={workload.n}, "
          f"{workload.rate:g} msg/s open loop, "
          f"{workload.duration(seconds):g} s of requests)")
    print(FIXED)
    print(f"storage directory on {storage_fs}, "
          f"fsync probe p50 {fsync_us:.1f} us")
    for key, value in info.items():
        if key != "last_counters" and not key.startswith("bench."):
            print(f"  {key:<44} {value!r}")
    for key, metric in metrics.items():
        print(f"  {key:<44} {metric['value']!r} {metric['unit']}")
    if error is None and not supports(info["latency_samples"], 0.99):
        print("  note: fewer than 10 samples beyond p99 at this size; "
              "deliver_p99_ms is indicative only")
    if error is not None:
        print(f"FAILED {name}: {error}")
        print(f"  last counters: {info.get('last_counters')}")

    wanted = spec["per_layer" if trace else "end_to_end"]
    selected = {entry["name"]: metrics[entry["name"]] for entry in wanted
                if entry["name"] in metrics}
    if error is None and len(selected) != len(wanted):
        missing = [e["name"] for e in wanted if e["name"] not in metrics]
        error = f"metrics named in BENCHMARK.json were not produced: {missing}"
        print(f"FAILED {name}: {error}")
    line = {"correct": error is None and result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["attempted"] if error else result["failed"],
            "metrics": selected}
    with open(os.path.join(OUT_DIR, f"{name}.json"), "w") as handle:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "error": error, "info": info, "metrics": metrics,
                   **{k: line[k] for k in ("correct", "attempted", "failed")}},
                  handle, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_many(names: List[str], args: argparse.Namespace) -> int:
    """Each workload in a fresh child: clean RSS and GC state per run."""
    status = 0
    summary: Dict[str, Any] = {}
    for name in names:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(int(args.trace))]
        if args.storage_dir:
            command += ["--storage-dir", args.storage_dir]
        try:
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, timeout=600)
            output, code = child.stdout, child.returncode
        except subprocess.TimeoutExpired as exc:
            output, code = (exc.stdout or ""), -1
            if isinstance(output, bytes):
                output = output.decode(errors="replace")
        print(output, end="" if output.endswith("\n") else "\n")
        try:
            line = json.loads(output.strip().splitlines()[-1])
        except (IndexError, ValueError):
            line = {"correct": False, "attempted": 0, "failed": 0,
                    "metrics": {}}
            print(f"FAILED {name}: child exited with status {code} "
                  f"and no result; failed_frac = 1.0")
        failed_frac = 1.0 if not line["correct"] and not line["metrics"] \
            else line["failed"] / max(1, line["attempted"])
        summary[name] = {"exit": code, "failed_frac": failed_frac, **line}
        if code != 0 or failed_frac > 0:
            status = 1
        print()
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "report.json"), "w") as handle:
        json.dump(summary, handle, indent=1)
    for name, entry in summary.items():
        print(f"{name:<24} failed_frac {entry['failed_frac']:g}  "
              f"{'ok' if entry['correct'] else 'FAILED'}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload here")
    parser.add_argument("--workloads", help="comma-separated names; "
                        "default: all six, each in a child process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run size (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help=f"shrink every workload to {SMOKE_SECONDS:g} s")
    parser.add_argument("--storage-dir", default=None,
                        help="where live nodes keep their files "
                        "(default: a temp dir on /dev/shm)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke \
            else float(_load_spec()["run_seconds"])
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.storage_dir)
    sys.path.insert(0, ROOT)
    from bench.workloads import WORKLOADS, by_name
    names = [w.name for w in WORKLOADS]
    if args.workloads:
        names = [by_name(n).name for n in args.workloads.split(",")]
    return run_many(names, args)


if __name__ == "__main__":
    sys.exit(main())
