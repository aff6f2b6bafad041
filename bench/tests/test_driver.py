"""The driver end to end, at --smoke size."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "bench", "run.py")]
SIM = "sim-n1-floor,sim-n3-steady,sim-n25-fanout,sim-n5-crash-recovery"
# Virtual-time latencies and per-delivery counts: a pure function of
# (seed, seconds) on the simulator.
DETERMINISTIC = ("deliveries_per_s", "deliver_p50_ms", "deliver_p99_ms",
                 "net_msgs_per_delivery",
                 "net_bytes_per_delivery", "log_ops_per_delivery",
                 "log_bytes_per_delivery", "service_gap_max_ms",
                 "rejoin_p50_ms")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def start(*args):
    return subprocess.Popen(RUN + list(args), cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def finish(process, timeout=120):
    out, err = process.communicate(timeout=timeout)
    return process.returncode, out, err


def results(output):
    """workload -> result line, from a (possibly multi-workload) run.

    Each result also gets ``printed``: every metric the report printed
    by name, result-line metrics or not.
    """
    found = {}
    name, printed = None, {}
    for line in output.splitlines():
        match = METRIC_LINE.match(line)
        if line.startswith("workload "):
            name, printed = line.split()[1], {}
        elif match:
            printed[match.group(1)] = float(match.group(2))
        elif line.startswith('{"correct"'):
            found[name] = dict(json.loads(line), printed=printed)
    return found


def test_sim_metrics_repeat_exactly_per_seed_and_differ_across_seeds():
    runs = [start("--workloads", SIM, "--smoke", "--seed", seed)
            for seed in ("3", "3", "4")]
    first, again, other = (results(finish(run)[1]) for run in runs)
    assert sorted(first) == sorted(SIM.split(","))
    for name in first:
        for metric in DETERMINISTIC:
            assert again[name]["printed"][metric] \
                == first[name]["printed"][metric], (name, metric)
        assert first[name]["correct"] and first[name]["failed"] == 0
        assert any(first[name]["printed"][metric]
                   != other[name]["printed"][metric]
                   for metric in DETERMINISTIC), name
        assert first[name]["attempted"] == other[name]["attempted"]


def test_live_workloads_smoke_and_report_lateness():
    code, out, err = finish(start(
        "--workloads", "live-n3-loaded,live-n3-kill-restart", "--smoke"))
    assert code == 0, out + err
    found = results(out)
    assert sorted(found) == ["live-n3-kill-restart", "live-n3-loaded"]
    for line in found.values():
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
    late = [float(l.split()[1]) for l in out.splitlines()
            if l.strip().startswith("gen_late_max_ms")]
    assert len(late) == 2 and all(0.0 < value < 250.0 for value in late)
    assert "failed_frac 0" in out


def test_every_benchmark_json_name_is_printed_and_vice_versa():
    code, out, err = finish(start(
        "--workload", "sim-n5-crash-recovery", "--smoke", "--trace", "1"))
    assert code == 0, out + err
    document = spec()
    declared = {entry["name"]: entry["unit"]
                for section in ("end_to_end", "per_layer")
                for entry in document[section]}
    printed = {}
    for line in out.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(3)
    assert printed == declared
    assert all(NAME.match(name) for name in declared)
    assert all(NAME.match(w["name"]) for w in document["workloads"])
    # --trace 1 ends with exactly the per-layer metrics …
    last = json.loads(out.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(last["metrics"]) == sorted(
        e["name"] for e in document["per_layer"])
    assert os.path.exists(os.path.join(
        ROOT, "bench", "out", "trace-sim-n5-crash-recovery.json"))


def test_untraced_result_line_carries_exactly_the_end_to_end_metrics():
    code, out, err = finish(start(
        "--workload", "sim-n3-steady", "--smoke", "--trace", "0"))
    assert code == 0, out + err
    document = spec()
    last = json.loads(out.strip().splitlines()[-1])
    assert sorted(last["metrics"]) == sorted(
        e["name"] for e in document["end_to_end"])
    for entry in document["end_to_end"]:
        metric = last["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] != 0
        assert 0 < entry["bound"] <= 0.25
    assert "setup_s" in last["metrics"]


def test_benchmark_json_workloads_match_the_driver():
    from bench.workloads import WORKLOADS
    document = spec()
    assert [(w["name"], w["why"]) for w in document["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS]
    assert document["paths"] == ["bench"]
    assert document["command"] == ["python3", "bench/run.py"]


def test_a_failing_child_scores_one_and_the_rest_still_run(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("x")
    code, out, err = finish(start(
        "--workloads", "live-n3-loaded,sim-n1-floor", "--smoke",
        "--storage-dir", str(blocker)))
    assert code != 0
    assert "live-n3-loaded           failed_frac 1" in out
    assert "sim-n1-floor             failed_frac 1" in out   # same bad dir
    code, out, err = finish(start("--workloads", "nope"))
    assert code != 0


def test_a_run_that_fails_verification_is_reported_not_raised(monkeypatch):
    from repro.errors import VerificationError
    from bench import measure, workloads

    def broken(cluster):
        raise VerificationError("total order violated (injected)")

    monkeypatch.setattr(measure, "verify_run", broken)
    result = measure.run_pass(workloads.by_name("sim-n1-floor"), 1, 0.2, "")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["error"].startswith("VerificationError")
    assert result["info"]["last_counters"]["delivered"] > 0


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    import shutil
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    process = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-n1-floor",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=60)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
