"""Shared machinery for the experiment benchmarks.

Every ``bench_e*.py`` regenerates one claim of the paper (see the
experiment index in DESIGN.md).  The simulation itself runs under
``benchmark.pedantic`` so pytest-benchmark reports wall-clock cost, and
the *scientific* output — the table whose shape reproduces the claim —
is printed through :func:`emit`, which bypasses pytest's capture so it
always appears in ``bench_output.txt``.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from repro.harness.report import format_table

__all__ = ["emit", "emit_table", "run_verified", "catch_up_probe"]


# Experiment tables accumulate here; the pytest_terminal_summary hook in
# benchmarks/conftest.py flushes them past pytest's output capture at the
# end of the run, so `pytest benchmarks/ --benchmark-only | tee ...`
# always records them.
EMITTED: List[str] = []


def emit(text: str) -> None:
    """Queue experiment output for the end-of-run summary (and echo it
    immediately when capture is off)."""
    EMITTED.append(text)
    print(text)


def emit_table(title: str, headers: Sequence[str],
               rows: Iterable[Sequence[Any]],
               note: Optional[str] = None) -> None:
    """Render and emit one experiment table."""
    emit(format_table(title, headers, rows, note))


def run_verified(scenario):
    """Run a scenario and insist it verifies (experiments never report
    numbers from an incorrect execution)."""
    from repro.harness.scenario import run_scenario
    result = run_scenario(scenario)
    assert result.report is not None
    return result


def catch_up_probe(cluster, node_id: int, target_rounds: int,
                   limit: float, step: float = 0.25) -> float:
    """Advance the simulation until ``node_id`` reaches ``target_rounds``
    and return the virtual time it took from now; ``float('inf')`` if the
    limit passes first."""
    start = cluster.sim.now
    while cluster.sim.now < start + limit:
        if cluster.abcasts[node_id].k >= target_rounds:
            return cluster.sim.now - start
        cluster.run(until=cluster.sim.now + step)
    return float("inf")
