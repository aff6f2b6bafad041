"""The ``repro lint`` entry point (also ``python -m repro.analysis``).

Exit status contract (relied on by CI and the self-check test):

* ``0`` — analyzed cleanly, no violations;
* ``1`` — violations found (each printed as ``path:line:col: RULE ...``);
* ``2`` — the analyzer itself could not run (bad path, unparseable file),
  reported as a clean one-line message, never a traceback.

A reader that closes the pipe early (``repro lint --list-rules | head
-1``) is not a failure either: the command exits quietly with the status
the report earned.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.engine import analyze_paths
from repro.analysis.registry import default_registry
from repro.analysis.reporters import (format_json, format_rule_listing,
                                      format_sarif, format_text)
from repro.errors import AnalysisError

__all__ = ["add_lint_arguments", "execute_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``lint`` arguments on ``parser``."""
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyze "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text", dest="output_format",
                        help="report format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--emit-msgflow", metavar="FILE", default=None,
                        dest="emit_msgflow",
                        help="write the sender→type→handler message-flow "
                             "graph to FILE (.dot → Graphviz, anything "
                             "else → JSON) in addition to the report")


def _print(text: str) -> None:
    """Write ``text`` to stdout; a reader that went away is not an error."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at /dev/null so the
        # interpreter's exit-time flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def execute_lint(paths: List[str], output_format: str = "text",
                 list_rules: bool = False,
                 emit_msgflow_path: Optional[str] = None) -> int:
    """Run the analyzer; print a report; return the process exit status."""
    registry = default_registry()
    if list_rules:
        _print(format_rule_listing(registry.rules()))
        return 0
    report = analyze_paths(paths)
    lines = []
    if emit_msgflow_path is not None:
        from repro.analysis.msgflow import write_msgflow
        graph = write_msgflow(paths, emit_msgflow_path)
        lines.append(f"msgflow: {graph.summary()} -> {emit_msgflow_path}")
    if output_format == "json":
        lines.append(format_json(report))
    elif output_format == "sarif":
        lines.append(format_sarif(report, registry.rules()))
    else:
        lines.append(format_text(report))
    _print("\n".join(lines))
    return 1 if report.findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone CLI (``python -m repro.analysis``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="protocol-aware static analysis: determinism, "
                    "write-ahead-logging, recovery-completeness, "
                    "concurrency-atomicity and sim-coroutine lints")
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return execute_lint(args.paths, args.output_format, args.list_rules,
                            args.emit_msgflow)
    except AnalysisError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
