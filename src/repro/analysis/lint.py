"""The ``repro lint`` entry point (also ``python -m repro.analysis``).

Exit status contract (relied on by CI and the self-check test):

* ``0`` — analyzed cleanly, no violations;
* ``1`` — violations found (each printed as ``path:line:col: RULE ...``);
* ``2`` — the analyzer itself could not run (bad path, unparseable file),
  reported as a clean one-line message, never a traceback.

Both entry points run through :func:`repro.cli.main`, which owns the
two exits that are not a report: an :class:`~repro.errors.AnalysisError`
becomes status 2, and a reader that closes the pipe early (``repro lint
--list-rules | head -1``) is not a failure — the command exits quietly
with the status the report earned.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.engine import analyze_paths
from repro.analysis.registry import default_registry
from repro.analysis.reporters import (format_json, format_rule_listing,
                                      format_sarif, format_text)

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


def execute_lint(paths: List[str], output_format: str = "text",
                 list_rules: bool = False) -> int:
    """Run the analyzer; print a report; return the process exit status."""
    registry = default_registry()
    if list_rules:
        print(format_rule_listing(registry.rules()))
        return 0
    report = analyze_paths(paths)
    if output_format == "json":
        print(format_json(report))
    elif output_format == "sarif":
        print(format_sarif(report, registry.rules()))
    else:
        print(format_text(report))
    return 1 if report.findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone CLI (``python -m repro.analysis``): ``repro lint``."""
    from repro.cli import main as cli_main
    return cli_main(["lint", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
