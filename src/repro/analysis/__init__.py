"""Protocol-aware static analysis for the reproduction.

Two rules guard what a run cannot show cheaply: **ATM001**, a
read-modify-write of a protocol field interrupted by a scheduling
boundary, and **RES002**, a blocking call inside the live runtime's
async code.  The other invariants are checked by runs: determinism by
running a seeded set twice in each of two interpreters with different
hash seeds (``tests/integration/test_determinism.py``), log-before-send
by construction (a node's turn commits before its frames leave), and the
message-flow graph by observing it (``MSGFLOW.json``).

The package is an AST-based rule engine: a registry of scoped rules,
text/JSON/SARIF reporters, and a CLI (``repro lint`` /
``python -m repro.analysis``).

>>> from repro.analysis import analyze_source
>>> analyze_source("import time\\nasync def pace():\\n    time.sleep(1)\\n",
...                module="repro.harness.example")  # doctest: +ELLIPSIS
[<Finding RES002 ...>]
"""

from repro.analysis.engine import (Finding, ModuleContext, Report,
                                   analyze_paths, analyze_source,
                                   iter_python_files, module_name_for_path)
from repro.analysis.lint import execute_lint, main
from repro.analysis.registry import Rule, RuleRegistry, default_registry
from repro.analysis.reporters import format_json, format_sarif, format_text

__all__ = [
    "Finding",
    "ModuleContext",
    "Report",
    "Rule",
    "RuleRegistry",
    "analyze_paths",
    "analyze_source",
    "default_registry",
    "execute_lint",
    "format_json",
    "format_sarif",
    "format_text",
    "iter_python_files",
    "main",
    "module_name_for_path",
]
