"""Protocol-aware static analysis for the reproduction.

The reproduction rests on an invariant no type checker knows about:
**determinism** — every run is a pure function of the seed
(:mod:`repro.runtime.sim`'s contract).  Wall-clock reads, OS entropy,
the global ``random`` module and hash-ordered ``set`` iteration all
break it silently.  (The paper's other discipline, log-before-send,
holds by construction — a node's turn commits before its frames leave —
and the message-flow graph observed in runs, ``MSGFLOW.json``, shows no
frame that bypasses the endpoint.)

This package enforces determinism (plus atomicity and resource
hygiene) with an AST-based rule engine: a registry of scoped rules, per-line suppressions
(``# repro: noqa(RULE) -- justification``), text/JSON reporters, and a
CLI (``repro lint`` / ``python -m repro.analysis``).

>>> from repro.analysis import analyze_source
>>> analyze_source("import time\\nt = time.time()\\n",
...                module="repro.runtime.example")  # doctest: +ELLIPSIS
[<Finding DET001 ...>]
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
