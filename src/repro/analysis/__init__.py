"""Protocol-aware static analysis for the reproduction.

The reproduction rests on two invariants no type checker knows about:

1. **Determinism** — every run is a pure function of the seed
   (:mod:`repro.runtime.sim`'s contract).  Wall-clock reads, OS entropy,
   the global ``random`` module and hash-ordered ``set`` iteration all
   break it silently.
2. **Write-ahead logging** — crash-recovery safety requires state to
   reach stable storage *before* any message that depends on it is sent
   (the paper's logging discipline, Sections 5.1–5.3).

This package enforces both (plus simulation-coroutine hygiene) with an
AST-based rule engine: a registry of scoped rules, per-line suppressions
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
from repro.analysis.msgflow import (MessageFlowGraph, build_msgflow,
                                    build_msgflow_for_paths, write_msgflow)
from repro.analysis.registry import Rule, RuleRegistry, default_registry
from repro.analysis.reporters import format_json, format_sarif, format_text

__all__ = [
    "Finding",
    "MessageFlowGraph",
    "ModuleContext",
    "Report",
    "Rule",
    "RuleRegistry",
    "analyze_paths",
    "analyze_source",
    "build_msgflow",
    "build_msgflow_for_paths",
    "default_registry",
    "execute_lint",
    "format_json",
    "format_sarif",
    "format_text",
    "iter_python_files",
    "main",
    "module_name_for_path",
    "write_msgflow",
]
