"""Every shipped example must run clean — they are living documentation."""

from __future__ import annotations

import importlib.util
import os

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                            "examples")

EXAMPLES = [
    "quickstart.py",
    "replicated_kv_store.py",
    "replicated_bank.py",
    "deferred_update_db.py",
    "protocol_comparison.py",
    "multigroup_rooms.py",
]


@pytest.mark.parametrize("filename", EXAMPLES)
def test_example_runs_clean(filename, capsys):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, filename))
    assert os.path.exists(path), f"example missing: {filename}"
    spec = importlib.util.spec_from_file_location(
        f"example_{filename[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), "examples must narrate what they demonstrate"


def test_every_example_on_disk_is_in_the_list():
    on_disk = sorted(name for name in os.listdir(EXAMPLES_DIR)
                     if name.endswith(".py"))
    assert on_disk == sorted(EXAMPLES)
