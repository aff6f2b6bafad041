"""Tests for ``repro.analysis.sites``: the one definition of a storage
op, a transport send, a handler registration and "reachable".
"""

from __future__ import annotations

import ast
import glob
import os
import textwrap

import pytest

from repro.analysis.engine import ModuleContext, ProjectContext
from repro.analysis.sites import classify, reachable, site_index

ANALYSIS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, os.pardir, "src", "repro", "analysis")


# -- one vocabulary -----------------------------------------------------------

VOCABULARY = {"multisend", "retrieve_list", "register_handler"}


def _docstrings(tree: ast.Module) -> set:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body and \
                isinstance(node.body[0], ast.Expr) and \
                isinstance(node.body[0].value, ast.Constant):
            found.add(id(node.body[0].value))
    return found


def _vocabulary_uses(path: str) -> list:
    """Op names used as string constants, and ``"storage" in <part>``
    receiver tests, in the code (not the docstrings) of one module."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    docstrings = _docstrings(tree)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in VOCABULARY \
                and id(node) not in docstrings:
            uses.append((node.lineno, node.value))
        elif isinstance(node, ast.Compare) and \
                isinstance(node.left, ast.Constant) and \
                node.left.value == "storage" and \
                any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            uses.append((node.lineno, '"storage" in ...'))
    return uses


def test_op_vocabulary_lives_only_in_sites():
    modules = sorted(glob.glob(os.path.join(ANALYSIS, "*.py")))
    assert len(modules) > 15
    by_module = {os.path.basename(path): _vocabulary_uses(path)
                 for path in modules}
    in_sites = {what for _, what in by_module.pop("sites.py")}
    assert in_sites == VOCABULARY | {'"storage" in ...'}
    assert {name: uses for name, uses in by_module.items() if uses} == {}


# -- classify -----------------------------------------------------------------

@pytest.mark.parametrize("source, kind", [
    ("self.node.storage.log(K, v)", "write"),
    ("node.storage.retrieve_list(K)", "read"),
    ("self.storage.keys(PREFIX)", "scan"),
    ("self.store.delete_prefix(PREFIX)", "delete"),
    ("self._store(K, v)", "write"),
    ("self._endpoint.send(dst, m)", "send"),
    ("self.node.endpoint.multisend(m)", "send"),
    ("self.channel.inner.send(src, dst, m)", "send"),
    ("self.endpoint.register(T, self._on_t)", "register"),
    ("endpoint.subscribe_queue(T)", "register"),
    ("node.spawn(self._task(), 'task')", "spawn"),
    ("self.task.gen.send(None)", None),
    ("self.cache.get(K)", None),
    ("self.pending.append(m)", None),
])
def test_classify(source, kind):
    site = classify(ast.parse(source, mode="eval").body)
    assert (site.kind if site is not None else None) == kind


# -- reachable ----------------------------------------------------------------

FIXTURE = """
    class Peer:
        def poke(self):
            pass

    class Proto:
        def __init__(self, peer: Peer):
            self.peer = peer

        def on_start(self):
            self.endpoint.register("t", self._on_msg)
            self.node.spawn(self._task(), "task")
            self._helper()
            self.peer.poke()

        def _on_msg(self, msg, sender):
            pass

        def _task(self):
            yield 1.0

        def _helper(self):
            pass

        def _unrelated(self):
            pass
"""


def reached(**switches) -> set:
    text = textwrap.dedent(FIXTURE)
    ctx = ModuleContext("repro.core.fixture", "fixture.py",
                        ast.parse(text), text)
    project = ProjectContext([ctx])
    proto = project.symbols.classes["repro.core.fixture.Proto"]
    roots = [(proto, proto, proto.methods["on_start"])]
    found = list(reachable(project, roots, **switches))
    assert all(entry.root == 0 for entry in found)
    names = [entry.func.name for entry in found]
    assert len(names) == len(set(names))  # each function once
    return set(names)


def test_reachable_follows_calls_including_the_spawned_generator():
    assert reached() == {"on_start", "_task", "_helper", "poke"}


def test_reachable_does_not_enter_a_registered_handler():
    # ``register(T, self._on_msg)`` takes the handler's address; it runs
    # on a later arrival, not as part of the caller.
    assert "_on_msg" not in reached()


def test_reachable_spawned_generator_skipped_on_request():
    assert reached(skip_spawned=True) == reached() - {"_task"}


def test_reachable_foreign_receiver_skipped_on_request():
    assert reached(self_only=True) == reached() - {"poke"}


# -- storage-key patterns -----------------------------------------------------

KEYS = """
    class Proto:
        SEGMENT_KEY = ("proto", "seg")
        EPOCH_KEY = ("proto", "epoch")

        def on_start(self):
            self.node.storage.keys(self.SEGMENT_KEY)
            self.node.storage.retrieve(self.EPOCH_KEY, 0)

        def checkpoint(self, k, messages):
            self.node.storage.log(self.SEGMENT_KEY + (k,), messages)
            self._persist(self.EPOCH_KEY, k)

        def _persist(self, key, value):
            self.node.storage.log(key, value)
"""


def storage_sites() -> dict:
    """``method name -> [Site]`` of the ``KEYS`` fixture's class."""
    text = textwrap.dedent(KEYS)
    ctx = ModuleContext("repro.core.fixture", "fixture.py",
                        ast.parse(text), text)
    project = ProjectContext([ctx])
    proto = project.symbols.classes["repro.core.fixture.Proto"]
    index = site_index(project)
    return {name: index.storage_sites(func, proto)
            for name, func in proto.methods.items()}


def test_concatenated_key_meets_the_prefix_scan():
    # ``SEGMENT_KEY + (k,)`` is flattened operand by operand, so the
    # ``keys(SEGMENT_KEY)`` scan sees its writer.
    sites = storage_sites()
    scan, read = sites["on_start"]
    write = sites["checkpoint"][0]
    assert (scan.kind, scan.shape.describe()) == \
        ("scan", "('proto', 'seg', ...)")
    assert (write.kind, write.shape.describe()) == \
        ("write", "('proto', 'seg', *)")
    assert write.shape.matches(scan.shape)
    assert not write.shape.matches(read.shape)


def test_a_key_forwarding_helper_takes_its_key_from_the_call_site():
    # ``_persist`` hands its ``key`` parameter to storage: its own body
    # has no key, and ``self._persist(EPOCH_KEY, ...)`` is the write.
    sites = storage_sites()
    assert sites["_persist"] == []
    write = sites["checkpoint"][1]
    assert (write.kind, write.op, write.shape.describe()) == \
        ("write", "log", "('proto', 'epoch')")
    assert write.shape.matches(sites["on_start"][1].shape)
