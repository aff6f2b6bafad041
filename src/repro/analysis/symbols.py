"""Project-wide symbol table for the whole-program analysis rules.

Built once per analyzer run from the parsed ASTs of every module under
analysis — never by importing the code.  It answers the questions the
interprocedural rules ask:

* which classes exist, what are their base classes, and what is the
  method-resolution order of a *concrete* class (so ``self.m()`` inside
  a base-class method resolves to the override the concrete class will
  actually run);
* the inferred classes of ``self.<attr>`` objects, from annotated
  ``__init__`` parameters (``consensus: ConsensusService`` assigned to
  ``self.consensus``) and direct constructions
  (``self.agreed = AgreedQueue(...)``) — which is what lets a call like
  ``self.consensus.propose(...)`` resolve across objects.

Resolution is best-effort and conservative: anything the table cannot
resolve is simply unknown, and the rules treat unknown calls as opaque.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["ClassInfo", "ModuleSymbols", "SymbolTable", "attr_path",
           "param_names", "self_field"]

def attr_path(node: ast.AST) -> Tuple[str, ...]:
    """Flatten ``a.b.c`` into ``("a", "b", "c")`` (empty if not a chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def self_field(node: ast.AST) -> Optional[str]:
    """``self.f`` -> ``"f"`` (exactly one level deep)."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def param_names(func: ast.AST, kwonly: bool = False) -> List[str]:
    """Positional (and, on request, keyword-only) parameter names of a
    ``def``, without ``self``."""
    args = getattr(func, "args", None)
    if args is None:
        return []
    found = args.args + (args.kwonlyargs if kwonly else [])
    return [arg.arg for arg in found if arg.arg != "self"]


def _annotation_name(annotation: Optional[ast.expr]) -> str:
    """The head name of an annotation (``Optional[Foo]`` -> ``Foo``)."""
    if annotation is None:
        return ""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        # String annotation: take the outermost identifier.
        text = annotation.value.strip()
        head = text.split("[", 1)[0].strip()
        return head if head.isidentifier() else ""
    if isinstance(annotation, ast.Subscript):
        inner = annotation.slice
        if isinstance(annotation.value, ast.Name) and \
                annotation.value.id == "Optional":
            return _annotation_name(inner)
        return ""
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    return ""


class ClassInfo:
    """Everything the analyzer knows about one class definition."""

    __slots__ = ("name", "module", "qualname", "node", "base_refs",
                 "methods", "attr_types")

    def __init__(self, name: str, module: str, node: ast.ClassDef):
        self.name = name
        self.module = module
        self.qualname = f"{module}.{name}"
        self.node = node
        self.base_refs: List[ast.expr] = list(node.bases)
        self.methods: Dict[str, ast.AST] = {}
        self.attr_types: Dict[str, str] = {}  # attr -> annotation head name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClassInfo {self.qualname}>"


class ModuleSymbols:
    """Per-module slice of the table."""

    __slots__ = ("imports", "classes", "functions")

    def __init__(self) -> None:
        self.imports: Dict[str, str] = {}   # local name -> dotted target
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, ast.AST] = {}


def _scan_class(info: ClassInfo) -> None:
    for stmt in info.node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = stmt
    init = info.methods.get("__init__")
    if init is not None:
        _scan_init(info, init)


def _scan_init(info: ClassInfo, init: ast.AST) -> None:
    """Infer ``self.<attr>`` classes from ``__init__``."""
    args = getattr(init, "args", None)
    annotations: Dict[str, str] = {}
    if args is not None:
        for arg in list(args.args) + list(args.kwonlyargs):
            head = _annotation_name(arg.annotation)
            if head:
                annotations[arg.arg] = head
    for stmt in ast.walk(init):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        else:
            continue
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            continue
        if isinstance(value, ast.Name) and value.id in annotations:
            info.attr_types[target.attr] = annotations[value.id]
        elif isinstance(value, ast.Call) and \
                isinstance(value.func, ast.Name):
            info.attr_types[target.attr] = value.func.id


class SymbolTable:
    """Classes, functions and imports of every analyzed module."""

    def __init__(self, modules: Iterable[Tuple[str, ast.Module]]):
        self.modules: Dict[str, ModuleSymbols] = {}
        self.classes: Dict[str, ClassInfo] = {}  # by qualname
        self._subclasses: Dict[str, List[str]] = {}
        self._mro_cache: Dict[str, Tuple[ClassInfo, ...]] = {}
        for module, tree in modules:
            self._scan_module(module, tree)
        self._index_subclasses()

    # -- construction -----------------------------------------------------

    def _scan_module(self, module: str, tree: ast.Module) -> None:
        symbols = ModuleSymbols()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    symbols.imports[alias.asname or
                                    alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.level == 0:
                for alias in node.names:
                    symbols.imports[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                info = ClassInfo(stmt.name, module, stmt)
                _scan_class(info)
                symbols.classes[stmt.name] = info
                self.classes[info.qualname] = info
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                symbols.functions[stmt.name] = stmt
        self.modules[module] = symbols

    def _index_subclasses(self) -> None:
        for info in self.classes.values():
            for base in info.base_refs:
                resolved = self.resolve_class_ref(info.module, base)
                if resolved is not None:
                    self._subclasses.setdefault(
                        resolved.qualname, []).append(info.qualname)

    # -- reference resolution ---------------------------------------------

    def resolve_class_ref(self, module: str,
                          ref: ast.expr) -> Optional[ClassInfo]:
        """Resolve a base-class/annotation expression to a ClassInfo."""
        if isinstance(ref, ast.Attribute):
            return self.resolve_name(module, ref.attr)
        if isinstance(ref, ast.Name):
            return self.resolve_name(module, ref.id)
        return None

    def resolve_name(self, module: str, name: str) -> Optional[ClassInfo]:
        """Resolve a bare class name as seen from ``module``."""
        symbols = self.modules.get(module)
        if symbols is None:
            return None
        if name in symbols.classes:
            return symbols.classes[name]
        target = symbols.imports.get(name)
        if target is not None and target in self.classes:
            return self.classes[target]
        # Last resort: a unique short-name match anywhere in the project
        # (covers re-exports through package __init__ modules).
        matches = [info for info in self.classes.values()
                   if info.name == name]
        if len(matches) == 1:
            return matches[0]
        return None

    def resolve_function(self, module: str,
                         name: str) -> Optional[Tuple[str, ast.AST]]:
        """Resolve a bare function call; returns (module, func node)."""
        symbols = self.modules.get(module)
        if symbols is None:
            return None
        if name in symbols.functions:
            return module, symbols.functions[name]
        target = symbols.imports.get(name)
        if target is not None and "." in target:
            target_module, func_name = target.rsplit(".", 1)
            other = self.modules.get(target_module)
            if other is not None and func_name in other.functions:
                return target_module, other.functions[func_name]
        return None

    # -- hierarchy queries -------------------------------------------------

    def mro(self, qualname: str) -> Tuple[ClassInfo, ...]:
        """Linearized MRO (this class first); unknown bases are skipped."""
        cached = self._mro_cache.get(qualname)
        if cached is not None:
            return cached
        info = self.classes.get(qualname)
        if info is None:
            return ()
        self._mro_cache[qualname] = (info,)  # cycle guard
        order: List[ClassInfo] = [info]
        seen = {qualname}
        for base in info.base_refs:
            resolved = self.resolve_class_ref(info.module, base)
            if resolved is None:
                continue
            for ancestor in self.mro(resolved.qualname):
                if ancestor.qualname not in seen:
                    seen.add(ancestor.qualname)
                    order.append(ancestor)
        result = tuple(order)
        self._mro_cache[qualname] = result
        return result

    def subclasses(self, qualname: str) -> List[ClassInfo]:
        """All transitive subclasses of ``qualname``."""
        found: List[ClassInfo] = []
        seen: set = set()
        stack = list(self._subclasses.get(qualname, ()))
        while stack:
            sub = stack.pop()
            if sub in seen:
                continue
            seen.add(sub)
            info = self.classes.get(sub)
            if info is not None:
                found.append(info)
            stack.extend(self._subclasses.get(sub, ()))
        return found

    def find_method(self, qualname: str, name: str,
                    after: Optional[str] = None
                    ) -> Optional[Tuple[ClassInfo, ast.AST]]:
        """Resolve method ``name`` on concrete class ``qualname``.

        ``after`` (a defining class's qualname) starts the search past
        that class in the MRO — the ``super().name(...)`` case.
        """
        order = self.mro(qualname)
        if after is not None:
            for position, info in enumerate(order):
                if info.qualname == after:
                    order = order[position + 1:]
                    break
        for info in order:
            if name in info.methods:
                return info, info.methods[name]
        return None
