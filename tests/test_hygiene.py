"""Source hygiene: no module imports a name it never uses, no private name
under ``src/`` is defined and never used, and no public function or method
under ``src/`` is left that ``src/`` never calls and ``__all__`` does not
export."""

import ast
import collections
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/**/*.py"))
MODULES = sorted([*SOURCES, *ROOT.glob("tests/**/*.py")])


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import (``import a.b`` binds ``a``) -> line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    """Names read anywhere, in quoted annotations, or exported in __all__."""
    used, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            expr = ast.parse(note.value, mode="eval")
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})"
              for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _private_definitions(tree: ast.Module):
    """(name, statement) for each module-level binding of a ``_private`` name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node: ast.AST, skip: ast.AST | None = None):
    """Names read, attribute names and imported names, outside ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_private_names_are_used(path):
    elsewhere = set()
    for other in SOURCES:
        if other != path:
            elsewhere.update(_references(_tree(other)))
    unused = [f"{name} (line {node.lineno})"
              for name, node in _private_definitions(_tree(path))
              if name not in elsewhere
              and name not in set(_references(_tree(path), skip=node))]
    assert not unused, f"{path.name} defines but never uses: {', '.join(unused)}"


def _exported() -> set:
    """Every name listed in an ``__all__`` under ``src/``."""
    names = set()
    for path in SOURCES:
        for node in _tree(path).body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)):
                names.update(e.value for e in node.value.elts)
    return names


def _public_definitions(tree: ast.Module):
    """(name, owner, definition) for each public module-level function and
    each public method; ``owner`` is the class of a method, else None."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, node.name, item


@functools.cache
def _all_references() -> collections.Counter:
    return collections.Counter(name for path in SOURCES
                               for name in _references(_tree(path)))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_public_names_are_used_or_exported(path):
    # a method counts as exported with its class; a definition's reference
    # to itself does not count
    exported = _exported()
    unused = [f"{owner + '.' if owner else ''}{name} (line {node.lineno})"
              for name, owner, node in _public_definitions(_tree(path))
              if not name.startswith("_") and name not in exported
              and owner not in exported
              and _all_references()[name] == list(_references(node)).count(name)]
    assert not unused, (f"{path.name} defines, and neither uses nor exports: "
                        f"{', '.join(unused)}")
