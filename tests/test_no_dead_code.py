"""Every private name the package defines is used somewhere in the package.

A single-underscore function, method, class or module-level name that nothing
in src/ refers to is a leftover of some earlier change; tests do not count as
users, since a test of dead code keeps nothing alive.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torsion_bounds"
PRIVATE = re.compile(r"_[^_]\w*")


def _definitions(tree):
    """(name, line) of each private function, method or class, and of each
    private name a module-level statement assigns."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        for target in targets:
            for node in ast.walk(target) if target is not None else ():
                if isinstance(node, ast.Name):
                    yield node.id, stmt.lineno


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_name_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    defined = [
        (f"{module}:{line}", name)
        for module, tree in trees.items()
        for name, line in _definitions(tree)
        if PRIVATE.fullmatch(name)
    ]
    assert len(defined) > 50  # the walk found the package's private names
    assert [f"{where} {name}" for where, name in defined if name not in used] == []
