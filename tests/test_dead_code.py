"""No dead names in the package: every import is read, and every private
top-level name is read somewhere other than its own definition."""

import ast
from pathlib import Path

import centersvar

MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(centersvar.__file__).parent.glob("*.py"))}


def read_names(node) -> set[str]:
    """The names a node reads: loaded names, attribute names, and the
    strings of an ``__all__`` list."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets):
            names.update(c.value for c in ast.walk(sub.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return names


def defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_import_is_read():
    unused = []
    for module, tree in MODULES.items():
        read = read_names(tree)
        if module == "__init__":
            # the package re-exports what it imports, through __all__ = dir()
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{module}: {bound}")
    assert unused == []


def test_every_private_top_level_name_is_read():
    imported = {alias.name for tree in MODULES.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = []
    for module, tree in MODULES.items():
        reads = [read_names(stmt) for stmt in tree.body]
        for i, stmt in enumerate(tree.body):
            for name in defined_names(stmt):
                if (name.startswith("_") and not name.startswith("__") and name not in imported
                        and not any(name in r for j, r in enumerate(reads) if j != i)):
                    unread.append(f"{module}.{name}")
    assert unread == []
