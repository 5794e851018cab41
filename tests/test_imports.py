"""Every name a module of ``src/``, ``tests/`` or ``tools/`` imports is read
there.  ``tools/uncovered.py`` cannot see an unread import, since an import
is not a statement inside a function.  ``from __future__`` imports and the
re-exports of an ``__init__.py`` are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unread_imports(path):
    """(line, name) of each name that the module at ``path`` imports and
    never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    modules = [p for d in ("src", "tests", "tools") for p in sorted((ROOT / d).rglob("*.py"))
               if p.name != "__init__.py"]
    assert len(modules) > 20
    unread = [f"{p.relative_to(ROOT)}:{line} {name}"
              for p in modules for line, name in unread_imports(p)]
    assert unread == []
