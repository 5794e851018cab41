"""Every name a module of ``src/``, ``tests/`` or ``tools/`` imports is read
there.  ``tools/uncovered.py`` cannot see an unread import, since an import
is not a statement inside a function.  ``from __future__`` imports and the
re-exports of an ``__init__.py`` are exempt.

The library reduces in one form: with the array's own method (``a.max()``,
``a.sum()``, ``a[:, None] * b``), not with numpy's function that wraps it.
``tests/test_usolve.py::TestReductionForms`` checks that the two give the
same bits."""

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


#: numpy's functions that reach the same ufunc as an array method, through a
#: Python wrapper
FUNCTION_FORMS = {"max", "min", "sum", "prod", "all", "any", "outer"}


def function_form_calls(path):
    """(line, name) of each call of ``np.<name>``, name in FUNCTION_FORMS, in
    the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return sorted((node.lineno, node.func.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                  and node.func.attr in FUNCTION_FORMS)


def test_library_reduces_with_array_methods():
    modules = sorted((ROOT / "src" / "qlinesearch").glob("*.py"))
    assert len(modules) > 5
    calls = [f"{p.relative_to(ROOT)}:{line} np.{name}"
             for p in modules for line, name in function_form_calls(p)]
    assert calls == []
