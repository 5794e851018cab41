"""List the statements of the library that the tier-1 tests never run.

    python tools/uncovered.py

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` from
the repository root, with this tree's ``src`` first on the path) in this
process under a ``sys.settrace`` line tracer limited to ``src/qlinesearch``.
Then it prints, as ``file:line: source``, each statement inside a function
none of whose lines ran.  A compound statement counts as run when any line
of its body did.  Docstrings, ``global`` and ``nonlocal`` compile to no
code, so they are not counted.  Code that tests run in child processes is
not seen.  The tracer makes the suite about twice as slow.  The exit status
is pytest's when that is nonzero, else 1 if any statement is listed, else 0.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qlinesearch"


def _compiles_to_nothing(stmt):
    return isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))


def _function_statements(tree):
    """(first line, last line) of every statement inside a function, the
    first line of a decorated definition being its first decorator's."""
    spans = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.stmt) and not _compiles_to_nothing(child):
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", ())])
                spans.append((first, child.end_lineno))
            visit(child, in_function or isinstance(child, (ast.FunctionDef,
                                                           ast.AsyncFunctionDef)))

    visit(tree, False)
    return sorted(spans)


def _run_traced(argv):
    """pytest's exit status for ``argv``, and the (file, line) pairs run in
    ``PACKAGE``."""
    ran = set()
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main():
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    status, ran = _run_traced(["-q", "--continue-on-collection-errors"])
    listed = False
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, last in _function_statements(ast.parse("\n".join(lines))):
            if not any((str(path), n) in ran for n in range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
                listed = True
    return int(status) or int(listed)


if __name__ == "__main__":
    raise SystemExit(main())
