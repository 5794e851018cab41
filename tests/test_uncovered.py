"""tools/uncovered.py, the stdlib line-coverage check, counts the right statements."""

import ast
import importlib.util
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "uncovered.py"

SOURCE = textwrap.dedent('''\
    import functools


    def outer():
        """A docstring compiles to no code."""
        total = 0

        @functools.cache
        def inner(v):
            nonlocal total
            total += v
            return total

        return inner(
            1,
        )
    ''')


def test_function_statements():
    spec = importlib.util.spec_from_file_location("uncovered", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # module-level statements, the docstring and the nonlocal are not
    # counted; the decorated def starts at its decorator, the return spans
    # its three lines
    assert tool._function_statements(ast.parse(SOURCE)) == [
        (6, 6), (8, 12), (11, 11), (12, 12), (14, 16)]
