"""tools/uncovered.py, the stdlib line-coverage check, counts the right
statements and fails when it lists one."""

import ast
import os
import textwrap

import pytest

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


def test_function_statements(load_tool):
    tool = load_tool("uncovered")
    # module-level statements, the docstring and the nonlocal are not
    # counted; the decorated def starts at its decorator, the return spans
    # its three lines
    assert tool._function_statements(ast.parse(SOURCE)) == [
        (6, 6), (8, 12), (11, 11), (12, 12), (14, 16)]


class _EveryLine:
    def __contains__(self, item):
        return True


@pytest.mark.parametrize("status,ran,expected", [
    (0, _EveryLine(), 0), (0, set(), 1), (2, set(), 2), (2, _EveryLine(), 2)],
    ids=["all-ran", "listed", "pytest-failed-and-listed", "pytest-failed"])
def test_exit_status(status, ran, expected, load_tool, monkeypatch, capsys):
    # pytest's status when it is nonzero, else 1 when a statement is listed
    tool = load_tool("uncovered")
    monkeypatch.chdir(os.getcwd())  # main changes both; restore them after the test
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    monkeypatch.setattr(tool, "_run_traced", lambda argv: (status, ran))
    assert tool.main() == expected
    printed = capsys.readouterr().out
    assert (printed == "") == isinstance(ran, _EveryLine)
