"""tools/calls_per_iteration.py counts a sweep's Python calls repeatably, and
every one of them."""

from dataclasses import make_dataclass

from qlinesearch import bench


def test_count_is_repeatable(load_tool):
    tool = load_tool("calls_per_iteration")

    def sweep():
        return tool.table_iterations(bench.run_fc_benchmark(c_values=(0.5,), y_values=(0.9,)))
    (calls, iterations), second = tool.count(sweep), tool.count(sweep)
    assert (calls, iterations) == second
    assert iterations == sweep() > 0 and calls > iterations


def test_every_dataclass_init_is_counted(load_tool):
    # each generated __init__ is ("<string>", 2, "__init__") to pstats, which
    # keeps one entry per such key
    tool = load_tool("calls_per_iteration")
    first, second = make_dataclass("First", ["a"]), make_dataclass("Second", ["b"])
    n = 50

    def sweep():
        for k in range(n):
            first(k), second(k)
        return 1
    calls, iterations = tool.count(sweep)
    assert iterations == 1 and calls >= 2 * n + 1
