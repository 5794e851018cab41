"""tools/calls_per_iteration.py counts a sweep's Python calls repeatably."""

from qlinesearch import bench


def test_count_is_repeatable(load_tool):
    tool = load_tool("calls_per_iteration")

    def sweep():
        return tool.table_iterations(bench.run_fc_benchmark(c_values=(0.5,), y_values=(0.9,)))
    (calls, iterations), second = tool.count(sweep), tool.count(sweep)
    assert (calls, iterations) == second
    assert iterations == sweep() > 0 and calls > iterations
