"""The benchmark's reproducibility contract, checked on every test run.

Each workload of ``perfbench`` has a fixed part, its inputs at the default
seed, whose contract rows (start point, success and iteration count per run)
are stored under ``perfbench/reference``.  These tests rebuild those rows
through the sweeps of ``tools/solve_digest.py`` and compare them with the
stored files, which they only read.  A change that moves one iterate of one
of those runs fails here, and the message lists every row it moved.  Rows
are compared by key, as the tool compares them, and the keys must come in
the reference's order.
"""

import pytest


@pytest.mark.parametrize("name", ["fc-grid", "suite-seeded", "sqp-constrained"])
def test_default_seed_rows_match_reference(name, load_tool):
    tool = load_tool("solve_digest")
    _, rows = tool.SWEEPS[name][1]()
    expected = tool.verify.load_reference(name)
    report = "\n".join(tool.diff_lines(name, rows, expected))
    assert not tool.moved_rows(rows, expected), \
        f"rows differ from reference/{name}.csv:\n{report}"
    assert [r.key for r in rows] == [r.key for r in expected], \
        f"rows come in another order than in reference/{name}.csv"
