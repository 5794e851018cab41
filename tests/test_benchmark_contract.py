"""The benchmark's reproducibility contract, checked on every test run.

Each workload of ``perfbench`` has a fixed part, its inputs at the default
seed, whose contract rows (start point, success and iteration count per run)
are stored under ``perfbench/reference``.  These tests rebuild those rows
through the sweeps of ``tools/solve_digest.py`` and compare them with the
stored files, which they only read.  A change that moves one iterate of one
of those runs fails here, and the message lists every row it moved.
"""

import pytest


@pytest.mark.parametrize("name", ["fc-grid", "suite-seeded", "sqp-constrained"])
def test_default_seed_rows_match_reference(name, load_tool):
    tool = load_tool("solve_digest")
    _, rows = tool.SWEEPS[name][1]()
    expected = tool.verify.load_reference(name)
    report = "\n".join(tool.diff_lines(name, rows, expected))
    moved = [(got, want) for got, want in zip(rows, expected) if got != want]
    assert len(rows) == len(expected), \
        f"{len(rows)} rows, reference/{name}.csv has {len(expected)}\n{report}"
    assert not moved, f"{len(moved)} rows differ from reference/{name}.csv:\n{report}"
