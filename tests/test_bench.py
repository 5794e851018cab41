import dataclasses
import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlinesearch import bench
from qlinesearch.bench import (BenchmarkRow, BenchmarkTable, ProfileCurve,
                               fc_summary, is_success, performance_profile,
                               run_fc_benchmark, run_suite_benchmark, suite_start)
from qlinesearch.problems import Problem, StartBox, get_problem, standard_suite
from qlinesearch.qmatrix import QSchedule
from qlinesearch.usolve import (STATUS_CALLBACK_ERROR, STATUS_DIVERGED, STATUS_NUMERIC_FAILURE,
                               SolveResult, SolverConfig, Trace, solve_bfgs, solve_qls)


def row(problem, solver, iterations, success=True, run_index=0, secs=0.0):
    return BenchmarkRow(problem=problem, solver=solver, run_index=run_index,
                        seed=0, success=success, iterations=iterations,
                        elapsed_seconds=secs, start_point=np.zeros(2))


def cells(table):
    """A table's rows without their times, in order."""
    return [(r.problem, r.solver, r.run_index, r.success, r.iterations, *r.start_point)
            for r in table.rows]


def hand_table():
    t = BenchmarkTable()
    t.rows += [row("p1", "s1", 2), row("p1", "s2", 4),
               row("p2", "s1", 10), row("p2", "s2", 5)]
    return t


class TestPerformanceProfile:
    def test_single_solver_all_ratios_one(self):
        t = BenchmarkTable()
        t.rows += [row("p1", "s1", 3), row("p2", "s1", 7)]
        curves = performance_profile(t, "iterations")
        assert len(curves) == 1
        assert curves[0].points == [(1.0, 1.0)]

    def test_unsolved_cell_plateaus(self):
        t = BenchmarkTable()
        t.rows += [row("p1", "s1", 2), row("p1", "s2", 2),
                   row("p2", "s1", 4), row("p2", "s2", 4),
                   row("p3", "s1", 5), row("p3", "s2", 5, success=False)]
        curves = {c.solver: c for c in performance_profile(t, "iterations")}
        fracs = [f for _, f in curves["s2"].points]
        assert max(fracs) == pytest.approx(2.0 / 3.0)
        assert max(f for _, f in curves["s1"].points) == 1.0

    def test_all_unsolved_problem_dropped(self):
        t = hand_table()
        t.rows += [row("p3", "s1", 9, success=False),
                   row("p3", "s2", 9, success=False)]
        curves = {c.solver: dict(c.points) for c in
                  performance_profile(t, "iterations")}
        # p3 is excluded, so fractions still reach 1 over the two counted problems
        assert curves["s1"][2.0] == 1.0

    def test_runs_required_quota(self):
        t = BenchmarkTable()
        t.rows += [row("p1", "s1", 2), row("p1", "s2", 4)]
        curves = {c.solver: dict(c.points) for c in
                  performance_profile(t, "iterations", runs_required=2)}
        # neither cell reaches the quota of 2 successes: the problem is dropped
        assert all(f == 0.0 for f in curves["s1"].values())

    def test_quota_below_one_rejected(self):
        # a quota of 0 used to count every cell unsolved
        t = BenchmarkTable()
        t.rows += [row("p1", "s1", 1)]
        with pytest.raises(ValueError):
            performance_profile(t, "iterations", runs_required=0)

    @pytest.mark.parametrize("runs_required", [1.5, float("nan"), 2.0, True])
    def test_quota_not_whole_rejected(self, runs_required):
        # each used to end in a TypeError from slicing the cell's two successes
        t = BenchmarkTable()
        t.rows += [row("p1", "s1", 1), row("p1", "s1", 3, run_index=1)]
        with pytest.raises(ValueError):
            performance_profile(t, "iterations", runs_required=runs_required)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric 'gradient_evals'"):
            performance_profile(hand_table(), "gradient_evals")

    def test_empty_table_has_no_curves(self):
        assert performance_profile(BenchmarkTable(), "iterations") == []

    def test_time_metric(self):
        t = BenchmarkTable()
        t.rows += [row("p1", "s1", 1, secs=2.0), row("p1", "s2", 1, secs=4.0)]
        curves = {c.solver: dict(c.points) for c in
                  performance_profile(t, "time")}
        assert curves["s2"][2.0] == 1.0 and curves["s2"][1.0] == 0.0


class TestFcBenchmark:
    def test_shape_and_success(self):
        config = SolverConfig()
        table = run_fc_benchmark(c_values=(0.5,), solvers=("bfgs", "q1"), config=config)
        assert len(table.rows) == 20  # 2 solvers x 10 starts
        assert all(r.success for r in table.rows)
        assert len(fc_summary(table)) == 1

    def test_empty_table_has_no_summary(self):
        with pytest.raises(ValueError, match="empty"):
            fc_summary(run_fc_benchmark(c_values=()))


class TestSuiteBenchmark:
    def test_csv_row_replays_its_start(self, tmp_path):
        # a row records the master seed, and (seed, problem, solver,
        # run_index) redraw its start bit for bit
        suite = [p for p in standard_suite() if p.name in ("branin", "levy")]
        t = run_suite_benchmark(suite=suite, solvers=("bfgs", "q2"), master_seed=11,
                                runs_required=2, attempt_cap=3)
        path = tmp_path / "runs.csv"
        bench.emit(t, "csv", str(path))
        rows = bench.load_runs_csv(str(path)).rows
        assert len(rows) >= 8 and all(r.seed == 11 for r in rows)
        for r in rows:
            start = bench.suite_start(get_problem(r.problem), r.solver, r.seed, r.run_index)
            assert np.array_equal(start, r.start_point)

    @pytest.mark.parametrize("counts", [{"runs_required": 0}, {"attempt_cap": 0},
                                        {"runs_required": -1},
                                        {"runs_required": float("nan")},
                                        {"attempt_cap": 2.5}, {"attempt_cap": 2.0},
                                        {"runs_required": None}, {"attempt_cap": None},
                                        {"runs_required": True}, {"attempt_cap": True}],
                             ids=str)
    def test_counts_below_one_rejected(self, counts):
        # either count at 0 (or NaN) used to run nothing and return an empty
        # table; a float cap, whole or not, failed inside range() with a TypeError
        with pytest.raises(ValueError):
            run_suite_benchmark(**counts)

    def test_seeds_do_not_alias_modulo_2_to_the_32(self):
        # the master seed used to be masked to 32 bits, so both drew one start
        prob = get_problem("branin")
        assert not np.array_equal(bench.suite_start(prob, "q1", 42, 0),
                                  bench.suite_start(prob, "q1", 42 + 2**32, 0))

    @pytest.mark.parametrize("seed", [-1, 2.5, float("nan"), 42.0, None, False], ids=str)
    def test_seed_must_be_whole_and_nonnegative(self, seed):
        # -1 used to draw the starts of seed 2**32 - 1; 42.0 failed in the
        # first start's draw with a TypeError
        with pytest.raises(ValueError, match="master_seed must be a whole number of at least 0"):
            run_suite_benchmark(master_seed=seed)


# NumPy floor: a suite start must equal numpy.random's stream there, so an old runs CSV replays
@pytest.mark.numpy_floor
class TestSuiteStart:
    """A suite start is NumPy's PCG64 stream for its key, drawn without
    numpy.random.  These tests compare it with numpy.random under the NumPy
    installed, so a runs CSV written under any supported NumPy replays."""

    @given(st.lists(st.integers(0, 2**100 - 1), min_size=1, max_size=8), st.integers(1, 10))
    def test_uniforms_are_numpys_stream(self, key, n):
        assert np.array(bench._pcg64_uniforms(key, n)).tobytes() == \
            np.random.default_rng(key).random(n).tobytes()

    @pytest.mark.parametrize("seed", [0, 42, 2**32 + 42], ids=str)
    def test_every_suite_start_is_numpys(self, seed):
        for problem in standard_suite():
            box = problem.start_box
            for solver in bench.SOLVERS:
                for run_index in (0, 11, 199):
                    key = [seed, zlib.crc32(problem.name.encode()),
                           zlib.crc32(solver.encode()), run_index]
                    u = np.random.default_rng(key).random(problem.dimension)
                    assert suite_start(problem, solver, seed, run_index).tobytes() == \
                        (box.center + box.side * (u - 0.5)).tobytes()

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (42.0, TypeError)],
                             ids=["negative", "float"])
    def test_direct_call_raises_as_numpy_does(self, seed, error):
        # default_rng raises the same type for the same key
        with pytest.raises(error):
            suite_start(get_problem("branin"), "q1", seed, 0)

    def test_a_sweep_leaves_numpy_random_unloaded(self, child_env, tmp_path):
        # a child process, so that no other test has loaded a module.  The
        # import loads none of the modules below, and perfbench's two sweep
        # warm-ups (an fc sweep at c = 0.5, y = 0.9, the one-attempt branin
        # sweep, its profile and a CSV of it) load no module at all.
        code = ("import json, sys, numpy\n"
                "with_numpy = set(sys.modules)\n"
                "import qlinesearch\n"
                "from qlinesearch import bench, get_problem\n"
                "imported = set(sys.modules)\n"
                "bench.run_fc_benchmark(c_values=(0.5,), y_values=(0.9,))\n"
                "table = bench.run_suite_benchmark(suite=[get_problem('branin')],"
                " runs_required=1, attempt_cap=1)\n"
                "bench.emit(bench.performance_profile(table), 'csv', sys.argv[1])\n"
                "print(json.dumps(['numpy.random' in with_numpy, sorted(imported - with_numpy),"
                " sorted(set(sys.modules) - imported)]))\n")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "profile.csv")],
                              capture_output=True, text=True, timeout=120, env=child_env,
                              check=True)
        numpy_loads_random, by_import, by_sweeps = json.loads(proc.stdout)
        assert [m for m in by_import
                if m.split(".")[0] == "xml" or m in ("numpy.random", "urllib.request")] == []
        if numpy_loads_random:
            pytest.skip("this NumPy (before 2.0) loads numpy.random on import")
        assert by_sweeps == []


class TestSweepInputs:
    """Both sweeps build each solver's solve, and so check every input,
    before their first solve."""

    @pytest.mark.parametrize("sweep, bad", [
        (run_fc_benchmark, "q1x"),
        (lambda **kw: run_suite_benchmark(runs_required=2, attempt_cap=3, **kw), "qx"),
    ], ids=["fc", "suite"])
    def test_bad_solver_raises_before_the_first_solve(self, sweep, bad, recorded_solves):
        # the name used to be parsed when its cell came up: after 10 fc and 2 suite solves
        solves = recorded_solves()
        with pytest.raises(ValueError, match="unknown solver"):
            sweep(solvers=("bfgs", bad), wrap=solves)
        assert solves == []

    @pytest.mark.parametrize("sweep", [
        lambda wrap: run_fc_benchmark(solvers=("bfgs", "bfgs"), wrap=wrap),
        lambda wrap: run_fc_benchmark(c_values=(0.5, 1.3, 0.50), wrap=wrap),
        lambda wrap: run_suite_benchmark(solvers=("q1", "bfgs", "q1"), wrap=wrap),
        lambda wrap: run_suite_benchmark(suite=[get_problem("branin"), get_problem("branin")],
                                         wrap=wrap),
    ], ids=["fc-solver", "fc-c", "suite-solver", "suite-problem"])
    def test_a_cell_named_twice_raises_before_the_first_solve(self, sweep, recorded_solves):
        # each used to run, writing every (problem, solver, run_index) key twice
        solves = recorded_solves()
        with pytest.raises(ValueError, match="a sweep names each (solver|problem) once"):
            sweep(solves)
        assert solves == []

    @pytest.mark.parametrize("box", [None, StartBox(np.zeros(3)),
                                     StartBox(np.array([np.nan, 0.0]))],
                             ids=["none", "center-of-3", "center-nan"])
    def test_suite_start_box_is_checked_before_the_first_solve(self, box, recorded_solves):
        # each used to fail after branin's 4 solves (no box: an AttributeError;
        # a center of 3: numpy's broadcast error), or to record starts that
        # are NaN or all at the center
        bowl = Problem("bowl", 2, lambda x: float(x @ x), lambda x: 2.0 * x, [np.zeros(2)], 0.0,
                       box)
        solves = recorded_solves()
        with pytest.raises(ValueError, match="bowl needs a start box"):
            run_suite_benchmark(suite=[get_problem("branin"), bowl], runs_required=1,
                                attempt_cap=2, wrap=solves)
        assert solves == []

    @pytest.mark.parametrize("y", [float("inf"), float("nan")], ids=str)
    def test_fc_y_must_be_finite(self, y, recorded_solves):
        # used to record a failed row from (0.5, inf) that load_runs_csv rejects
        solves = recorded_solves()
        with pytest.raises(ValueError, match="finite y"):
            run_fc_benchmark(c_values=(0.5,), y_values=(0.9, y), solvers=("bfgs",), wrap=solves)
        assert solves == []

    @pytest.mark.parametrize("name", ["bowl,2", " bowl", "bowl\n", "bo\rwl"], ids=repr)
    def test_problem_name_a_runs_csv_cannot_hold_raises(self, name, recorded_solves):
        # "bowl,2" used to run and be written as a row of 9 cells under the
        # header's 8; " bowl" would read back as "bowl"
        bowl = dataclasses.replace(get_problem("branin"), name=name)
        solves = recorded_solves()
        with pytest.raises(ValueError, match="a CSV cell cannot hold the text"):
            run_suite_benchmark(suite=[get_problem("sphere"), bowl], runs_required=1,
                                attempt_cap=2, wrap=solves)
        assert solves == []

    def test_no_start_is_drawn_after_a_cell_reaches_its_quota(self, monkeypatch):
        drawn = []

        def counted(*args):
            drawn.append(args)
            return suite_start(*args)
        monkeypatch.setattr(bench, "suite_start", counted)
        table = run_suite_benchmark(suite=[get_problem("sphere"), get_problem("schwefel")],
                                    runs_required=2, attempt_cap=4)
        assert len(table.cell("sphere", "q1")) == 2  # a cell that stops at its quota
        assert len(drawn) == len(table.rows)

    @pytest.mark.parametrize("sweep, inputs", [
        (lambda **kw: run_fc_benchmark(config=SolverConfig(max_iterations=2), **kw),
         dict(c_values=(0.5, 1.3), solvers=("bfgs", "q1"), y_values=(0.1, 0.9))),
        (lambda **kw: run_suite_benchmark(suite=[get_problem("branin")], runs_required=1,
                                          attempt_cap=2, **kw),
         dict(solvers=("bfgs", "q2"))),
    ], ids=["fc", "suite"])
    def test_one_shot_iterables_run_every_cell(self, sweep, inputs):
        # a generator of solvers used to be spent by the check for names given
        # twice, leaving no row; y_values was read again for each (c, solver)
        once = {name: (v for v in values) for name, values in inputs.items()}
        assert cells(sweep(**once)) == cells(sweep(**inputs))

    @pytest.mark.parametrize("solver", ["bfgs", "q2"])
    @pytest.mark.parametrize("x0", [[1.0, 2.0, 3.0], [1.0], 2.5, [[1.0, 2.0]]], ids=str)
    def test_solve_rejects_a_start_of_another_dimension(self, solver, x0):
        # a start of three coordinates used to end numeric_failure
        with pytest.raises(ValueError, match="branin expects dimension 2, got x0 of shape"):
            bench.solver_call(solver)(get_problem("branin"), x0, None)


class TestWrap:
    @pytest.mark.parametrize("sweep", [
        lambda wrap: run_fc_benchmark(c_values=(0.5, 1.3), y_values=(0.9,), wrap=wrap),
        lambda wrap: run_suite_benchmark(suite=[get_problem("branin")], master_seed=3,
                                         runs_required=2, attempt_cap=3, wrap=wrap),
    ], ids=["fc", "suite"])
    def test_wrap_gets_each_solver_once_and_only_its_own_sweep(self, sweep):
        names = []

        def raising(solver, solve):
            names.append(solver)
            return lambda problem, x0, config: 1 / 0
        plain = cells(sweep(None))
        with pytest.raises(ZeroDivisionError):
            sweep(raising)
        assert names == list(bench.SOLVERS)  # each by its runs-CSV name, before any solve
        assert cells(sweep(None)) == plain

    @pytest.mark.parametrize("sweep", [
        lambda wrap: run_fc_benchmark(c_values=(0.5,), y_values=(0.9,), wrap=wrap),
        lambda wrap: run_suite_benchmark(suite=[get_problem("branin")], runs_required=1,
                                         attempt_cap=1, wrap=wrap),
    ], ids=["fc", "suite"])
    def test_default_sweep_hands_each_solve_the_default_config_floored(self, sweep):
        # one iteration budget for every run, SolverConfig()'s through
        # sweep_rules: a row replays through ``solve`` with no --max-iter
        handed = []

        def watch(solver, solve):
            def run(problem, x0, config):
                handed.append((problem, config))
                return solve(problem, x0, config)
            return run
        sweep(watch)
        assert [config for _, config in handed] == [
            SolverConfig(f_floor=problem.known_min_value - bench.SUCCESS_VALUE_GAP)
            for problem, _ in handed]
        assert len(handed) == len(bench.SOLVERS)

    def test_a_wrap_may_run_its_own_solver_as_the_sweep_would(self):
        # a wrap that ignores its solve and runs a solver itself is handed the
        # sweep's floor and guard with the problem and config: without them,
        # 18 of these 33 rows used to move
        def own(solver, solve):
            if solver == "bfgs":
                return solve_bfgs
            schedule = QSchedule(0.9, int(solver[1:]))
            return lambda problem, x0, config: solve_qls(problem, x0, config, schedule=schedule)

        def sweep(wrap):
            table = run_suite_benchmark(suite=[get_problem("schwefel"), get_problem("branin")],
                                        master_seed=42, runs_required=3, attempt_cap=6,
                                        config=SolverConfig(max_iterations=300), wrap=wrap)
            return [{**vars(r), "elapsed_seconds": None, "start_point": r.start_point.tobytes()}
                    for r in table.rows]
        assert sweep(own) == sweep(None)


class TestRaisingCallback:
    """A sweep records a run whose callback raises as a failed row and goes
    on; an error with a status of its own keeps it."""

    @pytest.mark.parametrize("error, status", [(RuntimeError, STATUS_CALLBACK_ERROR),
                                               (KeyError, STATUS_CALLBACK_ERROR),
                                               (OverflowError, STATUS_NUMERIC_FAILURE)])
    def test_fc_sweep_records_the_run_and_goes_on(self, error, status):
        results = []

        def raising(solver, solve):
            def run(problem, x0, config):
                calls = 0

                def gradient(x):  # the fourth call raises: at k = 1 for QLS, k = 3 for BFGS
                    nonlocal calls
                    calls += 1
                    if calls == 4:
                        raise error("bug in the callback")
                    return problem.gradient(x)
                p, c = bench.sweep_rules(dataclasses.replace(problem, gradient=gradient), config)
                results.append(solve(p, x0, c))
                return results[-1]
            return run
        table = run_fc_benchmark(c_values=(0.5, 1.3), y_values=(0.9,), wrap=raising)
        assert len(table.rows) == len(results) == 2 * len(bench.SOLVERS)
        assert {r.status for r in results} == {status}
        assert not any(r.success for r in table.rows)
        assert [r.iterations for r in table.rows] == [r.iterations for r in results]
        assert {r.iterations for r in table.rows} == {1, 3}

    def test_suite_sweep_records_the_run_and_goes_on(self):
        def objective(x):
            raise RuntimeError("bug in the callback")
        raising = dataclasses.replace(get_problem("branin"), objective=objective)
        table = run_suite_benchmark(suite=[raising, get_problem("sphere")], runs_required=1,
                                    attempt_cap=2)
        assert [(r.problem, r.success, r.iterations) for r in table.rows] == \
            [("branin", False, 0)] * 2 * len(bench.SOLVERS) + [("sphere", True, 1)] * 4
        assert table.short_cells(1) == [("branin", s, 0) for s in bench.SOLVERS]


class TestEmit:
    def test_runs_round_trip(self, tmp_path):
        suite = [p for p in standard_suite() if p.name == "sphere"]
        t = run_suite_benchmark(suite=suite, solvers=("q1",), master_seed=1,
                                runs_required=2, attempt_cap=5)
        path = tmp_path / "runs.csv"
        bench.emit(t, "csv", str(path))
        back = bench.load_runs_csv(str(path))
        for ra, rb in zip(t.sorted_rows(), back.sorted_rows()):
            assert ra.problem == rb.problem and ra.solver == rb.solver
            assert ra.run_index == rb.run_index and ra.seed == rb.seed
            assert ra.success == rb.success and ra.iterations == rb.iterations
            assert ra.elapsed_seconds == rb.elapsed_seconds
            assert np.array_equal(ra.start_point, rb.start_point)

    @pytest.mark.parametrize("sweep", [
        lambda: run_fc_benchmark(c_values=(0.5, 1.3), y_values=(0.1, 0.9)),
        lambda: run_suite_benchmark(suite=[get_problem(name) for name in
                                           ("branin", "schwefel", "sphere")],
                                    master_seed=42, runs_required=2, attempt_cap=3),
    ], ids=["fc", "suite"])
    def test_runs_load_back_every_field_with_its_type(self, sweep, tmp_path):
        table = sweep()
        path = tmp_path / "runs.csv"
        bench.emit(table, "csv", str(path))
        back = bench.load_runs_csv(str(path)).sorted_rows()
        kinds = {"str": str, "int": int, "bool": bool, "float": float, "np.ndarray": np.ndarray}
        assert len(back) == len(table.rows)
        for ra, rb in zip(table.sorted_rows(), back):
            for f in dataclasses.fields(BenchmarkRow):
                a, b = getattr(ra, f.name), getattr(rb, f.name)
                assert type(a) is kinds[f.type] and type(b) is kinds[f.type], f.name
                assert np.array_equal(a, b) if f.type == "np.ndarray" else a == b, f.name

    def test_unknown_annotation_raises_before_writing(self, tmp_path):
        @dataclasses.dataclass
        class Spectrum:
            k: "int"
            eigenvalue: "complex"

        path = tmp_path / "trace.csv"
        with pytest.raises(TypeError, match="complex"):
            bench.emit(Trace(Spectrum, [0.0, 1.0]), "csv", str(path))
        assert not path.exists()

    def test_profile_round_trip(self, tmp_path):
        # a profile CSV is only written: the header, then one row per point
        # in curve order, each float as its repr, which reads back bit for bit
        curves = performance_profile(hand_table(), "iterations")
        curves.append(ProfileCurve("s3", [(1.0, 1 / 3), (2.5, 2 / 3)]))
        path = tmp_path / "prof.csv"
        bench.emit(curves, "csv", str(path))
        assert path.read_text() == ("solver,tau,fraction\n"
                                    "s1,1.0,0.5\ns1,2.0,1.0\ns2,1.0,0.5\ns2,2.0,1.0\n"
                                    "s3,1.0,0.3333333333333333\ns3,2.5,0.6666666666666666\n")

    def test_loaders_skip_blank_lines(self, tmp_path):
        path = tmp_path / "spaced.csv"
        bench.emit(hand_table(), "csv", str(path))
        header, *lines = path.read_text().splitlines()
        path.write_text(header + "\n\n" + "\n  \n".join(lines) + "\n\n")
        back = bench.load_runs_csv(str(path))
        assert [(r.problem, r.solver, r.iterations) for r in back.sorted_rows()] == \
               [(r.problem, r.solver, r.iterations) for r in hand_table().sorted_rows()]
        # a profile is written without a blank line
        curves = performance_profile(hand_table(), "iterations")
        bench.emit(curves, "csv", str(path))
        assert path.read_text().splitlines() == [bench.PROFILE_HEADER] + [
            f"{c.solver},{tau!r},{frac!r}" for c in curves for tau, frac in c.points]

    def test_loaders_reject_a_wrong_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text(bench.PROFILE_HEADER + "\ns1,1.0,0.5\n")
        with pytest.raises(ValueError, match="unexpected runs header"):
            bench.load_runs_csv(str(path))

    @pytest.mark.parametrize("cell", ["yes", "True", "1", "", "false "])
    def test_runs_success_cell_is_true_or_false(self, cell, tmp_path):
        # any other cell used to read as a failure
        path = tmp_path / "runs.csv"
        row = "branin,bfgs,0,42,{},5,0.01,1.0;2.0"
        path.write_text(f"{bench.RUNS_HEADER}\n{row.format('true')}\n{row.format('false')}\n")
        assert [r.success for r in bench.load_runs_csv(str(path)).rows] == [True, False]
        path.write_text(f"{bench.RUNS_HEADER}\n{row.format(cell)}\n")
        with pytest.raises(ValueError, match="column success"):
            bench.load_runs_csv(str(path))

    @pytest.mark.parametrize("bad, where", [
        ("branin,bfgs,x,42,true,5,0.01,1.0;2.0", "line 4, column run_index: "),
        ("branin,bfgs,0", "line 4: 3 cells, the header has 8"),
        ("branin,bfgs,0,42,true,5,0.01,1.0;2.0,", "line 4: 9 cells, the header has 8"),
        ("branin,bfgs,0,42,true,5,0.01,1.0;", "line 4, column start_point: "),
        ("branin,bfgs,0,42,true,-3,0.01,1.0;2.0", "line 4, column iterations: count must be"),
        ("branin,bfgs,0,42,true,2.0,0.01,1.0;2.0", "line 4, column iterations: "),
        ("branin,bfgs,0,-1,true,5,0.01,1.0;2.0", "line 4, column seed: count must be"),
        ("branin,bfgs,0,42,true,5,nan,1.0;2.0", "line 4, column elapsed_seconds: "),
        ("branin,bfgs,0,42,true,5,inf,1.0;2.0", "line 4, column elapsed_seconds: "),
        ("branin,bfgs,0,42,true,5,0.01,1.0;-inf", "line 4, column start_point: "),
        ("branin,bfgs,1_0,42,true,5,0.01,1.0;2.0", "line 4, column run_index: "),
        ("branin,bfgs,0,42,true, +5 ,0.01,1.0;2.0", "line 4, column iterations: "),
        ("branin,bfgs,0,42,true,5,1_0.5,1.0;2.0", "line 4, column elapsed_seconds: "),
    ], ids=["run_index=x", "3 cells", "9 cells", "start_point=1.0;", "iterations=-3",
            "iterations=2.0", "seed=-1", "elapsed_seconds=nan", "elapsed_seconds=inf",
            "start_point=1.0;-inf", "run_index=1_0", "iterations= +5 ",
            "elapsed_seconds=1_0.5"])
    def test_runs_cell_errors_name_file_line_and_column(self, bad, where, tmp_path):
        # each used to raise its parser's bare message, or (a negative count,
        # a non-finite number, a number in text no sweep writes) to be read
        path = tmp_path / "runs.csv"
        path.write_text(f"{bench.RUNS_HEADER}\nbranin,bfgs,0,0,true,5,0.01,1.0;2.0\n\n{bad}\n")
        with pytest.raises(ValueError) as err:
            bench.load_runs_csv(str(path))
        assert str(err.value).startswith(f"{path} {where}")

    @pytest.mark.parametrize("name", ["a,b", " a", "a\nb"], ids=repr)
    def test_text_that_does_not_read_back_is_not_written(self, name, tmp_path):
        # "a,b" and "a\nb" used to be written to files load_* rejects, and
        # " a" to read back as "a"
        path = tmp_path / "out.csv"
        for obj in (BenchmarkTable([row(name, "s1", 2)]), [ProfileCurve(name, [(1.0, 1.0)])]):
            with pytest.raises(ValueError, match="a CSV cell cannot hold the text"):
                bench.emit(obj, "csv", str(path))
            assert not path.exists()

    def test_runs_text_cell_is_not_padded(self, tmp_path):
        # it used to load as the solver " bfgs"
        path = tmp_path / "runs.csv"
        path.write_text(f"{bench.RUNS_HEADER}\nbranin, bfgs,0,42,true,5,0.01,1.0;2.0\n")
        with pytest.raises(ValueError, match="line 2, column solver: a CSV cell cannot hold"):
            bench.load_runs_csv(str(path))

    def test_optional_float_cell_is_empty_or_finite(self):
        parse, = bench._cell_rules(["Optional[float]"], 1)
        assert parse("") is None and parse("0.9") == 0.9
        pytest.raises(ValueError, parse, "nan")  # it used to read as nan

    def test_empty_curves_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        bench.emit([], "csv", str(path))
        assert path.read_text() == bench.PROFILE_HEADER + "\n"

    def test_fc_summary_layout(self, tmp_path):
        table = run_fc_benchmark(c_values=(0.1, 0.3), solvers=("bfgs", "q1", "q2", "q3"),
                                 config=SolverConfig())
        summary = fc_summary(table)
        path = tmp_path / "fc.csv"
        bench.emit(summary, "csv", str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("c,iter_bfgs,iter_q1,iter_q2,iter_q3,"
                            "time_bfgs,time_q1,time_q2,time_q3")
        assert len(lines) == 3
        assert all(len(line.split(",")) == 9 for line in lines[1:])

    def test_svg_render(self, tmp_path):
        curves = performance_profile(hand_table(), "iterations")
        path = tmp_path / "prof.svg"
        bench.emit(curves, "svg", str(path))
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "s1" in text and "s2" in text

    def test_svg_escapes_solver_names(self, tmp_path):
        path = tmp_path / "prof.svg"
        bench.emit([ProfileCurve("q<1&", [(1.0, 1.0)])], "svg", str(path))
        texts = [e.text for e in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-1] == "q<1&"

    @pytest.mark.parametrize("iterations", [(1, 1), (2, 3)], ids=["all-tie", "max-tau-1.5"])
    def test_svg_coordinates_lie_on_the_canvas(self, iterations, tmp_path):
        # below max tau = 2 the tau = 2 grid line used to be drawn off the
        # 640-wide canvas: at x = 520000000060.00 on a tie, about 949 at 1.5
        t = BenchmarkTable()
        t.rows += [row("p1", "s1", iterations[0]), row("p1", "s2", iterations[1])]
        path = tmp_path / "prof.svg"
        bench.emit(performance_profile(t, "iterations"), "svg", str(path))
        xs = [float(v) for v in re.findall(r' x[12]?="([^"]+)"', path.read_text())]
        assert xs and all(0.0 <= x <= 640.0 for x in xs)

    def test_unsupported_object_rejected_before_writing(self, tmp_path):
        path = tmp_path / "x.csv"
        with pytest.raises(TypeError, match="cannot serialize dict"):
            bench.emit({"rows": []}, "csv", str(path))
        assert not path.exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bench.emit(hand_table(), "json", str(tmp_path / "x"))

    def test_bad_path_has_context(self):
        with pytest.raises(OSError) as err:
            bench.emit(hand_table(), "csv", "/nonexistent-dir-xyz/out.csv")
        assert "out.csv" in str(err.value)


class TestIsSuccess:
    def test_distance_or_gap(self):
        prob = get_problem("sphere")
        near = SolveResult(status="converged", x_final=np.full(8, 1e-4 / np.sqrt(8)),
                           f_final=1e-8, iterations=1, elapsed_seconds=0.0, trace=[])
        assert is_success(prob, near)
        far = SolveResult(status="converged", x_final=np.full(8, 1.0),
                          f_final=8.0, iterations=1, elapsed_seconds=0.0, trace=[])
        assert not is_success(prob, far)
        failed = SolveResult(status="max_iterations", x_final=np.zeros(8),
                             f_final=0.0, iterations=5, elapsed_seconds=0.0, trace=[])
        assert not is_success(prob, failed)


class TestDivergenceGuard:
    """Every solve of a sweep, its config floored by bench.sweep_rules, stops
    once f drops below known_min_value - SUCCESS_VALUE_GAP; such runs could
    not have succeeded anyway."""

    # 300 iterations, not SolverConfig()'s 10,000: unguarded Schwefel q runs
    # take up to 7,703 of them, and every assertion here holds at either budget
    SWEEP = dict(solvers=bench.SOLVERS, master_seed=42, runs_required=3, attempt_cap=8,
                 config=SolverConfig(max_iterations=300))

    def test_floor_lies_below_every_known_minimizer(self):
        # the value branch of is_success fails below the floor by definition;
        # the distance branch needs a minimizer there, and none is
        for problem in standard_suite():
            floor = problem.known_min_value - bench.SUCCESS_VALUE_GAP
            for m in problem.known_minimizers:
                assert problem.objective(np.asarray(m, dtype=float)) >= floor, problem.name

    @pytest.fixture(scope="class")
    def sweeps(self, recorded_solves):
        suite = [p for p in standard_suite() if p.name in ("schwefel", "branin")]
        solves = recorded_solves()
        guarded = run_suite_benchmark(suite=suite, wrap=solves, **self.SWEEP)
        statuses = [(p.name, s, r.status) for p, s, r in solves]

        def unguarded(solver, solve):  # no floor
            return lambda problem, x0, config: solve(
                problem, x0, dataclasses.replace(config, f_floor=float("-inf")))

        free = run_suite_benchmark(suite=suite, wrap=unguarded, **self.SWEEP)
        return guarded, free, statuses

    def test_guard_fires_on_schwefel(self, sweeps):
        _, _, statuses = sweeps
        diverged = [(p, s) for p, s, status in statuses if status == STATUS_DIVERGED]
        assert any(p == "schwefel" and s.startswith("q") for p, s in diverged)

    def test_guard_changes_only_failed_iterations(self, sweeps):
        guarded, free, _ = sweeps
        a, b = guarded.sorted_rows(), free.sorted_rows()
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert (ra.problem, ra.solver, ra.run_index, ra.seed, ra.success) == \
                   (rb.problem, rb.solver, rb.run_index, rb.seed, rb.success)
            assert np.array_equal(ra.start_point, rb.start_point)
            if ra.success:
                assert ra.iterations == rb.iterations
            else:
                assert ra.iterations <= rb.iterations
        assert sum(r.iterations for r in a) < sum(r.iterations for r in b)


# NumPy floor: the bound's thin margin near a minimum must hold for f as its SIMD loops round it
@pytest.mark.numpy_floor
class TestLowerBoundSkip:
    """The line search skips only the trials that ``Problem.lower_bound``
    shows cannot pass, so no iterate of a benchmark sweep depends on it."""

    SWEEPS = {"fc": lambda wrap: run_fc_benchmark(wrap=wrap),
              "suite": lambda wrap: run_suite_benchmark(master_seed=42, runs_required=3,
                                                        attempt_cap=6, wrap=wrap)}

    @staticmethod
    def solves(sweep, unbounded):
        """(solve without its trials, trials per record) of each solve of
        ``sweep``, with every problem's lower_bound -inf if ``unbounded``: a
        search that skips nothing."""
        results = []

        def wrap(solver, solve):
            def run(problem, x0, config):
                if unbounded:
                    problem = dataclasses.replace(problem, lower_bound=float("-inf"))
                results.append(solve(problem, x0, config))
                return results[-1]
            return run
        sweep(wrap)
        return [(repr((r.status, r.x_final.tobytes(), r.f_final, r.iterations,
                       [{**vars(record), "trials": None} for record in r.trace])),
                 [record.trials for record in r.trace]) for r in results]

    def test_skip_moves_no_iterate_sweep_wide(self):
        for name, sweep in self.SWEEPS.items():
            bounded, free = self.solves(sweep, False), self.solves(sweep, True)
            assert [key for key, _ in bounded] == [key for key, _ in free], name
            assert all(t <= u for (_, a), (_, b) in zip(bounded, free) for t, u in zip(a, b))
            skipped = sum(sum(b) - sum(a) for (_, a), (_, b) in zip(bounded, free))
            assert skipped > 0, name
