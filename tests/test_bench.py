import dataclasses

import numpy as np
import pytest

from qlinesearch import bench
from qlinesearch.bench import (BenchmarkRow, BenchmarkTable, ProfileCurve,
                               fc_summary, is_success, performance_profile,
                               run_fc_benchmark, run_suite_benchmark)
from qlinesearch.problems import standard_suite
from qlinesearch.usolve import STATUS_DIVERGED, SolverConfig


def row(problem, solver, iterations, success=True, run_index=0, secs=0.0):
    return BenchmarkRow(problem=problem, solver=solver, run_index=run_index,
                        seed=0, success=success, iterations=iterations,
                        elapsed_seconds=secs, start_point=np.zeros(2))


def hand_table():
    t = BenchmarkTable()
    t.rows += [row("p1", "s1", 2), row("p1", "s2", 4),
               row("p2", "s1", 10), row("p2", "s2", 5)]
    return t


class TestPerformanceProfile:
    def test_two_solver_hand_dataset(self):
        curves = {c.solver: dict(c.points) for c in
                  performance_profile(hand_table(), "iterations")}
        assert curves["s1"][1.0] == 0.5
        assert curves["s1"][2.0] == 1.0
        assert curves["s2"][1.0] == 0.5
        assert curves["s2"][2.0] == 1.0

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

    def test_curves_nondecreasing_and_best_ratio_one(self):
        rng = np.random.default_rng(61)
        t = BenchmarkTable()
        for pi in range(6):
            for s in ("a", "b", "c"):
                t.rows.append(row(f"p{pi}", s, int(rng.integers(1, 40))))
        for curve in performance_profile(t, "iterations"):
            fr = [f for _, f in curve.points]
            assert all(b >= a for a, b in zip(fr, fr[1:]))
        at_one = [dict(c.points)[1.0] for c in performance_profile(t, "iterations")]
        assert max(at_one) > 0.0

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

    def test_time_metric(self):
        t = BenchmarkTable()
        t.rows += [row("p1", "s1", 1, secs=2.0), row("p1", "s2", 1, secs=4.0)]
        curves = {c.solver: dict(c.points) for c in
                  performance_profile(t, "time")}
        assert curves["s2"][2.0] == 1.0 and curves["s2"][1.0] == 0.0


class TestFcBenchmark:
    def test_shape_and_success(self):
        config = SolverConfig()
        table = run_fc_benchmark(c_values=(0.5,), gammas=(1,), config=config)
        assert len(table.rows) == 20  # 2 solvers x 10 starts
        assert all(r.success for r in table.rows)
        summary = fc_summary(table, c_values=(0.5,), solvers=("bfgs", "q1"))
        assert len(summary) == 1
        assert 3.0 <= summary[0].iterations["q1"] <= 7.0
        assert 6.0 <= summary[0].iterations["bfgs"] <= 13.0

    def test_injected_optimal_start(self):
        table = run_fc_benchmark(c_values=(0.9,), gammas=(1,),
                                 y_values=(1.0,), config=SolverConfig())
        # start (0.9, 1.0) is not the minimizer; now inject (1, 1) directly
        from qlinesearch.problems import make_fc
        from qlinesearch.usolve import solve_qls
        r = solve_qls(make_fc(0.9), np.array([1.0, 1.0]))
        assert r.status == "converged" and r.iterations == 0


class TestSuiteBenchmark:
    def test_determinism_nontime_columns(self):
        suite = [p for p in standard_suite() if p.name in ("sphere", "zakharov")]
        kwargs = dict(suite=suite, solvers=("bfgs", "q1"), master_seed=7,
                      runs_required=3, attempt_cap=20)
        t1 = run_suite_benchmark(**kwargs)
        t2 = run_suite_benchmark(**kwargs)
        a, b = t1.sorted_rows(), t2.sorted_rows()
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert (ra.problem, ra.solver, ra.run_index, ra.seed,
                    ra.success, ra.iterations) == \
                   (rb.problem, rb.solver, rb.run_index, rb.seed,
                    rb.success, rb.iterations)
            assert np.array_equal(ra.start_point, rb.start_point)

    def test_starts_inside_box(self):
        suite = [p for p in standard_suite() if p.name == "branin"]
        t = run_suite_benchmark(suite=suite, solvers=("q1",), master_seed=3,
                                runs_required=3, attempt_cap=10)
        center = suite[0].known_minimizers[0]
        for r in t.rows:
            assert np.all(np.abs(r.start_point - center) <= 0.5 + 1e-12)

    def test_quadratics_converge_fast(self):
        suite = [p for p in standard_suite() if p.name in ("sphere", "sumsquares",
                                                           "rotatedhyperellipsoid")]
        t = run_suite_benchmark(suite=suite, solvers=("q1",), master_seed=5,
                                runs_required=5, attempt_cap=10)
        assert all(r.success and r.iterations <= 3 for r in t.rows)


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

    def test_profile_round_trip(self, tmp_path):
        curves = performance_profile(hand_table(), "iterations")
        path = tmp_path / "prof.csv"
        bench.emit(curves, "csv", str(path))
        back = bench.load_profile_csv(str(path))
        assert [(c.solver, c.points) for c in back] == \
               [(c.solver, c.points) for c in curves]

    def test_empty_curves_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        bench.emit([], "csv", str(path))
        assert path.read_text() == bench.PROFILE_HEADER + "\n"

    def test_fc_summary_layout(self, tmp_path):
        table = run_fc_benchmark(c_values=(0.1, 0.3), gammas=(1, 2, 3),
                                 config=SolverConfig())
        summary = fc_summary(table, c_values=(0.1, 0.3))
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

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bench.emit(hand_table(), "json", str(tmp_path / "x"))

    def test_bad_path_has_context(self):
        with pytest.raises(OSError) as err:
            bench.emit(hand_table(), "csv", "/nonexistent-dir-xyz/out.csv")
        assert "out.csv" in str(err.value)


class TestIsSuccess:
    def test_distance_or_gap(self):
        from qlinesearch.problems import get_problem
        from qlinesearch.usolve import SolveResult
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
    """The suite sweep stops runs once f drops below known_min_value -
    SUCCESS_VALUE_GAP; such runs could not have succeeded anyway."""

    SWEEP = dict(solvers=bench.SOLVERS, master_seed=42, runs_required=3, attempt_cap=8)

    def test_floor_lies_below_every_known_minimizer(self):
        # the value branch of is_success fails below the floor by definition;
        # the distance branch needs a minimizer there, and none is
        for problem in standard_suite():
            floor = problem.known_min_value - bench.SUCCESS_VALUE_GAP
            for m in problem.known_minimizers:
                assert problem.objective(np.asarray(m, dtype=float)) >= floor, problem.name

    @pytest.fixture(scope="class")
    def sweeps(self):
        suite = [p for p in standard_suite() if p.name in ("schwefel", "branin")]
        statuses = []
        guarded = run_suite_benchmark(
            suite=suite, result_hook=lambda p, s, r: statuses.append((p.name, s, r.status)),
            **self.SWEEP)
        original = bench._solver_run

        def unguarded_run(solver, problem, x0, config, q0):
            config = dataclasses.replace(config, f_floor=float("-inf"))
            return original(solver, problem, x0, config, q0)

        bench._solver_run = unguarded_run
        try:
            free = run_suite_benchmark(suite=suite, **self.SWEEP)
        finally:
            bench._solver_run = original
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
