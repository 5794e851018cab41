"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The published
iteration-count table for the fc family is reproduced cell by cell; the
q-solver variants and the BFGS baseline run under the exact experiment
protocol (q0 = 0.9, eps = 1e-5, Armijo constant 1e-4, backtracking factor
0.5 from unit steps).  The curvature constant 0.9 is evaluated at the
accepted step and reported, not enforced (see ``qlinesearch.linesearch``).
"""

import time

import numpy as np
import pytest

import qlinesearch as q
from qlinesearch import bench
from qlinesearch.cli import main as cli_main
from qlinesearch.qcalc import QSchedule
from qlinesearch.sqp import ConstrainedProblem, qp_active_set, solve_qsqp
from qlinesearch.usolve import SolverConfig, solve_bfgs, solve_qls

# published mean iteration counts: c -> (bfgs, q1, q2, q3)
PUBLISHED_FC_ITERATIONS = {
    0.1: (7.1, 5.0, 5.0, 4.9),
    0.3: (7.3, 5.0, 4.9, 4.7),
    0.5: (9.8, 5.0, 4.8, 4.5),
    0.7: (8.1, 4.6, 4.0, 4.0),
    0.9: (7.5, 4.1, 3.7, 3.3),
    1.1: (8.0, 4.1, 3.8, 3.7),
    1.3: (9.1, 4.3, 4.1, 4.0),
    1.5: (9.1, 5.3, 4.7, 4.7),
    1.7: (9.2, 5.8, 5.8, 5.5),
    1.9: (9.8, 5.8, 5.6, 5.5),
}
SOLVER_ORDER = ("bfgs", "q1", "q2", "q3")
# Published cells that the stated protocol does not produce (docs/fc_c05.md).
# Each is exempt from the +-2 band and checked run for run against
# _oracle_bfgs_iterations instead.
FC_ERRATA = {(0.5, "bfgs")}
# BFGS cells whose published mean the oracle reproduces exactly; they
# calibrate the oracle against the paper.
ORACLE_EXACT_C = (0.1, 0.3, 0.7, 1.1, 1.3, 1.5)


def _report(number, description, ok):
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {description}")


def _oracle_bfgs_iterations(x0):
    """Iterations of textbook BFGS on the Rosenbrock branch of fc from x0.

    Inverse update H0 = I (Nocedal & Wright, Alg. 6.1), Armijo backtracking
    with c1 = 1e-4 halving from alpha = 1 (Alg. 3.1), stop at ||g||_2 < 1e-5,
    update skipped unless s.y > 1e-10 ||s|| ||y||.  The branch is written out
    without its constant c and nothing from the package is used, so a match
    checks both the solver and that c leaves the BFGS column unchanged while
    the iterates stay off the joint x = c.
    """
    def f(x):
        return 0.05 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

    def grad(x):
        return np.array([-0.2 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                         0.1 * (x[1] - x[0] ** 2)])

    x = np.array(x0, dtype=float)
    H = np.eye(2)
    g = grad(x)
    for k in range(100):
        if np.linalg.norm(g) < 1e-5:
            return k
        p = -H @ g
        alpha = 1.0
        while f(x + alpha * p) > f(x) + 1e-4 * alpha * (g @ p):
            alpha *= 0.5
        s = alpha * p
        g_new = grad(x + s)
        y = g_new - g
        sy = s @ y
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            V = np.eye(2) - np.outer(s, y) / sy
            H = V @ H @ V.T + np.outer(s, s) / sy
        x, g = x + s, g_new
    raise AssertionError(f"oracle BFGS did not converge from {x0}")


@pytest.fixture(scope="module")
def fc_results():
    """The fc benchmark at the published protocol, with traces captured."""
    traces = []
    t0 = time.perf_counter()
    table = bench.run_fc_benchmark(
        q0=0.9, gammas=(1, 2, 3), config=SolverConfig(grad_tolerance=1e-5),
        result_hook=lambda prob, solver, res: traces.append((solver, res)))
    elapsed = time.perf_counter() - t0
    summary = bench.fc_summary(table)
    means = {row.c: tuple(row.iterations[s] for s in SOLVER_ORDER)
             for row in summary}
    return {"table": table, "means": means, "elapsed": elapsed, "traces": traces}


@pytest.fixture(scope="module")
def suite_csvs(tmp_path_factory):
    """Two identical CLI invocations of the randomized suite benchmark."""
    d = tmp_path_factory.mktemp("suitebench")
    paths = [str(d / "runs_a.csv"), str(d / "runs_b.csv")]
    codes = [cli_main(["bench", "suite", "--seed", "42", "--out", p])
             for p in paths]
    return {"paths": paths, "codes": codes}


def test_criterion_01_fc_iteration_reproduction(fc_results):
    table = fc_results["table"]

    def runs(c, solver):
        return sorted(table.cell(q.make_fc(c).name, solver),
                      key=lambda r: r.run_index)

    bad = []
    for c, expected in PUBLISHED_FC_ITERATIONS.items():
        got = fc_results["means"][c]
        for solver, g, e in zip(SOLVER_ORDER, got, expected):
            if (c, solver) in FC_ERRATA:
                continue
            if not (np.isfinite(g) and abs(g - e) <= 2.0):
                bad.append(f"c={c} {solver}: mean {g:.2f} vs published {e}")
    for c in ORACLE_EXACT_C:
        counts = [_oracle_bfgs_iterations(r.start_point) for r in runs(c, "bfgs")]
        published = PUBLISHED_FC_ITERATIONS[c][0]
        if sum(counts) / len(counts) != published:
            bad.append(f"c={c} oracle bfgs: counts {counts} vs published {published}")
    errata = []
    for c, solver in sorted(FC_ERRATA):
        rows = runs(c, solver)
        got = [(r.success, r.iterations) for r in rows]
        want = [(True, _oracle_bfgs_iterations(r.start_point)) for r in rows]
        if len(rows) != 10 or got != want:
            bad.append(f"c={c} {solver}: runs {got} vs oracle {want}")
        # premise of the oracle: the iterates stay on the Rosenbrock side x >= c
        iterates = []
        for r in rows:
            solve_bfgs(q.make_fc(c), r.start_point,
                       config=SolverConfig(grad_tolerance=1e-5),
                       callback=iterates.append)
        crossed = [x for x in iterates if x[0] < c]
        if crossed:
            bad.append(f"c={c} {solver}: {len(crossed)} iterates cross x = c")
        col = SOLVER_ORDER.index(solver)
        errata.append(f"c={c} {solver} published {PUBLISHED_FC_ITERATIONS[c][col]}, "
                      f"protocol {fc_results['means'][c][col]:.2f}, erratum")
    ok = not bad and fc_results["elapsed"] < 60.0
    _report(1, "fc iteration table reproduced within +-2 per cell, under 60 s; "
               + "; ".join(errata), ok)
    assert fc_results["elapsed"] < 60.0
    assert not bad, "; ".join(bad)


def test_criterion_02_gamma_trend(fc_results):
    hits = sum(1 for c in PUBLISHED_FC_ITERATIONS
               if fc_results["means"][c][3] <= fc_results["means"][c][1] + 0.5)
    ok = hits >= 8
    _report(2, f"Q3 <= Q1 + 0.5 on {hits}/10 c values (need >= 8)", ok)
    assert ok


def test_criterion_03_q_beats_bfgs(fc_results):
    bad = []
    for c in PUBLISHED_FC_ITERATIONS:
        means = fc_results["means"][c]
        for solver, m in zip(SOLVER_ORDER[1:], means[1:]):
            if not m < means[0]:
                bad.append(f"c={c} {solver}={m:.2f} vs bfgs={means[0]:.2f}")
    ok = not bad
    _report(3, "every Q variant needs fewer mean iterations than BFGS", ok)
    assert ok, "; ".join(bad)


def test_criterion_04_quadratic_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    max_iters = 0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        M = rng.uniform(-1, 1, (n, n))
        Q = M @ M.T + (0.5 + rng.uniform(0, 1)) * np.eye(n)
        Q = 0.5 * (Q + Q.T)
        b = rng.uniform(-1, 1, n)
        x = rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n)
        qv = float(rng.uniform(0.1, 0.99))
        surrogate = q.q_hessian(lambda z: Q @ z + b, x, qv).matrix
        worst = max(worst, float(np.max(np.abs(surrogate - Q))))
        prob = q.Problem(name="quad", dimension=n,
                         objective=lambda z: float(0.5 * z @ Q @ z + b @ z),
                         gradient=lambda z: Q @ z + b,
                         known_minimizers=[np.linalg.solve(Q, -b)],
                         known_min_value=0.0)
        r = solve_qls(prob, x, schedule=QSchedule(qv, 1))
        max_iters = max(max_iters, r.iterations)
        assert r.status == "converged"
    ok = worst <= 1e-10 and max_iters <= 3
    _report(4, f"200 random quadratics: max surrogate error {worst:.2e}, "
               f"max iterations {max_iters}", ok)
    assert worst <= 1e-10
    assert max_iters <= 3


def test_criterion_05_psd_modification_suite():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        M = rng.uniform(-1, 1, (n, n))
        A = 0.5 * (M + M.T)
        bundle = q.ldl_factor(A)
        P = np.eye(n)[bundle.permutation]
        rec = (bundle.lower_unit_triangular @ bundle.block_diagonal()
               @ bundle.lower_unit_triangular.T)
        assert np.max(np.abs(P @ A @ P.T - rec)) <= 1e-8 * max(np.max(np.abs(A)), 1e-30)
        ew = np.linalg.eigvalsh(A)
        assert np.sum(ew > 0) == np.sum(bundle.block_eigenvalues > 0)
        assert np.sum(ew < 0) == np.sum(bundle.block_eigenvalues < 0)
        mod = q.psd_modify(A)
        np.linalg.cholesky(mod.modified_matrix)
        assert np.linalg.eigvalsh(mod.modified_matrix)[0] > 0.0
        if np.all(bundle.block_eigenvalues >= mod.delta):
            assert mod.modification_frobenius == 0.0
        else:
            assert mod.modification_frobenius > 0.0
    # hand examples at 1e-12
    m1 = q.psd_modify(np.eye(2), 0.01)
    assert m1.modification_frobenius == 0.0
    np.testing.assert_allclose(m1.modified_matrix, np.eye(2), atol=1e-12)
    m2 = q.psd_modify(np.diag([1.0, -1.0]), 0.01)
    np.testing.assert_allclose(m2.modified_matrix, np.diag([1.0, 0.01]), atol=1e-12)
    m3 = q.psd_modify(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5)
    np.testing.assert_allclose(m3.modified_matrix, [[0.75, 0.25], [0.25, 0.75]],
                               atol=1e-12)
    _report(5, "1000-matrix factorization/modification suite and hand examples", True)


def test_criterion_06_superlinear_signature():
    prob = q.Problem(name="quartic", dimension=4,
                     objective=lambda x: float(np.sum(x ** 4 + x ** 2)),
                     gradient=lambda x: 4.0 * x ** 3 + 2.0 * x,
                     known_minimizers=[np.zeros(4)], known_min_value=0.0)
    xs = []
    r = solve_qls(prob, np.ones(4), config=SolverConfig(grad_tolerance=1e-8),
                  schedule=QSchedule(0.9, 2), callback=lambda x: xs.append(x))
    errs = [np.linalg.norm(np.ones(4))] + [np.linalg.norm(x) for x in xs]
    ratios = [b / a for a, b in zip(errs, errs[1:]) if a > 0]
    tail = ratios[-3:]
    ok = r.status == "converged" and len(ratios) >= 3 and all(t < 0.1 for t in tail)
    _report(6, f"superlinear signature: final ratios {['%.1e' % t for t in tail]}", ok)
    assert ok


def test_criterion_07_lemma_monitor(fc_results):
    records = 0
    for solver, res in fc_results["traces"]:
        for t in res.trace:
            assert t.cos_theta > 0.0
            assert t.cos_theta >= 1.0 / t.condition_number - 1e-10
            records += 1
    # a randomized slice of the suite exercises the monitor off the fc family
    traces = []
    suite = [p for p in q.standard_suite()
             if p.name in ("branin", "hartmann3", "levy", "schwefel")]
    bench.run_suite_benchmark(suite=suite, solvers=("bfgs", "q1"), master_seed=9,
                              runs_required=3, attempt_cap=10,
                              result_hook=lambda p, s, res: traces.append(res))
    for res in traces:
        for t in res.trace:
            assert t.cos_theta > 0.0
            assert t.cos_theta >= 1.0 / t.condition_number - 1e-10
            records += 1
    _report(7, f"descent-angle monitor held on {records} trace records", True)


def test_criterion_08_gradient_checks():
    rng = np.random.default_rng(107)
    worst = 0.0

    def check(problem, avoid=None):
        nonlocal worst
        count = 0
        while count < 20:
            x = (problem.start_box.center
                 + problem.start_box.side * (rng.random(problem.dimension) - 0.5))
            if avoid is not None and avoid(x):
                continue
            worst = max(worst, q.check_gradient(problem, x, 1e-6))
            count += 1

    for problem in q.standard_suite():
        check(problem)
    for c in PUBLISHED_FC_ITERATIONS:
        check(q.make_fc(c),
              avoid=lambda x, c=c: abs(x[0] - c) < 1e-2 or abs(x[0]) < 1e-2)
    ok = worst < 1e-5
    _report(8, f"gradient checks on suite and fc family: worst error {worst:.2e}", ok)
    assert ok


def test_criterion_09_sqp():
    circle = ConstrainedProblem(
        objective=lambda x: float(x[0] + x[1]),
        gradient=lambda x: np.array([1.0, 1.0]),
        x0=np.array([-0.5, -1.5]),
        h=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
        jac_h=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        n_eq=1)
    r = solve_qsqp(circle)
    assert r.status == "converged"
    assert r.iterations <= 30
    np.testing.assert_allclose(r.x_final, [-1.0, -1.0], atol=1e-5)
    merits = [t.merit_value for t in r.trace]
    assert all(b < a for a, b in zip(merits, merits[1:]))

    # zero-constraint runs coincide with the unconstrained solver bitwise,
    # iterate for iterate; the 0.1|x|^2 bowl has curvature below 1, where an
    # eigenvalue floor meant for constrained runs would change the steps
    bowls = [("quartic", lambda x: float(np.sum(x ** 4 + x ** 2)),
              lambda x: 4.0 * x ** 3 + 2.0 * x, np.array([1.0, -0.7, 0.4, 1.3])),
             ("shallow", lambda x: float(0.1 * (x @ x)), lambda x: 0.2 * x,
              np.array([1.0, -0.7, 0.4]))]
    parity = []
    for name, objective, gradient, x0 in bowls:
        prob = q.Problem(name=name, dimension=x0.shape[0], objective=objective,
                         gradient=gradient, known_minimizers=[np.zeros(x0.shape[0])],
                         known_min_value=0.0)
        xs_a, xs_b = [], []
        ra = solve_qls(prob, x0, schedule=QSchedule(0.9, 2),
                       callback=lambda x: xs_a.append(x))
        rb = solve_qsqp(ConstrainedProblem(objective=objective, gradient=gradient, x0=x0),
                        schedule=QSchedule(0.9, 2), callback=lambda x: xs_b.append(x))
        assert ra.status == rb.status == "converged"
        assert ra.iterations == rb.iterations and len(xs_a) == len(xs_b) >= 1
        assert all(np.array_equal(a, b) for a, b in zip(xs_a, xs_b))
        parity.append(f"{name} {ra.iterations}")

    # active-set hand examples
    s1 = qp_active_set(np.eye(2), np.array([1.0, 0.0]),
                       ineq=(np.array([[-1.0, 0.0]]), np.array([0.0])))
    np.testing.assert_allclose(s1.d_x, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(s1.d_v, [1.0], atol=1e-12)
    s2 = qp_active_set(np.eye(2), np.array([-1.0, 0.0]),
                       ineq=(np.array([[-1.0, 0.0]]), np.array([0.0])))
    np.testing.assert_allclose(s2.d_x, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(s2.d_v, [0.0], atol=1e-12)
    _report(9, f"SQP battery: circle in {r.iterations} iterations, merit monotone, "
               f"bitwise parity ({', '.join(parity)} iterations), QP hand examples", True)


def test_criterion_10_profile_correctness(suite_csvs):
    t = bench.BenchmarkTable()
    for (p, s, iters) in [("p1", "s1", 2), ("p1", "s2", 4),
                          ("p2", "s1", 10), ("p2", "s2", 5)]:
        t.rows.append(bench.BenchmarkRow(problem=p, solver=s, run_index=0, seed=0,
                                         success=True, iterations=iters,
                                         elapsed_seconds=0.0,
                                         start_point=np.zeros(1)))
    curves = {c.solver: dict(c.points) for c in
              bench.performance_profile(t, "iterations")}
    assert curves["s1"][1.0] == 0.5
    assert curves["s1"][2.0] == 1.0
    # nondecreasing on the real benchmark output
    table = bench.load_runs_csv(suite_csvs["paths"][0])
    for metric in ("iterations", "time"):
        for curve in bench.performance_profile(table, metric, runs_required=10):
            fr = [f for _, f in curve.points]
            assert all(b >= a for a, b in zip(fr, fr[1:]))
    _report(10, "hand profile exact; benchmark profiles nondecreasing", True)


def test_criterion_11_determinism(suite_csvs):
    a = open(suite_csvs["paths"][0], encoding="utf-8").read().splitlines()
    b = open(suite_csvs["paths"][1], encoding="utf-8").read().splitlines()
    assert len(a) == len(b)
    header = a[0].split(",")
    time_col = header.index("elapsed_seconds")
    mismatches = 0
    for la, lb in zip(a, b):
        fa = la.split(",")
        fb = lb.split(",")
        del fa[time_col], fb[time_col]
        if fa != fb:
            mismatches += 1
    ok = mismatches == 0 and suite_csvs["codes"][0] == suite_csvs["codes"][1]
    _report(11, f"two seed-42 suite invocations byte-identical in non-time "
                f"columns ({len(a) - 1} rows)", ok)
    assert ok
