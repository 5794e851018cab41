"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The published
iteration-count table for the fc family is reproduced cell by cell; the
q-solver variants and the BFGS baseline run under the exact experiment
protocol (q0 = 0.9, eps = 1e-5, Armijo constant 1e-4, backtracking factor
0.5 from unit steps).  The line search is Armijo only: no curvature
condition is evaluated (see ``qlinesearch.usolve.backtracking_step``).
"""

import itertools
import re
import time
from pathlib import Path

import numpy as np
import pytest

import qlinesearch as q
from qlinesearch import bench, sqp
from qlinesearch.cli import main as cli_main
from qlinesearch.psdfactor import psd_modify
from qlinesearch.qmatrix import QSchedule, q_hessian
from qlinesearch.sqp import ConstrainedProblem, qp_active_set, solve_qsqp
from qlinesearch.usolve import SolverConfig, solve_bfgs, solve_qls

from conftest import circle

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


def _oracle_q_iterations(c, x0, gamma):
    """Iterations of the q-line-search on fc_c (c > 0) from x0, written out.

    fc with the |x|/c coefficient on the side of x = c away from (1, 1); the
    q-Hessian row i is (g(x) - g(x with x_i scaled by q)) / ((1 - q) x_i),
    symmetrized; a 2x2 Bunch-Kaufman pivot choice with every block eigenvalue
    floored at sqrt(eps) max(1, max |a_ij|); Armijo with c1 = 1e-4 halving from
    alpha = 1; q_0 = q_1 = 0.9 and q_{k+1} = 1 - q_k^gamma / k; stop at
    ||g||_2 < 1e-5.  Nothing from the package is used (docs/fc_q.md).
    """
    def rosen_side(x):
        return x[0] >= c if c <= 1.0 else x[0] <= c

    def f(x):
        if rosen_side(x):
            return 0.05 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2 + c
        return (abs(x[0]) / c * (1.0 - x[0]) ** 2 + 0.05 * (x[1] - x[0] ** 2) ** 2
                - (1.0 - c) ** 2 / c * (x[0] - c) + c)

    def grad(x):
        gy = 0.1 * (x[1] - x[0] ** 2)
        if rosen_side(x):
            return np.array([-0.2 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), gy])
        sign = 1.0 if x[0] >= 0.0 else -1.0
        return np.array([sign / c * (1.0 - x[0]) ** 2 - 2.0 * abs(x[0]) / c * (1.0 - x[0])
                         - (1.0 - c) ** 2 / c - 0.2 * x[0] * (x[1] - x[0] ** 2), gy])

    def modified_newton_step(A, g):
        delta = np.sqrt(np.finfo(float).eps) * max(1.0, np.abs(A).max())
        alpha = (1.0 + np.sqrt(17.0)) / 8.0
        a, b, d = A[0, 0], A[1, 0], A[1, 1]
        if abs(a) >= alpha * abs(b) or (a != 0.0 and abs(a) * abs(b) >= alpha * b * b):
            perm = [0, 1]  # 1x1 pivot a
        elif abs(d) >= alpha * abs(b):
            perm, a, d = [1, 0], d, a  # 1x1 pivot d, after the interchange
        else:  # one 2x2 pivot: the blocks' eigenpairs are A's own
            w, V = np.linalg.eigh(A)
            return V @ ((V.T @ -g) / (w + np.maximum(delta - w, 0.0)))
        l = b / a if a != 0.0 else 0.0
        pivots = np.array([a, d - l * b])
        pivots = pivots + np.maximum(delta - pivots, 0.0)
        r = -g[perm]
        z1 = (r[1] - l * r[0]) / pivots[1]
        p = np.empty(2)
        p[perm] = (r[0] / pivots[0] - l * z1, z1)
        return p

    x, q = np.array(x0, dtype=float), 0.9
    for k in range(100):
        g = grad(x)
        if np.linalg.norm(g) < 1e-5:
            return k
        rows = np.array([(g - grad(np.where(np.arange(2) == i, q * x, x))) / ((1.0 - q) * x[i])
                         for i in range(2)])
        p = modified_newton_step(0.5 * (rows + rows.T), g)
        alpha = 1.0
        while f(x + alpha * p) > f(x) + 1e-4 * alpha * (g @ p):
            alpha *= 0.5
        x = x + alpha * p
        q = q if k == 0 else 1.0 - q ** gamma / k
    raise AssertionError(f"oracle q{gamma} did not converge on fc_c{c} from {x0}")


@pytest.fixture(scope="module")
def fc_results(recorded_solves):
    """The fc benchmark at the published protocol, with traces captured."""
    t0 = time.perf_counter()
    solves = recorded_solves()
    table = bench.run_fc_benchmark(q0=0.9, solvers=("bfgs", "q1", "q2", "q3"),
                                   config=SolverConfig(grad_tolerance=1e-5), wrap=solves)
    elapsed = time.perf_counter() - t0
    traces = [(solver, res) for _, solver, res in solves]
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


def test_fc_q_columns_follow_the_oracle(fc_results):
    # all 300 q runs of the published grid, start by start (docs/fc_q.md):
    # criterion 01 checks only the cell means against the +-2 band
    rows = [r for r in fc_results["table"].rows if r.solver != "bfgs"]
    got = [(r.problem, r.solver, r.run_index, r.success, r.iterations) for r in rows]
    want = [(r.problem, r.solver, r.run_index, True,
             _oracle_q_iterations(r.start_point[0], r.start_point, int(r.solver[1:])))
            for r in rows]
    assert len(rows) == 300
    assert got == want


def test_readme_results_table(fc_results):
    # README's fc table: c, then each solver's published and reproduced mean;
    # a reproduced mean is of ten whole counts, so one decimal is exact
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Results\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if re.match(r"\| \d", line):
            c, *cells = [cell.strip() for cell in line.strip("|").split("|")]
            table[c] = cells
    assert {c: [cell.split()[0] for cell in cells[0::2]] for c, cells in table.items()} == \
        {f"{c:.1f}": [f"{m:.1f}" for m in means] for c, means in PUBLISHED_FC_ITERATIONS.items()}
    assert {c: cells[1::2] for c, cells in table.items()} == \
        {f"{c:.1f}": [f"{m:.1f}" for m in fc_results["means"][c]] for c in PUBLISHED_FC_ITERATIONS}
    # the erratum cells, and only they, link their analysis
    assert {(float(c), SOLVER_ORDER[i]) for c, cells in table.items()
            for i, cell in enumerate(cells[0::2]) if "(docs/fc_c05.md)" in cell} == FC_ERRATA


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
    # hand examples at 1e-12; the randomized claims (reassembly, inertia,
    # Cholesky of A + E, E = 0 exactly when nothing is shifted) are
    # tests/test_psdfactor.py's TestFactorProperties, for n <= 10
    m1 = q.psd_modify(np.eye(2), 0.01)
    assert m1.modification_frobenius == 0.0
    np.testing.assert_array_equal(m1.modified_matrix, np.eye(2))
    m2 = q.psd_modify(np.diag([1.0, -1.0]), 0.01)
    np.testing.assert_allclose(m2.modified_matrix, np.diag([1.0, 0.01]), atol=1e-12)
    m3 = q.psd_modify(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5)
    np.testing.assert_allclose(m3.modified_matrix, [[0.75, 0.25], [0.25, 0.75]],
                               atol=1e-12)
    _report(5, "PSD modification hand examples: identity unshifted, "
               "diag(1, -1) and the antidiagonal shifted to delta", True)


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
    ok = r.status == "converged" and len(ratios) >= 4 and all(t < 0.1 for t in tail)
    _report(6, f"superlinear signature: final ratios {['%.1e' % t for t in tail]}", ok)
    assert ok


def test_criterion_07_lemma_monitor(fc_results, recorded_solves):
    records = 0
    for solver, res in fc_results["traces"]:
        for t in res.trace:
            assert t.cos_theta > 0.0
            assert t.cos_theta >= 1.0 / t.condition_number - 1e-10
            records += 1
    # a randomized slice of the suite exercises the monitor off the fc family
    suite = [p for p in q.standard_suite()
             if p.name in ("branin", "hartmann3", "levy", "schwefel")]
    solves = recorded_solves()
    bench.run_suite_benchmark(suite=suite, solvers=("bfgs", "q1"), master_seed=9,
                              runs_required=3, attempt_cap=10, wrap=solves)
    traces = [res for _, _, res in solves]
    for res in traces:
        for t in res.trace:
            assert t.cos_theta > 0.0
            assert t.cos_theta >= 1.0 / t.condition_number - 1e-10
            records += 1
    _report(7, f"descent-angle monitor held on {records} trace records", True)


def test_criterion_08_gradient_checks():
    rng = np.random.default_rng(107)
    worst = 0.0

    def check(problem, avoid=None, beyond=()):
        nonlocal worst
        count = 0
        while count < 20:
            x = (problem.start_box.center
                 + problem.start_box.side * (rng.random(problem.dimension) - 0.5))
            if avoid is not None and avoid(x):
                continue
            worst = max(worst, q.check_gradient(problem, x, 1e-6))
            count += 1
        for x in beyond:
            worst = max(worst, q.check_gradient(problem, x, 1e-6))

    for problem in q.standard_suite():
        check(problem)
    for c in (*PUBLISHED_FC_ITERATIONS, -0.1, -0.5, -1.0, -2.0):
        # the start box around (1, 1) holds no point of a c < 0 modified
        # branch, (-inf, c], so these c are also checked on x in [c - 3, c - 0.05]
        beyond = [np.array([c - rng.uniform(0.05, 3.0), rng.uniform(-2.0, 3.0)])
                  for _ in range(20 if c < 0 else 0)]
        check(q.make_fc(c), beyond=beyond,
              avoid=lambda x, c=c: abs(x[0] - c) < 1e-2 or abs(x[0]) < 1e-2)
    ok = worst < 1e-5
    _report(8, f"gradient checks on suite and fc family, negative c included: "
               f"worst error {worst:.2e}", ok)
    assert ok


def test_criterion_09_sqp():
    r = solve_qsqp(ConstrainedProblem(**circle()))
    assert r.status == "converged"
    assert r.iterations <= 30
    np.testing.assert_allclose(r.x_final, [-1.0, -1.0], atol=1e-5)
    assert r.trace[-1].kkt_residual < 1e-3
    merits = [t.merit_value for t in r.trace]
    assert all(b < a for a, b in zip(merits, merits[1:]))

    # zero-constraint runs coincide with the unconstrained solver bitwise,
    # iterate for iterate; the 0.1|x|^2 bowl has curvature below 1, where an
    # eigenvalue floor meant for constrained runs would shorten every step,
    # and the q-Newton step solves it at once
    bowls = [("quartic", lambda x: float(np.sum(x ** 4 + x ** 2)),
              lambda x: 4.0 * x ** 3 + 2.0 * x, np.array([1.0, -0.7, 0.4, 1.3])),
             ("shallow", lambda x: float(0.1 * (x @ x)), lambda x: 0.2 * x,
              np.array([1.0, -0.7, 0.4]))]
    parity = {}
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
        assert ra.iterations == rb.iterations == len(xs_a) == len(xs_b) >= 1
        assert all(np.array_equal(a, b) for a, b in zip(xs_a, xs_b))
        assert ra.f_final == rb.f_final
        parity[name] = ra.iterations
    assert parity["quartic"] >= 3
    assert parity["shallow"] == 1

    # active-set hand examples: the bound is active, then inactive
    s1 = qp_active_set(q.ldl_factor(np.eye(2)), np.array([1.0, 0.0]),
                       ineq=(np.array([[-1.0, 0.0]]), np.array([0.0])))
    np.testing.assert_allclose(s1.d_x, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(s1.d_v, [1.0], atol=1e-12)
    assert s1.active_set == (0,)
    s2 = qp_active_set(q.ldl_factor(np.eye(2)), np.array([-1.0, 0.0]),
                       ineq=(np.array([[-1.0, 0.0]]), np.array([0.0])))
    np.testing.assert_allclose(s2.d_x, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(s2.d_v, [0.0], atol=1e-12)
    assert s2.active_set == ()
    _report(9, f"SQP battery: circle in {r.iterations} iterations, merit monotone, "
               f"bitwise parity (quartic {parity['quartic']}, shallow {parity['shallow']} "
               f"iterations), QP hand examples", True)


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
    assert curves["s2"][1.0] == 0.5
    assert curves["s2"][2.0] == 1.0
    # nondecreasing on the real benchmark output
    table = bench.load_runs_csv(suite_csvs["paths"][0])
    for metric in ("iterations", "time"):
        for curve in bench.performance_profile(table, metric, runs_required=10):
            fr = [f for _, f in curve.points]
            assert all(b >= a for a, b in zip(fr, fr[1:]))
    _report(10, "hand profile exact; benchmark profiles nondecreasing", True)


def test_criterion_11_determinism(suite_csvs):
    a = Path(suite_csvs["paths"][0]).read_text(encoding="utf-8").splitlines()
    b = Path(suite_csvs["paths"][1]).read_text(encoding="utf-8").splitlines()
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


def _dennis_more_ratios(gradient, hessian, points, trace):
    """||(B_k - H(x_k)) p_k|| / ||p_k|| along a q-solver run (Dennis & More
    1974; Nocedal & Wright 2006, Thm 3.6): B_k is the modified q-Hessian the
    step used, rebuilt from x_k and the recorded q_k, H the exact Hessian
    and p_k the step x_{k+1} - x_k.  The run is superlinear if and only if
    these ratios tend to 0."""
    ratios = []
    for rec, x_k, x_next in zip(trace, points, points[1:]):
        B = psd_modify(q_hessian(gradient, x_k, rec.q_k).matrix).modified_matrix
        p = x_next - x_k
        ratios.append(float(np.linalg.norm((B - hessian(x_k)) @ p) / np.linalg.norm(p)))
    return ratios


def test_criterion_12_rate_from_the_schedule(monkeypatch):
    """The q_k -> 1 schedule is what makes QLS superlinear.

    The quartic sum (x - s)^4 + (x - s)^2 has its minimizer at s = 3, away
    from the origin, so the q-shift (1 - q) |x_i| does not vanish with the
    error the way it does in criterion 06.  From s + 0.7 (n = 4, q0 = 0.9,
    gamma = 2) the error ratios ||x_{k+1} - x*|| / ||x_k - x*|| measured
    0.18, 0.15, 0.13, 0.11, 0.095 over the last five iterations: superlinear,
    but the ratio falls only like 1 - q_k = O(1/k).  With the schedule
    frozen at q0 they stay at 0.1525: linear.  The Dennis-More ratios fall
    with the schedule (0.44 to 0.21 over the same iterations) and stay at
    0.36 when it is frozen.
    """
    s, n = 3.0, 4
    prob = q.Problem(name="shifted quartic", dimension=n,
                     objective=lambda x: float(np.sum((x - s) ** 4 + (x - s) ** 2)),
                     gradient=lambda x: 4.0 * (x - s) ** 3 + 2.0 * (x - s),
                     known_minimizers=[np.full(n, s)], known_min_value=0.0)
    hessian = lambda x: np.diag(12.0 * (x - s) ** 2 + 2.0)
    x0 = np.full(n, s + 0.7)

    def tail():
        xs = []
        r = solve_qls(prob, x0, config=SolverConfig(grad_tolerance=1e-10),
                      schedule=QSchedule(0.9, 2), callback=lambda x: xs.append(x))
        assert r.status == "converged"
        points = [x0] + xs
        errs = [np.linalg.norm(x - s) for x in points]
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        dm = _dennis_more_ratios(prob.gradient, hessian, points, r.trace)
        return ratios[-5:], dm[-5:]

    ratios, dm = tail()
    monkeypatch.setattr(QSchedule, "__iter__", lambda self: itertools.repeat(self.q0))
    frozen, frozen_dm = tail()
    falls = lambda seq: all(b < a for a, b in zip(seq, seq[1:]))
    ok = (falls(ratios) and falls(dm) and all(t >= 0.15 for t in frozen)
          and all(t >= 0.3 for t in frozen_dm) and dm[-1] < 0.3)
    _report(12, f"rate from the schedule: error ratios {['%.3f' % t for t in ratios]}, "
                f"frozen q {['%.3f' % t for t in frozen]}", ok)
    assert ok


# The stationary points of x sin(sqrt|x|) either side of 420.97, Schwefel's
# minimizer coordinate: each coordinate's basin of the global minimizer.
SCHWEFEL_BASIN = (302.525, 559.149)


def test_criterion_13_schwefel_q_cells(monkeypatch):
    """Why the seed-42 suite leaves Schwefel's q cells unsolved.

    The q-shift (1 - q_k) |x_i| scales with the distance from the origin,
    not from the minimizer, and Schwefel's minimizer lies 420.97 out in each
    coordinate.  The schedule takes q_2 = 1 - 0.9^gamma (0.1, 0.19, 0.271)
    before q_k climbs to 1, and q_4 = 0.683 for gamma = 1.  On the first ten
    sweep starts per gamma, under the sweep's floor and SolverConfig()'s
    iteration budget, as in every sweep run, every run leaves the basin at
    step k = 4 for gamma = 1 (q-shift (1 - q_k) max|x_k| = 133) and k = 2
    for gamma = 2 and 3 (341 and 307), and ends diverged.  With the schedule
    frozen at q0 = 0.9 (shift 42), as in criterion 12, all 30 runs succeed.
    """
    prob = q.get_problem("schwefel")
    lo, hi = SCHWEFEL_BASIN
    slope = lambda t: float(prob.gradient(np.array([t, t]))[0])
    assert all(slope(b - 0.01) * slope(b + 0.01) < 0 for b in SCHWEFEL_BASIN)
    config = SolverConfig(f_floor=prob.known_min_value - bench.SUCCESS_VALUE_GAP)

    def runs():
        out = []
        for gamma in (1, 2, 3):
            for i in range(10):
                xs = [bench.suite_start(prob, f"q{gamma}", 42, i)]
                r = solve_qls(prob, xs[0], config=config, schedule=QSchedule(0.9, gamma),
                              callback=xs.append)
                k = next((j for j, x in enumerate(xs[1:]) if np.any((x <= lo) | (x >= hi))),
                         None)
                shift = None if k is None else round((1 - r.trace[k].q_k) * max(abs(xs[k])))
                out.append((gamma, r.status, k, shift, bench.is_success(prob, r)))
        return out

    scheduled = runs()
    monkeypatch.setattr(QSchedule, "__iter__", lambda self: itertools.repeat(self.q0))
    frozen = runs()
    expected = {1: (4, 133), 2: (2, 341), 3: (2, 307)}
    ok = (scheduled == [(g, "diverged", *expected[g], False) for g in (1, 2, 3) for _ in range(10)]
          and all(status == "converged" and k is None and good
                  for _, status, k, _, good in frozen))
    _report(13, f"Schwefel q cells: all 30 scheduled runs leave the basin "
                f"(k, shift by gamma {expected}) and diverge; {sum(r[-1] for r in frozen)}/30 "
                f"succeed with q frozen", ok)
    assert ok


def _projected_dennis_more_ratios(hessian, Z, points, matrices):
    """||Z^T (B_k - H(x_k)) p_k|| / ||p_k|| for each SQP step p_k = x_{k+1} - x_k.

    B_k is the step's modified Lagrangian q-Hessian, H the Hessian of the
    Lagrangian in x and Z an orthonormal basis of the null space of the
    constraint Jacobian.  With unit steps the x iterates converge
    superlinearly if and only if these ratios tend to 0 (Boggs, Tolle &
    Wang 1982; Nocedal & Wright 2006, Thm 18.5)."""
    ratios = []
    for B, x_k, x_next in zip(matrices, points, points[1:]):
        p = x_next - x_k
        ratios.append(float(np.linalg.norm(Z.T @ (B - hessian(x_k)) @ p) / np.linalg.norm(p)))
    return ratios


def test_criterion_14_constrained_rate_from_the_schedule(monkeypatch):
    """SQP is superlinear too, and again because of the q_k -> 1 schedule.

    Criterion 12's quartic sum (x - s)^4 + (x - s)^2 (s = 3, n = 4) under
    sum(x) = n (s + e) with e = 0.5 has its KKT point in closed form:
    x* = (s + e) 1 and u* = -(4 e^3 + 2 e).  The Lagrangian is not
    quadratic, so the q-Hessian is not exact on it, as it is on the circle.
    From x* + (0.7, 0, 0.4, -0.1), off the constraint by 1, with q0 = 0.9
    and gamma = 2, the last eight error ratios measured 0.527, 0.469, 0.427,
    0.390, 0.359, 0.332, 0.308, 0.288 and the projected Dennis-More ratios
    1.73 to 1.12; with the schedule frozen at q0 they stay at 0.475 and
    1.61: linear.

    The run stops at a KKT residual of 1e-6 (error about 2e-7), above the
    l1 merit's rounding floor.  The merit's true decrease along a step is
    O(||x - x*||^2); once that falls to a few ulps of the merit, near an
    error of 1e-8, rounding in f and in mu |h| (h vanishes along the QP step
    in exact arithmetic) can reject the unit step.  A halved step gives the
    ratio 1 - (1 - rho) / 2, 0.57 for rho = 0.15: an outlier of the line
    search, not of the schedule.  Every step of the tail is a unit step.
    """
    s, e, n = 3.0, 0.5, 4
    xstar, ustar = np.full(n, s + e), -(4.0 * e ** 3 + 2.0 * e)
    prob = ConstrainedProblem(
        objective=lambda x: float(np.sum((x - s) ** 4 + (x - s) ** 2)),
        gradient=lambda x: 4.0 * (x - s) ** 3 + 2.0 * (x - s),
        x0=xstar + np.array([0.7, 0.0, 0.4, -0.1]),
        h=lambda x: np.array([np.sum(x) - n * (s + e)]),
        jac_h=lambda x: np.ones((1, n)), n_eq=1)
    assert np.array_equal(prob.gradient(xstar) + ustar * prob.jac_h(xstar)[0], np.zeros(n))
    hessian = lambda x: np.diag(12.0 * (x - s) ** 2 + 2.0)  # of L too: h is linear
    Z = np.linalg.svd(prob.jac_h(xstar))[2][1:].T

    def tail():
        xs, matrices = [], []

        def modify(A, delta=None):
            mod = psd_modify(A, delta)
            matrices.append(mod.modified_matrix)
            return mod
        monkeypatch.setattr(sqp, "psd_modify", modify)
        r = solve_qsqp(prob, config=SolverConfig(grad_tolerance=1e-6),
                       schedule=QSchedule(0.9, 2), callback=xs.append)
        assert r.status == "converged"
        points = [prob.x0] + xs
        errs = [np.linalg.norm(x - xstar) for x in points]
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        dm = _projected_dennis_more_ratios(hessian, Z, points, matrices)
        assert all(t.alpha == 1.0 for t in r.trace[-8:])
        return ratios[-8:], dm[-8:]

    ratios, dm = tail()
    monkeypatch.setattr(QSchedule, "__iter__", lambda self: itertools.repeat(self.q0))
    frozen, frozen_dm = tail()
    falls = lambda seq: all(b < a for a, b in zip(seq, seq[1:]))
    ok = (falls(ratios) and falls(dm) and ratios[-1] < 0.3 and dm[-1] < 1.2
          and all(t >= 0.45 for t in frozen) and all(t >= 1.5 for t in frozen_dm))
    _report(14, f"constrained rate from the schedule: error ratios "
                f"{['%.3f' % t for t in ratios]}, frozen q {['%.3f' % t for t in frozen]}", ok)
    assert ok


def test_criterion_15_rate_under_an_active_inequality(monkeypatch):
    """The constrained rate holds on the dual active-set path too.

    The quartic sum (x - s)^4 + (x - s)^2 (s = 10, n = 4) under the ball
    ||x||^2 <= 324 has its minimizer on the sphere at x* = 9 1, where the
    ball's multiplier is v* = 1/3.  Far from the origin the q-shift
    (1 - q) |x_i| is large, so a fixed q leaves the step far from Newton's.
    From x* + (0.7, 0, 0.4, -0.1) with q0 = 0.9 and gamma = 2 the run
    converged in 19 iterations: the last six error ratios measured 0.388,
    0.370, 0.352, 0.337, 0.322, 0.309 and the projected Dennis-More ratios
    (criterion 14's) 9.31 to 6.56.  With the schedule frozen at q0 it took
    22 iterations at a steady 0.489 and 14.04: linear.  Every step of the
    tail is a unit step, and the QP holds the ball in its active set.
    """
    s, n = 10.0, 4
    xstar, vstar = np.full(n, 9.0), 1.0 / 3.0
    prob = ConstrainedProblem(
        objective=lambda x: float(np.sum((x - s) ** 4 + (x - s) ** 2)),
        gradient=lambda x: 4.0 * (x - s) ** 3 + 2.0 * (x - s),
        x0=xstar + np.array([0.7, 0.0, 0.4, -0.1]),
        g=lambda x: np.array([x @ x - 324.0]),
        jac_g=lambda x: 2.0 * x[None, :], n_ineq=1)
    assert np.array_equal(prob.g(xstar), [0.0])
    assert np.array_equal(prob.gradient(xstar) + vstar * prob.jac_g(xstar)[0], np.zeros(n))
    # of the Lagrangian f + v* g at x
    hessian = lambda x: np.diag(12.0 * (x - s) ** 2 + 2.0 + 2.0 * vstar)
    Z = np.linalg.svd(prob.jac_g(xstar))[2][1:].T

    def tail():
        xs, matrices, active_sets = [], [], []

        def modify(A, delta=None):
            mod = psd_modify(A, delta)
            matrices.append(mod.modified_matrix)
            return mod

        def qp(*args, **kwargs):
            result = qp_active_set(*args, **kwargs)
            active_sets.append(result.active_set)
            return result
        monkeypatch.setattr(sqp, "psd_modify", modify)
        monkeypatch.setattr(sqp, "qp_active_set", qp)
        r = solve_qsqp(prob, config=SolverConfig(grad_tolerance=1e-6),
                       schedule=QSchedule(0.9, 2), callback=xs.append)
        assert r.status == "converged"
        points = [prob.x0] + xs
        errs = [np.linalg.norm(x - xstar) for x in points]
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        dm = _projected_dennis_more_ratios(hessian, Z, points, matrices)
        assert all(t.alpha == 1.0 for t in r.trace[-6:])
        assert all(active == (0,) for active in active_sets[-6:])
        return ratios[-6:], dm[-6:]

    ratios, dm = tail()
    monkeypatch.setattr(QSchedule, "__iter__", lambda self: itertools.repeat(self.q0))
    frozen, frozen_dm = tail()
    falls = lambda seq: all(b < a for a, b in zip(seq, seq[1:]))
    ok = (falls(ratios) and falls(dm) and ratios[-1] < 0.4 and dm[-1] < 10.0
          and all(t >= 0.48 for t in frozen) and all(t >= 13.5 for t in frozen_dm))
    _report(15, f"rate under an active inequality: error ratios "
                f"{['%.3f' % t for t in ratios]}, frozen q {['%.3f' % t for t in frozen]}", ok)
    assert ok
