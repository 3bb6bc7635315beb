import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsStatus

from otrobust import exact
from otrobust.errors import DimensionMismatch, SolverStall
from otrobust.exact import (
    DenseDualEvaluator,
    TransportModel,
    _assignment_transport,
    _lp_transport,
    dual_feas_tol,
    dual_vertex_budget,
    duality_gap,
    solve_exact,
)
from otrobust.measures import CostMatrix, cost_matrix, make_measure


def bfs_primal_oracle(a, b, C):
    """Independent 3x3-scale oracle: enumerate basic feasible transport plans.

    Every vertex of the transportation polytope is supported on a spanning
    forest with at most m+n-1 arcs; enumerate arc subsets, solve the linear
    system for the masses, keep feasible ones, take the cheapest.
    """
    m, n = C.shape
    arcs = list(itertools.product(range(m), range(n)))
    k = m + n - 1
    best = np.inf
    for sub in itertools.combinations(arcs, k):
        A = np.zeros((m + n, k))
        for col, (i, j) in enumerate(sub):
            A[i, col] = 1.0
            A[m + j, col] = 1.0
        rhs = np.concatenate([a, b])
        x, res, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
        if np.linalg.norm(A @ x - rhs) > 1e-9:
            continue
        if np.any(x < -1e-10):
            continue
        val = sum(C[i, j] * x[col] for col, (i, j) in enumerate(sub))
        best = min(best, val)
    return best


def random_instance(rng, m, n):
    mu = make_measure(rng.random((m, 2)))
    nu = make_measure(rng.random((n, 2)))
    C = CostMatrix(rng.random((m, n)))
    return mu, nu, C


@pytest.fixture()
def lp_calls(monkeypatch):
    """Counts the transport-LP calls solve_exact makes."""
    calls = []

    def counting(a, b, C):
        calls.append(C.shape)
        return _lp_transport(a, b, C)

    monkeypatch.setattr(exact, "_lp_transport", counting)
    return calls


def test_identical_measures_zero_value():
    mu = make_measure([[0.0, 0.0], [1.0, 1.0]])
    C = cost_matrix(mu, mu)
    sol = solve_exact(mu, mu, C)
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert sol.gap <= 1e-12


def test_delta_to_delta():
    mu = make_measure([[0.0]])
    nu = make_measure([[3.0]])
    sol = solve_exact(mu, nu, cost_matrix(mu, nu))
    assert sol.value == pytest.approx(3.0)
    assert sol.coupling == ((0, 0, 1.0),)


def test_value_matches_bfs_oracle_3x3():
    rng = np.random.default_rng(42)
    for _ in range(25):
        mu, nu, C = random_instance(rng, 3, 3)
        sol = solve_exact(mu, nu, C)
        oracle = bfs_primal_oracle(mu.mass, nu.mass, C.entries)
        assert sol.value == pytest.approx(oracle, abs=1e-10)


def test_duality_gap_and_slackness():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m, n = rng.integers(2, 9, size=2)
        mu, nu, C = random_instance(rng, int(m), int(n))
        sol = solve_exact(mu, nu, C)
        assert duality_gap(sol, mu, nu) <= 1e-9 * max(1.0, sol.value)
        # dual feasibility
        slack = sol.potential_x[:, None] - sol.potential_y[None, :] - C.entries
        assert slack.max() <= 1e-9
        # complementary slackness on the support
        for i, j, pij in sol.coupling:
            assert abs(slack[i, j]) <= 1e-8


def test_marginal_feasibility():
    rng = np.random.default_rng(3)
    mu, nu, C = random_instance(rng, 6, 4)
    sol = solve_exact(mu, nu, C)
    P = sol.coupling_dense()
    np.testing.assert_allclose(P.sum(axis=1), mu.mass, atol=1e-8)
    np.testing.assert_allclose(P.sum(axis=0), nu.mass, atol=1e-8)


def test_scale_equivariance():
    rng = np.random.default_rng(11)
    mu, nu, C = random_instance(rng, 5, 5)
    v1 = solve_exact(mu, nu, C).value
    C2 = CostMatrix(2.5 * C.entries)
    v2 = solve_exact(mu, nu, C2).value
    assert v2 == pytest.approx(2.5 * v1, rel=1e-9)


def test_permutation_invariance():
    rng = np.random.default_rng(12)
    pts = rng.random((6, 2))
    mass = rng.random(6)
    mass /= mass.sum()
    nu = make_measure(rng.random((4, 2)))
    mu1 = make_measure(pts, mass)
    perm = rng.permutation(6)
    mu2 = make_measure(pts[perm], mass[perm])
    v1 = solve_exact(mu1, nu, cost_matrix(mu1, nu)).value
    v2 = solve_exact(mu2, nu, cost_matrix(mu2, nu)).value
    assert v1 == pytest.approx(v2, abs=1e-10)


def test_zero_mass_atoms_dropped_and_imputed(lp_calls):
    mu = make_measure([[0.0], [5.0], [1.0]], mass=[0.5, 0.0, 0.5])
    nu = make_measure([[0.0], [1.0]], mass=[0.5, 0.5])
    C = cost_matrix(mu, nu)
    sol = solve_exact(mu, nu, C)
    assert lp_calls == []  # uniform 2 x 2 support: solved as an assignment
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    # imputed potential is still dual feasible
    slack = sol.potential_x[:, None] - sol.potential_y[None, :] - C.entries
    assert slack.max() <= 1e-9


def test_potential_normalization():
    rng = np.random.default_rng(5)
    mu, nu, C = random_instance(rng, 4, 4)
    sol = solve_exact(mu, nu, C)
    assert abs(sol.potential_x @ mu.mass) <= 1e-9


def test_shape_mismatch_raises():
    mu = make_measure([[0.0], [1.0]])
    nu = make_measure([[0.0]])
    with pytest.raises(DimensionMismatch):
        solve_exact(mu, nu, CostMatrix(np.ones((3, 1))))


def test_dense_dual_evaluator_matches_lp():
    rng = np.random.default_rng(20)
    for _ in range(10):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        C = rng.random((m, n)) * 3
        ev = DenseDualEvaluator(C)
        # every enumerated vertex is dual feasible
        assert (ev.U[:, :, None] + ev.V[:, None, :] - C).max() <= 1e-9
        a = rng.random(m)
        a /= a.sum()
        b = rng.random(n)
        b /= b.sum()
        mu = make_measure(rng.random((m, 1)), a)
        nu = make_measure(rng.random((n, 1)), b)
        sol = solve_exact(mu, nu, CostMatrix(C))
        val = ev.value_batch(a[None, :], b[None, :])[0]
        assert val == pytest.approx(sol.value, abs=1e-10)


def test_evaluator_batch_consistency():
    rng = np.random.default_rng(21)
    C = rng.random((3, 4))
    ev = DenseDualEvaluator(C)
    A = rng.random((50, 3))
    A /= A.sum(axis=1, keepdims=True)
    B = rng.random((50, 4))
    B /= B.sum(axis=1, keepdims=True)
    vals = ev.value_batch(A, B)
    for i in range(0, 50, 7):
        mu = make_measure(np.zeros((3, 1)), A[i])
        nu = make_measure(np.zeros((4, 1)), B[i])
        v = solve_exact(mu, nu, CostMatrix(C)).value
        assert vals[i] == pytest.approx(v, abs=1e-10)


def test_dual_vertex_budget():
    assert dual_vertex_budget(4, 4) == 11440


@given(
    n=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["random", "ties", "identical"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=150, deadline=None)
def test_assignment_path_is_certified(n, kind, seed):
    rng = np.random.default_rng(seed)
    mu = make_measure(rng.random((n, 2)))
    nu = mu if kind == "identical" else make_measure(rng.random((n, 2)))
    if kind == "random":
        C = CostMatrix(rng.random((n, n)) * 10.0)
    elif kind == "ties":
        C = CostMatrix(rng.integers(0, 3, (n, n)).astype(float))
    else:
        C = cost_matrix(mu, nu)
    sol = solve_exact(mu, nu, C)
    lp_value = dense_lp_value(mu.mass, nu.mass, C.entries)
    assert sol.value == pytest.approx(lp_value, rel=1e-9, abs=1e-12)
    slack = sol.potential_x[:, None] - sol.potential_y[None, :] - C.entries
    assert slack.max() <= 1e-9
    for i, j, _ in sol.coupling:
        assert abs(slack[i, j]) <= 1e-9
    P = sol.coupling_dense()
    np.testing.assert_allclose(P.sum(axis=1), mu.mass, rtol=0, atol=1e-12)
    np.testing.assert_allclose(P.sum(axis=0), nu.mass, rtol=0, atol=1e-12)
    assert sol.gap <= 1e-12 * max(1.0, sol.value)


def test_uniform_square_skips_lp(lp_calls):
    rng = np.random.default_rng(30)
    mu, nu, C = random_instance(rng, 7, 7)
    solve_exact(mu, nu, C)
    assert lp_calls == []


def test_non_uniform_masses_use_lp(lp_calls):
    rng = np.random.default_rng(31)
    mu = make_measure(rng.random((5, 2)), [0.3, 0.1, 0.2, 0.2, 0.2])
    nu = make_measure(rng.random((5, 2)))
    solve_exact(mu, nu, cost_matrix(mu, nu))
    assert lp_calls == [(5, 5)]


def test_unequal_sizes_use_lp(lp_calls):
    rng = np.random.default_rng(32)
    mu, nu, C = random_instance(rng, 4, 6)
    solve_exact(mu, nu, C)
    assert lp_calls == [(4, 6)]


def dense_lp_value(a, b, C, presolve=True):
    """Reference: the transportation LP on all m x n arcs.

    The tolerances are tightened from HiGHS's default 1e-7, at which the
    optimum came out up to 1.2e-8 relative above a certified one on
    instances with shared points.  At these tolerances HiGHS's presolve
    declares some feasible instances with masses near 1e-10 infeasible;
    ``presolve=False`` solves them.
    """
    m, n = C.shape
    A = sparse.vstack([
        sparse.kron(sparse.eye(m), np.ones((1, n))),
        sparse.kron(np.ones((1, m)), sparse.eye(n)),
    ])
    res = linprog(C.ravel(), A_eq=A, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs",
                  options={"presolve": presolve,
                           "primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return res.fun


def non_uniform_instance(rng, m, n, kind):
    """Positive non-uniform masses and a cost of the given kind."""
    a = rng.random(m) + 0.05
    b = rng.random(n) + 0.05
    if kind == "random":
        C = rng.random((m, n)) * 10.0
    elif kind == "ties":
        C = rng.integers(0, 3, (m, n)).astype(float)
    else:  # the two supports share their first min(m, n) points
        pts = make_measure(rng.random((max(m, n), 2)))
        C = cost_matrix(make_measure(pts.points[:m]),
                        make_measure(pts.points[:n])).entries
    return a / a.sum(), b / b.sum(), C


def assert_certified(a, b, C, plan, u, v):
    slack = u[:, None] + v[None, :] - C
    assert slack.max() <= 1e-9
    assert np.abs(slack[plan > 0]).max(initial=0.0) <= 1e-9
    np.testing.assert_allclose(plan.sum(axis=1), a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(plan.sum(axis=0), b, rtol=0, atol=1e-12)


@given(
    m=st.integers(min_value=1, max_value=15),
    n=st.integers(min_value=1, max_value=15),
    kind=st.sampled_from(["random", "ties", "identical"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=150, deadline=None)
def test_lp_transport_is_certified(m, n, kind, seed):
    rng = np.random.default_rng(seed)
    a, b, C = non_uniform_instance(rng, m, n, kind)
    reference = dense_lp_value(a, b, C)
    plan, u, v = _lp_transport(a, b, C)
    value = float((plan * C).sum())
    assert value == pytest.approx(reference, rel=1e-9, abs=1e-12)
    assert_certified(a, b, C, plan, u, v)
    # a model hot-started from other marginals on the same C starts its
    # pricing elsewhere but gives the same answer and certificate
    a2, b2, _ = non_uniform_instance(rng, m, n, kind)
    model = TransportModel(C)
    _lp_transport(a2, b2, C, model)
    plan, u, v = _lp_transport(a, b, C, model)
    assert float((plan * C).sum()) == pytest.approx(value, rel=1e-9, abs=1e-12)
    assert_certified(a, b, C, plan, u, v)


def test_lp_transport_never_returns_uncertified_duals(monkeypatch):
    """Duals off on arcs already in the LP: re-solve on all arcs, then stall."""
    arcs = []
    run = TransportModel._run

    def off_duals(self):
        x, y = run(self)
        arcs.append(x.size)
        y[0] += 1e-6
        return x, y

    monkeypatch.setattr(TransportModel, "_run", off_duals)
    rng = np.random.default_rng(40)
    a, b, C = non_uniform_instance(rng, 12, 9, "random")
    with pytest.raises(SolverStall):
        _lp_transport(a, b, C)
    assert arcs[-1] == 12 * 9
    assert all(k < 12 * 9 for k in arcs[:-1])


def test_hot_started_model_matches_fresh_models():
    """A sequence of marginals solved on one model gives what a fresh model
    gives for each, and every solution is certified."""
    rng = np.random.default_rng(41)
    C = rng.random((30, 25)) * 10.0
    model = TransportModel(C)
    for _ in range(8):
        a, b, _ = non_uniform_instance(rng, 30, 25, "random")
        a[rng.choice(30, 3, replace=False)] = 0.0
        a /= a.sum()
        plan, u, v = _lp_transport(a, b, C, model)
        fresh = _lp_transport(a, b, C)[0]
        assert float((plan * C).sum()) == pytest.approx(
            float((fresh * C).sum()), rel=1e-9, abs=1e-12)
        assert_certified(a, b, C, plan, u, v)


class _CountingHighs:
    """Stand-in for a model's HiGHS object that counts row-bound updates."""

    def __init__(self, highs):
        self.highs, self.rows = highs, []

    def changeRowBounds(self, r, lo, hi):
        self.rows.append(r)
        return self.highs.changeRowBounds(r, lo, hi)

    def __getattr__(self, name):
        return getattr(self.highs, name)


def test_model_updates_only_changed_row_bounds():
    """A solve sets the bounds of the rows whose mass changed, and only
    those: when one side's marginal changes, at most its rows."""
    rng = np.random.default_rng(42)
    a, b, C = non_uniform_instance(rng, 30, 25, "random")
    model = TransportModel(C)
    counter = model.highs = _CountingHighs(model.highs)
    _lp_transport(a, b, C, model)
    assert len(counter.rows) == 55
    for _ in range(3):
        a2 = rng.random(30)
        a2 /= a2.sum()
        counter.rows.clear()
        plan, u, v = _lp_transport(a2, b, C, model)
        assert counter.rows and max(counter.rows) < 30
        assert_certified(a2, b, C, plan, u, v)
    b2 = rng.random(25)
    b2 /= b2.sum()
    counter.rows.clear()
    plan, u, v = _lp_transport(a2, b2, C, model)
    assert counter.rows and min(counter.rows) >= 30
    assert_certified(a2, b2, C, plan, u, v)
    counter.rows.clear()
    _lp_transport(a2, b2, C, model)
    assert counter.rows == []


@given(
    tiny=st.sampled_from([1e-10, 3e-11]),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=20, deadline=None)
def test_tiny_masses_certify(tiny, seed):
    """Atoms of mass near 1e-10, at the LP's primal feasibility tolerance,
    neither make the LP infeasible nor lose their rows' certificate."""
    rng = np.random.default_rng(seed)
    mu = make_measure(rng.random((60, 2)))
    nu = make_measure(rng.random((60, 2)))
    C = cost_matrix(mu, nu).entries
    a = np.full(60, (1 - 4 * tiny) / 56)
    a[rng.choice(60, 4, replace=False)] = tiny
    b = rng.random(60) + 0.05
    b /= b.sum()
    plan, u, v = _lp_transport(a, b, C)
    assert float((plan * C).sum()) == pytest.approx(
        dense_lp_value(a, b, C, presolve=False), rel=1e-9, abs=1e-12)
    assert_certified(a, b, C, plan, u, v)
    sol = solve_exact(make_measure(mu.points, a), make_measure(nu.points, b),
                      CostMatrix(C))
    assert sol.value == pytest.approx(float((plan * C).sum()), rel=1e-9)
    slack = sol.potential_x[:, None] - sol.potential_y[None, :] - C
    assert slack.max() <= dual_feas_tol(C)


def test_large_costs_certify():
    """Costs near 1e10 (sqeuclidean on coordinates of order 1e5) certify at
    a tolerance relative to the largest cost; at an absolute 1e-9 a single
    rounding step of the reduced costs (about 2e-6) would never pass."""
    rng = np.random.default_rng(3)
    a = rng.random(30) + 0.05
    b = rng.random(25) + 0.05
    mu = make_measure(rng.uniform(0, 2e5, (30, 2)), a / a.sum())
    nu = make_measure(rng.uniform(0, 2e5, (25, 2)), b / b.sum())
    C = cost_matrix(mu, nu, metric="sqeuclidean").entries
    assert C.max() > 1e10
    tol = dual_feas_tol(C)
    plan, u, v = _lp_transport(mu.mass, nu.mass, C)
    assert (u[:, None] + v[None, :] - C).max() <= tol
    value = float((plan * C).sum())
    assert value == pytest.approx(dense_lp_value(mu.mass, nu.mass, C),
                                  rel=1e-9)
    sol = solve_exact(mu, nu, CostMatrix(C))
    assert sol.value == pytest.approx(value, rel=1e-9)
    slack = sol.potential_x[:, None] - sol.potential_y[None, :] - C
    assert slack.max() <= tol
    # uniform equal-size inputs take the assignment path, same check
    ux = make_measure(mu.points[:25])
    sol = solve_exact(ux, make_measure(nu.points), CostMatrix(C[:25]))
    slack = sol.potential_x[:, None] - sol.potential_y[None, :] - C[:25]
    assert slack.max() <= dual_feas_tol(C[:25])
    assert sol.gap <= 1e-9 * sol.value


def test_masses_off_by_rounding_solve():
    """Masses that sum to 1 only within MASS_TOL, one side above and one
    below, still give a consistent LP."""
    rng = np.random.default_rng(5)
    a = rng.random(7) + 0.05
    b = rng.random(9) + 0.05
    a *= (1 - 5e-10) / a.sum()
    b *= (1 + 5e-10) / b.sum()
    mu = make_measure(rng.random((7, 2)), a)
    nu = make_measure(rng.random((9, 2)), b)
    C = cost_matrix(mu, nu)
    sol = solve_exact(mu, nu, C)
    reference = dense_lp_value(a / a.sum(), b / b.sum(), C.entries)
    assert sol.value == pytest.approx(reference, rel=1e-8)
    slack = sol.potential_x[:, None] - sol.potential_y[None, :] - C.entries
    assert slack.max() <= 1e-9


def uniform_square_instance(rng, n, kind):
    """An n x n cost whose optimal assignment has many ties for ``ties``
    (small integer costs) and ``duplicates`` (points repeated on both
    sides, on a coarse integer grid)."""
    if kind == "random":
        return cost_matrix(make_measure(rng.random((n, 2))),
                           make_measure(rng.random((n, 2)))).entries
    if kind == "ties":
        return rng.integers(0, 4, (n, n)).astype(float)
    pts = rng.integers(0, 3, (n, 2)).astype(float)
    other = pts[rng.permutation(n)]
    other[: n // 3] = rng.integers(0, 3, (n // 3, 2))
    return cost_matrix(make_measure(pts), make_measure(other)).entries


def _seeded_solve(C):
    """(plan, u, v, simplex iterations) of a fresh model's first solve at
    uniform marginals."""
    n = C.shape[0]
    a = np.full(n, 1.0 / n)
    model = TransportModel(C)
    plan, u, v = model.solve(a, a)
    return plan, u, v, model.highs.getInfo().simplex_iteration_count


@pytest.mark.parametrize("kind", ["random", "ties", "duplicates"])
@pytest.mark.parametrize("seed", range(8))
def test_seeded_first_solve_matches_assignment(kind, seed):
    """At uniform marginals the model starts from the assignment's
    spanning-tree basis: HiGHS confirms it without a pivot, and the solve
    gives the assignment path's value, exact marginals and a certificate,
    ties included."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 41))
    C = uniform_square_instance(rng, n, kind)
    a = np.full(n, 1.0 / n)
    plan, u, v, iterations = _seeded_solve(C)
    assert iterations == 0
    reference = _assignment_transport(a, a, C)[0]
    assert float((plan * C).sum()) == pytest.approx(
        float((reference * C).sum()), rel=1e-12, abs=1e-15)
    assert_certified(a, a, C, plan, u, v)


def test_seeded_model_hot_starts_like_fresh_models():
    """Marginals solved one after another on a seeded model give what a
    fresh (cold) model gives for each."""
    rng = np.random.default_rng(43)
    C = uniform_square_instance(rng, 40, "random")
    model = TransportModel(C)
    a = np.full(40, 1.0 / 40)
    model.solve(a, a)
    assert model.highs.getInfo().simplex_iteration_count == 0
    for _ in range(5):
        a2, b2, _ = non_uniform_instance(rng, 40, 40, "random")
        plan, u, v = model.solve(a2, b2)
        fresh = TransportModel(C).solve(a2, b2)[0]
        assert float((plan * C).sum()) == pytest.approx(
            float((fresh * C).sum()), rel=1e-12)
        assert_certified(a2, b2, C, plan, u, v)


class _RejectingHighs:
    """Stand-in for a model's HiGHS object that passes each basis on with
    one row status missing, so that HiGHS rejects it."""

    def __init__(self, highs):
        self.highs, self.statuses = highs, []

    def setBasis(self, basis):
        basis.row_status = basis.row_status[:-1]
        self.statuses.append(self.highs.setBasis(basis))
        return self.statuses[-1]

    def __getattr__(self, name):
        return getattr(self.highs, name)


@pytest.mark.parametrize("fault", ["no fixpoint", "rejected", "loose tree"])
def test_seed_fallbacks_still_certify(monkeypatch, fault):
    """A seed that cannot be installed leaves the solve to start cold; a
    spanning tree whose arcs are not tight is pivoted to the optimum.  The
    all-arc certificate decides either way."""
    rng = np.random.default_rng(44)
    C = uniform_square_instance(rng, 30, "ties")
    a = np.full(30, 1.0 / 30)
    paths = exact._shortest_paths
    if fault == "no fixpoint":
        monkeypatch.setattr(exact, "_shortest_paths", lambda W, u: None)
    elif fault == "loose tree":
        # no label settled before another: every predecessor is row 0
        monkeypatch.setattr(exact, "_shortest_paths",
                            lambda W, u: (paths(W, u)[0], np.zeros(30, int)))
    model = TransportModel(C)
    if fault == "rejected":
        model.highs = _RejectingHighs(model.highs)
    plan, u, v = model.solve(a, a)
    if fault == "rejected":
        assert model.highs.statuses == [HighsStatus.kError]
    assert model.highs.getInfo().simplex_iteration_count > 0
    assert float((plan * C).sum()) == pytest.approx(
        dense_lp_value(a, a, C), rel=1e-9, abs=1e-12)
    assert_certified(a, a, C, plan, u, v)
