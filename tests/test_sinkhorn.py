import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from otrobust import sinkhorn
from otrobust.errors import DomainError
from otrobust.exact import _coupling, solve_exact
from otrobust.measures import CostMatrix, cost_matrix, make_measure
from otrobust.sinkhorn import _round_to_marginals, logsumexp, solve_sinkhorn


def _log_domain_sinkhorn(a_full, b_full, C, epsilon, max_iter, tol):
    """(value, converged): the log-domain Sinkhorn loop that the scaling
    iteration replaced, kept as the reference for its iterates."""
    ia = np.flatnonzero(a_full > 0)
    jb = np.flatnonzero(b_full > 0)
    a, b = a_full[ia], b_full[jb]
    Cs = C[np.ix_(ia, jb)]
    la, lb = np.log(a), np.log(b)
    scale = max(float(Cs.max()), epsilon)
    schedule = [scale]
    while schedule[-1] > epsilon * (1 + 1e-12):
        schedule.append(max(schedule[-1] / 10.0, epsilon))
    f = np.zeros(a.size)
    g = np.zeros(b.size)
    residual = np.inf
    it = 0
    for level, eps in enumerate(schedule):
        last = level == len(schedule) - 1
        budget = max_iter if last else 50
        lse_r = logsumexp((f[:, None] + g[None, :] - Cs) / eps, axis=1)
        for _ in range(budget):
            it += 1
            f = f + eps * (la - lse_r)
            M = (f[:, None] + g[None, :] - Cs) / eps
            g = g + eps * (lb - logsumexp(M, axis=0))
            M = (f[:, None] + g[None, :] - Cs) / eps
            lse_r = logsumexp(M, axis=1)
            if it % 10 == 0 or last:
                residual = float(np.abs(np.exp(lse_r) - a).sum())
                if residual <= tol:
                    break
            if it >= max_iter:
                break
        if it >= max_iter:
            break
    P = np.exp((f[:, None] + g[None, :] - Cs) / epsilon)
    P = _round_to_marginals(P, a, b)
    return _coupling(C, ia, jb, P)[1], residual <= tol


def _masses(draw, k):
    kind = draw(st.sampled_from(["uniform", "random", "zeros"]))
    if kind == "uniform":
        return np.full(k, 1.0 / k)
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    if kind == "zeros" and k > 1:
        zero = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        w[np.array(zero)] = 0.0
        if not w.any():
            w[0] = 1.0
    return w / w.sum()


@st.composite
def _instances(draw):
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    C = np.random.default_rng(seed).random((m, n))
    C *= 10.0 ** draw(st.floats(-3.0, 4.0)) / max(C.max(), 1e-300)
    eps = C.max() * 10.0 ** draw(st.floats(-4.0, 0.0))
    if not eps > 0:  # an all-zero cost
        eps = 1e-3
    return _masses(draw, m), _masses(draw, n), C, eps


def _solve(a, b, C, eps, max_iter):
    mu = make_measure(np.zeros((a.size, 1)), a)
    nu = make_measure(np.zeros((b.size, 1)), b)
    return solve_sinkhorn(mu, nu, CostMatrix(C), eps, max_iter=max_iter)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances(), st.integers(1, 400))
def test_scaling_matches_log_domain_iterates(inst, max_iter):
    a, b, C, eps = inst
    sol = _solve(a, b, C, eps, max_iter)
    value, converged = _log_domain_sinkhorn(a, b, C, eps, max_iter, 1e-9)
    assert sol.value == pytest.approx(value, rel=1e-9, abs=1e-300)
    assert sol.converged == converged


@pytest.mark.parametrize("max_iter", [3, 40, 300])
@pytest.mark.parametrize("axis", [1, 0])
def test_underflowing_atom_takes_log_domain_steps(monkeypatch, axis, max_iter):
    # an atom of mass 1e-300 on the rows (axis 1) or the columns (axis 0)
    rng = np.random.default_rng(8)
    a, b = rng.random(6), rng.random(7)
    a /= a.sum()
    b /= b.sum()
    tiny = a if axis == 1 else b
    tiny[0] += tiny[2] - 1e-300
    tiny[2] = 1e-300
    C = rng.random((6, 7))
    calls = []

    def counted(M, axis):
        calls.append(axis)
        return logsumexp(M, axis)

    monkeypatch.setattr(sinkhorn, "logsumexp", counted)
    sol = _solve(a, b, C, 0.01, max_iter)
    assert axis in calls
    monkeypatch.undo()
    value, converged = _log_domain_sinkhorn(a, b, C, 0.01, max_iter, 1e-9)
    assert sol.value == pytest.approx(value, rel=1e-9)
    assert sol.converged == converged


def test_value_is_cost_of_coupling():
    rng = np.random.default_rng(6)
    mu = make_measure(rng.random((40, 2)))
    nu = make_measure(rng.random((30, 2)))
    C = cost_matrix(mu, nu)
    sol = solve_sinkhorn(mu, nu, C, epsilon=0.01)
    cost = sum(C.entries[i, j] * p for i, j, p in sol.coupling)
    assert sol.value == pytest.approx(cost, rel=1e-12)


def test_rejects_bad_epsilon():
    mu = make_measure([[0.0]])
    with pytest.raises(DomainError):
        solve_sinkhorn(mu, mu, cost_matrix(mu, mu), epsilon=0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_rejects_non_finite_epsilon_and_tol(bad):
    mu = make_measure([[0.0]])
    C = cost_matrix(mu, mu)
    with pytest.raises(DomainError):
        solve_sinkhorn(mu, mu, C, epsilon=bad)
    with pytest.raises(DomainError):
        solve_sinkhorn(mu, mu, C, epsilon=0.1, tol=bad)


def test_logsumexp_matches_scipy():
    from scipy.special import logsumexp as reference

    rng = np.random.default_rng(1)
    M = rng.normal(0.0, 300.0, (7, 5))
    M[4, 1] = -np.inf
    for axis in (0, 1):
        np.testing.assert_allclose(
            logsumexp(M, axis), reference(M, axis=axis), rtol=1e-13
        )


def test_identical_measures_near_zero():
    rng = np.random.default_rng(0)
    mu = make_measure(rng.random((6, 2)))
    C = cost_matrix(mu, mu)
    sol = solve_sinkhorn(mu, mu, C, epsilon=0.01)
    assert sol.value <= 0.05 * C.entries.mean()


def test_delta_to_delta_exact_any_epsilon():
    mu = make_measure([[0.0]])
    nu = make_measure([[3.0]])
    C = cost_matrix(mu, nu)
    for eps in (1.0, 0.1, 1e-3):
        sol = solve_sinkhorn(mu, nu, C, epsilon=eps)
        assert sol.value == pytest.approx(3.0, abs=1e-12)


def test_matches_exact_at_small_epsilon():
    rng = np.random.default_rng(1)
    mu = make_measure(rng.random((16, 2)))
    nu = make_measure(rng.random((16, 2)))
    C = CostMatrix(rng.random((16, 16)))
    exact = solve_exact(mu, nu, C).value
    sol = solve_sinkhorn(mu, nu, C, epsilon=1e-3, tol=1e-6)
    assert abs(sol.value - exact) <= 0.02


def test_monotone_accuracy_in_epsilon():
    rng = np.random.default_rng(2)
    mu = make_measure(rng.random((10, 2)))
    nu = make_measure(rng.random((10, 2)))
    C = CostMatrix(rng.random((10, 10)))
    exact = solve_exact(mu, nu, C).value
    errs = [
        abs(solve_sinkhorn(mu, nu, C, epsilon=e, tol=1e-8).value - exact)
        for e in (1.0, 0.1, 0.01)
    ]
    assert errs[0] + 1e-6 >= errs[1]
    assert errs[1] + 1e-6 >= errs[2]


def test_rounded_plan_exactly_feasible():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        mu = make_measure(rng.random((m, 2)))
        nu = make_measure(rng.random((n, 2)))
        C = CostMatrix(rng.random((m, n)))
        sol = solve_sinkhorn(mu, nu, C, epsilon=0.05, tol=1e-6)
        P = sol.coupling_dense()
        np.testing.assert_allclose(P.sum(axis=1), mu.mass, atol=1e-10)
        np.testing.assert_allclose(P.sum(axis=0), nu.mass, atol=1e-10)


def test_nonconvergence_flagged_not_raised():
    rng = np.random.default_rng(4)
    mu = make_measure(rng.random((8, 2)))
    nu = make_measure(rng.random((8, 2)))
    C = CostMatrix(rng.random((8, 8)))
    sol = solve_sinkhorn(mu, nu, C, epsilon=1e-3, max_iter=3, tol=1e-12)
    assert not sol.converged
    # the rounded plan is feasible regardless
    P = sol.coupling_dense()
    np.testing.assert_allclose(P.sum(axis=1), mu.mass, atol=1e-10)


def test_zero_mass_atoms_ok():
    mu = make_measure([[0.0], [9.0]], mass=[1.0, 0.0])
    nu = make_measure([[1.0]])
    sol = solve_sinkhorn(mu, nu, cost_matrix(mu, nu), epsilon=0.01)
    assert sol.value == pytest.approx(1.0, abs=1e-9)
