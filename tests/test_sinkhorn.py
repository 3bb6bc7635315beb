import numpy as np
import pytest

from otrobust.errors import DomainError
from otrobust.exact import solve_exact
from otrobust.measures import CostMatrix, cost_matrix, make_measure
from otrobust.sinkhorn import logsumexp, solve_sinkhorn


def test_rejects_bad_epsilon():
    mu = make_measure([[0.0]])
    with pytest.raises(DomainError):
        solve_sinkhorn(mu, mu, cost_matrix(mu, mu), epsilon=0.0)


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
