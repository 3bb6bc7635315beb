import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrobust import robust
from otrobust.errors import InstanceTooLarge, NonUniformInput
from otrobust.exact import make_evaluator, solve_exact
from otrobust.measures import CostMatrix, cost_matrix, make_measure, weight_radius
from otrobust.robust import (
    RobustParams,
    brute_force_robust,
    solve_robust,
    solve_robust_one_sided,
)

RULES = ("averaged", "direct", "subgradient")


def test_params_validation():
    with pytest.raises(ValueError):
        RobustParams(rho1=-0.1)
    with pytest.raises(ValueError):
        RobustParams(rho1=0.1, update_rule="newton")
    with pytest.raises(ValueError):
        RobustParams(rho1=0.1, max_outer_iter=0)


def test_nonuniform_input_rejected():
    mu = make_measure([[0.0], [1.0]], mass=[0.7, 0.3])
    nu = make_measure([[0.0], [1.0]])
    with pytest.raises(NonUniformInput):
        solve_robust(mu, nu, cost_matrix(mu, nu), RobustParams(rho1=0.1))


def test_identity_is_zero():
    mu = make_measure(np.random.default_rng(0).random((4, 2)))
    C = cost_matrix(mu, mu)
    sol = solve_robust(mu, mu, C, RobustParams(rho1=0.2, rho2=0.2))
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert sol.converged


def test_rho_zero_equals_exact():
    rng = np.random.default_rng(1)
    mu = make_measure(rng.random((4, 2)))
    nu = make_measure(rng.random((3, 2)))
    C = cost_matrix(mu, nu)
    exact = solve_exact(mu, nu, C).value
    for rule in RULES:
        sol = solve_robust(
            mu, nu, C, RobustParams(rho1=0.0, rho2=0.0, update_rule=rule)
        )
        assert sol.value == pytest.approx(exact, abs=1e-9)
        np.testing.assert_allclose(sol.w_x.w, 1.0)


def test_value_never_exceeds_exact():
    rng = np.random.default_rng(2)
    for _ in range(5):
        mu = make_measure(rng.random((4, 2)))
        nu = make_measure(rng.random((4, 2)))
        C = cost_matrix(mu, nu)
        exact = solve_exact(mu, nu, C).value
        sol = solve_robust(mu, nu, C, RobustParams(rho1=0.1))
        assert sol.value <= exact + 1e-8


def test_trace_non_increasing():
    rng = np.random.default_rng(3)
    mu = make_measure(rng.random((4, 2)))
    nu = make_measure(rng.random((4, 2)))
    C = cost_matrix(mu, nu)
    for rule in RULES:
        sol = solve_robust(
            mu, nu, C, RobustParams(rho1=0.08, rho2=0.03, update_rule=rule)
        )
        assert np.all(np.diff(sol.trace) <= 1e-12)


def test_coupling_matches_reweighted_marginals():
    rng = np.random.default_rng(4)
    mu = make_measure(rng.random((4, 2)))
    nu = make_measure(rng.random((3, 2)))
    C = cost_matrix(mu, nu)
    sol = solve_robust(mu, nu, C, RobustParams(rho1=0.1, rho2=0.05))
    P = np.zeros((4, 3))
    for i, j, v in sol.coupling:
        P[i, j] = v
    np.testing.assert_allclose(P.sum(axis=1), sol.w_x.w / 4, atol=1e-8)
    np.testing.assert_allclose(P.sum(axis=0), sol.w_y.w / 3, atol=1e-8)


def test_all_rules_match_oracle():
    rng = np.random.default_rng(5)
    for _ in range(4):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        mu = make_measure(rng.random((m, 2)))
        nu = make_measure(rng.random((n, 2)))
        C = cost_matrix(mu, nu)
        rho1 = float(rng.choice([0.03, 0.1]))
        oracle = brute_force_robust(mu, nu, C, rho1=rho1, grid_resolution=2e-3)
        for rule in RULES:
            sol = solve_robust(
                mu, nu, C, RobustParams(rho1=rho1, update_rule=rule)
            )
            assert abs(sol.value - oracle) <= 1e-3 * max(1.0, oracle)


def test_one_sided_keeps_target_weights_fixed():
    rng = np.random.default_rng(6)
    mu = make_measure(rng.random((4, 2)))
    nu = make_measure(rng.random((3, 2)))
    C = cost_matrix(mu, nu)
    sol = solve_robust_one_sided(mu, nu, C, rho=0.1)
    np.testing.assert_allclose(sol.w_y.w, 1.0)


def test_monotone_in_rho():
    rng = np.random.default_rng(7)
    mu = make_measure(rng.random((4, 2)))
    nu = make_measure(rng.random((4, 2)))
    C = cost_matrix(mu, nu)
    vals = [
        solve_robust_one_sided(mu, nu, C, rho=r).value
        for r in [0.0, 0.02, 0.05, 0.1, 0.3]
    ]
    assert np.all(np.diff(vals) <= 1e-8)


def test_outlier_atom_downweighted():
    # three clustered atoms plus one distant: relaxation should starve it
    mu = make_measure([[0.0], [0.1], [-0.1], [50.0]])
    nu = make_measure([[0.0], [0.05], [-0.05], [0.02]])
    C = cost_matrix(mu, nu)
    sol = solve_robust_one_sided(mu, nu, C, rho=0.2)
    w = sol.w_x.w
    assert w[3] < 0.2
    assert w[:3].min() > 0.8


def test_brute_force_size_cap():
    mu = make_measure(np.random.default_rng(8).random((5, 2)))
    nu = make_measure(np.random.default_rng(9).random((3, 2)))
    with pytest.raises(InstanceTooLarge):
        brute_force_robust(mu, nu, cost_matrix(mu, nu), rho1=0.1)


def test_warm_start_accepted():
    rng = np.random.default_rng(10)
    mu = make_measure(rng.random((3, 2)))
    nu = make_measure(rng.random((3, 2)))
    C = cost_matrix(mu, nu)
    first = solve_robust_one_sided(mu, nu, C, rho=0.05)
    again = solve_robust(
        mu, nu, C, RobustParams(rho1=0.1),
        initial_weights=(first.w_x.w, np.ones(3)),
    )
    assert again.value <= first.value + 1e-10


def test_gap_certificate_nonnegative_at_convergence():
    rng = np.random.default_rng(11)
    mu = make_measure(rng.random((3, 2)))
    nu = make_measure(rng.random((3, 2)))
    C = cost_matrix(mu, nu)
    sol = solve_robust(mu, nu, C, RobustParams(rho1=0.05, rho2=0.05))
    assert sol.converged
    assert sol.gap >= -1e-10


def assert_solution_consistent(mu, nu, C, params, dense):
    m, n = mu.n, nu.n
    assert (make_evaluator(C.entries) is not None) == dense
    sol = solve_robust(mu, nu, C, params)
    P = np.zeros((m, n))
    for i, j, v in sol.coupling:
        P[i, j] += v
    cost = float((P * C.entries).sum())
    assert sol.value == pytest.approx(cost, rel=1e-9, abs=1e-12)
    assert sol.trace[-1] == pytest.approx(sol.value, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(P.sum(axis=1), sol.w_x.w / m, rtol=0, atol=1e-9)
    np.testing.assert_allclose(P.sum(axis=0), sol.w_y.w / n, rtol=0, atol=1e-9)
    for w, r, k in ((sol.w_x.w, params.rho1, m), (sol.w_y.w, params.rho2, n)):
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(k, abs=1e-9)
        assert np.linalg.norm(w - 1.0) <= weight_radius(r, k) + 1e-9


@given(
    m=st.integers(min_value=5, max_value=8),
    n=st.integers(min_value=5, max_value=8),
    two_sided=st.booleans(),
    rho=st.sampled_from([0.02, 0.1, 0.3]),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=25, deadline=None)
def test_lp_path_solution_is_consistent(m, n, two_sided, rho, seed):
    rng = np.random.default_rng(seed)
    mu = make_measure(rng.random((m, 2)))
    nu = make_measure(rng.random((n, 2)))
    params = RobustParams(rho1=rho, rho2=rho if two_sided else 0.0,
                          max_outer_iter=6)
    assert_solution_consistent(mu, nu, cost_matrix(mu, nu), params,
                               dense=False)


@given(
    m=st.integers(min_value=2, max_value=4),
    n=st.integers(min_value=2, max_value=4),
    two_sided=st.booleans(),
    rho=st.sampled_from([0.02, 0.1, 0.3]),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=25, deadline=None)
def test_dense_dual_path_solution_is_consistent(m, n, two_sided, rho, seed):
    """The dense-dual path has no plan: value, coupling and the last trace
    entry come from one final LP at the returned weights."""
    rng = np.random.default_rng(seed)
    mu = make_measure(rng.random((m, 2)))
    nu = make_measure(rng.random((n, 2)))
    params = RobustParams(rho1=rho, rho2=rho if two_sided else 0.0,
                          max_outer_iter=6)
    assert_solution_consistent(mu, nu, cost_matrix(mu, nu), params,
                               dense=True)


def test_lp_path_warm_starts_and_certifies_every_call(monkeypatch):
    calls = []
    lp = robust._lp_transport

    def checked(a, b, C, model=None):
        plan, u, v = lp(a, b, C, model)
        calls.append((model, float((u[:, None] + v[None, :] - C).max())))
        return plan, u, v

    monkeypatch.setattr(robust, "_lp_transport", checked)
    rng = np.random.default_rng(12)
    mu = make_measure(rng.random((12, 2)))
    nu = make_measure(rng.random((10, 2)))
    solve_robust(mu, nu, cost_matrix(mu, nu),
                 RobustParams(rho1=0.1, rho2=0.05, max_outer_iter=10))
    assert len(calls) > 2
    assert calls[0][0] is not None
    assert all(model is calls[0][0] for model, _ in calls)
    assert max(slack for _, slack in calls) <= 1e-9


def test_direct_rule_makes_no_repeated_lp_call(monkeypatch):
    """An adopted oracle point is not solved again at the next iteration."""
    calls = []
    lp = robust._lp_transport

    def recorded(a, b, C, model=None):
        calls.append((a.copy(), b.copy(), model))
        return lp(a, b, C, model)

    monkeypatch.setattr(robust, "_lp_transport", recorded)
    rng = np.random.default_rng(40)
    mu = make_measure(rng.random((40, 2)))
    nu = make_measure(rng.random((40, 2)))
    params = RobustParams(rho1=0.1, rho2=0.05, max_outer_iter=20,
                          update_rule="direct")
    solve_robust(mu, nu, cost_matrix(mu, nu), params)
    assert len(calls) > 2
    assert calls[0][2] is not None
    assert all(model is calls[0][2] for _, _, model in calls)
    for (a0, b0, _), (a1, b1, _) in zip(calls, calls[1:]):
        assert not (
            a0.shape == a1.shape and b0.shape == b1.shape
            and np.abs(a0 - a1).max() <= 1e-12
            and np.abs(b0 - b1).max() <= 1e-12
        )


def test_one_sided_rejects_unknown_keyword():
    mu = make_measure([[0.0], [1.0]])
    nu = make_measure([[0.5], [2.0]])
    with pytest.raises(TypeError):
        solve_robust_one_sided(mu, nu, cost_matrix(mu, nu), 0.1, max_iter=1)
