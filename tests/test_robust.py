import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrobust import robust
from otrobust.analysis import construct_theorem2_instance
from otrobust.datagen import (
    RING_RADIUS_DEFAULT,
    FarCluster,
    gaussian_ring,
    inject_outliers,
)
from otrobust.errors import DomainError, InstanceTooLarge, NonUniformInput
from otrobust.exact import solve_exact
from otrobust.measures import CostMatrix, cost_matrix, make_measure, weight_radius
from otrobust.robust import (
    RobustParams,
    brute_force_robust,
    solve_robust,
    solve_robust_one_sided,
)


def test_params_validation():
    with pytest.raises(ValueError):
        RobustParams(rho1=-0.1)
    with pytest.raises(TypeError):
        RobustParams(rho1=0.1, update_rule="averaged")
    with pytest.raises(ValueError):
        RobustParams(rho1=0.1, max_outer_iter=0)
    for bad in ({"rho1": np.nan}, {"rho1": np.inf}, {"rho2": np.nan},
                {"rel_tol": np.nan}):
        with pytest.raises(DomainError):
            RobustParams(**{"rho1": 0.1, **bad})


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
    sol = solve_robust(mu, nu, C, RobustParams(rho1=0.0, rho2=0.0))
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
    sol = solve_robust(mu, nu, C, RobustParams(rho1=0.08, rho2=0.03))
    assert np.all(np.diff(sol.trace) <= 1e-12)
    assert sol.trace[-1] == sol.value


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


def test_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(4):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        mu = make_measure(rng.random((m, 2)))
        nu = make_measure(rng.random((n, 2)))
        C = cost_matrix(mu, nu)
        rho1 = float(rng.choice([0.03, 0.1]))
        oracle = brute_force_robust(mu, nu, C, rho1=rho1, grid_resolution=2e-3)
        sol = solve_robust(mu, nu, C, RobustParams(rho1=rho1))
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


def test_gap_certificate_nonnegative_at_convergence():
    rng = np.random.default_rng(11)
    mu = make_measure(rng.random((3, 2)))
    nu = make_measure(rng.random((3, 2)))
    C = cost_matrix(mu, nu)
    sol = solve_robust(mu, nu, C, RobustParams(rho1=0.05, rho2=0.05))
    assert sol.converged
    assert sol.gap >= -1e-10


@given(
    m=st.integers(min_value=2, max_value=8),
    n=st.integers(min_value=2, max_value=8),
    two_sided=st.booleans(),
    rho=st.sampled_from([0.02, 0.1, 0.3]),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_lp_path_solution_is_consistent(m, n, two_sided, rho, seed):
    """Value, coupling, trace, weights and certificate agree, whether or
    not the LP cap stops the solve first."""
    rng = np.random.default_rng(seed)
    mu = make_measure(rng.random((m, 2)))
    nu = make_measure(rng.random((n, 2)))
    params = RobustParams(rho1=rho, rho2=rho if two_sided else 0.0,
                          max_outer_iter=6)
    C = cost_matrix(mu, nu)
    sol = solve_robust(mu, nu, C, params)
    P = np.zeros((m, n))
    for i, j, v in sol.coupling:
        P[i, j] += v
    cost = float((P * C.entries).sum())
    assert sol.value == pytest.approx(cost, rel=1e-9, abs=1e-12)
    assert sol.trace[-1] == sol.value
    assert np.all(np.diff(sol.trace) <= 0.0)
    assert sol.converged == (sol.gap <= params.rel_tol * max(1.0, sol.value))
    np.testing.assert_allclose(P.sum(axis=1), sol.w_x.w / m, rtol=0, atol=1e-9)
    np.testing.assert_allclose(P.sum(axis=0), sol.w_y.w / n, rtol=0, atol=1e-9)
    for w, r, k in ((sol.w_x.w, params.rho1, m), (sol.w_y.w, params.rho2, n)):
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(k, abs=1e-9)
        assert np.linalg.norm(w - 1.0) <= weight_radius(r, k) + 1e-9


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


@pytest.mark.parametrize("rho2", [0.0, 0.05])
def test_lp_and_oracle_are_called_through_module_globals(monkeypatch, rho2):
    """perfbench/tracer.py counts LPs and oracle calls by rebinding
    ``_lp_transport`` and ``solve_weight_socp`` in this module; every solve
    must look both up there."""
    counts = dict.fromkeys(("_lp_transport", "solve_weight_socp"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(robust, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(robust, name, counted)
    rng = np.random.default_rng(13)
    mu = make_measure(rng.random((8, 2)))
    nu = make_measure(rng.random((7, 2)))
    sol = solve_robust(mu, nu, cost_matrix(mu, nu),
                       RobustParams(rho1=0.1, rho2=rho2))
    assert counts["_lp_transport"] == len(sol.trace) - 1
    assert counts["solve_weight_socp"] >= 1


def record_lp_calls(monkeypatch):
    """Wrap the robust solver's LP; returns the list of (a, b, model)."""
    calls = []
    lp = robust._lp_transport

    def recorded(a, b, C, model=None):
        calls.append((a.copy(), b.copy(), model))
        return lp(a, b, C, model)

    monkeypatch.setattr(robust, "_lp_transport", recorded)
    return calls


def test_no_lp_repeats_marginals(monkeypatch):
    """No two LPs of one solve are at the same marginals."""
    calls = record_lp_calls(monkeypatch)
    rng = np.random.default_rng(40)
    mu = make_measure(rng.random((40, 2)))
    nu = make_measure(rng.random((40, 2)))
    params = RobustParams(rho1=0.1, rho2=0.05, max_outer_iter=20)
    solve_robust(mu, nu, cost_matrix(mu, nu), params)
    assert len(calls) > 2
    assert calls[0][2] is not None
    assert all(model is calls[0][2] for _, _, model in calls)
    for k, (a1, b1, _) in enumerate(calls):
        for a0, b0, _ in calls[:k]:
            assert max(np.abs(a0 - a1).max(), np.abs(b0 - b1).max()) > 1e-12


def figure1_pair():
    """The README ring pair with 5% far outliers, as ``otrobust gen``
    writes it (seeds 0 and 1, the second rotated by 0.785)."""
    clean = gaussian_ring(4, n_samples=200, seed=0)
    far = FarCluster([15.0 * RING_RADIUS_DEFAULT] * 2)
    mu, _ = inject_outliers(clean, 0.05, far, seed=0)
    nu = gaussian_ring(4, n_samples=200, rotation_rad=0.785, seed=1)
    return mu, nu


def test_figure1_converged_means_certified():
    mu, nu = figure1_pair()
    params = RobustParams(rho1=0.05 / (2 * 0.95))
    sol = solve_robust(mu, nu, cost_matrix(mu, nu), params)
    assert sol.converged
    assert sol.gap <= params.rel_tol * max(1.0, sol.value)


def test_two_sided_5x5_pairs_certify_and_agree_when_swapped():
    rng = np.random.default_rng(5)
    params = RobustParams(rho1=0.07, rho2=0.07)
    for _ in range(5):
        A = make_measure(rng.random((5, 2)))
        B = make_measure(rng.random((5, 2)))
        ab = solve_robust(A, B, cost_matrix(A, B), params)
        ba = solve_robust(B, A, cost_matrix(B, A), params)
        assert ab.converged and ba.converged
        assert ab.value == pytest.approx(ba.value, rel=1e-6)


def test_sqeuclidean_6x6_certifies():
    A = gaussian_ring(2, n_samples=6, seed=1)
    B = gaussian_ring(2, n_samples=6, rotation_rad=0.5, seed=2)
    sol = solve_robust_one_sided(
        A, B, cost_matrix(A, B, metric="sqeuclidean"), rho=0.05)
    assert sol.converged
    assert sol.value == pytest.approx(4.481409, abs=1e-6)
    assert sol.gap <= 1e-7 * sol.value


def test_self_pair_certifies_at_first_lp(monkeypatch):
    calls = record_lp_calls(monkeypatch)
    mu = make_measure(np.random.default_rng(13).random((6, 2)))
    sol = solve_robust(mu, mu, cost_matrix(mu, mu),
                       RobustParams(rho1=0.1, rho2=0.1))
    assert sol.converged
    assert len(calls) == 1
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_theorem2_instance_certifies_within_two_lps(monkeypatch):
    calls = record_lp_calls(monkeypatch)
    inst = construct_theorem2_instance(4.0, 0.1, 20)
    mixed = inst.mixed()
    sol = solve_robust_one_sided(
        mixed, inst.target, cost_matrix(mixed, inst.target), rho=0.3)
    assert sol.converged
    assert len(calls) <= 2


def test_one_sided_rejects_unknown_keyword():
    mu = make_measure([[0.0], [1.0]])
    nu = make_measure([[0.5], [2.0]])
    with pytest.raises(TypeError):
        solve_robust_one_sided(mu, nu, cost_matrix(mu, nu), 0.1, max_iter=1)
