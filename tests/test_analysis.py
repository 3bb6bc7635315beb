import numpy as np
import pytest

from otrobust import analysis
from otrobust.analysis import (
    ElbowResult,
    RhoCurve,
    construct_theorem2_instance,
    detect_elbow,
    find_asymmetric_pair,
    find_triangle_violation,
    metric_properties_report,
    rho_for_known_gamma,
    sweep_rho,
    theorem2_bound,
    verify_theorem2,
)
from otrobust.errors import DomainError, TooFewPoints
from otrobust.exact import solve_exact
from otrobust.measures import cost_matrix, make_measure
from otrobust.robust import solve_robust


def test_bound_closed_forms():
    assert theorem2_bound(2.0, 0.1, 0.0) == pytest.approx(1.2)
    assert theorem2_bound(5.0, 0.0, 0.7) == pytest.approx(1.0)
    g = 0.1
    assert theorem2_bound(3.0, g, rho_for_known_gamma(g)) == pytest.approx(1.0)


def test_bound_monotonicity_grids():
    ks = np.linspace(1, 10, 7)
    gs = [0.05, 0.1, 0.2, 0.3]
    rhos = np.linspace(0, 1, 9)
    for g in gs:
        for k in ks:
            vals = [theorem2_bound(k, g, r) for r in rhos]
            assert np.all(np.diff(vals) <= 1e-12)
    for g in gs:
        for r in rhos:
            vals = [theorem2_bound(k, g, r) for k in ks]
            assert np.all(np.diff(vals) >= -1e-12)
    for k in ks:
        for r in [0.0, 0.001]:
            vals = [theorem2_bound(k, g, r) for g in gs]
            assert np.all(np.diff(vals) >= -1e-12)


def test_bound_domain_errors():
    with pytest.raises(DomainError):
        theorem2_bound(0.5, 0.1, 0.1)
    with pytest.raises(DomainError):
        rho_for_known_gamma(1.0)


def test_rho_for_known_gamma_values():
    assert rho_for_known_gamma(0.0) == 0.0
    assert rho_for_known_gamma(0.5) == pytest.approx(0.5)
    assert rho_for_known_gamma(0.05) == pytest.approx(1 / 38)


def test_instance_construction_geometry():
    inst = construct_theorem2_instance(5.0, 0.1, 10)
    mixed = inst.mixed()
    assert mixed.n == 10
    assert inst.labels.sum() == 1
    wc = solve_exact(
        inst.clean, inst.target, cost_matrix(inst.clean, inst.target)
    ).value
    wo = solve_exact(
        inst.outlier, inst.clean, cost_matrix(inst.outlier, inst.clean)
    ).value
    assert wc == pytest.approx(1.0, abs=1e-9)
    assert wo / wc == pytest.approx(5.0, abs=1e-9)


def test_instance_rejects_non_integral_mixture():
    with pytest.raises(DomainError):
        construct_theorem2_instance(2.0, 0.13, 10)


def test_verify_theorem2_gamma_zero():
    inst = construct_theorem2_instance(1.0, 0.0, 10)
    rep = verify_theorem2(inst, 0.2)
    assert rep["holds"]
    assert rep["lhs"] <= rep["rhs"] + 1e-9


def test_verify_theorem2_factor_one_point():
    inst = construct_theorem2_instance(5.0, 0.1, 10)
    rep = verify_theorem2(inst, rho_for_known_gamma(0.1))
    assert rep["holds"]
    assert rep["lhs"] <= rep["rhs"] * (1 + 1e-6)


def test_rho_curve_rejects_increase():
    with pytest.raises(DomainError):
        RhoCurve(np.array([0.0, 0.1]), np.array([1.0, 1.5]))


def test_sweep_grid_of_zero_is_exact():
    rng = np.random.default_rng(0)
    mu = make_measure(rng.random((4, 2)))
    nu = make_measure(rng.random((4, 2)))
    C = cost_matrix(mu, nu)
    curve = sweep_rho(mu, nu, C, [0.0])
    assert curve.values[0] == pytest.approx(solve_exact(mu, nu, C).value, abs=1e-9)


def test_sweep_identical_measures_all_zero():
    mu = make_measure(np.random.default_rng(1).random((3, 2)))
    C = cost_matrix(mu, mu)
    curve = sweep_rho(mu, mu, C, [0.0, 0.05, 0.1])
    np.testing.assert_allclose(curve.values, 0.0, atol=1e-10)


def test_sweep_monotone_and_bounded(monkeypatch):
    rng = np.random.default_rng(2)
    mu = make_measure(rng.random((4, 2)))
    nu = make_measure(rng.random((4, 2)))
    C = cost_matrix(mu, nu)
    exact = solve_exact(mu, nu, C).value
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3].rho1)
        return solve_robust(*args, **kwargs)

    monkeypatch.setattr(analysis, "solve_robust", counted)
    grid = np.linspace(0.0, 0.4, 6)
    curve = sweep_rho(mu, nu, C, grid)
    assert calls == grid.tolist()  # one solve per grid point
    assert np.all(np.diff(curve.values) <= 1e-8)
    assert np.all(curve.values >= -1e-10)
    assert np.all(curve.values <= exact + 1e-8)


def test_sweep_reports_convergence():
    rng = np.random.default_rng(3)
    mu = make_measure(rng.random((4, 2)))
    nu = make_measure(rng.random((4, 2)))
    C = cost_matrix(mu, nu)
    grid = [0.05, 0.1, 0.2]
    assert sweep_rho(mu, nu, C, grid).converged
    assert not sweep_rho(mu, nu, C, grid, max_outer_iter=1).converged


def test_elbow_hinge():
    c = RhoCurve(np.array([0.0, 0.1, 0.2, 0.3]),
                 np.array([1.0, 0.2, 0.19, 0.18]))
    e = detect_elbow(c)
    assert e == ElbowResult(rho=0.1, index=1, flat=False)


def test_elbow_flat_flag():
    c = RhoCurve(np.array([0.1, 0.2, 0.3, 0.4]), np.full(4, 2.0))
    e = detect_elbow(c)
    assert e.flat and e.rho == pytest.approx(0.1)


def test_elbow_too_few_points():
    c = RhoCurve(np.array([0.0, 0.1, 0.2]), np.array([1.0, 0.5, 0.4]))
    with pytest.raises(TooFewPoints):
        detect_elbow(c)


def test_metric_report_identical_measures():
    mu = make_measure([[0.0], [1.0]])
    report = metric_properties_report([mu, mu, mu], cost_matrix, 0.1)
    assert report.nonnegativity_ok
    assert report.identity_ok
    assert report.symmetry_max_rel_dev <= 1e-9


def test_metric_report_needs_three():
    mu = make_measure([[0.0]])
    with pytest.raises(TooFewPoints):
        metric_properties_report([mu, mu], cost_matrix, 0.1)


def test_triangle_violation_search_finds_one():
    v = find_triangle_violation(rho=0.25, trials=200, seed=0)
    assert v is not None
    assert v["margin"] > 1e-3
    # recompute from the stored points to confirm the fixture is honest
    from otrobust.robust import RobustParams, solve_robust

    A = make_measure(v["points_a"])
    B = make_measure(v["points_b"])
    Cm = make_measure(v["points_c"])
    p = RobustParams(rho1=v["rho"], rho2=v["rho"])
    dab = solve_robust(A, B, cost_matrix(A, B), p).value
    dbc = solve_robust(B, Cm, cost_matrix(B, Cm), p).value
    dac = solve_robust(A, Cm, cost_matrix(A, Cm), p).value
    assert dac - (dab + dbc) > 1e-3


def test_asymmetric_pair_search_finds_one():
    v = find_asymmetric_pair(trials=100, seed=0)
    assert v is not None
    assert v["gap"] > 1e-3
