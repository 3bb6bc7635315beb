import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrobust.errors import InstanceTooLarge
from otrobust.measures import weight_radius
from otrobust.weights import (
    WeightSubproblem,
    brute_force_weights,
    project_simplex_ball,
    solve_weight_socp,
)


def socp(d, rho, sense="minimize"):
    return solve_weight_socp(WeightSubproblem(np.asarray(d, float), rho, sense))


def test_rho_zero_returns_ones():
    w = socp([1.0, 2.0, 3.0], 0.0)
    np.testing.assert_allclose(w.w, 1.0)


def test_constant_d_returns_ones():
    w = socp([7.0, 7.0, 7.0, 7.0], 0.3)
    np.testing.assert_allclose(w.w, 1.0)


def test_large_ball_vertex_optimum():
    w = socp([1.0, 2.0, 3.0], 2.0)
    np.testing.assert_allclose(w.w, [3.0, 0.0, 0.0], atol=1e-9)
    assert w.w @ [1.0, 2.0, 3.0] == pytest.approx(3.0, abs=1e-9)


def test_small_ball_matches_brute_force():
    d = np.array([1.0, 2.0, 3.0])
    w = socp(d, 1 / 12)
    wb = brute_force_weights(d, 1 / 12, grid_resolution=1e-3)
    assert np.abs(w.w - wb.w).max() <= 1e-3


def test_two_atom_geometry():
    w = socp([0.0, 1.0], 0.125)
    np.testing.assert_allclose(w.w, [1.5, 0.5], atol=1e-9)


def test_maximize_sense_mirrors():
    d = np.array([1.0, 2.0, 3.0])
    wmin = socp(d, 1 / 12).w
    wmax = socp(-d, 1 / 12, "maximize").w
    np.testing.assert_allclose(wmin, wmax, atol=1e-9)


def test_objective_dominance_over_grid():
    rng = np.random.default_rng(0)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        d = rng.normal(0, 2, n)
        rho = float(rng.choice([0.0, 0.05, 0.1, 0.5, 2.0]))
        w = socp(d, rho)
        wb = brute_force_weights(d, rho, grid_resolution=1e-3)
        slack = np.abs(d).max() * 1e-3 * n
        assert w.w @ d <= wb.w @ d + slack


def test_monotone_in_rho():
    d = np.array([0.3, -1.2, 0.8, 2.0])
    vals = [socp(d, r).w @ d for r in [0.0, 0.01, 0.05, 0.2, 1.0, 3.0]]
    assert np.all(np.diff(vals) <= 1e-10)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_shift_invariance(c):
    rng = np.random.default_rng(4)
    d = rng.normal(size=5)
    w1 = socp(d, 0.07).w
    for shifted in (c * d, c * (d + 42.0)):
        assert np.abs(socp(shifted, 0.07).w - w1).max() <= 1e-9


@given(
    n=st.integers(min_value=2, max_value=8),
    rho=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_socp_output_always_feasible(n, rho, seed):
    d = np.random.default_rng(seed).normal(0, 3, n)
    w = socp(d, rho)
    # WeightVector construction already validates; re-check the raw numbers
    assert np.all(w.w >= 0)
    assert w.w.sum() == pytest.approx(n, abs=1e-8)
    assert np.linalg.norm(w.w - 1.0) <= weight_radius(rho, n) + 1e-8


def test_brute_force_size_cap():
    with pytest.raises(InstanceTooLarge):
        brute_force_weights(np.arange(5.0), 0.1)


def test_brute_force_large_rho_vertex():
    wb = brute_force_weights(np.array([1.0, 2.0, 3.0]), 10.0, 1e-2)
    assert np.abs(wb.w - [3.0, 0.0, 0.0]).max() <= 2e-2


def test_projection_identity_inside_set():
    z = np.array([1.1, 0.9, 1.0])
    w = project_simplex_ball(z, 1.0)
    np.testing.assert_allclose(w, z, atol=1e-9)


def test_projection_feasibility_random():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        rho = float(rng.uniform(0, 0.5))
        z = rng.normal(1, 2, n)
        w = project_simplex_ball(z, rho)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(n, abs=1e-8)
        assert np.linalg.norm(w - 1.0) <= weight_radius(rho, n) + 1e-8


def test_projection_is_closest_point_vs_grid():
    # 2-atom case has a 1-parameter feasible set; check against dense scan
    rho = 0.1
    R = weight_radius(rho, 2)
    ts = np.linspace(-R, R, 20001)
    cand = np.stack([1 + ts / np.sqrt(2), 1 - ts / np.sqrt(2)], axis=1)
    cand = cand[np.all(cand >= 0, axis=1)]
    rng = np.random.default_rng(13)
    for _ in range(10):
        z = rng.normal(1, 1.5, 2)
        w = project_simplex_ball(z, rho)
        dists = np.linalg.norm(cand - z, axis=1)
        assert np.linalg.norm(w - z) <= dists.min() + 1e-6


def draw_d(rng, n, kind):
    if kind == "tied":
        return rng.integers(0, 4, n).astype(float)
    d = rng.normal(0.0, 3.0, n)
    return d * 1e-6 if kind == "small" else d


def assert_in_set(w, rho):
    n = w.size
    assert w.min() >= 0.0
    assert w.sum() == pytest.approx(n, abs=1e-9)
    assert np.linalg.norm(w - 1.0) <= weight_radius(rho, n) + 1e-9


def assert_ties_equal(w, d):
    for v in np.unique(d):
        assert np.ptp(w[d == v]) == 0.0


@given(
    n=st.integers(min_value=2, max_value=60),
    kind=st.sampled_from(["random", "tied", "small"]),
    rho=st.floats(min_value=0.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_oracle_and_projection_optimality(n, kind, rho, seed):
    """Sizes the brute force cannot reach: the oracle beats projected
    points, and the projection satisfies its variational inequality
    against oracle points; both outputs are checked feasible directly."""
    rng = np.random.default_rng(seed)
    d = draw_d(rng, n, kind)
    w = socp(d, rho).w
    assert_in_set(w, rho)
    assert_ties_equal(w, d)
    for _ in range(3):
        x = project_simplex_ball(rng.normal(1.0, 2.0, n), rho)
        assert_in_set(x, rho)
        assert w @ d <= x @ d + 1e-12 * np.abs(d).max() * n

    z = draw_d(rng, n, kind) + 1.0
    p = project_simplex_ball(z, rho)
    assert_in_set(p, rho)
    assert_ties_equal(p, z)
    scale = max(1.0, np.abs(z).max()) * n
    for _ in range(3):
        x = socp(draw_d(rng, n, kind), rho).w
        assert (z - p) @ (x - p) <= 1e-9 * scale
