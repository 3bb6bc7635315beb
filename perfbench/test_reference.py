"""Checks of the benchmark's reference computations against brute force.

Run with ``python3 -m pytest perfbench``.  Every reference in
``reference.py`` is compared with exhaustive enumeration on instances of at
most three atoms a side: lattice points of the weight simplex, vertices of
the transport polytope, and permutations.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import reference as ref


def simplex_grid(n: int, steps: int) -> np.ndarray:
    """All points of ``{w >= 0, sum w = n}`` with coordinates in (n/steps) Z."""
    if n == 1:
        return np.ones((1, 1))
    head = np.indices((steps + 1,) * (n - 1)).reshape(n - 1, -1).T
    head = head[head.sum(axis=1) <= steps]
    grid = np.column_stack([head, steps - head.sum(axis=1)]).astype(float)
    return grid * (n / steps)


def in_ball(W: np.ndarray, R: float) -> np.ndarray:
    return np.linalg.norm(W - 1.0, axis=1) <= R + 1e-12


def brute_ot(a, b, C) -> float:
    """Exact OT by enumerating the basic solutions of the transport LP."""
    m, n = C.shape
    A = np.zeros((m + n, m * n))
    for i in range(m):
        A[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A[m + j, j::n] = 1.0
    rhs = np.concatenate([a, b])
    best = math.inf
    for cells in itertools.combinations(range(m * n), m + n - 1):
        sub = A[:, cells]
        x, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
        if np.abs(sub @ x - rhs).max() > 1e-10 or x.min() < -1e-12:
            continue
        best = min(best, float(C.ravel()[list(cells)] @ x))
    return best


def brute_robust(C, rho1, rho2, steps):
    """Robust OT over lattice weights on both sides (feasible points only)."""
    m, n = C.shape
    WX = simplex_grid(m, steps)
    WY = simplex_grid(n, steps)
    WX = WX[in_ball(WX, ref.ball_radius(rho1, m))]
    WY = WY[in_ball(WY, ref.ball_radius(rho2, n))]
    return min(brute_ot(wx / m, wy / n, C) for wx in WX for wy in WY)


# ---------------------------------------------------------------------------
# simplex-ball linear minimisation
# ---------------------------------------------------------------------------

CASES = [
    np.array([0.3]),
    np.array([1.0, 1.0]),
    np.array([0.2, -0.7]),
    np.array([1.0, 1.0, 2.0]),      # tie at the bottom
    np.array([0.0, 2.0, 2.0]),      # tie at the top
    np.array([3.0, 3.0, 3.0]),      # all tied
    np.array([0.5, -1.25, 2.0]),
]


@pytest.mark.parametrize("d", CASES + [np.random.default_rng(k).normal(size=3)
                                       for k in range(6)])
@pytest.mark.parametrize("rho", [0.0, 1e-4, 0.02, 0.15, 0.6, 5.0])
def test_simplex_ball_min_matches_grid(d, rho):
    n = d.size
    R = ref.ball_radius(rho, n)
    val, w = ref.simplex_ball_min(d, R)
    assert w.min() >= -1e-12
    assert abs(w.sum() - n) <= 1e-12 * n
    assert np.linalg.norm(w - 1.0) <= R + 1e-9
    assert abs(float(d @ w) - val) <= 1e-12 * max(1.0, abs(val))
    steps = 600 if n == 3 else 6000
    W = simplex_grid(n, steps)
    W = W[in_ball(W, R)]
    grid = float((W @ d).min())
    # the grid holds feasible points only, so it can never beat the optimum;
    # it comes within a few lattice steps of it
    assert val <= grid + 1e-9
    spread = float(np.abs(d).max()) * n
    assert grid - val <= spread * 6.0 * n / steps + 1e-12


def test_simplex_ball_min_is_uniform_at_zero_radius():
    val, w = ref.simplex_ball_min(np.array([2.0, -1.0, 0.5]), 0.0)
    assert np.array_equal(w, np.ones(3)) and val == 1.5


# ---------------------------------------------------------------------------
# exact transport
# ---------------------------------------------------------------------------

def _marginal(rng, k, zeros):
    p = rng.random(k)
    if zeros and k > 1:
        p[rng.integers(k)] = 0.0
    return p / p.sum()


@pytest.mark.parametrize("seed", range(12))
def test_dual_potentials_feasible_and_tight(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    C = rng.random((m, n)) * 3.0
    a = _marginal(rng, m, zeros=seed % 3 == 0)
    b = _marginal(rng, n, zeros=seed % 4 == 1)
    u, v = ref.dual_potentials(a, b, C)
    slack = C - u[:, None] - v[None, :]
    assert slack.min() >= -1e-12
    # each potential is as large as feasibility allows, zero-mass atoms too
    assert np.abs(slack.min(axis=0)).max() <= 1e-12
    assert np.abs(slack.min(axis=1)).max() <= 1e-12
    assert abs(ref.dual_value(a, b, u, v) - brute_ot(a, b, C)) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_assignment_matches_permutations_and_lp(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        C = rng.random((n, n))
        perms = min(sum(C[i, p[i]] for i in range(n))
                    for p in itertools.permutations(range(n))) / n
        got = ref.assignment_ot(C)
        assert abs(got - perms) <= 1e-12
        assert abs(got - brute_ot(np.full(n, 1 / n), np.full(n, 1 / n), C)) <= 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_ot_2x2_matches_vertices(seed):
    rng = np.random.default_rng(200 + seed)
    C = rng.random((2, 2))
    a1, b1 = rng.random(2)
    want = brute_ot(np.array([a1, 1 - a1]), np.array([b1, 1 - b1]), C)
    assert abs(ref.ot_2x2(a1, b1, C) - want) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("rhos", [(0.02, 0.02), (0.15, 0.0), (0.05, 0.3)])
def test_robust_2x2_matches_grid(seed, rhos):
    rng = np.random.default_rng(300 + seed)
    C = rng.random((2, 2))
    got = ref.robust_2x2(C, *rhos)
    # lattice over (w_x1, w_y1), feasible points only
    steps = 4000
    w = np.linspace(0.0, 2.0, steps + 1)
    wx = w[np.abs(w - 1.0) <= math.sqrt(2 * rhos[0]) + 1e-12]
    wy = w[np.abs(w - 1.0) <= math.sqrt(2 * rhos[1]) + 1e-12]
    A, B = np.meshgrid(wx / 2, wy / 2, indexing="ij")
    lo, hi = np.maximum(0.0, A + B - 1.0), np.minimum(A, B)

    def cost(t):
        return (t * C[0, 0] + (A - t) * C[0, 1] + (B - t) * C[1, 0]
                + (1.0 - A - B + t) * C[1, 1])

    grid = float(np.minimum(cost(lo), cost(hi)).min())
    assert got <= grid + 1e-9
    assert grid - got <= 4.0 * C.max() * 2.0 / steps


# ---------------------------------------------------------------------------
# robust lower bound and the Theorem-2 closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_robust_lower_bound_is_below_brute_force(seed):
    rng = np.random.default_rng(400 + seed)
    m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    C = rng.random((m, n))
    rho1, rho2 = 0.05, (0.02 if seed % 2 else 0.0)
    best = brute_robust(C, rho1, rho2, steps=30)
    for _ in range(3):  # the bound holds whatever weights it is taken at
        wx = simplex_grid(m, 30)
        wx = wx[in_ball(wx, ref.ball_radius(rho1, m))]
        wy = simplex_grid(n, 30)
        wy = wy[in_ball(wy, ref.ball_radius(rho2, n))]
        lb = ref.robust_lower_bound(C, wx[rng.integers(len(wx))],
                                    wy[rng.integers(len(wy))], rho1, rho2)
        assert lb <= best + 1e-9


@pytest.mark.parametrize("n_atoms,gamma", [(2, 0.5), (3, 1 / 3), (3, 2 / 3), (3, 0.0)])
@pytest.mark.parametrize("k", [1.0, 1.5, 2.0, 3.0, 9.0])
@pytest.mark.parametrize("rho", [0.0, 0.01, 0.1, 0.5, 2.0])
def test_theorem2_value_matches_grid(n_atoms, gamma, k, rho):
    g = int(round(gamma * n_atoms))
    costs = np.array([1.0] * (n_atoms - g) + [abs(k - 1.0)] * g)
    steps = 900 if n_atoms == 3 else 9000
    W = simplex_grid(n_atoms, steps)
    W = W[in_ball(W, ref.ball_radius(rho, n_atoms))]
    grid = float((W @ costs).min()) / n_atoms
    got = ref.theorem2_value(k, gamma, rho, n_atoms)
    assert got <= grid + 1e-9
    assert grid - got <= 6.0 * k * n_atoms / steps
    assert got <= ref.theorem2_bound(k, gamma, rho) + 1e-12  # Theorem 2 itself


def test_auc_counts_pairs_and_ties():
    assert ref.auc([0.9, 0.8, 0.1], [1, 0, 0]) == 1.0
    assert ref.auc([0.1, 0.8, 0.9], [1, 0, 0]) == 0.0
    assert ref.auc([0.5, 0.5], [1, 0]) == 0.5
