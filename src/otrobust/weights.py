"""Weight-update subproblem: linear objective over the simplex-ball set.

The feasible set in the scaled frame is

    S = {w >= 0, sum w = n, ||w - 1||_2 <= R},   R = sqrt(2 rho n),

and the subproblem minimizes (or maximizes) ``w . d`` over S.

Both this oracle and the Euclidean projection onto S are solved exactly by
one sort-and-scan over the support size (in the style of Condat, "Fast
projection onto the simplex and the l1 ball", Math. Prog. 2016).  The KKT
conditions give ``w_i = max(0, a - s d_i)`` for some level ``a`` and slope
``s >= 0``, so the support is always a prefix of ``d`` sorted ascending.
On the ``k`` smallest entries the point is

    w = n/k - s (d - mean_k),   ||w - 1||^2 = n (n - k)/k + s^2 var_k,

where ``var_k`` is the sum of squared deviations from ``mean_k``; the ball
fixes ``s = sqrt((R^2 - n (n - k)/k) / var_k)``, and the projection (``d =
-z``) caps it at 1, the slope of the plain simplex projection.  A candidate
is feasible when ``R^2 >= n (n - k)/k`` and its last weight is non-negative,
and every feasible candidate is a point of S, so the best feasible candidate
(least ``d . w``, or nearest ``z``) is the exact optimum.  The scan cuts only
between distinct values of ``d``: tied atoms get equal weight, which is the
minimum-norm point of the optimal face and makes rho -> 0 a continuous
limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _zoom
from .errors import DomainError, InstanceTooLarge
from .measures import WeightVector, weight_radius

# rounding allowance on a candidate's ball budget and last weight; without
# it a support whose last weight is exactly zero could be dropped
_SCAN_TOL = 1e-12


@dataclass(frozen=True)
class WeightSubproblem:
    """Per-sample potentials d, ball radius parameter rho, and direction."""

    d: np.ndarray
    rho: float
    sense: str = "minimize"

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float).ravel()
        if not 0 <= self.rho < np.inf:
            raise DomainError(f"rho must be finite and >= 0, got {self.rho}")
        if self.sense not in ("minimize", "maximize"):
            raise ValueError(f"bad sense {self.sense!r}")
        object.__setattr__(self, "d", d)


def _prefix_scan(d: np.ndarray, R: float, project: bool):
    """Best KKT candidate ``w = n/k - s (d - mean_k)`` over prefix supports.

    Minimizes ``d . w`` over S, or with ``project`` returns the point of S
    nearest ``-d``, whose slope ``s`` is at most 1.  The per-``k`` statistics
    come from cumulative sums of ``d - d.min()``; the chosen point is then
    recomputed from its own centred prefix.  Returns ``(w, support, s,
    dev)``: the point, its support, its slope (0 when ``d`` is constant on
    the support) and the centred ``d`` on the support.
    """
    n = d.size
    s_max = 1.0 if project else np.inf
    order = d.argsort(kind="stable")
    x = d[order] - d[order[0]]
    k = np.arange(1.0, n + 1.0)
    s1 = np.add.accumulate(x)
    mean = s1 / k
    var = np.maximum(np.add.accumulate(x * x) - s1 * mean, 0.0)
    slack = R * R - n * (n - k) / k
    s = np.minimum(
        s_max, np.sqrt(np.maximum(slack, 0.0) / np.where(var > 0, var, 1.0))
    )
    ok = (slack >= -_SCAN_TOL * R * R) & (
        n / k - s * (x - mean) >= -_SCAN_TOL * n / k
    )
    ok[:-1] &= x[1:] > x[:-1]  # cut only between distinct values
    lin = n * mean - s * var  # d . w - n d.min()
    # nearest -d: ||w + d||^2 less its constant part
    crit = 2.0 * lin + n * n / k + s * s * var if project else lin
    kk = int(np.where(ok, crit, np.inf).argmin()) + 1

    xk, support = x[:kk], order[:kk]
    dev = xk - xk.sum() / kk
    var_k = float(dev @ dev)
    s_k = 0.0
    if var_k > 0:
        s_k = min(s_max, math.sqrt(max(slack[kk - 1], 0.0) / var_k))
    w = np.zeros(n)
    w[support] = np.maximum(n / kk - s_k * dev, 0.0)
    return w, support, s_k, dev


def solve_weight_socp(p: WeightSubproblem) -> WeightVector:
    """Exact optimizer of w.d over the scaled simplex-ball intersection."""
    d = p.d if p.sense == "minimize" else -p.d
    w = _prefix_scan(d, weight_radius(p.rho, d.size), project=False)[0]
    return WeightVector(w, p.rho)


def brute_force_weights(
    d: np.ndarray, rho: float, grid_resolution: float = 1e-3
) -> WeightVector:
    """Grid-search oracle for the weight subproblem (n <= 4 only).

    Enumerates the scaled simplex lattice coarse-to-fine, filters by the
    ball constraint, and returns the best feasible point; accuracy is
    ``||d||_inf * n * grid_resolution``.
    """
    d = np.asarray(d, dtype=float).ravel()
    n = d.size
    if n > 4:
        raise InstanceTooLarge(f"brute force limited to n <= 4, got {n}")
    R = weight_radius(rho, n)
    if R <= 0:
        return WeightVector(np.ones(n), rho)

    def objective(blocks):
        return blocks[0] @ d

    blocks, _ = _zoom.zoom_minimize(
        objective,
        sizes=[n],
        radii=[R],
        resolution=grid_resolution,
        lipschitz=np.abs(d).max(),
    )
    w = np.maximum(blocks[0], 0.0)
    w *= n / w.sum()
    return WeightVector(w, rho)


def project_simplex_ball(z: np.ndarray, rho: float) -> np.ndarray:
    """Euclidean projection onto the scaled simplex-ball intersection.

    The same prefix scan as the linear solver, on ``d = -z`` with the slope
    capped at 1: stationarity of ``0.5 ||w - z||^2`` gives ``w_i = max(0,
    (z_i + lam + mu) / (1 + lam))``.
    """
    z = np.asarray(z, dtype=float).ravel()
    return _prefix_scan(-z, weight_radius(rho, z.size), project=True)[0]


def _projection(z: np.ndarray, R: float):
    """Projection of z onto S (radius R) with a generalised Jacobian there.

    On the support the projection is ``w = n/k + s c`` with ``c`` the
    centred z; off it, zero.  The Jacobian is ``s (P - u u^T)`` on the
    support, where ``P`` centres and ``u = c / ||c||`` while the ball binds
    (``s < 1``, as ``s ||c||`` is then fixed), and zero elsewhere.  Returns
    ``(w, support, s, u)`` with ``u`` None when the ball does not bind.
    """
    w, support, s, dev = _prefix_scan(-z, R, project=True)
    nrm = math.sqrt(dev.dot(dev))  # np.linalg.norm of a float vector
    if nrm == 0.0 or s >= 1.0:
        return w, support, 1.0, None
    return w, support, s, dev / nrm
