"""Unbalanced OT with chi-square marginal penalties, and the penalty conjugate.

The penalty form replaces hard marginal constraints with
``tau * chi2(pi 1 || a) + tau * chi2(pi^T 1 || b)``; the transport plan's
total mass is free.  The objective is a convex quadratic on the non-negative
orthant, minimized by projected gradient with a 1/L step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import golden

from .errors import DimensionMismatch, DomainError
from .measures import CostMatrix, DiscreteMeasure


def r_star(x: float) -> float:
    """Convex conjugate of t -> (t-1)^2/2 restricted to its finite branch.

    Equals 1 - sqrt(1 - 2x) for x <= 1/2 and +inf beyond (the sup defining
    it diverges there); infinity is returned in-band, not raised.
    """
    if x > 0.5:
        return float("inf")
    return 1.0 - np.sqrt(1.0 - 2.0 * x)


def r_star_numeric_check(x: float, s_grid=None) -> float:
    """Direct maximization of (x - (s-1)^2/2)/s over s > 0.

    The maximizer is s = sqrt(1-2x), which collapses to 0 as x -> 1/2, so
    the search runs over log s: a log-spaced grid pass followed by
    golden-section refinement of the bracketing interval.
    """
    if x > 0.5 - 1e-6:
        raise DomainError(f"finite branch requires x <= 1/2 - 1e-6, got {x}")

    def neg(logs):
        s = np.exp(logs)
        return -(x - 0.5 * (s - 1.0) ** 2) / s

    if s_grid is None:
        s_grid = np.exp(np.linspace(np.log(1e-8), np.log(1e4), 4001))
    logs = np.log(np.asarray(s_grid, dtype=float))
    vals = np.array([neg(t) for t in logs])
    k = int(np.argmin(vals))
    lo = logs[max(0, k - 1)]
    hi = logs[min(len(logs) - 1, k + 1)]
    if lo == hi:
        best = lo
    else:
        best = golden(neg, brack=(lo, 0.5 * (lo + hi), hi), tol=1e-12)
    return float(-neg(best))


@dataclass(frozen=True)
class UnbalancedSolution:
    value: float
    coupling: np.ndarray  # dense (m, n)
    marginal_penalty_x: float
    marginal_penalty_y: float
    kkt_residual: float
    converged: bool = True


def _chi2(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum((p - q) ** 2 / (2.0 * q)))


def solve_unbalanced_chi2(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    tau: float,
    max_iter: int = 20000,
    tol: float = 1e-9,
) -> UnbalancedSolution:
    """Minimize <C, pi> + tau*chi2(pi 1 || a) + tau*chi2(pi^T 1 || b), pi >= 0.

    Projected gradient with constant step 1/L; L is the largest eigenvalue
    bound of the quadratic, tau*(max_i 1/a_i + max_j 1/b_j) scaled by the
    marginal aggregation.  Stops when the projected-gradient-mapping norm
    drops below tol; if max_iter is hit first the result carries
    ``converged=False`` rather than raising.
    """
    if tau <= 0:
        raise DomainError(f"tau must be > 0, got {tau}")
    C = cost.entries
    m, n = mu.n, nu.n
    if C.shape != (m, n):
        raise DimensionMismatch(f"cost is {C.shape}, measures {m} x {n}")
    a, b = mu.mass, nu.mass
    if np.any(a <= 0) or np.any(b <= 0):
        raise DomainError("chi-square penalties need strictly positive mass")

    L = tau * (n * (1.0 / a).max() + m * (1.0 / b).max())
    step = 1.0 / L

    def grad(P):
        ga = (P.sum(axis=1) - a) / a  # d/d(row sums) of tau*chi2
        gb = (P.sum(axis=0) - b) / b
        return C + tau * (ga[:, None] + gb[None, :])

    def objective(P):
        return (
            float((C * P).sum())
            + tau * _chi2(P.sum(axis=1), a)
            + tau * _chi2(P.sum(axis=0), b)
        )

    # warm start: at large tau the optimum is near the balanced plan, and
    # the 1/L step shrinks with tau, so cold starts crawl; the exact plan
    # (zero penalty) is a cheap, always-feasible starting point
    if m * n <= 100_000:
        from .exact import solve_exact

        P = solve_exact(mu, nu, cost).coupling_dense((m, n))
    else:
        P = np.outer(a, b)
    f = objective(P)
    residual = np.inf
    converged = False
    for _ in range(max_iter):
        G = grad(P)
        P_new = np.maximum(P - step * G, 0.0)
        residual = float(np.linalg.norm((P - P_new) / step))
        if residual <= tol:
            converged = True
            P = P_new
            break
        P = P_new
    f = objective(P)

    pen_x = tau * _chi2(P.sum(axis=1), a)
    pen_y = tau * _chi2(P.sum(axis=0), b)
    sol = UnbalancedSolution(
        value=f,
        coupling=P,
        marginal_penalty_x=pen_x,
        marginal_penalty_y=pen_y,
        kkt_residual=residual,
        converged=converged,
    )
    return sol
