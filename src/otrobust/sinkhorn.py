"""Entropic OT: log-domain Sinkhorn with epsilon scaling and plan rounding.

Used as an approximate backend and speed comparator only; the exact LP is
the correctness reference everywhere else in the package.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, DomainError
from .exact import COUPLING_EPS, _full_potentials
from .measures import CostMatrix, DiscreteMeasure, OtSolution


def logsumexp(M, axis):
    """log(sum(exp(M), axis)), shifted by the maximum along axis."""
    mx = M.max(axis=axis, keepdims=True)
    return np.log(np.exp(M - mx).sum(axis=axis)) + np.squeeze(mx, axis=axis)


def _round_to_marginals(P, a, b):
    """Rescale rows/columns, then patch the residual with a rank-one term.

    The output satisfies the marginal constraints exactly (up to float
    accumulation), regardless of how far P was from feasible.
    """
    r = P.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(r > 0, np.minimum(1.0, a / np.where(r > 0, r, 1.0)), 0.0)
    P = P * x[:, None]
    c = P.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(c > 0, np.minimum(1.0, b / np.where(c > 0, c, 1.0)), 0.0)
    P = P * y[None, :]
    ea = a - P.sum(axis=1)
    eb = b - P.sum(axis=0)
    s = ea.sum()
    if s > 1e-300:
        P = P + np.outer(ea, eb) / s
    return P


def solve_sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    epsilon: float,
    max_iter: int = 20000,
    tol: float = 1e-9,
) -> OtSolution:
    """Entropy-regularized OT at temperature epsilon.

    Iterates in the log domain with a geometric epsilon schedule (from the
    cost scale down to the target), then rounds the plan back onto the exact
    marginal polytope.  ``value`` is the transport cost of the rounded plan;
    ``gap`` is the pre-rounding l1 residual of the row marginals (the
    column marginals are exact after each column update).  If the residual
    still exceeds tol at max_iter, the best iterate is returned with
    ``converged=False`` rather than raising.
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be > 0, got {epsilon}")
    if tol <= 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    C = cost.entries
    if C.shape != (mu.n, nu.n):
        raise DimensionMismatch(
            f"cost is {C.shape}, measures are {mu.n} x {nu.n}"
        )
    a_full, b_full = mu.mass, nu.mass
    ia = np.flatnonzero(a_full > 0)
    jb = np.flatnonzero(b_full > 0)
    a, b = a_full[ia], b_full[jb]
    Cs = C[np.ix_(ia, jb)]
    la, lb = np.log(a), np.log(b)

    # epsilon schedule: start warm, cool geometrically to the target
    scale = max(float(Cs.max()), epsilon)
    schedule = [scale]
    while schedule[-1] > epsilon * (1 + 1e-12):
        schedule.append(max(schedule[-1] / 10.0, epsilon))

    f = np.zeros(a.size)
    g = np.zeros(b.size)
    converged = False
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
            # the columns are exact after the g-update; the rows' log-sums
            # give the residual here and the next f-update
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
    converged = residual <= tol

    P = np.exp((f[:, None] + g[None, :] - Cs) / epsilon)
    P = _round_to_marginals(P, a, b)
    value = float((P * Cs).sum())

    phi, psi = _full_potentials(C, a_full, ia, jb, f, g)

    triplets = []
    for ii, jj in zip(*np.nonzero(P > COUPLING_EPS)):
        triplets.append((int(ia[ii]), int(jb[jj]), float(P[ii, jj])))
    return OtSolution(
        value=value,
        coupling=tuple(triplets),
        potential_x=phi,
        potential_y=psi,
        gap=residual,
        converged=converged,
    )
