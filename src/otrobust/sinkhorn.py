"""Entropic OT: Sinkhorn scaling on an absorbed kernel, epsilon scaling.

Iterates ``u = a / (K v)`` and ``v = b / (K^T u)`` on the kernel
``K = exp((f + g - C) / eps)``, absorbing scalings that leave [1e-3, 1e3]
into (f, g) (Schmitzer, SIAM J. Sci. Comput. 2019) and taking a half-step
whose kernel sums underflow in the log domain.  Used as an approximate
backend and speed comparator only; the exact LP is the correctness
reference elsewhere.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, DomainError
from .exact import _coupling, _full_potentials
from .measures import CostMatrix, DiscreteMeasure, OtSolution

# a scaling outside [1 / _BOUND, _BOUND] is absorbed into its potential
_BOUND = 1e3
# kernel row or column sums at or below this have lost their precision
_UNDERFLOW = 1e-280


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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = np.where(r > 0, np.minimum(1.0, a / np.where(r > 0, r, 1.0)), 0.0)
    P = P * x[:, None]
    c = P.sum(axis=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y = np.where(c > 0, np.minimum(1.0, b / np.where(c > 0, c, 1.0)), 0.0)
    P = P * y[None, :]
    ea = a - P.sum(axis=1)
    eb = b - P.sum(axis=0)
    s = ea.sum()
    if s > 1e-300:
        P = P + np.outer(ea, eb) / s
    return P


def _kernel(f, g, Cs, eps):
    """The plan exp((f_i + g_j - c_ij) / eps) at potentials (f, g), as the
    kernel K with unit scalings u, v."""
    K = np.exp((f[:, None] + g[None, :] - Cs) / eps)
    return K, np.ones(f.size), np.ones(g.size)


def solve_sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    epsilon: float,
    max_iter: int = 20000,
    tol: float = 1e-9,
) -> OtSolution:
    """Entropy-regularized OT at temperature epsilon.

    Runs the stabilised scaling iteration with a geometric epsilon schedule
    (from the cost scale down to the target, 50 iterations per level before
    the last), then rounds the plan back onto the exact marginal polytope.
    ``value`` is the transport cost of the returned coupling; ``gap`` is the
    pre-rounding l1 residual of the row marginals (the column marginals are
    exact after each column update).  If the residual still exceeds tol at
    max_iter, the best iterate is returned with ``converged=False``.
    """
    if not 0 < epsilon < np.inf:
        raise DomainError(f"epsilon must be finite and > 0, got {epsilon}")
    if not 0 < tol < np.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol}")
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

    # the plan is u_i K_ij v_j: potentials f + eps log u and g + eps log v
    f = np.zeros(a.size)
    g = np.zeros(b.size)
    residual = np.inf
    it = 0
    for level, eps in enumerate(schedule):
        last = level == len(schedule) - 1
        budget = max_iter if last else 50
        K, u, v = _kernel(f, g, Cs, eps)
        Kv = K.sum(axis=1)
        for _ in range(budget):
            it += 1
            # a half-step whose kernel sums underflow is taken in the log
            # domain; its new potential does not depend on the old one
            if Kv.min() <= _UNDERFLOW:
                g = g + eps * np.log(v)
                f = eps * (la - logsumexp((g[None, :] - Cs) / eps, axis=1))
                K, u, v = _kernel(f, g, Cs, eps)
            else:
                u = a / Kv
            Ktu = u @ K
            if Ktu.min() <= _UNDERFLOW:
                f = f + eps * np.log(u)
                g = eps * (lb - logsumexp((f[:, None] - Cs) / eps, axis=0))
                K, u, v = _kernel(f, g, Cs, eps)
            else:
                v = b / Ktu
            if (max(u.max(), v.max()) > _BOUND
                    or min(u.min(), v.min()) < 1 / _BOUND):
                f, g = f + eps * np.log(u), g + eps * np.log(v)
                K, u, v = _kernel(f, g, Cs, eps)
            # the columns are exact after the v-update; the rows' sums give
            # the residual here and the next u-update
            Kv = K @ v
            if it % 10 == 0 or last:
                residual = float(np.abs(u * Kv - a).sum())
                if residual <= tol:
                    break
            if it >= max_iter:
                break
        f, g = f + eps * np.log(u), g + eps * np.log(v)
        if it >= max_iter:
            break
    converged = residual <= tol

    P = _round_to_marginals(_kernel(f, g, Cs, epsilon)[0], a, b)
    triplets, value = _coupling(C, ia, jb, P)
    phi, psi = _full_potentials(C, a_full, ia, jb, f, g)
    return OtSolution(
        value=value,
        coupling=triplets,
        potential_x=phi,
        potential_y=psi,
        gap=residual,
        converged=converged,
    )
