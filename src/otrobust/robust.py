"""Outlier-robust OT: a proximal bundle method over exact-OT cuts.

The robust distance relaxes one or both marginals inside a chi-square ball
and minimizes the transport cost over the relaxed marginals.  In the scaled
weights ``z = (wx, wy)`` the objective ``f(z) = OT(wx/m, wy/n)`` is, by LP
duality, the maximum of ``phi.wx/m - psi.wy/n`` over the dual-feasible pairs
``phi_i - psi_j <= c_ij``: convex and piecewise linear.  The exact LP at any
point gives such a pair and with it the cut ``g = (phi/m, -psi/n)``:
``f(z) >= g.z`` for every feasible z, with equality at that point.  Every
convex combination of cuts is again a dual-feasible pair, so its minimum
over the feasible set, one :func:`solve_weight_socp` per relaxed side, is a
lower bound on the robust value.

:func:`solve_robust` is a proximal bundle method over these cuts (Kiwiel,
"Proximity control in bundle methods for convex nondifferentiable
minimization", Math. Prog. 1990) on one hot-started :class:`TransportModel`.
Its master problem minimizes ``max_k g_k.z + ||z - c||^2 / (2t)`` over the
feasible set around the stability centre ``c``.  It is solved in its dual
over the simplex of cut multipliers ``lam``, whose inner minimiser is the
projection of ``c - t G^T lam`` onto each relaxed side, by semismooth Newton
steps on the projection's generalised Jacobian.  The upper bound is the
best LP value, whose plan is the returned coupling; the lower bound is the
best minimum over every cut and every master's aggregate ``G^T lam``.
``converged`` means that the two bounds are within ``rel_tol * max(1,
value)``, and ``gap`` is their difference.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _zoom
from .errors import InstanceTooLarge, NonUniformInput
from .exact import (
    DenseDualEvaluator,
    TransportModel,
    _coupling,
    _full_potentials,
    _lp_transport,
    solve_exact,
)
from .measures import CostMatrix, DiscreteMeasure, WeightVector, weight_radius
from .weights import (
    WeightSubproblem,
    _projection,
    project_simplex_ball,
    solve_weight_socp,
)

# a point becomes the centre (a serious step) when it lowers the centre's
# value by at least this share of the decrease the master predicted
_DESCENT = 0.1
_MASTER_ITER = 100
_MAX_CUTS = 200
_SAME_POINT = 1e-9  # max-norm distance below which a point is not re-solved
_MAX_STALLS = 3  # masters in a row that yield no new point


@dataclass(frozen=True)
class RobustParams:
    """Radii of the two chi-square balls; ``max_outer_iter`` caps the LP
    solves of one robust solve."""

    rho1: float
    rho2: float = 0.0
    max_outer_iter: int = 500
    rel_tol: float = 1e-7

    def __post_init__(self):
        if self.rho1 < 0 or self.rho2 < 0:
            raise ValueError("rho1, rho2 must be >= 0")
        if self.max_outer_iter < 1:
            raise ValueError("max_outer_iter must be >= 1")


@dataclass(frozen=True)
class RobustSolution:
    value: float
    w_x: WeightVector
    w_y: WeightVector
    coupling: tuple
    trace: tuple
    converged: bool
    gap: float = field(default=float("nan"), compare=False)


class _Bounds:
    """Both bounds of one robust solve, its cuts and the points it solved.

    Every LP solves on one :class:`TransportModel` over the full C,
    hot-started from the last LP's basis; the model lives only as long as
    one solve.  The best LP's weights and plan (triplets) are kept.
    """

    def __init__(self, C: np.ndarray, m: int, n: int, sides: list):
        self.C, self.m, self.n, self.sides = C, m, n, sides
        self.model = TransportModel(C)
        self.cuts, self.points, self.trace = [], [], []
        # every plan has mass 1, so no value is below the least cost
        self.ub, self.lb = np.inf, float(C.min())
        self.z = self.coupling = None

    def bound(self, g: np.ndarray) -> np.ndarray:
        """Raise the lower bound to ``min_z g.z``; returns the minimiser."""
        z = np.ones(g.size)
        for sl, _, rho in self.sides:
            z[sl] = solve_weight_socp(WeightSubproblem(g[sl], rho)).w
        self.lb = max(self.lb, float(g @ z))
        return z

    def evaluate(self, z: np.ndarray):
        """Solve the LP at z and add its cut; returns (value, minimiser of
        the cut)."""
        C, m, n = self.C, self.m, self.n
        a, b = z[:m] / m, z[m:] / n
        plan, u, v = _lp_transport(a, b, C, self.model)
        coupling, value = _coupling(C, np.arange(m), np.arange(n), plan)
        ia, jb = np.flatnonzero(a > 0), np.flatnonzero(b > 0)
        phi, psi = _full_potentials(C, a, ia, jb, u[ia], v[jb])
        g = np.concatenate([phi / m, -psi / n])
        self.cuts.append(g)
        self.points.append(z)
        if value < self.ub:
            self.ub, self.z, self.coupling = value, z, coupling
        self.trace.append(self.ub)
        return value, self.bound(g)

    def seen(self, z: np.ndarray) -> bool:
        return any(np.abs(z - p).max() <= _SAME_POINT for p in self.points)

    def certified(self, rel_tol: float) -> bool:
        return self.ub - self.lb <= rel_tol * max(1.0, self.ub)


def _newton_step(G: np.ndarray, t: float, jac: list, v: np.ndarray):
    """Direction ``d`` with ``sum d = 0`` and ``t G J G^T d + r 1 = v``.

    ``J`` is the projection's generalised Jacobian, given per relaxed side
    as ``(support, s, u)`` for ``s (P - u u^T)`` on the support; a small
    ridge keeps the system regular when cuts coincide on the supports.
    """
    k = v.size
    H = np.zeros((k, k))
    for support, s, u in jac:
        Gs = G[:, support]
        Gc = Gs - Gs.mean(axis=1, keepdims=True)
        Hs = Gc @ Gc.T
        if u is not None:
            q = Gs @ u
            Hs -= np.outer(q, q)
        H += s * Hs
    H *= t
    ridge = 1e-9 * np.trace(H) / k + 1e-12 * t * float((G * G).sum()) / k
    H[np.diag_indices(k)] += max(ridge, 1e-300)
    K = np.ones((k + 1, k + 1))
    K[:k, :k] = H
    K[k, k] = 0.0
    return np.linalg.solve(K, np.r_[v, 0.0])[:k]


def _master(G, centre, t, lam, sides, tol):
    """Cut multipliers and proximal point of the bundle's master problem.

    Maximizes the concave dual ``theta(lam) = min_z lam.Gz + ||z - centre||^2
    / (2t)`` over the simplex.  Its minimiser ``z(lam)`` is a projection per
    relaxed side and its gradient is ``G z(lam)``.  Each step is a Newton
    step on the free multipliers (the positive ones and the cut with the
    largest value), where a zero multiplier that the step would make
    negative leaves the free set, followed by backtracking to the simplex
    and an Armijo test.  Stops once the master's duality gap ``max_k (G
    z)_k - lam.G z`` is at most ``tol``.  Returns ``(lam, z, G z)``.
    """

    def at(lam):
        y = centre - t * (lam @ G)
        z = centre.copy()
        jac = []
        for sl, R, _ in sides:
            w, support, s, u = _projection(y[sl], R)
            z[sl] = w
            jac.append((sl.start + support, s, u))
        v = G @ z
        d = z - centre
        return z, v, float(lam @ v + d @ d / (2.0 * t)), jac

    z, v, theta, jac = at(lam)
    for _ in range(_MASTER_ITER):
        top = int(v.argmax())
        if v[top] - lam @ v <= tol:
            break
        free = lam > 0
        free[top] = True
        while True:
            idx = np.flatnonzero(free)
            step = _newton_step(G[idx], t, jac, v[idx])
            drop = (lam[idx] == 0) & (step < 0)
            if not drop.any():
                break
            free[idx[drop]] = False
        d = np.zeros(lam.size)
        d[idx] = step
        slope = float(v @ d)
        neg = d < 0
        alpha = min(1.0, float((lam[neg] / -d[neg]).min(initial=np.inf)))
        while alpha > 1e-12 and slope > 0:
            trial = lam + alpha * d
            trial[trial < 1e-14] = 0.0
            trial /= trial.sum()
            cand = at(trial)
            if cand[2] >= theta + 1e-4 * alpha * slope:
                lam, (z, v, theta, jac) = trial, cand
                break
            alpha *= 0.5
        else:
            break
    return lam, z, v


def solve_robust(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    params: RobustParams,
    initial_weights: Optional[tuple] = None,
) -> RobustSolution:
    """Robust OT value between two uniform empirical measures.

    Starts from ``initial_weights``, projected onto each relaxed side's
    feasible set (uniform weights when None), and runs the bundle method
    until the bounds certify ``rel_tol`` or ``max_outer_iter`` LPs are
    solved.  The value is the cost of the returned coupling, whose marginals
    are the returned weights over m and n; the trace is the best value after
    each LP, then the value.
    """
    if not mu.is_uniform():
        raise NonUniformInput("first measure must have uniform atom mass")
    if not nu.is_uniform():
        raise NonUniformInput("second measure must have uniform atom mass")
    C = cost.entries
    m, n = mu.n, nu.n
    if C.shape != (m, n):
        raise NonUniformInput(f"cost is {C.shape}, measures {m} x {n}")
    init = (None, None) if initial_weights is None else initial_weights
    z = np.ones(m + n)
    sides = []  # (slice of z, radius, rho) of each relaxed side
    for sl, rho, w0 in ((slice(0, m), params.rho1, init[0]),
                        (slice(m, m + n), params.rho2, init[1])):
        R = weight_radius(rho, sl.stop - sl.start)
        if R > 0:
            sides.append((sl, R, rho))
            if w0 is not None:
                z[sl] = project_simplex_ball(w0, rho)

    tol, cap = params.rel_tol, params.max_outer_iter
    bounds = _Bounds(C, m, n, sides)
    centre = z
    f_centre, z_oracle = bounds.evaluate(z)
    # the first proximal step is as long as the step to the cut's minimiser
    g = np.concatenate([bounds.cuts[0][sl] for sl, _, _ in sides] or [[]])
    t = t0 = float(np.linalg.norm(z_oracle - z)
                   / max(np.linalg.norm(g), 1e-300))
    lam = np.ones(1)
    stalls = 0
    while (sides and not bounds.certified(tol) and len(bounds.points) < cap
           and stalls < _MAX_STALLS):
        G = np.array(bounds.cuts)
        lam = np.r_[lam, np.zeros(len(G) - lam.size)]
        # solve each master well inside the outer tolerance, and tighter
        # after a master whose points were all solved already
        tol_master = 1e-2 * tol * max(1.0, abs(f_centre)) * 0.1**stalls
        lam, z_prox, v = _master(G, centre, t, lam, sides, tol_master)
        model = float(v.max())  # the cut model's value at the proximal point
        z_agg = bounds.bound(lam @ G)
        if bounds.certified(tol):
            break
        tried = []
        if (G @ z_agg).max() < model and not bounds.seen(z_agg):
            tried.append((bounds.evaluate(z_agg)[0], z_agg))
        if (not bounds.certified(tol) and len(bounds.points) < cap
                and not bounds.seen(z_prox)):
            tried.append((bounds.evaluate(z_prox)[0], z_prox))
        if not tried:
            stalls += 1
            continue
        stalls = 0
        f_new, z_new = min(tried, key=lambda fz: fz[0])
        predicted = f_centre - model
        if f_new <= f_centre - _DESCENT * predicted:
            if f_new <= f_centre - 0.5 * predicted:
                t *= 2.0
            centre, f_centre = z_new, f_new
        else:
            t = max(0.5 * t, t0)
        if len(bounds.cuts) > _MAX_CUTS:
            lam = _compress(bounds, lam)

    z = bounds.z
    return RobustSolution(
        value=bounds.ub,
        w_x=WeightVector(z[:m], params.rho1),
        w_y=WeightVector(z[m:], params.rho2),
        coupling=bounds.coupling,
        trace=tuple(bounds.trace) + (bounds.ub,),
        converged=bounds.certified(tol),
        gap=float(bounds.ub - bounds.lb),
    )


def _compress(bounds: _Bounds, lam: np.ndarray) -> np.ndarray:
    """Drop the cuts the last master left at zero, or fold all of its cuts
    into their aggregate (itself a cut) when that still leaves too many;
    returns the multipliers of the kept cuts."""
    old = lam.size
    new = bounds.cuts[old:]
    keep = np.flatnonzero(lam > 0)
    if keep.size + len(new) > _MAX_CUTS:
        bounds.cuts = [lam @ np.array(bounds.cuts[:old])] + new
        return np.ones(1)
    bounds.cuts = [bounds.cuts[k] for k in keep] + new
    return lam[keep]


def solve_robust_one_sided(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    rho: float,
    *,
    max_outer_iter: int = RobustParams.max_outer_iter,
    rel_tol: float = RobustParams.rel_tol,
    initial_weights: Optional[tuple] = None,
) -> RobustSolution:
    """Robust OT with only the first marginal relaxed."""
    params = RobustParams(
        rho1=rho, rho2=0.0, max_outer_iter=max_outer_iter, rel_tol=rel_tol,
    )
    return solve_robust(mu, nu, cost, params, initial_weights=initial_weights)


def brute_force_robust(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    rho1: float,
    rho2: float = 0.0,
    grid_resolution: float = 0.02,
) -> float:
    """Grid-search oracle: enumerate feasible weight vectors on each relaxed
    side (coarse-to-fine), solve exact OT for every pair, return the minimum.

    Limited to instances with at most 4 atoms per side.
    """
    m, n = mu.n, nu.n
    if m > 4 or n > 4:
        raise InstanceTooLarge(f"oracle limited to 4 x 4, got {m} x {n}")
    if not mu.is_uniform() or not nu.is_uniform():
        raise NonUniformInput("oracle assumes uniform atom masses")
    C = cost.entries
    evaluator = DenseDualEvaluator(C)
    R1, R2 = weight_radius(rho1, m), weight_radius(rho2, n)

    sizes, radii, layout = [], [], []
    for side, (sz, R) in enumerate([(m, R1), (n, R2)]):
        if R > 0:
            sizes.append(sz)
            radii.append(R)
            layout.append(side)

    if not sizes:
        return solve_exact(mu, nu, cost).value

    def batch_objective(blocks):
        N = blocks[0].shape[0]
        WX = np.ones((N, m))
        WY = np.ones((N, n))
        for W, side in zip(blocks, layout):
            if side == 0:
                WX = W
            else:
                WY = W
        return evaluator.value_batch(WX / m, WY / n)

    _, best = _zoom.zoom_minimize(
        batch_objective,
        sizes=sizes,
        radii=radii,
        resolution=grid_resolution,
        lipschitz=float(C.max()),
    )
    return float(best)
