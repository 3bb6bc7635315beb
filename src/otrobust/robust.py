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
value)``, and ``gap`` is their difference, floored at 0 against rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _zoom
from .errors import DomainError, InstanceTooLarge, NonUniformInput
from .exact import (
    DenseDualEvaluator,
    TransportModel,
    _coupling,
    _full_potentials,
    _lp_transport,
    solve_exact,
)
from .measures import CostMatrix, DiscreteMeasure, WeightVector, weight_radius
from .weights import WeightSubproblem, _projection, solve_weight_socp

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
        if not (0 <= self.rho1 < np.inf and 0 <= self.rho2 < np.inf
                and 0 <= self.rel_tol < np.inf):
            raise DomainError(
                "rho1, rho2 and rel_tol must be finite and >= 0, got "
                f"{self.rho1}, {self.rho2}, {self.rel_tol}")
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
    """One robust solve's or one rho sweep's bundle: both bounds, the cuts,
    the points solved and the proximal state ``t``, ``t0`` and ``lam``.

    Every LP solves on one :class:`TransportModel` over the full C,
    hot-started from the last LP's basis; the best LP's weights and plan
    (triplets) are kept.  A cut is a dual-feasible pair, valid at every
    radius, and the balls only grow with rho, so the best point stays
    feasible when a later :meth:`run` has larger radii; the lower bound
    holds only at its own radii, so each run recomputes it from the cuts.
    """

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure,
                 cost: CostMatrix):
        if not mu.is_uniform():
            raise NonUniformInput("first measure must have uniform atom mass")
        if not nu.is_uniform():
            raise NonUniformInput("second measure must have uniform atom mass")
        C = cost.entries
        m, n = mu.n, nu.n
        if C.shape != (m, n):
            raise NonUniformInput(f"cost is {C.shape}, measures {m} x {n}")
        self.C, self.m, self.n = C, m, n
        self.model = TransportModel(C)
        self.rows, self.cols = np.arange(m), np.arange(n)
        self.cuts, self.points, self.trace = [], [], []
        self.ub = np.inf
        self.z = self.coupling = self.t = self.t0 = None
        self.lam = np.ones(1)

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
        coupling, value = _coupling(C, self.rows, self.cols, plan)
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

    def run(self, params: RobustParams) -> None:
        """Run the bundle at ``params``' radii from the best point so far
        until the bounds certify ``rel_tol``, ``max_outer_iter`` more LPs
        are solved or the masters stall."""
        m, n = self.m, self.n
        self.sides = []  # (slice of z, radius, rho) of each relaxed side
        for sl, rho in ((slice(0, m), params.rho1),
                        (slice(m, m + n), params.rho2)):
            R = weight_radius(rho, sl.stop - sl.start)
            if R > 0:
                self.sides.append((sl, R, rho))
        sides, tol = self.sides, params.rel_tol
        cap = len(self.points) + params.max_outer_iter
        # every plan has mass 1, so no value is below the least cost
        self.lb = float(self.C.min())
        minimisers = [self.bound(g) for g in self.cuts]
        if not self.points:
            minimisers.append(self.evaluate(np.ones(m + n))[1])
        centre, f_centre = self.z, self.ub
        if self.t0 is None and sides:
            # the first step is as long as the one to the first cut's minimiser
            g = np.concatenate([self.cuts[0][sl] for sl, _, _ in sides])
            step = minimisers[0] - centre
            self.t = self.t0 = (math.sqrt(step.dot(step))
                                / max(math.sqrt(g.dot(g)), 1e-300))
        stalls = 0
        while (sides and not self.certified(tol) and len(self.points) < cap
               and stalls < _MAX_STALLS):
            G = np.array(self.cuts)
            lam = np.concatenate((self.lam, np.zeros(len(G) - self.lam.size)))
            # solve each master well inside the outer tolerance, and tighter
            # after a master whose points were all solved already
            tol_master = 1e-2 * tol * max(1.0, abs(f_centre)) * 0.1**stalls
            lam, z_prox, v = _master(G, centre, self.t, lam, sides, tol_master)
            self.lam = lam
            model = float(v.max())  # the cut model at the proximal point
            z_agg = self.bound(lam @ G)
            if self.certified(tol):
                break
            tried = []
            if (G @ z_agg).max() < model and not self.seen(z_agg):
                tried.append((self.evaluate(z_agg)[0], z_agg))
            if (not self.certified(tol) and len(self.points) < cap
                    and not self.seen(z_prox)):
                tried.append((self.evaluate(z_prox)[0], z_prox))
            if not tried:
                stalls += 1
                continue
            stalls = 0
            f_new, z_new = min(tried, key=lambda fz: fz[0])
            predicted = f_centre - model
            if f_new <= f_centre - _DESCENT * predicted:
                if f_new <= f_centre - 0.5 * predicted:
                    self.t *= 2.0
                centre, f_centre = z_new, f_new
            else:
                self.t = max(0.5 * self.t, self.t0)
            if len(self.cuts) > _MAX_CUTS:
                self.lam = _compress(self, lam)


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
        Gc = Gs - Gs.sum(axis=1, keepdims=True) / support.size
        Hs = Gc @ Gc.T
        if u is not None:
            q = Gs @ u
            Hs -= q[:, None] * q  # np.outer(q, q)
        H += s * Hs
    H *= t
    ridge = 1e-9 * H.trace() / k + 1e-12 * t * float((G * G).sum()) / k
    H.flat[::k + 1] += max(ridge, 1e-300)
    K = np.ones((k + 1, k + 1))
    K[:k, :k] = H
    K[k, k] = 0.0
    return np.linalg.solve(K, np.concatenate((v, [0.0])))[:k]


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
) -> RobustSolution:
    """Robust OT value between two uniform empirical measures.

    Starts from uniform weights and runs the bundle method until the bounds
    certify ``rel_tol`` or ``max_outer_iter`` LPs are solved.  The value is
    the cost of the returned coupling, whose marginals are the returned
    weights over m and n; the trace is the best value after each LP, then
    the value.
    """
    bounds = _Bounds(mu, nu, cost)
    bounds.run(params)
    z, m = bounds.z, mu.n
    return RobustSolution(
        value=bounds.ub,
        w_x=WeightVector(z[:m], params.rho1),
        w_y=WeightVector(z[m:], params.rho2),
        coupling=bounds.coupling,
        trace=tuple(bounds.trace) + (bounds.ub,),
        converged=bounds.certified(params.rel_tol),
        gap=max(0.0, float(bounds.ub - bounds.lb)),
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
) -> RobustSolution:
    """Robust OT with only the first marginal relaxed."""
    params = RobustParams(
        rho1=rho, rho2=0.0, max_outer_iter=max_outer_iter, rel_tol=rel_tol,
    )
    return solve_robust(mu, nu, cost, params)


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
