"""Outlier-robust OT: alternating minimization over marginal weights.

The robust distance relaxes one or both marginals inside a chi-square ball
and minimizes the transport cost over the relaxed marginals.  In the
discrete uniform setting the problem is jointly convex in the scaled weight
vectors, and the exact-OT dual potentials at the current weights form a
subgradient, so the weight subproblem (a linear objective over the
simplex-ball set) is precisely the linear-minimization oracle of a
conditional-gradient scheme.  The duality gap of that oracle certifies
optimality; for small cost matrices a fully-corrective step over the
collected oracle atoms drives the gap to solver precision.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _zoom
from .errors import InstanceTooLarge, NonUniformInput
from .exact import (
    TransportModel,
    _coupling,
    _full_potentials,
    _lp_transport,
    make_evaluator,
    solve_exact,
)
from .measures import CostMatrix, DiscreteMeasure, WeightVector, weight_radius
from .weights import WeightSubproblem, project_simplex_ball, solve_weight_socp

_STAGNATION_RUNS = 10
# the best iterate's plan stays the coupling when sanitising moves no
# scaled weight by more than this
_PLAN_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class RobustParams:
    rho1: float
    rho2: float = 0.0
    max_outer_iter: int = 500
    rel_tol: float = 1e-7
    update_rule: str = "averaged"

    def __post_init__(self):
        if self.rho1 < 0 or self.rho2 < 0:
            raise ValueError("rho1, rho2 must be >= 0")
        if self.max_outer_iter < 1:
            raise ValueError("max_outer_iter must be >= 1")
        if self.update_rule not in ("averaged", "direct", "subgradient"):
            raise ValueError(f"unknown update rule {self.update_rule!r}")


@dataclass(frozen=True)
class RobustSolution:
    value: float
    w_x: WeightVector
    w_y: WeightVector
    coupling: tuple
    trace: tuple
    converged: bool
    gap: float = field(default=float("nan"), compare=False)


class _Objective:
    """Exact OT value and dual potentials as a function of scaled weights.

    On the LP path every call solves on one :class:`TransportModel` over the
    full C, hot-started from the last call's basis, and keeps its plan as
    ``coupling`` (triplets); the model lives only as long as one solve.
    """

    def __init__(self, C: np.ndarray, m: int, n: int):
        self.C = C
        self.m, self.n = m, n
        self.evaluator = make_evaluator(C)
        self.model = TransportModel(C)
        self.coupling = None

    def __call__(self, wx: np.ndarray, wy: np.ndarray):
        a = wx / self.m
        b = wy / self.n
        if self.evaluator is not None:
            return self.evaluator.value_and_potentials(a, b)
        return self._lp_eval(a, b)

    def _lp_eval(self, a, b):
        C = self.C
        plan, u, v = _lp_transport(a, b, C, self.model)
        self.coupling, value = _coupling(
            C, np.arange(self.m), np.arange(self.n), plan)
        ia, jb = np.flatnonzero(a > 0), np.flatnonzero(b > 0)
        phi, psi = _full_potentials(C, a, ia, jb, u[ia], v[jb])
        return value, phi, psi

    def batch_values(self, WX: np.ndarray, WY: np.ndarray) -> np.ndarray:
        if self.evaluator is not None:
            return self.evaluator.value_batch(WX / self.m, WY / self.n)
        return np.array(
            [self(wx, wy)[0] for wx, wy in zip(WX, WY)], dtype=float
        )


def _polish(objective, wx0, wy0, R1, R2):
    """High-accuracy finisher for small instances.

    On the dense-dual path the objective is an explicit maximum of linear
    pieces, so the whole relaxed problem is a small convex program: minimize
    an epigraph variable over the piece constraints and the two simplex-ball
    sets.  Solved by cutting planes on the pieces with an SLSQP inner solve;
    returns (wx, wy) or None when unavailable or not improved.
    """
    from scipy.optimize import minimize

    ev = objective.evaluator
    if ev is None:
        return None
    m, n = objective.m, objective.n
    U, V = ev.U / m, ev.V / n  # pieces: t >= U_k . wx + V_k . wy
    free_x, free_y = R1 > 0, R2 > 0
    nx = m if free_x else 0
    ny = n if free_y else 0
    def piece_scores(wx, wy):
        return U @ wx + V @ wy

    scores0 = piece_scores(wx0, wy0)
    order = np.argsort(scores0)[::-1]
    work = list(order[: min(20, order.size)])

    def pack(wx, wy, t):
        parts = []
        if free_x:
            parts.append(wx)
        if free_y:
            parts.append(wy)
        parts.append([t])
        return np.concatenate(parts)

    def unpack(x):
        at = 0
        wx = x[at : at + nx] if free_x else np.ones(m)
        at += nx
        wy = x[at : at + ny] if free_y else np.ones(n)
        return wx, wy, x[-1]

    for _ in range(8):
        Uw = U[work]
        Vw = V[work]

        def obj(x):
            return x[-1]

        def obj_grad(x):
            g = np.zeros_like(x)
            g[-1] = 1.0
            return g

        cons = []

        def piece_con(x, Uw=Uw, Vw=Vw):
            wx, wy, t = unpack(x)
            return t - (Uw @ wx + Vw @ wy)

        def piece_jac(x, Uw=Uw, Vw=Vw):
            J = np.zeros((len(work), x.size))
            at = 0
            if free_x:
                J[:, at : at + nx] = -Uw
                at += nx
            if free_y:
                J[:, at : at + ny] = -Vw
            J[:, -1] = 1.0
            return J

        cons.append({"type": "ineq", "fun": piece_con, "jac": piece_jac})
        if free_x:
            cons.append({
                "type": "eq",
                "fun": lambda x: x[:nx].sum() - m,
                "jac": lambda x: np.concatenate(
                    [np.ones(nx), np.zeros(x.size - nx)]
                ),
            })
            cons.append({
                "type": "ineq",
                "fun": lambda x: R1**2 - np.sum((x[:nx] - 1.0) ** 2),
                "jac": lambda x: np.concatenate(
                    [-2.0 * (x[:nx] - 1.0), np.zeros(x.size - nx)]
                ),
            })
        if free_y:
            cons.append({
                "type": "eq",
                "fun": lambda x: x[nx : nx + ny].sum() - n,
                "jac": lambda x: np.concatenate(
                    [np.zeros(nx), np.ones(ny), np.zeros(x.size - nx - ny)]
                ),
            })
            cons.append({
                "type": "ineq",
                "fun": lambda x: R2**2 - np.sum((x[nx : nx + ny] - 1.0) ** 2),
                "jac": lambda x: np.concatenate(
                    [np.zeros(nx), -2.0 * (x[nx : nx + ny] - 1.0),
                     np.zeros(x.size - nx - ny)]
                ),
            })
        bounds = [(0.0, None)] * (nx + ny) + [(None, None)]
        x0 = pack(wx0, wy0, piece_scores(wx0, wy0).max())
        res = minimize(
            obj, x0, jac=obj_grad, bounds=bounds, constraints=cons,
            method="SLSQP", options={"maxiter": 200, "ftol": 1e-12},
        )
        if not res.success and res.status != 4:  # 4: inequality incompatible noise
            return None
        wx1, wy1, t1 = unpack(res.x)
        s = piece_scores(wx1, wy1)
        viol = s.max() - t1
        if viol <= 1e-10:
            return np.maximum(wx1, 0.0), np.maximum(wy1, 0.0)
        # add the most violated pieces and re-solve
        for k in np.argsort(s)[::-1][:5]:
            if k not in work:
                work.append(int(k))
        wx0, wy0 = np.maximum(wx1, 0.0), np.maximum(wy1, 0.0)
        if free_x and wx0.sum() > 0:
            wx0 *= m / wx0.sum()
        if free_y and wy0.sum() > 0:
            wy0 *= n / wy0.sum()
    return np.maximum(wx0, 0.0), np.maximum(wy0, 0.0)


def solve_robust(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    params: RobustParams,
    initial_weights: Optional[tuple] = None,
) -> RobustSolution:
    """Robust OT value between two uniform empirical measures.

    Alternates exact OT solves (providing dual potentials) with weight
    subproblem solves on each relaxed side, per ``params.update_rule``.
    The returned value carries a conditional-gradient optimality gap; the
    trace is the running best objective, non-increasing by construction;
    its last entry is the smaller of the entry before it and the returned
    value.  The returned value is the cost of the returned coupling, whose
    marginals are the returned weights over m and n.
    """
    if not mu.is_uniform():
        raise NonUniformInput("first measure must have uniform atom mass")
    if not nu.is_uniform():
        raise NonUniformInput("second measure must have uniform atom mass")
    C = cost.entries
    m, n = mu.n, nu.n
    if C.shape != (m, n):
        raise NonUniformInput(f"cost is {C.shape}, measures {m} x {n}")
    rho1, rho2 = params.rho1, params.rho2
    R1, R2 = weight_radius(rho1, m), weight_radius(rho2, n)

    objective = _Objective(C, m, n)
    if initial_weights is not None:
        wx = np.asarray(initial_weights[0], dtype=float).copy()
        wy = np.asarray(initial_weights[1], dtype=float).copy()
    else:
        wx, wy = np.ones(m), np.ones(n)

    small = objective.evaluator is not None
    best_f = np.inf
    best_wx, best_wy = wx.copy(), wy.copy()
    best_coupling = None
    trace = []
    converged = False
    gap = np.inf
    stagnant = 0
    prev_f = None
    last_polish_f = None
    moved = False  # the iterate changed since it was last evaluated
    evaluated = None  # (f, phi, psi) already solved at the current iterate

    for t in range(params.max_outer_iter):
        if evaluated is None:
            evaluated = objective(wx, wy)
        f, phi, psi = evaluated
        evaluated = None
        moved = False
        if f < best_f:
            best_f, best_wx, best_wy = f, wx.copy(), wy.copy()
            best_coupling = objective.coupling
        trace.append(best_f)

        # linear-minimization oracle on each relaxed side
        if R1 > 0:
            wx_star = solve_weight_socp(
                WeightSubproblem(phi, rho1, "minimize")
            ).w
        else:
            wx_star = np.ones(m)
        if R2 > 0:
            wy_star = solve_weight_socp(
                WeightSubproblem(psi, rho2, "maximize")
            ).w
        else:
            wy_star = np.ones(n)
        gap = float((wx - wx_star) @ phi) / m + float((wy_star - wy) @ psi) / n
        scale = max(1.0, abs(best_f))
        if gap <= params.rel_tol * scale:
            converged = True
            break
        if prev_f is not None and abs(f - prev_f) <= params.rel_tol * scale:
            stagnant += 1
            if stagnant >= _STAGNATION_RUNS:
                converged = True
                break
        else:
            stagnant = 0
        prev_f = f

        rule = params.update_rule
        eta = 2.0 / (t + 2.0)
        if rule == "averaged":
            wx = wx + eta * (wx_star - wx)
            wy = wy + eta * (wy_star - wy)
        elif rule == "direct":
            at_star = objective(wx_star, wy_star)
            # adopt the oracle point when it is no worse, and always at t = 0
            # (eta = 1), even if worse; its evaluation serves the next
            # iteration.  Otherwise take the damped step, which may raise
            # the objective too; only the best iterate is returned.
            if at_star[0] <= f or eta == 1.0:
                wx, wy = wx_star, wy_star
                evaluated = at_star
            else:
                wx = wx + eta * (wx_star - wx)
                wy = wy + eta * (wy_star - wy)
        else:  # subgradient
            st = 1.0 / np.sqrt(t + 1.0)
            if R1 > 0:
                gx = phi / m
                nx = np.linalg.norm(gx)
                if nx > 0:
                    wx = project_simplex_ball(wx - (R1 * st / nx) * gx, rho1)
            if R2 > 0:
                gy = -psi / n
                ny = np.linalg.norm(gy)
                if ny > 0:
                    wy = project_simplex_ball(wy - (R2 * st / ny) * gy, rho2)
        moved = True

        if small and (t + 1) % 5 == 0:
            pol = _polish(objective, wx.copy(), wy.copy(), R1, R2)
            if pol is not None:
                f_pol = objective.batch_values(
                    pol[0][None, :], pol[1][None, :]
                )[0]
                if f_pol <= min(f, best_f):
                    wx, wy = pol
                    evaluated = None
                if f_pol < best_f:
                    best_f = f_pol
                    best_wx, best_wy = pol[0].copy(), pol[1].copy()
                    best_coupling = None
                # at a kink a single subgradient cannot certify a zero gap;
                # two agreeing finisher solves serve as the certificate
                if (
                    last_polish_f is not None
                    and abs(f_pol - last_polish_f) <= params.rel_tol * scale
                ):
                    converged = True
                    break
                last_polish_f = f_pol

    if moved:
        f = (objective(wx, wy) if evaluated is None else evaluated)[0]
        if f < best_f:
            best_f, best_wx, best_wy = f, wx.copy(), wy.copy()
            best_coupling = objective.coupling
    if small and not converged:
        pol = _polish(objective, best_wx.copy(), best_wy.copy(), R1, R2)
        if pol is not None:
            f_pol = objective.batch_values(
                pol[0][None, :], pol[1][None, :]
            )[0]
            if f_pol <= best_f:
                best_f, best_wx, best_wy = f_pol, pol[0], pol[1]
                best_coupling = None

    wx, wy = _sanitize(best_wx, R1), _sanitize(best_wy, R2)
    value = best_f
    # the best LP iterate's plan is the coupling, unless the dense-dual
    # path left no plan or sanitising moved the weights off its marginals
    if best_coupling is None or max(
        np.abs(wx - best_wx).max(), np.abs(wy - best_wy).max()
    ) > _PLAN_WEIGHT_TOL:
        value = objective._lp_eval(wx / m, wy / n)[0]
        best_coupling = objective.coupling
    trace.append(min(trace[-1], value) if trace else value)
    return RobustSolution(
        value=value,
        w_x=WeightVector(wx, rho1),
        w_y=WeightVector(wy, rho2),
        coupling=best_coupling,
        trace=tuple(trace),
        converged=converged,
        gap=float(gap),
    )


def _sanitize(w: np.ndarray, R: float) -> np.ndarray:
    n = w.size
    w = np.maximum(w, 0.0)
    w *= n / w.sum()
    nrm = np.linalg.norm(w - 1.0)
    if R <= 0:
        return np.ones(n)
    if nrm > R:
        w = 1.0 + (w - 1.0) * (R / nrm)
        w = np.maximum(w, 0.0)
        w *= n / w.sum()
    return w


def solve_robust_one_sided(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    rho: float,
    *,
    max_outer_iter: int = RobustParams.max_outer_iter,
    rel_tol: float = RobustParams.rel_tol,
    update_rule: str = RobustParams.update_rule,
    initial_weights: Optional[tuple] = None,
) -> RobustSolution:
    """Robust OT with only the first marginal relaxed."""
    params = RobustParams(
        rho1=rho, rho2=0.0, max_outer_iter=max_outer_iter, rel_tol=rel_tol,
        update_rule=update_rule,
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
    objective = _Objective(C, m, n)
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
        return objective.batch_values(WX, WY)

    _, best = _zoom.zoom_minimize(
        batch_objective,
        sizes=sizes,
        radii=radii,
        resolution=grid_resolution,
        lipschitz=float(C.max()),
    )
    return float(best)
