"""Bound evaluation, rho selection, and metric-property checks.

Covers the contamination bound max(1, 1 + k*gamma - k*sqrt(2*rho*gamma*(1-gamma)))
with a constructive 1-D instance family where both sides are exactly
computable, the rho-sweep / elbow heuristic for choosing the relaxation
budget, and property reports (identity, symmetry, triangle-inequality
counterexample search) for the robust distance.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, TooFewPoints
from .exact import solve_exact
from .measures import CostMatrix, DiscreteMeasure, cost_matrix, make_measure
from .robust import RobustParams, _Bounds, solve_robust, solve_robust_one_sided


# ---------------------------------------------------------------------------
# contamination bound
# ---------------------------------------------------------------------------

def theorem2_bound(k: float, gamma: float, rho: float) -> float:
    """Worst-case inflation factor of the one-sided robust value.

    For contamination fraction gamma whose outlier component sits at
    relative distance k, the robust value with budget rho is at most this
    factor times the clean distance.
    """
    if not 1 <= k < np.inf:
        raise DomainError(f"k must be finite and >= 1, got {k}")
    if not (0 <= gamma < 1):
        raise DomainError(f"gamma must be in [0, 1), got {gamma}")
    if not 0 <= rho < np.inf:
        raise DomainError(f"rho must be finite and >= 0, got {rho}")
    return max(1.0, 1.0 + k * gamma - k * np.sqrt(2.0 * rho * gamma * (1.0 - gamma)))


def rho_for_known_gamma(gamma: float) -> float:
    """Relaxation budget that exactly absorbs a known contamination fraction."""
    if not (0 <= gamma < 1):
        raise DomainError(f"gamma must be in [0, 1), got {gamma}")
    return gamma / (2.0 * (1.0 - gamma))


@dataclass(frozen=True)
class OutlierInstance:
    """A contaminated 1-D instance with exactly computable distances."""

    clean: DiscreteMeasure
    outlier: DiscreteMeasure
    target: DiscreteMeasure
    gamma: float
    k: float
    labels: np.ndarray  # True at outlier atoms of the mixed measure

    def mixed(self) -> DiscreteMeasure:
        pts = np.concatenate([self.clean.points, self.outlier.points]) \
            if self.gamma > 0 else self.clean.points
        return make_measure(pts)


def construct_theorem2_instance(
    k: float, gamma: float, n_atoms: int
) -> OutlierInstance:
    """Clean atoms at 0, target at 1, outliers at k, on the line.

    Distances are then exact: W(clean, target) = 1 and
    W(outlier, clean) = k.  gamma * n_atoms must be integral so the mixture
    is realizable with uniform atoms.
    """
    if not 1 <= k < np.inf:
        raise DomainError(f"k must be finite and >= 1, got {k}")
    if not (0 <= gamma < 1):
        raise DomainError(f"gamma must be in [0, 1), got {gamma}")
    g = gamma * n_atoms
    if abs(g - round(g)) > 1e-9:
        raise DomainError(
            f"gamma * n_atoms = {g} is not integral; mixture not realizable"
        )
    g = int(round(g))
    n_clean = n_atoms - g
    if n_clean < 1:
        raise DomainError("no clean atoms left")
    clean = make_measure(np.zeros((n_clean, 1)))
    outlier = make_measure(np.full((max(g, 1), 1), float(k)))
    target = make_measure([[1.0]])
    labels = np.zeros(n_atoms, dtype=bool)
    labels[n_clean:] = True
    return OutlierInstance(
        clean=clean, outlier=outlier, target=target,
        gamma=float(gamma), k=float(k), labels=labels,
    )


def verify_theorem2(instance: OutlierInstance, rho: float) -> dict:
    """Check the bound on one instance: robust value vs factor * clean value."""
    factor = theorem2_bound(instance.k, instance.gamma, rho)
    mixed = instance.mixed()
    cost = cost_matrix(mixed, instance.target)
    lhs = solve_robust_one_sided(mixed, instance.target, cost, rho).value
    w_clean = solve_exact(
        instance.clean, instance.target,
        cost_matrix(instance.clean, instance.target),
    ).value
    rhs = factor * w_clean
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs + 1e-6)}


# ---------------------------------------------------------------------------
# rho sweep and elbow detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhoCurve:
    rho_grid: np.ndarray
    values: np.ndarray
    elbow_index: Optional[int] = None
    converged: bool = True  # every grid point's solve certified its gap

    def __post_init__(self):
        g = np.asarray(self.rho_grid, dtype=float).ravel()
        v = np.asarray(self.values, dtype=float).ravel()
        if g.size != v.size:
            raise DomainError("grid and values length mismatch")
        if not ((g >= 0).all() and (np.diff(g) > 0).all()):  # NaN fails too
            raise DomainError("rho grid must be ascending and non-negative")
        if np.any(np.diff(v) > 1e-8):
            raise DomainError("curve values must be non-increasing")
        object.__setattr__(self, "rho_grid", g)
        object.__setattr__(self, "values", v)


def sweep_rho(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    rho_grid: Sequence[float],
    max_outer_iter: int = 60,
    rel_tol: float = 1e-5,
) -> RhoCurve:
    """One-sided robust value along an ascending rho grid, by one bundle.

    Grid points are solved in order by one proximal bundle, which keeps its
    cuts, its best point and its step size from point to point.  A cut is a
    dual-feasible pair, so it bounds the objective at every radius; the ball
    only grows with rho, so the best point so far stays feasible and the
    curve cannot rise; the lower bound is recomputed from the kept cuts at
    each point.  ``max_outer_iter`` caps each point's new LPs.
    ``converged`` is true when every point certified its gap.
    """
    grid = np.asarray(list(rho_grid), dtype=float).ravel()
    if not (grid.size and (grid >= 0).all() and (np.diff(grid) > 0).all()):
        raise DomainError(  # NaN fails too
            "rho grid must be non-empty, ascending and non-negative")

    bounds, values, converged = _Bounds(mu, nu, cost), [], True
    for r in grid:
        params = RobustParams(rho1=float(r), rho2=0.0,
                              max_outer_iter=max_outer_iter, rel_tol=rel_tol)
        bounds.run(params)
        values.append(bounds.ub)
        converged = converged and bounds.certified(rel_tol)
    return RhoCurve(rho_grid=grid, values=np.array(values),
                    converged=converged)


@dataclass(frozen=True)
class ElbowResult:
    rho: float
    index: int
    flat: bool = False


def detect_elbow(curve: RhoCurve) -> ElbowResult:
    """Grid point of maximum perpendicular distance below the curve's chord.

    The curve is min-max normalized in both axes first, so the answer is
    scale-free.  Nearly flat curves (value range < 1e-9) have no elbow and
    return the smallest rho flagged flat.
    """
    g, v = curve.rho_grid, curve.values
    if g.size < 4:
        raise TooFewPoints(f"elbow detection needs >= 4 points, got {g.size}")
    vrange = v[0] - v[-1]
    if vrange < 1e-9:
        return ElbowResult(rho=float(g[0]), index=0, flat=True)
    x = (g - g[0]) / (g[-1] - g[0])
    y = (v - v[-1]) / vrange
    # chord runs from (0, 1) to (1, 0); signed distance below it
    d = (1.0 - x) - y
    idx = int(np.argmax(d))
    return ElbowResult(rho=float(g[idx]), index=idx, flat=False)


# ---------------------------------------------------------------------------
# metric properties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricReport:
    nonnegativity_ok: bool
    identity_ok: bool
    identity_max_dev: float
    symmetry_max_rel_dev: float
    triangle_violations: tuple  # ((i, j, k, margin), ...)
    values: np.ndarray = field(compare=False, default=None)


def _robust_sym(A, B, cost_fn, rho, **kw):
    C = cost_fn(A, B)
    params = RobustParams(rho1=rho, rho2=rho, **kw)
    return solve_robust(A, B, C, params).value


def metric_properties_report(
    samples: Sequence[DiscreteMeasure],
    cost_fn: Callable[[DiscreteMeasure, DiscreteMeasure], CostMatrix],
    rho: float,
) -> MetricReport:
    """Distance-axiom report for the two-sided relaxed value at (rho, rho).

    Checks non-negativity and self-distance on each measure, symmetry over
    all ordered pairs, and scans all triples for triangle-inequality
    violations (which do occur; any found are reported with their margin).
    """
    ms = list(samples)
    if len(ms) < 3:
        raise TooFewPoints(f"need >= 3 measures, got {len(ms)}")
    N = len(ms)
    V = np.full((N, N), np.nan)
    for i in range(N):
        for j in range(N):
            V[i, j] = _robust_sym(ms[i], ms[j], cost_fn, rho)
    nonneg = bool(np.all(V >= -1e-9))
    id_dev = float(np.max(np.abs(np.diag(V))))
    sym_dev = 0.0
    for i in range(N):
        for j in range(i + 1, N):
            denom = max(1e-12, abs(V[i, j]))
            sym_dev = max(sym_dev, abs(V[i, j] - V[j, i]) / denom)
    violations = []
    for i in range(N):
        for j in range(N):
            for k in range(N):
                if len({i, j, k}) < 3:
                    continue
                margin = V[i, k] - (V[i, j] + V[j, k])
                if margin > 1e-6:
                    violations.append((i, j, k, float(margin)))
    return MetricReport(
        nonnegativity_ok=nonneg,
        identity_ok=bool(id_dev <= 1e-9),
        identity_max_dev=id_dev,
        symmetry_max_rel_dev=float(sym_dev),
        triangle_violations=tuple(violations),
        values=V,
    )


def find_triangle_violation(
    rho: float = 0.25, trials: int = 200, seed: int = 0
) -> Optional[dict]:
    """Seeded search for a triangle-inequality counterexample.

    Draws random 2-atom measures on the line and tests
    d(A, C) > d(A, B) + d(B, C) at (rho, rho); returns the first triple
    found with margin > 1e-3, as plain arrays suitable for a fixture file.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        pts = rng.uniform(-2, 2, size=(3, 2, 1))
        A, B, Cm = (make_measure(p) for p in pts)
        dab = _robust_sym(A, B, cost_matrix, rho)
        dbc = _robust_sym(B, Cm, cost_matrix, rho)
        dac = _robust_sym(A, Cm, cost_matrix, rho)
        margin = dac - (dab + dbc)
        if margin > 1e-3:
            return {
                "rho": rho,
                "points_a": pts[0].tolist(),
                "points_b": pts[1].tolist(),
                "points_c": pts[2].tolist(),
                "d_ab": dab, "d_bc": dbc, "d_ac": dac,
                "margin": float(margin),
            }
    return None


def find_asymmetric_pair(
    rho1: float = 0.3, rho2: float = 0.02, trials: int = 100, seed: int = 0
) -> Optional[dict]:
    """Seeded search for |d_{rho1,rho2}(A,B) - d_{rho1,rho2}(B,A)| > 1e-3."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        pa = rng.uniform(-2, 2, size=(3, 1))
        pb = rng.uniform(-2, 2, size=(2, 1))
        A, B = make_measure(pa), make_measure(pb)
        params = RobustParams(rho1=rho1, rho2=rho2)
        v_ab = solve_robust(A, B, cost_matrix(A, B), params).value
        v_ba = solve_robust(B, A, cost_matrix(B, A), params).value
        if abs(v_ab - v_ba) > 1e-3:
            return {
                "rho1": rho1, "rho2": rho2,
                "points_a": pa.tolist(), "points_b": pb.tolist(),
                "v_ab": v_ab, "v_ba": v_ba,
                "gap": float(abs(v_ab - v_ba)),
            }
    return None
