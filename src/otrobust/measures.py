"""Core domain types: weighted point clouds, cost matrices, solutions, weights.

All types are immutable after construction (arrays are copied and marked
read-only) and validate their invariants eagerly, so downstream solvers can
assume well-formed inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    DimensionMismatch,
    EmptyInput,
    LengthMismatch,
    MassNotNormalized,
    NegativeMass,
    NormalizationViolated,
)

MASS_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-8
WEIGHT_BALL_TOL = 1e-8

_METRICS = ("euclidean", "sqeuclidean", "custom")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def is_uniform_mass(mass: np.ndarray, tol: float = 1e-12) -> bool:
    """Every entry equals 1/len(mass) to within tol."""
    return bool(np.all(np.abs(mass - 1.0 / mass.size) <= tol))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Empirical probability measure: n points in R^d with non-negative mass."""

    points: np.ndarray  # (n, d)
    mass: np.ndarray  # (n,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        mass = np.asarray(self.mass, dtype=float).ravel()
        if pts.size == 0:
            raise EmptyInput("measure needs at least one point")
        if pts.shape[0] != mass.shape[0]:
            raise LengthMismatch(
                f"{pts.shape[0]} points but {mass.shape[0]} mass entries"
            )
        if np.any(mass < 0):
            raise NegativeMass(f"negative mass entries: min={mass.min()}")
        total = mass.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise MassNotNormalized(f"mass sums to {total!r}, expected 1")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "mass", _readonly(mass))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def is_uniform(self, tol: float = 1e-12) -> bool:
        return is_uniform_mass(self.mass, tol)


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise transport costs, non-negative, with the generating metric."""

    entries: np.ndarray  # (m, n)
    metric_tag: str = "custom"

    def __post_init__(self):
        e = np.atleast_2d(np.asarray(self.entries, dtype=float))
        if e.size == 0:
            raise EmptyInput("cost matrix is empty")
        if np.any(e < 0):
            raise NegativeMass(f"negative cost entries: min={e.min()}")
        if self.metric_tag not in _METRICS:
            raise DimensionMismatch(f"unknown metric tag {self.metric_tag!r}")
        object.__setattr__(self, "entries", _readonly(e))

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True)
class OtSolution:
    """Optimal value, sparse coupling, and dual potentials of one OT solve."""

    value: float
    coupling: tuple  # ((i, j, pi_ij), ...)
    potential_x: np.ndarray
    potential_y: np.ndarray
    gap: float
    converged: bool = True

    def coupling_dense(self, shape=None) -> np.ndarray:
        m = len(self.potential_x)
        n = len(self.potential_y)
        if shape is None:
            shape = (m, n)
        P = np.zeros(shape)
        for i, j, v in self.coupling:
            P[int(i), int(j)] = v
        return P


def weight_radius(rho: float, n: int) -> float:
    """Radius of the chi-square ball in the scaled (sum = n) weight frame."""
    return float(np.sqrt(2.0 * rho * n))


@dataclass(frozen=True)
class WeightVector:
    """Marginal-relaxation weights in the scaled convention (sum w = n).

    The relaxed marginal assigns mass ``w_i / n`` to atom i of a uniform
    reference measure.  Feasibility is the scaled simplex intersected with
    the chi-square ball ``||w - 1||_2 <= sqrt(2 rho n)``.
    """

    w: np.ndarray
    rho: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).ravel()
        if w.size == 0:
            raise EmptyInput("empty weight vector")
        if self.rho < 0:
            raise NegativeMass(f"rho must be >= 0, got {self.rho}")
        if np.any(w < 0):
            raise NegativeMass(f"negative weight: min={w.min()}")
        n = w.size
        if abs(w.sum() - n) > WEIGHT_SUM_TOL:
            raise NormalizationViolated(f"weights sum to {w.sum()!r}, expected {n}")
        radius = weight_radius(self.rho, n)
        nrm = float(np.linalg.norm(w - 1.0))
        if nrm > radius + WEIGHT_BALL_TOL:
            raise NormalizationViolated(
                f"||w - 1|| = {nrm} exceeds ball radius {radius}"
            )
        object.__setattr__(self, "w", _readonly(w))

    @property
    def n(self) -> int:
        return self.w.size


def make_measure(
    points: Sequence, mass: Optional[Sequence] = None
) -> DiscreteMeasure:
    """Build a measure; uniform 1/n mass when none is given.

    Explicit mass is validated as-is: a vector that does not sum to one is an
    error, never silently renormalized.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise EmptyInput("no points given")
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be 2-d, got shape {pts.shape}")
    n = pts.shape[0]
    if mass is None:
        mass = np.full(n, 1.0 / n)
    else:
        mass = np.asarray(mass, dtype=float).ravel()
        if mass.shape[0] != n:
            raise DimensionMismatch(
                f"{n} points but {mass.shape[0]} mass entries"
            )
    return DiscreteMeasure(pts, mass)


def cost_matrix(
    X: DiscreteMeasure, Y: DiscreteMeasure, metric: str = "euclidean"
) -> CostMatrix:
    """Pairwise costs between the supports of X and Y."""
    if X.dim != Y.dim:
        raise DimensionMismatch(f"dimension {X.dim} vs {Y.dim}")
    if metric not in ("euclidean", "sqeuclidean"):
        raise DimensionMismatch(f"unknown metric {metric!r}")
    entries = cdist(X.points, Y.points, metric=metric)
    return CostMatrix(np.maximum(entries, 0.0), metric_tag=metric)


def reweight(mu: DiscreteMeasure, w: WeightVector) -> DiscreteMeasure:
    """Apply scaled weights to a measure: mass_i <- mass_i * w_i.

    For a uniform reference this turns w into the relaxed marginal w/n.  The
    result must still be a probability measure, otherwise
    NormalizationViolated is raised.
    """
    if mu.n != w.n:
        raise LengthMismatch(f"measure has {mu.n} atoms, weights {w.n}")
    new_mass = mu.mass * w.w
    total = new_mass.sum()
    if abs(total - 1.0) > MASS_TOL:
        raise NormalizationViolated(
            f"reweighted mass sums to {total!r}; reference not uniform?"
        )
    return DiscreteMeasure(mu.points, new_mass)
