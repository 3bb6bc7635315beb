"""Independent reference computations for checking otrobust's outputs.

Nothing here imports otrobust: every value the benchmark checks is
recomputed from the input points with numpy/scipy alone, so a fault in the
program cannot hide behind the same fault in its check.  Each function is
checked against brute force on small grids in ``test_reference.py``.

Conventions: a relaxed side with ``n`` atoms carries scaled weights ``w``
(``w >= 0``, ``sum w = n``, ``||w - 1||_2 <= R`` with ``R = sqrt(2 rho n)``)
and the relaxed marginal ``w / n``.
"""
from __future__ import annotations

import csv
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

FEAS_TOL = 1e-9


def ball_radius(rho: float, n: int) -> float:
    return math.sqrt(2.0 * rho * n)


def read_points(path: str) -> np.ndarray:
    """Points of a measure CSV (header ``x0..x{d-1}[,mass]``)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    ncoord = sum(1 for h in rows[0] if h.strip().startswith("x"))
    return np.array([[float(v) for v in r[:ncoord]] for r in rows[1:] if r])


def euclidean_cost(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - Y[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


# ---------------------------------------------------------------------------
# linear minimisation over the simplex-ball set
# ---------------------------------------------------------------------------

def simplex_ball_min(d: np.ndarray, R: float) -> tuple[float, np.ndarray]:
    """Exact ``min d.w`` over ``{w >= 0, sum w = n, ||w - 1|| <= R}``.

    KKT gives ``w_i = max(0, n/k - (d_i - mean_k)/lam)`` on the ``k``
    smallest entries of ``d``, with ``lam`` fixed by the ball when it is
    active, or uniform mass on the support when it is not.  Every support
    size is a candidate; the minimum over the feasible candidates is the
    optimum, ties included, because the optimal support is always a prefix
    of the sorted order.  The chosen point is checked for feasibility before
    it is returned, so a rounding slip cannot yield a value below no
    feasible point.
    """
    d = np.asarray(d, dtype=float).ravel()
    n = d.size
    if R <= 0.0:
        w = np.ones(n)
        return float(d.sum()), w
    order = np.argsort(d, kind="stable")
    ds = d[order]
    best_val, best_w = math.inf, None
    R2 = R * R
    for k in range(1, n + 1):
        slack = R2 - n * (n - k) / k  # ball budget left after uniform n/k
        if slack < 0.0:
            continue
        dev = ds[:k] - ds[:k].mean()
        var = float(dev @ dev)
        ws = np.full(k, n / k)
        if var > 0.0:
            ws = ws - dev * math.sqrt(slack / var)
            if ws[-1] < 0.0:
                if ws[-1] < -1e-12 * n:
                    continue
                ws = np.maximum(ws, 0.0)
        w = np.zeros(n)
        w[order[:k]] = ws
        val = float(d @ w)
        if val < best_val:
            best_val, best_w = val, w
    if best_w is None:
        raise ArithmeticError("no feasible candidate; is R >= 0?")
    _check_simplex_ball(best_w, R)
    return best_val, best_w


def _check_simplex_ball(w: np.ndarray, R: float, tol: float = FEAS_TOL) -> None:
    n = w.size
    if w.min() < -tol:
        raise ArithmeticError(f"negative weight {w.min()!r}")
    if abs(w.sum() - n) > tol * n:
        raise ArithmeticError(f"weights sum to {w.sum()!r}, not {n}")
    nrm = float(np.linalg.norm(w - 1.0))
    if nrm > R + tol * max(1.0, R):
        raise ArithmeticError(f"||w - 1|| = {nrm!r} > R = {R!r}")


# ---------------------------------------------------------------------------
# exact transport: dual LP, assignment, 2 x 2 closed form
# ---------------------------------------------------------------------------

def dual_potentials(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Dual-feasible ``(u, v)``, ``u_i + v_j <= c_ij``, from the dual LP.

    Solves ``max a.u + b.v`` directly (not the primal the program solves),
    then replaces ``v`` and ``u`` by their c-transforms.  Each transform
    keeps the pair feasible up to one rounding of ``c - u`` and can only
    raise ``a.u + b.v`` for nonnegative ``a, b``, which also fixes the free
    potentials of zero-mass atoms at their largest feasible value.
    """
    m, n = C.shape
    rows = np.repeat(np.arange(m * n), 2)
    cols = np.empty(2 * m * n, dtype=int)
    cols[0::2] = np.repeat(np.arange(m), n)
    cols[1::2] = m + np.tile(np.arange(n), m)
    A = sparse.csr_matrix(
        (np.ones(2 * m * n), (rows, cols)), shape=(m * n, m + n)
    )
    res = linprog(
        -np.concatenate([a, b]), A_ub=A, b_ub=C.ravel(),
        bounds=(None, None), method="highs",
    )
    if res.status != 0:
        raise ArithmeticError(f"dual LP failed: {res.message}")
    u = res.x[:m]
    v = np.min(C - u[:, None], axis=0)
    u = np.min(C - v[None, :], axis=1)
    return u, v


def dual_value(a, b, u, v) -> float:
    return float(a @ u + b @ v)


def assignment_ot(C: np.ndarray) -> float:
    """Exact OT between two uniform measures of equal size."""
    n = C.shape[0]
    if C.shape != (n, n):
        raise ValueError(f"assignment needs a square cost, got {C.shape}")
    r, c = linear_sum_assignment(C)
    return float(C[r, c].sum()) / n


def ot_2x2(a1: float, b1: float, C: np.ndarray) -> float:
    """Closed-form OT between ``(a1, 1-a1)`` and ``(b1, 1-b1)``.

    The plan is ``[[t, a1-t], [b1-t, 1-a1-b1+t]]``; its cost is linear in
    ``t``, so the optimum sits at an end of ``[max(0, a1+b1-1), min(a1, b1)]``.
    """
    lo, hi = max(0.0, a1 + b1 - 1.0), min(a1, b1)

    def cost(t):
        return (t * C[0, 0] + (a1 - t) * C[0, 1] + (b1 - t) * C[1, 0]
                + (1.0 - a1 - b1 + t) * C[1, 1])

    return min(cost(lo), cost(hi))


def _ternary_min(f, lo: float, hi: float, iters: int = 100):
    """Minimum of a convex function on ``[lo, hi]`` (plateaus allowed)."""
    for _ in range(iters):
        if hi - lo <= 0.0:
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    x = 0.5 * (lo + hi)
    return f(x), x


def robust_2x2(C: np.ndarray, rho1: float, rho2: float) -> float:
    """Robust OT of a 2 x 2 uniform pair by nested ternary search.

    With two atoms the weight set is the segment ``w_1 in [1 - r, 1 + r]``
    cut to ``[0, 2]``, ``r = sqrt(2 rho)``.  OT is jointly convex in the
    marginals, so the inner minimum is convex in the outer variable.
    """
    def seg(rho):
        r = math.sqrt(2.0 * rho)
        return max(0.0, 1.0 - r), min(2.0, 1.0 + r)

    (xl, xh), (yl, yh) = seg(rho1), seg(rho2)

    def inner(wx1):
        return _ternary_min(lambda wy1: ot_2x2(wx1 / 2.0, wy1 / 2.0, C),
                            yl, yh)[0]

    return _ternary_min(inner, xl, xh)[0]


# ---------------------------------------------------------------------------
# robust OT certificate
# ---------------------------------------------------------------------------

def robust_lower_bound(C, wx, wy, rho1, rho2) -> float:
    """Dual lower bound on the robust value, taken at the weights ``wx, wy``.

    For any dual-feasible ``(u, v)``, ``OT(a, b) >= a.u + b.v`` for every
    pair of marginals, so ``min_wx u.wx/m + min_wy v.wy/n`` bounds the robust
    value from below.  The potentials come from the dual LP at the given
    weights, which makes the bound tight at an optimum.
    """
    m, n = C.shape
    u, v = dual_potentials(np.asarray(wx) / m, np.asarray(wy) / n, C)
    lx = simplex_ball_min(u, ball_radius(rho1, m))[0] / m
    ly = simplex_ball_min(v, ball_radius(rho2, n))[0] / n
    return lx + ly


def theorem2_value(k: float, gamma: float, rho: float, n_atoms: int) -> float:
    """Closed-form one-sided robust value on the Theorem-2 line family.

    ``n_c`` clean atoms at 0 and ``g = gamma n`` outliers at ``k`` are
    transported to a single target at 1, so the value is the weighted mean
    cost ``1 + (g/n) (k - 2) t`` with ``t`` the common outlier weight.
    Symmetry within each group and linearity make the common weights
    optimal; the ball allows ``|1 - t| <= sqrt(2 rho n_c / g)``.
    """
    g = int(round(gamma * n_atoms))
    if g == 0:
        return 1.0
    n, nc = n_atoms, n_atoms - g
    reach = math.sqrt(2.0 * rho * nc / g)
    if k > 2.0:
        t = max(0.0, 1.0 - reach)
    else:
        t = min(n / g, 1.0 + reach)
    return 1.0 + g * (k - 2.0) * t / n


def theorem2_bound(k: float, gamma: float, rho: float) -> float:
    return max(1.0, 1.0 + k * gamma - k * math.sqrt(2.0 * rho * gamma * (1.0 - gamma)))


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------

def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve; ties count one half."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels, dtype=bool)
    sp, sn = scores[pos], scores[~pos]
    if sp.size == 0 or sn.size == 0:
        raise ValueError("AUC needs both classes")
    greater = (sp[:, None] > sn[None, :]).sum()
    ties = (sp[:, None] == sn[None, :]).sum()
    return float(greater + 0.5 * ties) / (sp.size * sn.size)
