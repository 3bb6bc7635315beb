"""Exact discrete optimal transport with dual potentials.

The general path is the transportation linear program, solved by sparse arc
pricing on a :class:`TransportModel`: a persistent HiGHS model (scipy's
bundled binding) over the arcs priced in so far, the few cheapest of each row
and column plus each solve's north-west-corner plan.  Every m x n arc is
priced by its reduced cost ``c_ij - u_i - v_j``, and the most negative arc of
each violating row and column joins the model until none is left.  The result
is a basic optimal coupling with exact dual potentials.  A caller that solves
many marginals on one cost matrix (the robust loop) keeps one model: only the
row bounds change, so dual simplex restarts from the last optimal basis.
When the positive-mass supports of both measures are k atoms of mass 1/k
each, the optimum is a permutation: :func:`linear_sum_assignment` finds it,
and potentials come from shortest paths on the assignment's
difference-constraint graph, falling back to the LP if they fail.
Both paths end with the same full check
``max_ij(u_i + v_j - c_ij) <= DUAL_FEAS_TOL * max(1, max|c_ij|)`` over all
arcs, so every returned solution carries a checked dual certificate.
For very small cost matrices a :class:`DenseDualEvaluator` enumerates the
vertices of the dual polytope once per cost matrix; afterwards the optimal
value for *any* pair of marginals is a single matrix product.  It is an
oracle only: it makes the brute-force grid of
:func:`otrobust.robust.brute_force_robust` affordable, and no solver uses it.
"""
from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from .errors import DimensionMismatch, SolverStall
from .measures import CostMatrix, DiscreteMeasure, OtSolution, is_uniform_mass

COUPLING_EPS = 1e-12
DUAL_FEAS_TOL = 1e-9
PRICING_K = 5  # cheapest arcs per row and per column in the first LP
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10,
                  "presolve": "off", "output_flag": False}
# the primal tolerance is absolute, so an atom lighter than it could be left
# unshipped: the LP ships the masses times this factor instead
_MASS_SCALE = 1e4
# a few ulps: all m + n rows together then stay consistent to well within
# the primal tolerance
_RHS_RTOL = 1e-15


def dual_feas_tol(C: np.ndarray) -> float:
    """Dual feasibility tolerance for cost matrix C: ``DUAL_FEAS_TOL``
    relative to the largest cost, absolute below 1 (one rounding step of a
    cost of 1e10 is already about 2e-6)."""
    return DUAL_FEAS_TOL * max(1.0, float(np.abs(C).max(initial=0.0)))


class TransportModel:
    """A HiGHS transportation LP over one cost matrix, kept across solves.

    Rows are the m + n marginal equalities; columns are the arcs priced in,
    at first the ``PRICING_K`` cheapest of each row and each column.  A solve
    sets the row bounds, adds the marginals' north-west-corner plan (so the
    restricted LP is feasible), and prices all m x n arcs until
    ``max_ij(u_i + v_j - c_ij) <= dual_feas_tol(C)``.  When a round finds
    violations only on arcs already in the model, the LP is re-solved on all
    arcs, and :class:`SolverStall` is raised if that is still not certified.
    Presolve is off: a solve restarts from the last optimal basis, which only
    a change of the right-hand side leaves dual feasible.
    """

    def __init__(self, C: np.ndarray):
        m, n = C.shape
        self.C = C
        self.highs = _Highs()
        for key, val in _HIGHS_OPTIONS.items():
            self.highs.setOptionValue(key, val)
        zero = np.zeros(m + n)
        self.highs.addRows(m + n, zero, zero, 0, zero.astype(np.int32),
                           np.zeros(0, np.int32), zero)
        self.arcs = np.zeros((m, n), dtype=bool)
        self.order = np.zeros(0, dtype=np.intp)  # flat index of each column
        self.rhs = np.zeros(m + n)  # the row bounds HiGHS holds
        cheap = np.full((m, n), min(m, n) <= PRICING_K)
        if not cheap.all():
            for axis in (0, 1):
                k = np.argpartition(C, PRICING_K - 1, axis=axis)
                np.put_along_axis(cheap, k.take(range(PRICING_K), axis=axis),
                                  True, axis=axis)
        self._add(cheap)

    def _add(self, new: np.ndarray):
        flat = np.flatnonzero(new & ~self.arcs)
        i, j = np.divmod(flat, self.C.shape[1])
        k = flat.size
        self.highs.addCols(
            k, self.C.flat[flat], np.zeros(k), np.full(k, np.inf), 2 * k,
            np.arange(0, 2 * k, 2, dtype=np.int32),
            np.column_stack([i, self.C.shape[0] + j]).ravel().astype(np.int32),
            np.ones(2 * k),
        )
        self.arcs.flat[flat] = True
        self.order = np.concatenate([self.order, flat])

    def _run(self):
        """Solve from the current basis; returns (arc masses, row duals)."""
        self.highs.run()
        status = self.highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise SolverStall("transport LP failed: "
                              + self.highs.modelStatusToString(status))
        sol = self.highs.getSolution()
        return np.array(sol.col_value), np.array(sol.row_dual)

    def solve(self, a: np.ndarray, b: np.ndarray):
        """(plan, u, v) for marginals a and b.  ``b`` is rescaled to the
        total of ``a`` first, so that masses that sum to 1 only to
        ``MASS_TOL`` still give a consistent equality system.  A row's bound
        is set only when its mass moved by more than ``_RHS_RTOL`` since
        the last solve, so rescaling alone sets no bound."""
        C, arcs = self.C, self.arcs
        m, n = C.shape
        tol = dual_feas_tol(C)
        b = b * (a.sum() / b.sum())
        # north-west corner: walk the merged cumulative masses from (0, 0)
        cuts = np.concatenate([np.cumsum(a)[:-1], np.cumsum(b)[:-1]])
        down = (np.arange(cuts.size) < m - 1)[np.argsort(cuts, kind="stable")]
        nw = np.zeros_like(arcs)
        nw[np.r_[0, np.cumsum(down)], np.r_[0, np.cumsum(~down)]] = True
        self._add(nw)
        rhs = _MASS_SCALE * np.r_[a, b]
        moved = np.abs(rhs - self.rhs) > _RHS_RTOL * rhs
        for r in np.flatnonzero(moved).tolist():
            self.highs.changeRowBounds(r, rhs[r], rhs[r])
        self.rhs[moved] = rhs[moved]
        while True:
            x, y = self._run()
            u, v = y[:m], y[m:]
            R = C - u[:, None] - v[None, :]
            if R.min() >= -tol:
                break
            new = np.zeros_like(arcs)
            bad = np.flatnonzero(R.min(axis=1) < -tol)
            new[bad, R[bad].argmin(axis=1)] = True
            bad = np.flatnonzero(R.min(axis=0) < -tol)
            new[R[:, bad].argmin(axis=0), bad] = True
            if not (new & ~arcs).any():
                if arcs.all():
                    raise SolverStall("transport LP duals violate "
                                      f"feasibility by {-R.min():.2e}")
                new = ~arcs  # duals off on arcs already priced in: use them all
            self._add(new)
        plan = np.zeros((m, n))
        plan.flat[self.order] = x / _MASS_SCALE
        return plan, u, v


def _lp_transport(a: np.ndarray, b: np.ndarray, C: np.ndarray,
                  model: Optional[TransportModel] = None):
    """Solve the transportation LP by sparse arc pricing; returns (plan, u, v).
    ``model``, a :class:`TransportModel` over C that the caller keeps to
    hot-start a sequence of marginals, is built afresh when None."""
    return (TransportModel(C) if model is None else model).solve(a, b)


def _assignment_transport(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Uniform n x n transport as an assignment; returns (plan, u, v).

    The plan puts a_i on (i, sigma(i)) for the optimal permutation sigma.
    With v_sigma(k) = c_k,sigma(k) - u_k, dual feasibility reads
    u_i - u_k <= c_i,sigma(k) - c_k,sigma(k), so u is the shortest-path
    distance from a zero source on that graph (Bellman-Ford, one vectorised
    sweep per round).  Falls back to :func:`_lp_transport` when the sweeps
    reach no fixpoint within n + 1 rounds or the potentials fail the dual
    feasibility check.
    """
    n = C.shape[0]
    rows, sigma = linear_sum_assignment(C)
    matched = C[rows, sigma]
    W = C[:, sigma].T - matched[:, None]  # W[k, i]: edge k -> i
    u = np.zeros(n)
    for _ in range(n + 1):
        nxt = (u[:, None] + W).min(axis=0)  # W[i, i] = 0 keeps u_i itself
        if np.array_equal(nxt, u):
            break
        u = nxt
    else:
        return _lp_transport(a, b, C)
    v = np.empty(n)
    v[sigma] = matched - u
    if (u[:, None] + v[None, :] - C).max() > dual_feas_tol(C):
        return _lp_transport(a, b, C)
    plan = np.zeros((n, n))
    plan[rows, sigma] = a
    return plan, u, v


def _full_potentials(C, a, ia, jb, u, v):
    """(phi, psi) on all atoms from support duals u_i + v_j <= c_ij.

    Maps to the convention phi_i - psi_j <= c_ij, imputes zero-mass atoms
    with the tightest dual-feasible value, and normalises against a.  The
    zero-mass rows are imputed against every column, so the pair is dual
    feasible on all arcs, as a cut of the robust solver must be.
    """
    m, n = C.shape
    phi = np.empty(m)
    psi = np.empty(n)
    phi[ia] = u
    psi[jb] = -v
    if jb.size < n:
        # zero-mass columns: tightest feasible psi_j >= max_i phi_i - c_ij
        rest = np.setdiff1d(np.arange(n), jb)
        psi[rest] = np.max(phi[ia, None] - C[np.ix_(ia, rest)], axis=0)
    if ia.size < m:
        rest = np.setdiff1d(np.arange(m), ia)
        phi[rest] = np.min(C[rest] + psi[None, :], axis=1)
    # shift so that the mass-weighted mean of phi over supp(a) is 0
    shift = float(phi @ a) / max(float(a.sum()), 1e-300)
    return phi - shift, psi - shift


def _coupling(C, ia, jb, plan):
    """(triplets, value): the plan's entries above COUPLING_EPS as
    ``(i, j, mass)`` in full index space, and their cost under C."""
    ii, jj = np.nonzero(plan > COUPLING_EPS)
    i, j, p = ia[ii], jb[jj], plan[ii, jj]
    return tuple(zip(i.tolist(), j.tolist(), p.tolist())), float(p @ C[i, j])


def solve_exact(
    mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostMatrix
) -> OtSolution:
    """Exact OT between two measures under the given cost matrix.

    Returns the optimal value, a basic optimal coupling, and dual potentials
    (phi, psi) with ``phi_i - psi_j <= c_ij`` and zero duality gap up to
    solver precision.  Atoms with zero mass are dropped from the problem;
    their potentials are imputed as the tightest dual-feasible value.
    Uniform equal-size supports are solved as an assignment, everything
    else by the transportation LP.
    """
    C = cost.entries
    if C.shape != (mu.n, nu.n):
        raise DimensionMismatch(
            f"cost is {C.shape}, measures are {mu.n} x {nu.n}"
        )
    a, b = mu.mass, nu.mass
    ia = np.flatnonzero(a > 0)
    jb = np.flatnonzero(b > 0)
    Csub = C[np.ix_(ia, jb)]
    if (ia.size == jb.size and is_uniform_mass(a[ia])
            and is_uniform_mass(b[jb])):
        plan_sub, u_sub, v_sub = _assignment_transport(a[ia], b[jb], Csub)
    else:
        plan_sub, u_sub, v_sub = _lp_transport(a[ia], b[jb], Csub)
    phi, psi = _full_potentials(C, a, ia, jb, u_sub, v_sub)
    triplets, value = _coupling(C, ia, jb, plan_sub)
    dual_value = float(phi @ a - psi @ b)
    gap = abs(value - dual_value)
    return OtSolution(
        value=value,
        coupling=triplets,
        potential_x=phi,
        potential_y=psi,
        gap=gap,
    )


def duality_gap(sol: OtSolution, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """|primal value - dual objective| of a solved instance."""
    dual = float(sol.potential_x @ mu.mass - sol.potential_y @ nu.mass)
    return abs(sol.value - dual)


# ---------------------------------------------------------------------------
# Dense dual-vertex evaluation for small instances
# ---------------------------------------------------------------------------

_MAX_BASES = 200_000


def dual_vertex_budget(m: int, n: int) -> int:
    """Number of candidate dual bases for an m x n instance."""
    return comb(m * n, m + n - 1)


class DenseDualEvaluator:
    """Exact OT value/potentials for a fixed small cost matrix.

    Enumerates all vertices of the bounded dual polytope
    ``{(u, v): u_i + v_j <= c_ij, v_n = 0}``.  By LP duality the optimal
    value for marginals (a, b) is ``max_k u_k.a + v_k.b`` over the vertex
    list, so a batch of evaluations (a brute-force grid) is a single
    matmul.
    """

    def __init__(self, C: np.ndarray):
        C = np.asarray(C, dtype=float)
        m, n = C.shape
        if dual_vertex_budget(m, n) > _MAX_BASES:
            raise SolverStall(
                f"{m}x{n} too large for dual vertex enumeration"
            )
        self.C = C
        self.m, self.n = m, n
        self._enumerate_vertices()

    def _enumerate_vertices(self):
        m, n = self.m, self.n
        k = m + n - 1  # free dual variables after fixing v_{n-1} = 0
        # constraint rows: u_i + v_j <= C_ij over free vars (u, v[:-1])
        G = np.zeros((m * n, k))
        rhs = self.C.ravel()
        for i in range(m):
            for j in range(n):
                r = i * n + j
                G[r, i] = 1.0
                if j < n - 1:
                    G[r, m + j] = 1.0
        combos = np.array(list(combinations(range(m * n), k)), dtype=int)
        Gs = G[combos]  # (B, k, k)
        ok = np.abs(np.linalg.det(Gs)) > 1e-10
        Gs, rs = Gs[ok], rhs[combos[ok]]
        z = np.linalg.solve(Gs, rs[..., None])[..., 0]  # (B', k)
        feas = np.all(z @ G.T <= rhs[None, :] + 1e-9, axis=1)
        z = z[feas]
        if z.size == 0:  # degenerate fallback, should not happen
            z = np.zeros((1, k))
            z[0, :m] = self.C.min(axis=1)
        self.U = z[:, :m]  # (K, m)
        self.V = np.concatenate(
            [z[:, m:], np.zeros((z.shape[0], 1))], axis=1
        )  # (K, n)

    def value_batch(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Optimal values for batches of marginals A (N, m), B (N, n)."""
        scores = A @ self.U.T + B @ self.V.T
        return scores.max(axis=1)
