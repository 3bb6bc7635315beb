"""Acceptance gate: the ten headline checks, each with its stated tolerance
and runtime budget.  Each test prints one summary line."""
import json
import os
import time

import numpy as np
import pytest

from otrobust.analysis import (
    construct_theorem2_instance,
    detect_elbow,
    find_triangle_violation,
    rho_for_known_gamma,
    sweep_rho,
    theorem2_bound,
    verify_theorem2,
)
from otrobust.datagen import FarCluster, gaussian_ring, inject_outliers
from otrobust.exact import duality_gap, solve_exact
from otrobust.measures import CostMatrix, cost_matrix, make_measure
from otrobust.robust import (
    RobustParams,
    brute_force_robust,
    solve_robust,
    solve_robust_one_sided,
)
from otrobust.sinkhorn import solve_sinkhorn
from otrobust.unbalanced import (
    r_star,
    r_star_numeric_check,
    solve_unbalanced_chi2,
)
from otrobust.weights import WeightSubproblem, brute_force_weights, solve_weight_socp

from test_exact import bfs_primal_oracle

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

GAMMA = 0.05
RHO_STAR = rho_for_known_gamma(GAMMA)
FAR_CENTER = [60.0, 60.0]


def _criterion1_instances():
    rng = np.random.default_rng(20260825)
    for idx in range(500):
        if idx < 20:
            m = n = 3  # guaranteed coverage for the enumeration cross-check
        else:
            m = int(rng.integers(2, 33))
            n = int(rng.integers(2, 33))
        a = rng.random(m)
        a /= a.sum()
        b = rng.random(n)
        b /= b.sum()
        C = rng.random((m, n))
        yield a, b, C


def test_criterion_01_lp_correctness():
    t0 = time.time()
    worst_gap = 0.0
    worst_slack = 0.0
    worst_oracle = 0.0
    n_oracle = 0
    for a, b, C in _criterion1_instances():
        mu = make_measure(np.zeros((a.size, 1)), a)
        nu = make_measure(np.zeros((b.size, 1)), b)
        cm = CostMatrix(C)
        sol = solve_exact(mu, nu, cm)
        gap = duality_gap(sol, mu, nu)
        assert gap <= 1e-9 * max(1.0, sol.value)
        worst_gap = max(worst_gap, gap)
        slack = sol.potential_x[:, None] - sol.potential_y[None, :] - C
        for i, j, pij in sol.coupling:
            assert abs(slack[i, j]) <= 1e-8
            worst_slack = max(worst_slack, abs(slack[i, j]))
        if a.size == 3 and b.size == 3 and n_oracle < 20:
            oracle = bfs_primal_oracle(a, b, C)
            assert sol.value == pytest.approx(oracle, abs=1e-10)
            worst_oracle = max(worst_oracle, abs(sol.value - oracle))
            n_oracle += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(
        f"\n[criterion 1] PASS lp correctness: 500 instances, worst gap "
        f"{worst_gap:.2e}, worst slackness {worst_slack:.2e}, "
        f"{n_oracle} enumeration cross-checks (worst {worst_oracle:.2e}), "
        f"{elapsed:.1f}s < 10s"
    )


def _polish_weight_point(d, rho, w0):
    """Refine a grid-oracle point with a general NLP solver.

    The grid certifies the basin; SLSQP pins the location inside it.  This
    stays independent of the production solver, which is pure bisection.
    """
    from scipy.optimize import minimize

    n = d.size
    r2 = 2.0 * rho * n
    cons = [
        {"type": "eq", "fun": lambda w: w.sum() - n,
         "jac": lambda w: np.ones(n)},
        {"type": "ineq", "fun": lambda w: r2 - ((w - 1.0) ** 2).sum(),
         "jac": lambda w: -2.0 * (w - 1.0)},
    ]
    res = minimize(
        lambda w: w @ d, w0, jac=lambda w: d, method="SLSQP",
        bounds=[(0.0, None)] * n, constraints=cons,
        options={"ftol": 1e-12, "maxiter": 200},
    )
    x = np.maximum(res.x, 0.0)
    feasible = (
        abs(x.sum() - n) <= 1e-8
        and ((x - 1.0) ** 2).sum() <= r2 + 1e-8
    )
    if feasible and x @ d <= w0 @ d + 1e-12:
        return x
    return w0


def test_criterion_02_weight_socp_oracle():
    t0 = time.time()
    rng = np.random.default_rng(7)
    rhos = [0.0, 0.05, 0.1, 0.5, 2.0]
    worst_obj = -np.inf
    worst_linf = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 5))
        d = rng.normal(0.0, 2.0, n)
        rho = rhos[trial % len(rhos)]
        w = solve_weight_socp(WeightSubproblem(d, rho))
        wb = brute_force_weights(d, rho, grid_resolution=1e-3)
        slack = np.abs(d).max() * 1e-3 * n
        excess = float(w.w @ d - wb.w @ d)
        assert excess <= slack
        worst_obj = max(worst_obj, excess)
        wp = _polish_weight_point(d, rho, wb.w)
        linf = float(np.abs(w.w - wp).max())
        assert linf <= 5e-3
        worst_linf = max(worst_linf, linf)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(
        f"\n[criterion 2] PASS weight subproblem vs grid oracle: 200 "
        f"problems, worst objective excess {worst_obj:.2e}, worst l_inf "
        f"{worst_linf:.2e}, {elapsed:.1f}s < 30s"
    )


def test_criterion_03_robust_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        mu = make_measure(rng.random((m, 2)))
        nu = make_measure(rng.random((n, 2)))
        C = cost_matrix(mu, nu)
        rho1 = float(rng.choice([0.02, 0.05, 0.15]))
        # exercise the two-sided path on the cheaper small instances
        rho2 = float(rng.choice([0.0, 0.05])) if max(m, n) <= 3 else 0.0
        oracle = brute_force_robust(
            mu, nu, C, rho1=rho1, rho2=rho2, grid_resolution=2e-3
        )
        sol = solve_robust(mu, nu, C, RobustParams(rho1=rho1, rho2=rho2))
        err = abs(sol.value - oracle)
        assert err <= 1e-3 * max(1.0, oracle), (trial, err)
        worst = max(worst, err)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(
        f"\n[criterion 3] PASS robust vs brute force: 100 instances, "
        f"worst |diff| {worst:.2e}, {elapsed:.1f}s < 2min"
    )


def test_criterion_04_theorem2_verification():
    t0 = time.time()
    n_atoms = 20
    count = 0
    worst_margin = -np.inf
    for k in np.linspace(1.0, 10.0, 10):
        for gamma in (0.05, 0.1, 0.2, 0.3):
            inst = construct_theorem2_instance(k, gamma, n_atoms)
            for rho in np.linspace(0.0, 1.0, 10):
                rep = verify_theorem2(inst, rho)
                assert rep["holds"], (k, gamma, rho, rep)
                worst_margin = max(worst_margin, rep["lhs"] - rep["rhs"])
                count += 1
            # factor-1 point: the bound collapses to the clean distance
            rho1 = rho_for_known_gamma(gamma)
            rep = verify_theorem2(inst, rho1)
            w_clean = rep["rhs"] / theorem2_bound(k, gamma, rho1)
            assert rep["lhs"] <= w_clean * (1 + 1e-6)
    elapsed = time.time() - t0
    assert count >= 300
    assert elapsed < 120.0
    print(
        f"\n[criterion 4] PASS contamination bound: {count} configurations, "
        f"worst lhs-rhs {worst_margin:.2e}, factor-1 point holds, "
        f"{elapsed:.1f}s < 2min"
    )


def _figure1_run(seed):
    clean = gaussian_ring(4, n_samples=200, seed=seed)
    target = gaussian_ring(
        4, n_samples=200, rotation_rad=np.pi / 4, seed=10_000 + seed
    )
    corrupted, labels = inject_outliers(
        clean, GAMMA, FarCluster(FAR_CENTER), seed=seed
    )
    w_clean = solve_exact(clean, target, cost_matrix(clean, target)).value
    C = cost_matrix(corrupted, target)
    w_corr = solve_exact(corrupted, target, C).value
    t0 = time.time()
    sol = solve_robust(
        corrupted, target, C,
        RobustParams(rho1=RHO_STAR, rho2=0.0, max_outer_iter=60, rel_tol=1e-5),
    )
    elapsed = time.time() - t0
    return {
        "seed": seed,
        "w_clean": w_clean,
        "w_corr": w_corr,
        "sol": sol,
        "labels": labels,
        "solve_seconds": elapsed,
    }


_FIG1_CACHE = {}


def _figure1_results():
    if not _FIG1_CACHE:
        _FIG1_CACHE["runs"] = [_figure1_run(s) for s in range(10)]
    return _FIG1_CACHE["runs"]


def test_criterion_05_figure1_reproduction():
    t0 = time.time()
    runs = _figure1_results()
    worst_rob = 0.0
    worst_plain = np.inf
    for r in runs:
        rel_rob = abs(r["sol"].value - r["w_clean"]) / r["w_clean"]
        rel_plain = abs(r["w_corr"] - r["w_clean"]) / r["w_clean"]
        assert rel_rob <= 0.10, (r["seed"], rel_rob)
        assert rel_plain >= 0.5, (r["seed"], rel_plain)
        assert r["solve_seconds"] < 60.0
        worst_rob = max(worst_rob, rel_rob)
        worst_plain = min(worst_plain, rel_plain)
    print(
        f"\n[criterion 5] PASS contaminated-ring reproduction: 10 seeds, "
        f"worst robust rel err {worst_rob:.3f} <= 0.10, smallest plain rel "
        f"err {worst_plain:.2f} >= 0.5, total {time.time() - t0:.1f}s"
    )


def _auc(scores, labels):
    from scipy.stats import rankdata

    r = rankdata(scores)
    pos = labels.astype(bool)
    n_pos, n_neg = pos.sum(), (~pos).sum()
    return (r[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def test_criterion_06_outlier_identification():
    runs = _figure1_results()
    worst = 1.0
    for r in runs:
        scores = 1.0 - r["sol"].w_x.w
        auc = _auc(scores, r["labels"])
        assert auc >= 0.95, (r["seed"], auc)
        worst = min(worst, auc)
    print(
        f"\n[criterion 6] PASS outlier identification: 10 seeds, worst AUC "
        f"{worst:.4f} >= 0.95"
    )


def test_criterion_07_rho_sweep_and_elbow():
    t0 = time.time()
    clean = gaussian_ring(4, n_samples=200, seed=0)
    target = gaussian_ring(4, n_samples=200, rotation_rad=np.pi / 4, seed=10_000)
    corrupted, _ = inject_outliers(clean, GAMMA, FarCluster(FAR_CENTER), seed=0)
    C = cost_matrix(corrupted, target)
    grid = np.logspace(np.log10(1e-3), np.log10(0.3), 12)
    curve = sweep_rho(
        corrupted, target, C, grid, max_outer_iter=40, rel_tol=1e-4
    )
    # non-increase is enforced by the RhoCurve invariant; re-assert anyway
    assert np.all(np.diff(curve.values) <= 1e-8)
    elbow = detect_elbow(curve)
    lo = GAMMA / (6 * (1 - GAMMA))
    hi = 3 * GAMMA / (2 * (1 - GAMMA))
    assert lo <= elbow.rho <= hi, (elbow, lo, hi)
    print(
        f"\n[criterion 7] PASS rho sweep: monotone over {grid.size} points, "
        f"elbow rho {elbow.rho:.4f} in [{lo:.4f}, {hi:.4f}], "
        f"{time.time() - t0:.1f}s"
    )


def test_criterion_08_metric_properties(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(23)
    # non-negativity and identity
    worst_id = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        mu = make_measure(rng.uniform(-2, 2, (n, 2)))
        sol = solve_robust(
            mu, mu, cost_matrix(mu, mu), RobustParams(rho1=0.1, rho2=0.1)
        )
        assert sol.value >= -1e-9
        assert abs(sol.value) <= 1e-9
        worst_id = max(worst_id, abs(sol.value))
    # symmetry at (rho, rho)
    worst_sym = 0.0
    for _ in range(50):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        A = make_measure(rng.uniform(-2, 2, (m, 2)))
        B = make_measure(rng.uniform(-2, 2, (n, 2)))
        p = RobustParams(rho1=0.07, rho2=0.07)
        v1 = solve_robust(A, B, cost_matrix(A, B), p).value
        v2 = solve_robust(B, A, cost_matrix(B, A), p).value
        rel = abs(v1 - v2) / max(1e-12, abs(v1))
        assert rel <= 1e-6, (v1, v2)
        worst_sym = max(worst_sym, rel)
    # triangle-inequality counterexample, checked against the stored fixture
    viol = find_triangle_violation(rho=0.25, trials=200, seed=0)
    assert viol is not None and viol["margin"] > 1e-3
    out = tmp_path / "triangle_violation.json"
    out.write_text(json.dumps(viol, indent=2))
    with open(os.path.join(FIXTURE_DIR, "triangle_violation.json")) as fh:
        stored = json.load(fh)
    fresh = json.loads(out.read_text())
    for key in ("rho", "points_a", "points_b", "points_c"):
        assert fresh[key] == stored[key], key
    for key in ("d_ab", "d_bc", "d_ac", "margin"):
        assert fresh[key] == pytest.approx(stored[key], rel=1e-9), key
    print(
        f"\n[criterion 8] PASS metric properties: identity dev {worst_id:.1e}"
        f" <= 1e-9 (100 measures), symmetry rel dev {worst_sym:.1e} <= 1e-6 "
        f"(50 pairs), triangle violation margin {viol['margin']:.4f} "
        f"matches the fixture, {time.time() - t0:.1f}s"
    )


def test_criterion_09_unbalanced_comparator():
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst_r = 0.0
    for x in rng.uniform(-5.0, 0.49, 100):
        err = abs(r_star(x) - r_star_numeric_check(x))
        assert err <= 1e-6
        worst_r = max(worst_r, err)
    worst_dd = 0.0
    for L, tau in [(1.0, 1e4), (1.0, 1.0), (10.0, 1.0), (3.0, 2.0), (0.5, 0.3)]:
        mu = make_measure([[0.0]])
        nu = make_measure([[L]])
        sol = solve_unbalanced_chi2(mu, nu, CostMatrix(np.array([[L]])), tau)
        p = max(0.0, 1.0 - L / (2.0 * tau))
        oracle = L * p + tau * (p - 1.0) ** 2
        err = abs(sol.value - oracle)
        assert err <= 1e-6
        worst_dd = max(worst_dd, err)
    worst_tau = 0.0
    for _ in range(20):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        mu = make_measure(rng.random((m, 2)))
        nu = make_measure(rng.random((n, 2)))
        C = CostMatrix(rng.random((m, n)) * 10.0)
        exact = solve_exact(mu, nu, C).value
        sol = solve_unbalanced_chi2(mu, nu, C, tau=1e4, tol=1e-9)
        err = abs(sol.value - exact)
        assert err <= 1e-2
        worst_tau = max(worst_tau, err)
    print(
        f"\n[criterion 9] PASS unbalanced comparator: conjugate worst "
        f"{worst_r:.1e} (100 pts), scalar-family worst {worst_dd:.1e}, "
        f"tau=1e4 worst {worst_tau:.1e} <= 1e-2 (20 instances), "
        f"{time.time() - t0:.1f}s"
    )


def test_criterion_10_sinkhorn_backend():
    t0 = time.time()
    worst = 0.0
    worst_marg = 0.0
    for a, b, C in _criterion1_instances():
        mu = make_measure(np.zeros((a.size, 1)), a)
        nu = make_measure(np.zeros((b.size, 1)), b)
        cm = CostMatrix(C)
        exact = solve_exact(mu, nu, cm).value
        sk = solve_sinkhorn(mu, nu, cm, epsilon=1e-3, tol=1e-3)
        err = abs(sk.value - exact)
        assert err <= 2e-2, err
        worst = max(worst, err)
        P = sk.coupling_dense()
        marg = max(
            np.abs(P.sum(axis=1) - a).max(), np.abs(P.sum(axis=0) - b).max()
        )
        assert marg <= 1e-10
        worst_marg = max(worst_marg, marg)
    print(
        f"\n[criterion 10] PASS entropic backend: 500 instances at "
        f"eps=1e-3, worst |err| {worst:.2e} <= 2e-2, worst rounded-marginal "
        f"residual {worst_marg:.1e}, {time.time() - t0:.1f}s"
    )
