"""The benchmark's workloads: seeded inputs, one pass of operations, checks.

Each workload is built from a seed, writes or generates its inputs in
``setup`` (timed as set-up), runs a list of operations per pass (timed as
``solve_s``) and afterwards checks every distinct output against
``reference`` or against properties of the method.  ``otrobust`` is always
reached through module attributes looked up at call time, so the tracer's
patches apply.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

import otrobust.analysis
import otrobust.cli
import otrobust.measures
import otrobust.robust

import reference as ref

GAMMA = 0.05
RHO_STAR = GAMMA / (2.0 * (1.0 - GAMMA))  # rho that absorbs gamma exactly
ROT = "0.785"  # the rotation of the README example pair
CERT_TOL = 1e-6    # relative gap the benchmark's own bound must certify
CHECK_TOL = 1e-3   # relative gap above which a result is wrong, not slow


class Op:
    """One timed operation: ``fn()`` returns an outcome dict.

    The outcome's ``digest`` identifies its output bit for bit; ``exit`` is
    the CLI exit code where there is one.
    """

    def __init__(self, name, fn):
        self.name, self.fn = name, fn


class Failure(Exception):
    """A check that found a wrong result."""


def _require(cond, msg):
    if not cond:
        raise Failure(msg)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _cli(argv, capture=False):
    """Run one ``otrobust`` command in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf) if capture else contextlib.nullcontext():
        code = otrobust.cli.run(argv)
    return code, buf.getvalue()


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# primal checks shared by every robust result
# ---------------------------------------------------------------------------

def check_robust_primal(C, wx, wy, rho1, rho2, coupling, value, tol_w=1e-8):
    """Weights feasible, coupling on the relaxed marginals, value = <C, pi>."""
    m, n = C.shape
    for w, rho, k in ((wx, rho1, m), (wy, rho2, n)):
        _require(w.size == k, f"{w.size} weights for {k} atoms")
        _require(w.min() >= -tol_w, f"negative weight {w.min()!r}")
        _require(abs(w.sum() - k) <= tol_w, f"weights sum to {w.sum()!r}")
        nrm = float(np.linalg.norm(w - 1.0))
        _require(nrm <= ref.ball_radius(rho, k) + tol_w,
                 f"||w - 1|| = {nrm!r} outside radius for rho={rho}")
    P = np.zeros((m, n))
    for i, j, v in coupling:
        P[int(i), int(j)] += float(v)
    _require(P.min() >= 0.0, "negative coupling entry")
    row = np.abs(P.sum(axis=1) - wx / m).max()
    col = np.abs(P.sum(axis=0) - wy / n).max()
    _require(max(row, col) <= 1e-9, f"coupling marginals off by {max(row, col):.2e}")
    cost = float((P * C).sum())
    # relative, with a floor for self-distances whose value is rounding noise
    _require(abs(value - cost) <= 1e-9 * max(abs(cost), 1e-3 * C.max()),
             f"value {value!r} != <C, pi> {cost!r}")


def certificate_gap(C, wx, wy, rho1, rho2, value):
    """Relative gap between ``value`` and the benchmark's dual lower bound."""
    lb = ref.robust_lower_bound(C, wx, wy, rho1, rho2)
    gap = (value - lb) / max(abs(value), 1e-300)
    _require(gap >= -1e-9, f"value {value!r} below the lower bound {lb!r}")
    _require(gap <= CHECK_TOL, f"value {value!r} is {gap:.2e} above the lower bound")
    return gap


class Workload:
    """Inputs in ``outdir``; each workload's ``PASS_S`` is roughly how long
    one pass takes on a 2-vCPU 2 GHz VM, which sets how many passes a run
    makes."""

    def __init__(self, seed, outdir):
        self.seed, self.dir = seed, outdir

    def _path(self, name):
        return os.path.join(self.dir, name)

    def check_pass(self, outs):
        """Checks across the outputs of one pass; none by default."""


class _CliWorkload(Workload):
    """A workload whose inputs come from ``otrobust gen`` and whose
    operations are ``otrobust`` commands writing JSON with ``--out``."""

    def _gen(self, out, n, seed, rot="0", outliers=0.0):
        """Write a 4-mode ring; returns ``gen``'s outlier labels."""
        code, text = _cli(
            ["gen", "ring", "--modes", "4", "--n", str(n), "--seed", str(seed),
             "--rot", rot, "--outliers", repr(outliers), "--out", self._path(out)],
            capture=True,
        )
        if code != 0:
            raise RuntimeError(f"otrobust gen exited {code}")
        return np.array(json.loads(text)["labels"], dtype=bool)

    def _op(self, name, cmd, x, y, extra):
        path = self._path(name + ".json")

        def fn():
            code, _ = _cli([cmd, self._path(x), self._path(y), "--out", path] + extra)
            if code in (2, 4):
                return {"exit": code, "digest": None}
            with open(path, "rb") as fh:
                raw = fh.read()
            return {"exit": code, "digest": _digest(raw), "doc": json.loads(raw),
                    "x": x, "y": y}

        return Op(name, fn)

    def _cost(self, out):
        return ref.euclidean_cost(ref.read_points(self._path(out["x"])),
                                  ref.read_points(self._path(out["y"])))


# ---------------------------------------------------------------------------
# robust_ring
# ---------------------------------------------------------------------------

class RobustRing(_CliWorkload):
    """``otrobust robust`` through ``cli.run`` on rings written by ``gen``.

    (a) Figure 1: the README ring pair (gen seeds 0 and 1) at n=200 with 5%
    far outliers, one-sided, rho1 = gamma / (2 (1 - gamma)).
    (b) two-sided at n=120 on the same seeds, rho2=0.01, --max-iter 60: the
    averaged rule does not certify this instance, so it fails every pass.

    Both pairs are fixed, whatever the seed: over 13 seeded Figure-1 pairs
    the solve took 16 to 24 outer iterations, and over six of them the pass
    took 15.4-19.6 s, a spread wider than a regression bound can hold.
    """

    PASS_S = 15

    def setup(self):
        self.labels = self._gen("fig1_x.csv", 200, 0, outliers=GAMMA)
        self._gen("fig1_clean.csv", 200, 0)
        self._gen("fig1_y.csv", 200, 1, rot=ROT)
        self._gen("two_x.csv", 120, 0, outliers=GAMMA)
        self._gen("two_y.csv", 120, 1, rot=ROT)

    def ops(self):
        return [
            self._op("fig1", "robust", "fig1_x.csv", "fig1_y.csv",
                     ["--rho1", repr(RHO_STAR)]),
            self._op("two_sided", "robust", "two_x.csv", "two_y.csv",
                     ["--rho1", repr(RHO_STAR), "--rho2", "0.01", "--max-iter", "60"]),
        ]

    def check(self, op, out):
        """Check one output; returns True when the operation failed."""
        doc = out["doc"]
        C = self._cost(out)
        wx = np.array(doc["weights_x"], dtype=float)
        wy = np.array(doc["weights_y"], dtype=float)
        rho1, rho2 = doc["params"]["rho1"], doc["params"]["rho2"]
        value = float(doc["value"])
        check_robust_primal(C, wx, wy, rho1, rho2, doc["coupling"], value)
        gap = certificate_gap(C, wx, wy, rho1, rho2, value)
        plain = ref.assignment_ot(C)
        _require(value <= plain * (1 + 1e-12), f"robust {value!r} > plain OT {plain!r}")
        if op.name == "fig1":
            clean = ref.assignment_ot(self._cost({"x": "fig1_clean.csv", "y": out["y"]}))
            _require(_rel(value, clean) <= 0.10,
                     f"robust {value:.4f} not within 10% of clean OT {clean:.4f}")
            _require(plain >= 1.5 * clean,
                     f"contaminated OT {plain:.4f} < 1.5 x clean {clean:.4f}")
            a = ref.auc(1.0 - wx, self.labels)
            _require(a >= 0.95, f"outlier AUC {a:.4f} < 0.95")
        return gap > CERT_TOL


# ---------------------------------------------------------------------------
# small_instances
# ---------------------------------------------------------------------------

# The make-up of a pass is fixed.  The point sets are drawn once, whatever
# the seed; the seed turns and shifts all of them by one rigid motion, which
# changes every input bit but no Euclidean cost beyond rounding, and draws
# the Theorem-2 parameters.  Drawn afresh per seed, the pairs' difficulty
# varied: 898-1,096 weight-oracle calls per pass over seeds 11-20, with
# every pair size drawn twice.
SMALL_RHOS = (0.02, 0.05, 0.15)
PAIR_SIZES = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]  # both orders solved
N_2X2 = 4           # extra 2 x 2 pairs, checked against the ternary search
N_WIDE = 2          # 4 x 5 pairs (and their 5 x 4 swap) on the dense-dual path
SELF_SIZES = (2, 3, 4, 4)
N_THEOREM2 = 100    # Theorem-2 configurations
T2_ATOMS = 20
T2_GAMMAS = (0.05, 0.1, 0.2, 0.3)


class SmallInstances(Workload):
    """In-process ``solve_robust`` at (rho, rho) on 2-D pairs of 2-5 atoms,
    moved rigidly by the seed, in both argument orders, plus self-pairs, plus
    ``analysis.verify_theorem2`` on the one-dimensional Theorem-2 family.

    A pass is short so that a run makes four: with fixed pairs, more passes
    sharpen each operation's fastest time, where more pairs would add nothing.
    """

    PASS_S = 7

    def setup(self):
        make = otrobust.measures.make_measure
        cost = otrobust.measures.cost_matrix
        points = np.random.default_rng([0, 2])
        rng = np.random.default_rng([self.seed, 2])
        turn = float(rng.uniform(0.0, 2.0 * math.pi))
        rot = np.array([[math.cos(turn), -math.sin(turn)],
                        [math.sin(turn), math.cos(turn)]])
        shift = rng.uniform(-1.0, 1.0, 2)

        def draw(k):
            return points.random((k, 2)) @ rot.T + shift

        sizes = ([(f"pair{i}", m, n) for i, (m, n) in enumerate(PAIR_SIZES)]
                 + [(f"two{i}", 2, 2) for i in range(N_2X2)]
                 + [(f"wide{i}", 4, 5) for i in range(N_WIDE)])
        cases = []  # (tag, X, Y, rho); ":xy" and ":yx" are the two orders
        for i, (tag, m, n) in enumerate(sizes):
            X, Y = draw(m), draw(n)
            rho = SMALL_RHOS[i % len(SMALL_RHOS)]
            cases.append((tag + ":xy", X, Y, rho))
            cases.append((tag + ":yx", Y, X, rho))
        for i, m in enumerate(SELF_SIZES):
            X = draw(m)
            cases.append((f"self{i}", X, X, SMALL_RHOS[i % len(SMALL_RHOS)]))
        self.cases = []
        for tag, X, Y, rho in cases:
            mu, nu = make(X), make(Y)
            self.cases.append((tag, X, Y, rho, mu, nu, cost(mu, nu)))
        self.t2 = []
        for i in range(N_THEOREM2):
            gamma = T2_GAMMAS[i % len(T2_GAMMAS)]
            k = float(rng.uniform(1.0, 10.0))
            # every tenth point sits where the bound's factor is exactly 1
            rho = (gamma / (2.0 * (1.0 - gamma)) if i % 10 == 9
                   else float(rng.uniform(0.0, 1.0)))
            inst = otrobust.analysis.construct_theorem2_instance(k, gamma, T2_ATOMS)
            self.t2.append((k, gamma, rho, inst))

    def _solve(self, case):
        tag, X, Y, rho, mu, nu, C = case

        def fn():
            params = otrobust.robust.RobustParams(rho1=rho, rho2=rho)
            sol = otrobust.robust.solve_robust(mu, nu, C, params)
            return {"digest": _digest(sol.value, sol.w_x.w, sol.w_y.w,
                                      sol.coupling, sol.trace, sol.converged),
                    "sol": sol}

        return Op(tag, fn)

    def _theorem2(self, item):
        k, gamma, rho, inst = item

        def fn():
            rep = otrobust.analysis.verify_theorem2(inst, rho)
            return {"digest": _digest(rep["lhs"], rep["rhs"], rep["holds"]), "rep": rep}

        return Op(f"t2:{k!r}:{gamma!r}:{rho!r}", fn)

    def ops(self):
        return [self._solve(c) for c in self.cases] + [self._theorem2(t) for t in self.t2]

    def check(self, op, out):
        if op.name.startswith("t2:"):
            _, k, gamma, rho = op.name.split(":")
            k, gamma, rho = float(k), float(gamma), float(rho)
            rep = out["rep"]
            want = ref.theorem2_value(k, gamma, rho, T2_ATOMS)
            _require(abs(rep["lhs"] - want) <= 1e-9 * max(1.0, want),
                     f"Theorem-2 value {rep['lhs']!r} != closed form {want!r} at {op.name}")
            bound = ref.theorem2_bound(k, gamma, rho)
            _require(abs(rep["rhs"] - bound) <= 1e-9 * bound,
                     f"Theorem-2 bound {rep['rhs']!r} != {bound!r} at {op.name}")
            _require(rep["holds"] and want <= bound * (1 + 1e-9),
                     f"Theorem 2 does not hold at {op.name}")
            return False
        case = next(c for c in self.cases if c[0] == op.name)
        tag, X, Y, rho, *_ = case
        sol = out["sol"]
        C = ref.euclidean_cost(X, Y)
        check_robust_primal(C, np.asarray(sol.w_x.w), np.asarray(sol.w_y.w),
                            rho, rho, sol.coupling, sol.value)
        if tag.startswith("two"):
            want = ref.robust_2x2(C, rho, rho)
            _require(abs(sol.value - want) <= 1e-8,
                     f"{tag}: {sol.value!r} != ternary reference {want!r}")
        if tag.startswith("self"):
            _require(sol.value <= 1e-9, f"{tag}: self-distance {sol.value!r}")
        return False

    def check_pass(self, outs):
        """Symmetry: a pair solved in both orders at (rho, rho) agrees."""
        for name, out in outs.items():
            if name.endswith(":xy"):
                other = outs.get(name[:-3] + ":yx")
                if out is None or other is None:
                    continue
                a, b = out["sol"].value, other["sol"].value
                _require(abs(a - b) <= 1e-6 * max(abs(a), abs(b), 1e-300),
                         f"{name[:-3]}: {a!r} vs swapped {b!r}")


# ---------------------------------------------------------------------------
# ot_baselines
# ---------------------------------------------------------------------------

SINKHORN_EPS = 0.01


class OtBaselines(_CliWorkload):
    """``otrobust ot`` through ``cli.run`` on the README's clean uniform ring
    pair (gen seeds 0 and 1): exact at n=400 and ``--sinkhorn --eps 0.01``
    at n=200.

    Both inputs are fixed, whatever the seed.  HiGHS's time on one 400 x 400
    uniform LP varies 2.8-7.1 s with the atom order alone and 5.0-7.6 s
    across seeded ring pairs, and Sinkhorn's iteration count to its 1e-9
    residual varies threefold across seeded pairs, so a seeded pair would
    measure the seed rather than the solver.
    """

    PASS_S = 13

    def setup(self):
        self._gen("big_x.csv", 400, 0)
        self._gen("big_y.csv", 400, 1, rot=ROT)
        self._gen("mid_x.csv", 200, 0)
        self._gen("mid_y.csv", 200, 1, rot=ROT)

    def ops(self):
        return [
            self._op("exact", "ot", "big_x.csv", "big_y.csv", []),
            self._op("sinkhorn", "ot", "mid_x.csv", "mid_y.csv",
                     ["--sinkhorn", "--eps", repr(SINKHORN_EPS)]),
        ]

    def check(self, op, out):
        doc = out["doc"]
        C = self._cost(out)
        m, n = C.shape
        P = np.zeros((m, n))
        for i, j, v in doc["coupling"]:
            P[int(i), int(j)] += float(v)
        value = float(doc["value"])
        ot = ref.assignment_ot(C)
        if op.name == "exact":
            _require(_rel(value, ot) <= 1e-9, f"exact {value!r} != assignment {ot!r}")
            _require(_rel(value, float((P * C).sum())) <= 1e-9,
                     "exact value != <C, pi>")
            tol = 1e-9
        else:
            hi = ot + SINKHORN_EPS * math.log(m * n)
            _require(ot * (1 - 1e-12) <= value <= hi,
                     f"Sinkhorn {value!r} outside [{ot!r}, {hi!r}]")
            tol = 1e-10
        err = max(np.abs(P.sum(axis=1) - 1.0 / m).max(),
                  np.abs(P.sum(axis=0) - 1.0 / n).max())
        _require(err <= tol, f"{op.name}: marginals off by {err:.2e}")
        return False


WORKLOADS = {
    "robust_ring": RobustRing,
    "small_instances": SmallInstances,
    "ot_baselines": OtBaselines,
}


def run_pass(ops):
    """Run every operation once; returns ({name: seconds}, {name: outcome or None})."""
    times, outs = {}, {}
    for op in ops:
        t0 = time.perf_counter()
        try:
            outs[op.name] = op.fn()
        except Exception as e:  # an operation that raises has failed
            outs[op.name] = None
            print(f"operation {op.name} raised {type(e).__name__}: {e}",
                  file=sys.stderr)
        times[op.name] = time.perf_counter() - t0
    return times, outs


def fastest_pass(times):
    """One pass's wall time with each operation at its fastest over the
    passes in ``times`` (a list of ``run_pass`` time dicts).

    The host slows everything down for seconds to minutes at a time, never
    speeds it up, so an operation's quickest run is its least disturbed one.
    """
    return sum(min(t[name] for t in times) for name in times[0])
