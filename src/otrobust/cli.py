"""Command-line interface: CSV/JSON point-cloud IO, solver dispatch, SVG plots.

stdout carries exactly one JSON result document; diagnostics go to stderr.
Exit codes: 0 success, 2 input/validation error, 3 solver non-convergence
(result still emitted), 4 internal error or solver failure (no result).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import analysis, datagen
from .errors import OtError, SolverStall
from .exact import solve_exact
from .measures import (
    CostMatrix,
    DiscreteMeasure,
    cost_matrix,
    make_measure,
)
from .robust import RobustParams, solve_robust
from .sinkhorn import solve_sinkhorn
from .unbalanced import solve_unbalanced_chi2

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOCONV = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# IO
# ---------------------------------------------------------------------------

def read_measure(path: str) -> DiscreteMeasure:
    """Load a point cloud from CSV (header x0..x{d-1}[,mass]) or JSON."""
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        return make_measure(doc["points"], doc.get("mass"))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise OtError(f"{path}: empty file")
        header = [h.strip() for h in header]
        has_mass = header and header[-1] == "mass"
        ncoord = len(header) - (1 if has_mass else 0)
        expected = [f"x{i}" for i in range(ncoord)]
        if header[:ncoord] != expected:
            raise OtError(
                f"{path}: header must be x0..x{ncoord-1}[,mass], got {header}"
            )
        pts, mass = [], []
        for row in reader:
            if not row:
                continue
            vals = [float(v) for v in row]
            pts.append(vals[:ncoord])
            if has_mass:
                mass.append(vals[ncoord])
    return make_measure(pts, mass if has_mass else None)


def write_measure_csv(mu: DiscreteMeasure, path_or_fh):
    close = False
    if isinstance(path_or_fh, str):
        fh = open(path_or_fh, "w", newline="")
        close = True
    else:
        fh = path_or_fh
    try:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(mu.dim)] + ["mass"])
        for p, m in zip(mu.points, mu.mass):
            w.writerow([repr(float(v)) for v in p] + [repr(float(m))])
    finally:
        if close:
            fh.close()


def _coupling_list(coupling) -> list:
    return [[int(i), int(j), float(v)] for i, j, v in coupling]


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2, default=_json_default)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    if getattr(args, "csv", None):
        _emit_csv_tables(doc, args.csv)


def _json_default(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, (np.bool_,)):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def _emit_csv_tables(doc: dict, prefix: str):
    """Flat CSV mirrors of the array fields, one file per array."""
    for key in ("weights_x", "weights_y", "trace", "rho_grid", "values"):
        arr = doc.get(key)
        if arr is None:
            continue
        with open(f"{prefix}.{key}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([key])
            for v in arr:
                w.writerow([repr(float(v))])
    if doc.get("coupling"):
        with open(f"{prefix}.coupling.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j", "mass"])
            for i, j, v in doc["coupling"]:
                w.writerow([i, j, repr(float(v))])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_ot(args) -> int:
    mu = read_measure(args.source)
    nu = read_measure(args.target)
    C = cost_matrix(mu, nu, metric=args.metric)
    if args.sinkhorn:
        sol = solve_sinkhorn(mu, nu, C, epsilon=args.eps)
    else:
        sol = solve_exact(mu, nu, C)
    doc = {
        "command": "ot",
        "params": {"metric": args.metric, "sinkhorn": bool(args.sinkhorn),
                   "eps": args.eps if args.sinkhorn else None},
        "value": sol.value,
        "weights_x": None,
        "weights_y": None,
        "convention": "scaled",
        "coupling": _coupling_list(sol.coupling),
        "trace": None,
        "converged": bool(sol.converged),
        "seed": None,
    }
    _emit(doc, args)
    return EXIT_OK if sol.converged else EXIT_NOCONV


def _cmd_robust(args) -> int:
    mu = read_measure(args.source)
    nu = read_measure(args.target)
    C = cost_matrix(mu, nu, metric=args.metric)
    params = RobustParams(rho1=args.rho1, rho2=args.rho2,
                          max_outer_iter=args.max_iter)
    sol = solve_robust(mu, nu, C, params)
    doc = {
        "command": "robust",
        "params": {"rho1": args.rho1, "rho2": args.rho2,
                   "metric": args.metric},
        "value": sol.value,
        "weights_x": sol.w_x.w.tolist(),
        "weights_y": sol.w_y.w.tolist(),
        "convention": "scaled",
        "coupling": _coupling_list(sol.coupling),
        "trace": list(sol.trace),
        "converged": bool(sol.converged),
        "gap": sol.gap,
        "seed": None,
    }
    _emit(doc, args)
    return EXIT_OK if sol.converged else EXIT_NOCONV


def _cmd_unbalanced(args) -> int:
    mu = read_measure(args.source)
    nu = read_measure(args.target)
    C = cost_matrix(mu, nu, metric=args.metric)
    sol = solve_unbalanced_chi2(mu, nu, C, tau=args.tau)
    P = sol.coupling
    coupling = [
        [int(i), int(j), float(P[i, j])]
        for i, j in zip(*np.nonzero(P > 1e-12))
    ]
    doc = {
        "command": "unbalanced",
        "params": {"tau": args.tau, "metric": args.metric},
        "value": sol.value,
        "weights_x": None,
        "weights_y": None,
        "convention": "scaled",
        "coupling": coupling,
        "trace": None,
        "converged": bool(sol.converged),
        "seed": None,
        "marginal_penalty_x": sol.marginal_penalty_x,
        "marginal_penalty_y": sol.marginal_penalty_y,
    }
    _emit(doc, args)
    return EXIT_OK if sol.converged else EXIT_NOCONV


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise OtError(f"bad grid spec {spec!r}, want start:stop:count[:log]")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    log = len(parts) == 4 and parts[3] == "log"
    if len(parts) == 4 and not log:
        raise OtError(f"bad grid suffix {parts[3]!r}, only 'log' is known")
    if log:
        if start <= 0:
            raise OtError("log grid needs start > 0")
        return np.logspace(np.log10(start), np.log10(stop), count)
    return np.linspace(start, stop, count)


def _cmd_sweep(args) -> int:
    mu = read_measure(args.source)
    nu = read_measure(args.target)
    C = cost_matrix(mu, nu, metric=args.metric)
    grid = _parse_grid(args.rho_grid)
    curve = analysis.sweep_rho(mu, nu, C, grid)
    elbow = None
    if args.elbow:
        e = analysis.detect_elbow(curve)
        elbow = {"rho": e.rho, "index": e.index, "flat": e.flat}
    doc = {
        "command": "sweep",
        "params": {"rho_grid": args.rho_grid, "metric": args.metric},
        "value": curve.values[-1],
        "rho_grid": curve.rho_grid.tolist(),
        "values": curve.values.tolist(),
        "elbow": elbow,
        "weights_x": None,
        "weights_y": None,
        "coupling": None,
        "trace": None,
        "converged": curve.converged,
        "seed": None,
    }
    _emit(doc, args)
    return EXIT_OK if curve.converged else EXIT_NOCONV


def _cmd_bound(args) -> int:
    inst = analysis.construct_theorem2_instance(args.k, args.gamma, args.n_atoms)
    rep = analysis.verify_theorem2(inst, args.rho)
    doc = {
        "command": "bound",
        "params": {"k": args.k, "gamma": args.gamma, "rho": args.rho,
                   "n_atoms": args.n_atoms},
        "value": rep["lhs"],
        "lhs": rep["lhs"],
        "rhs": rep["rhs"],
        "bound_factor": analysis.theorem2_bound(args.k, args.gamma, args.rho),
        "holds": rep["holds"],
        "weights_x": None,
        "weights_y": None,
        "coupling": None,
        "trace": None,
        "converged": True,
        "seed": None,
    }
    _emit(doc, args)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.what != "ring":
        raise OtError(f"unknown generator {args.what!r}")
    mu = datagen.gaussian_ring(
        n_modes=args.modes, radius=args.radius, sigma=args.sigma,
        n_samples=args.n, rotation_rad=args.rot, seed=args.seed,
    )
    labels = np.zeros(mu.n, dtype=bool)
    if args.outliers > 0:
        if args.outlier_mode == "far":
            sampler = datagen.FarCluster(
                center=[15.0 * args.radius, 15.0 * args.radius]
            )
        else:
            half = 10.0 * args.radius
            sampler = datagen.UniformBox([[-half, half], [-half, half]])
        mu, labels = datagen.inject_outliers(
            mu, args.outliers, sampler, seed=args.seed
        )
    if args.out:
        write_measure_csv(mu, args.out)
        doc_points = None
    else:
        doc_points = mu.points.tolist()
    doc = {
        "command": "gen",
        "params": {"modes": args.modes, "radius": args.radius,
                   "sigma": args.sigma, "n": args.n, "rot": args.rot,
                   "outliers": args.outliers,
                   "outlier_mode": args.outlier_mode},
        "value": None,
        "points": doc_points,
        "labels": labels.tolist(),
        "out": args.out,
        "weights_x": None,
        "weights_y": None,
        "coupling": None,
        "trace": None,
        "converged": True,
        "seed": args.seed,
    }
    # gen writes its payload to --out as CSV; the JSON doc goes to stdout
    text = json.dumps(doc, indent=2, default=_json_default)
    sys.stdout.write(text + "\n")
    return EXIT_OK


def _cmd_props(args) -> int:
    samples = [read_measure(p) for p in args.inputs]

    def cfn(A, B):
        return cost_matrix(A, B, metric=args.metric)

    rep = analysis.metric_properties_report(samples, cfn, args.rho)
    doc = {
        "command": "props",
        "params": {"rho": args.rho, "metric": args.metric,
                   "inputs": list(args.inputs)},
        "value": None,
        "nonnegativity_ok": rep.nonnegativity_ok,
        "identity_ok": rep.identity_ok,
        "identity_max_dev": rep.identity_max_dev,
        "symmetry_max_rel_dev": rep.symmetry_max_rel_dev,
        "triangle_violations": [list(v) for v in rep.triangle_violations],
        "pairwise_values": rep.values.tolist(),
        "weights_x": None,
        "weights_y": None,
        "coupling": None,
        "trace": None,
        "converged": True,
        "seed": None,
    }
    _emit(doc, args)
    return EXIT_OK


def _svg_escape(s):
    return str(s)


def _cmd_couplings_svg(args) -> int:
    with open(args.result) as fh:
        doc = json.load(fh)
    mu = read_measure(args.points[0])
    nu = read_measure(args.points[1])
    if mu.dim != 2 or nu.dim != 2:
        raise OtError("SVG rendering needs 2-D point clouds")
    coupling = doc.get("coupling") or []
    wx = doc.get("weights_x")
    wy = doc.get("weights_y")
    wx = np.ones(mu.n) if wx is None else np.asarray(wx, dtype=float)
    wy = np.ones(nu.n) if wy is None else np.asarray(wy, dtype=float)

    all_pts = np.concatenate([mu.points, nu.points])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    W = H = 640.0
    pad = 40.0

    def to_px(p):
        q = (np.asarray(p) - lo) / span
        return (pad + q[0] * (W - 2 * pad), H - pad - q[1] * (H - 2 * pad))

    max_pi = max((v for _, _, v in coupling), default=1.0) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" '
        f'height="{H:.0f}" viewBox="0 0 {W:.0f} {H:.0f}">',
        f'<rect width="{W:.0f}" height="{H:.0f}" fill="white"/>',
    ]
    for i, j, v in coupling:
        x1, y1 = to_px(mu.points[int(i)])
        x2, y2 = to_px(nu.points[int(j)])
        op = 0.15 + 0.85 * float(v) / max_pi
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="green" stroke-opacity="{op:.3f}" stroke-width="1"/>'
        )
    for p, w in zip(mu.points, wx):
        x, y = to_px(p)
        r = 1.0 + 3.0 * float(w)
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r:.2f}" fill="red" '
            f'fill-opacity="0.7"/>'
        )
    for p, w in zip(nu.points, wy):
        x, y = to_px(p)
        r = 1.0 + 3.0 * float(w)
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r:.2f}" fill="blue" '
            f'fill-opacity="0.7"/>'
        )
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="otrobust",
        description="Outlier-robust optimal transport toolbox",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_io(sp):
        sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
        sp.add_argument("--csv", default=None, metavar="PREFIX",
                        help="also emit flat CSV tables with this path prefix")

    sp = sub.add_parser("ot", help="exact (or entropic) OT value")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--metric", choices=["euclidean", "sqeuclidean"],
                    default="euclidean")
    sp.add_argument("--sinkhorn", action="store_true")
    sp.add_argument("--eps", type=float, default=1e-2)
    add_io(sp)
    sp.set_defaults(fn=_cmd_ot)

    sp = sub.add_parser("robust", help="chi-square-relaxed robust OT")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--rho1", type=float, required=True)
    sp.add_argument("--rho2", type=float, default=0.0)
    sp.add_argument("--max-iter", type=int, default=500)
    sp.add_argument("--metric", choices=["euclidean", "sqeuclidean"],
                    default="euclidean")
    add_io(sp)
    sp.set_defaults(fn=_cmd_robust)

    sp = sub.add_parser("unbalanced", help="chi-square-penalized unbalanced OT")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--metric", choices=["euclidean", "sqeuclidean"],
                    default="euclidean")
    add_io(sp)
    sp.set_defaults(fn=_cmd_unbalanced)

    sp = sub.add_parser("sweep", help="robust value along a rho grid")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--rho-grid", required=True,
                    metavar="start:stop:count[:log]")
    sp.add_argument("--elbow", action="store_true")
    sp.add_argument("--metric", choices=["euclidean", "sqeuclidean"],
                    default="euclidean")
    add_io(sp)
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("bound", help="contamination bound check")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--n-atoms", type=int, default=20)
    add_io(sp)
    sp.set_defaults(fn=_cmd_bound)

    sp = sub.add_parser("gen", help="synthetic data generation")
    sp.add_argument("what", choices=["ring"])
    sp.add_argument("--modes", type=int, default=4)
    sp.add_argument("--radius", type=float, default=datagen.RING_RADIUS_DEFAULT)
    sp.add_argument("--sigma", type=float, default=datagen.RING_SIGMA_DEFAULT)
    sp.add_argument("--n", type=int, default=datagen.RING_SAMPLES_DEFAULT)
    sp.add_argument("--rot", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--outliers", type=float, default=0.0)
    sp.add_argument("--outlier-mode", choices=["far", "uniform"],
                    default="far")
    sp.add_argument("--out", default=None, help="write the cloud as CSV here")
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("props", help="metric-property report")
    sp.add_argument("--inputs", nargs="+", required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--metric", choices=["euclidean", "sqeuclidean"],
                    default="euclidean")
    add_io(sp)
    sp.set_defaults(fn=_cmd_props)

    sp = sub.add_parser("couplings-svg", help="render a result as SVG")
    sp.add_argument("result")
    sp.add_argument("--points", nargs=2, required=True,
                    metavar=("A.csv", "B.csv"))
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_couplings_svg)

    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SolverStall as e:  # an OtError, but no result was emitted
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OtError, FileNotFoundError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # pragma: no cover
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
