"""Command-line interface: CSV/JSON point-cloud IO, solver dispatch, SVG plots.

stdout carries exactly one JSON result document; diagnostics go to stderr.
Exit codes: 0 success, 2 input/validation error, 3 solver non-convergence
(result still emitted), 4 internal error or solver failure (no result).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, datagen
from .errors import OtError, SolverStall
from .exact import solve_exact
from .measures import DiscreteMeasure, cost_matrix, make_measure
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


def write_measure_csv(mu: DiscreteMeasure, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(mu.dim)] + ["mass"])
        for p, m in zip(mu.points, mu.mass):
            w.writerow([repr(float(v)) for v in p] + [repr(float(m))])


def _load_pair(args):
    """The ``source`` and ``target`` measures and their cost matrix."""
    mu, nu = read_measure(args.source), read_measure(args.target)
    return mu, nu, cost_matrix(mu, nu, metric=args.metric)


def _coupling_list(coupling) -> list:
    return [[int(i), int(j), float(v)] for i, j, v in coupling]


def _document(command: str, params: dict, **fields) -> dict:
    """A result document: the keys every command carries, then its own."""
    doc = {"command": command, "params": params, "value": None,
           "weights_x": None, "weights_y": None, "coupling": None,
           "trace": None, "converged": True, "seed": None}
    doc.update(fields)
    return doc


def _emit(doc: dict, args=None) -> int:
    """Write ``doc`` to ``--out`` (else stdout) and its arrays as ``--csv``
    tables; returns the exit code its ``converged`` flag gives."""
    text = json.dumps(doc, indent=2, default=_json_default) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if getattr(args, "csv", None):
        _emit_csv_tables(doc, args.csv)
    return EXIT_OK if doc["converged"] else EXIT_NOCONV


def _json_default(o):
    if isinstance(o, (np.ndarray, np.generic)):
        return o.tolist()
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
    mu, nu, C = _load_pair(args)
    if args.sinkhorn:
        sol = solve_sinkhorn(mu, nu, C, epsilon=args.eps)
    else:
        sol = solve_exact(mu, nu, C)
    return _emit(_document(
        "ot", {"metric": args.metric, "sinkhorn": bool(args.sinkhorn),
               "eps": args.eps if args.sinkhorn else None},
        value=sol.value, coupling=_coupling_list(sol.coupling),
        converged=bool(sol.converged), convention="scaled",
    ), args)


def _cmd_robust(args) -> int:
    mu, nu, C = _load_pair(args)
    params = RobustParams(rho1=args.rho1, rho2=args.rho2,
                          max_outer_iter=args.max_iter)
    sol = solve_robust(mu, nu, C, params)
    return _emit(_document(
        "robust", {"rho1": args.rho1, "rho2": args.rho2,
                   "metric": args.metric},
        value=sol.value, weights_x=sol.w_x.w.tolist(),
        weights_y=sol.w_y.w.tolist(), coupling=_coupling_list(sol.coupling),
        trace=list(sol.trace), converged=bool(sol.converged),
        convention="scaled", gap=sol.gap,
    ), args)


def _cmd_unbalanced(args) -> int:
    mu, nu, C = _load_pair(args)
    sol = solve_unbalanced_chi2(mu, nu, C, tau=args.tau)
    support = np.nonzero(sol.coupling > 1e-12)
    return _emit(_document(
        "unbalanced", {"tau": args.tau, "metric": args.metric},
        value=sol.value,
        coupling=_coupling_list(zip(*support, sol.coupling[support])),
        converged=bool(sol.converged), convention="scaled",
        marginal_penalty_x=sol.marginal_penalty_x,
        marginal_penalty_y=sol.marginal_penalty_y,
    ), args)


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
    mu, nu, C = _load_pair(args)
    curve = analysis.sweep_rho(mu, nu, C, _parse_grid(args.rho_grid))
    elbow = asdict(analysis.detect_elbow(curve)) if args.elbow else None
    return _emit(_document(
        "sweep", {"rho_grid": args.rho_grid, "metric": args.metric},
        value=curve.values[-1], converged=curve.converged,
        rho_grid=curve.rho_grid.tolist(), values=curve.values.tolist(),
        elbow=elbow,
    ), args)


def _cmd_bound(args) -> int:
    inst = analysis.construct_theorem2_instance(args.k, args.gamma, args.n_atoms)
    rep = analysis.verify_theorem2(inst, args.rho)
    return _emit(_document(
        "bound", {"k": args.k, "gamma": args.gamma, "rho": args.rho,
                  "n_atoms": args.n_atoms},
        value=rep["lhs"], lhs=rep["lhs"], rhs=rep["rhs"],
        bound_factor=analysis.theorem2_bound(args.k, args.gamma, args.rho),
        holds=rep["holds"],
    ), args)


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
    # gen writes its cloud to --out as CSV; the document goes to stdout
    return _emit(_document(
        "gen", {"modes": args.modes, "radius": args.radius,
                "sigma": args.sigma, "n": args.n, "rot": args.rot,
                "outliers": args.outliers, "outlier_mode": args.outlier_mode},
        points=None if args.out else mu.points.tolist(),
        labels=labels.tolist(), out=args.out, seed=args.seed,
    ))


def _cmd_props(args) -> int:
    rep = analysis.metric_properties_report(
        [read_measure(p) for p in args.inputs],
        lambda A, B: cost_matrix(A, B, metric=args.metric), args.rho,
    )
    return _emit(_document(
        "props", {"rho": args.rho, "metric": args.metric,
                  "inputs": list(args.inputs)},
        nonnegativity_ok=rep.nonnegativity_ok, identity_ok=rep.identity_ok,
        identity_max_dev=rep.identity_max_dev,
        symmetry_max_rel_dev=rep.symmetry_max_rel_dev,
        triangle_violations=[list(v) for v in rep.triangle_violations],
        pairwise_values=rep.values.tolist(),
    ), args)


def _cmd_couplings_svg(args) -> int:
    with open(args.result) as fh:
        doc = json.load(fh)
    mu = read_measure(args.points[0])
    nu = read_measure(args.points[1])
    if mu.dim != 2 or nu.dim != 2:
        raise OtError("SVG rendering needs 2-D point clouds")
    coupling = doc.get("coupling") or []

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
    for m, key, color in ((mu, "weights_x", "red"), (nu, "weights_y", "blue")):
        for p, w in zip(m.points, doc.get(key) or [1.0] * m.n):
            x, y = to_px(p)
            r = 1.0 + 3.0 * float(w)
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r:.2f}" '
                f'fill="{color}" fill-opacity="0.7"/>'
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

# the arguments several commands share; ``_build_parser`` adds them in order
_SHARED_ARGS = {
    "source": {},
    "target": {},
    "--metric": {"choices": ["euclidean", "sqeuclidean"],
                 "default": "euclidean"},
    "--out": {"default": None, "help": "write JSON here instead of stdout"},
    "--csv": {"default": None, "metavar": "PREFIX",
              "help": "also emit flat CSV tables with this path prefix"},
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="otrobust",
        description="Outlier-robust optimal transport toolbox",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, fn, help, shared=tuple(_SHARED_ARGS)):
        sp = sub.add_parser(name, help=help)
        for arg in shared:
            sp.add_argument(arg, **_SHARED_ARGS[arg])
        sp.set_defaults(fn=fn)
        return sp

    sp = command("ot", _cmd_ot, "exact (or entropic) OT value")
    sp.add_argument("--sinkhorn", action="store_true")
    sp.add_argument("--eps", type=float, default=1e-2)

    sp = command("robust", _cmd_robust, "chi-square-relaxed robust OT")
    sp.add_argument("--rho1", type=float, required=True)
    sp.add_argument("--rho2", type=float, default=0.0)
    sp.add_argument("--max-iter", type=int, default=500)

    sp = command("unbalanced", _cmd_unbalanced,
                 "chi-square-penalized unbalanced OT")
    sp.add_argument("--tau", type=float, required=True)

    sp = command("sweep", _cmd_sweep, "robust value along a rho grid")
    sp.add_argument("--rho-grid", required=True,
                    metavar="start:stop:count[:log]")
    sp.add_argument("--elbow", action="store_true")

    sp = command("bound", _cmd_bound, "contamination bound check",
                 ("--out", "--csv"))
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--n-atoms", type=int, default=20)

    sp = command("gen", _cmd_gen, "synthetic data generation", ())
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

    sp = command("props", _cmd_props, "metric-property report",
                 ("--metric", "--out", "--csv"))
    sp.add_argument("--inputs", nargs="+", required=True)
    sp.add_argument("--rho", type=float, required=True)

    sp = command("couplings-svg", _cmd_couplings_svg, "render a result as SVG",
                 ())
    sp.add_argument("result")
    sp.add_argument("--points", nargs=2, required=True,
                    metavar=("A.csv", "B.csv"))
    sp.add_argument("--out", default=None)

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
