import json

import numpy as np
import pytest

from otrobust import cli
from otrobust.cli import read_measure, run, write_measure_csv
from otrobust.errors import SolverStall
from otrobust.datagen import gaussian_ring
from otrobust.measures import make_measure


@pytest.fixture()
def clouds(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_measure_csv(gaussian_ring(2, n_samples=4, seed=1), str(a))
    write_measure_csv(
        gaussian_ring(2, n_samples=4, rotation_rad=0.5, seed=2), str(b)
    )
    return str(a), str(b)


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


SHARED_KEYS = {"command", "params", "value", "weights_x", "weights_y",
               "coupling", "trace", "converged", "seed"}


# argv ({a}, {b}: the clouds; {res}: a result document), the document's keys
# beyond SHARED_KEYS (None: no JSON document), its params keys, the exit
# code, and the files the command writes in the working directory
CONTRACT = {
    "ot": (["ot", "{a}", "{b}", "--csv", "t"], {"convention"},
           {"metric", "sinkhorn", "eps"}, 0, {"t.coupling.csv"}),
    "ot-sinkhorn": (["ot", "{a}", "{b}", "--sinkhorn", "--eps", "0.05",
                     "--csv", "t"], {"convention"},
                    {"metric", "sinkhorn", "eps"}, 0, {"t.coupling.csv"}),
    "robust": (["robust", "{a}", "{b}", "--rho1", "0.05", "--csv", "t"],
               {"convention", "gap"}, {"rho1", "rho2", "metric"}, 0,
               {"t.weights_x.csv", "t.weights_y.csv", "t.trace.csv",
                "t.coupling.csv"}),
    "unbalanced": (["unbalanced", "{a}", "{b}", "--tau", "10", "--csv", "t"],
                   {"convention", "marginal_penalty_x", "marginal_penalty_y"},
                   {"tau", "metric"}, 0, {"t.coupling.csv"}),
    "sweep-elbow": (["sweep", "{a}", "{b}", "--rho-grid", "0.001:0.2:5:log",
                     "--elbow", "--csv", "t"],
                    {"rho_grid", "values", "elbow"}, {"rho_grid", "metric"},
                    0, {"t.rho_grid.csv", "t.values.csv"}),
    "bound": (["bound", "--k", "5", "--gamma", "0.1", "--rho", "0.0555",
               "--n-atoms", "10", "--csv", "t"],
              {"lhs", "rhs", "bound_factor", "holds"},
              {"k", "gamma", "rho", "n_atoms"}, 0, set()),
    "gen": (["gen", "ring", "--n", "8", "--seed", "3", "--outliers", "0.25",
             "--out", "g.csv"], {"points", "labels", "out"},
            {"modes", "radius", "sigma", "n", "rot", "outliers",
             "outlier_mode"}, 0, {"g.csv"}),
    "props": (["props", "--inputs", "{a}", "{b}", "{a}", "--rho", "0.05",
               "--csv", "t"],
              {"nonnegativity_ok", "identity_ok", "identity_max_dev",
               "symmetry_max_rel_dev", "triangle_violations",
               "pairwise_values"}, {"rho", "metric", "inputs"}, 0, set()),
    "couplings-svg": (["couplings-svg", "{res}", "--points", "{a}", "{b}"],
                      None, None, 0, set()),
}


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_document_contract(case, clouds, tmp_path, monkeypatch, capsys):
    """Every subcommand's document keys, exit code and written files."""
    argv, extra, params, code, written = CONTRACT[case]
    a, b = clouds
    res = tmp_path / "res.json"
    res.write_text(json.dumps({"coupling": [[0, 1, 0.25]], "weights_x": None}))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = [s.format(a=a, b=b, res=res) for s in argv]
    assert run(argv) == code
    out = capsys.readouterr().out
    assert {p.name for p in work.iterdir()} == written
    if extra is None:
        assert out.startswith("<svg")
        return
    doc = json.loads(out)
    assert set(doc) == SHARED_KEYS | extra
    assert set(doc["params"]) == params
    assert doc["command"] == argv[0]


def test_csv_roundtrip(tmp_path):
    mu = gaussian_ring(3, n_samples=9, seed=4)
    p = tmp_path / "m.csv"
    write_measure_csv(mu, str(p))
    back = read_measure(str(p))
    np.testing.assert_allclose(back.points, mu.points)
    np.testing.assert_allclose(back.mass, mu.mass)


def test_json_input(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"points": [[0.0], [1.0]], "mass": None}))
    mu = read_measure(str(p))
    assert mu.n == 2


def test_bad_header_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    code = run(["ot", str(p), str(p)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_solver_stall_exit_code(clouds, monkeypatch, capsys):
    def stall(*args):
        raise SolverStall("transport LP failed")

    monkeypatch.setattr(cli, "solve_exact", stall)
    a, b = clouds
    assert run(["ot", a, b]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "transport LP failed" in captured.err


def test_masses_within_mass_tol_solve(tmp_path, capsys):
    """Masses that validation accepts, rounded so that one side sums to
    1 - 5e-10 and the other to 1 + 5e-10, still solve."""
    rng = np.random.default_rng(8)
    paths = []
    for name, n, total in (("a", 7, 1 - 5e-10), ("b", 9, 1 + 5e-10)):
        mass = rng.random(n) + 0.05
        mass *= total / mass.sum()
        p = tmp_path / f"{name}.csv"
        rows = [f"{x:.17g},{y:.17g},{w:.17g}"
                for (x, y), w in zip(rng.random((n, 2)), mass)]
        p.write_text("x0,x1,mass\n" + "\n".join(rows) + "\n")
        paths.append(str(p))
    code, doc = run_json(["ot", *paths], capsys)
    assert code == 0
    assert doc["value"] > 0


def test_tiny_masses_solve(tmp_path, capsys):
    """Atoms of mass 1e-10, at the LP's primal feasibility tolerance, do not
    make a feasible instance fail as infeasible."""
    rng = np.random.default_rng(9)
    a = np.full(60, (1 - 4e-10) / 56)
    a[rng.choice(60, 4, replace=False)] = 1e-10
    b = rng.random(60) + 0.05
    paths = []
    for name, mass in (("a", a), ("b", b / b.sum())):
        p = tmp_path / f"{name}.csv"
        rows = [f"{x:.17g},{y:.17g},{w:.17g}"
                for (x, y), w in zip(rng.random((60, 2)), mass)]
        p.write_text("x0,x1,mass\n" + "\n".join(rows) + "\n")
        paths.append(str(p))
    code, doc = run_json(["ot", *paths], capsys)
    assert code == 0
    assert doc["value"] > 0


def test_large_coordinates_solve(tmp_path, capsys):
    """sqeuclidean costs near 1e10 certify in ot and robust."""
    paths = []
    for name, seed, rot in (("a", 1, 0.0), ("b", 2, 0.5)):
        mu = gaussian_ring(2, n_samples=6, rotation_rad=rot, seed=seed)
        p = tmp_path / f"{name}.csv"
        write_measure_csv(make_measure(1e5 * mu.points), str(p))
        paths.append(str(p))
    code, doc = run_json(["ot", *paths, "--metric", "sqeuclidean"], capsys)
    assert code == 0
    assert doc["value"] > 1e8
    code, doc = run_json(
        ["robust", *paths, "--metric", "sqeuclidean", "--rho1", "0.05",
         "--max-iter", "20"],
        capsys,
    )
    assert code in (0, 3)
    assert doc["value"] > 0


def test_tiny_box_robust_weights_in_ball(tmp_path, capsys):
    """Potentials of order 1e-6 still give weights inside the ball."""
    rng = np.random.default_rng(3)
    paths = []
    for name in ("a", "b"):
        p = tmp_path / f"{name}.csv"
        write_measure_csv(make_measure(1e-3 * rng.random((30, 2))), str(p))
        paths.append(str(p))
    code, doc = run_json(
        ["robust", *paths, "--rho1", "0.5", "--max-iter", "20"], capsys
    )
    assert code in (0, 3)
    w = np.asarray(doc["weights_x"])
    assert w.min() >= 0.0
    assert w.sum() == pytest.approx(30, abs=1e-8)
    assert np.linalg.norm(w - 1.0) <= np.sqrt(2 * 0.5 * 30) + 1e-8


def test_ot_same_cloud_zero(clouds, capsys):
    a, _ = clouds
    code, doc = run_json(["ot", a, a], capsys)
    assert code == 0
    assert doc["command"] == "ot"
    assert doc["value"] == pytest.approx(0.0, abs=1e-12)


def test_robust_rho_zero_matches_ot(clouds, capsys):
    a, b = clouds
    _, ot_doc = run_json(["ot", a, b], capsys)
    code, rob_doc = run_json(["robust", a, b, "--rho1", "0"], capsys)
    assert code == 0
    assert rob_doc["value"] == pytest.approx(ot_doc["value"], abs=1e-9)
    assert rob_doc["convention"] == "scaled"


def test_robust_rejects_rule_flag(clouds, capsys):
    a, b = clouds
    code = run(["robust", a, b, "--rho1", "0.05", "--rule", "averaged"])
    assert code == cli.EXIT_INPUT
    assert "unrecognized arguments: --rule" in capsys.readouterr().err


def test_robust_emits_weights_and_trace(clouds, capsys):
    a, b = clouds
    code, doc = run_json(["robust", a, b, "--rho1", "0.05"], capsys)
    assert code in (0, 3)
    assert len(doc["weights_x"]) == 4
    assert len(doc["trace"]) >= 1
    assert "rule" not in doc["params"]
    assert all(len(t) == 3 for t in doc["coupling"])


@pytest.mark.parametrize("n, rho2", [(4, 0.0), (4, 0.05), (30, 0.0),
                                     (30, 0.02)])
def test_robust_reports_certified_gap(tmp_path, capsys, n, rho2):
    """``gap`` is the certified upper minus lower bound: within the default
    tolerance whenever ``converged`` is set (n=30 starts from the
    assignment's basis)."""
    paths = []
    for name, seed in (("a", 5), ("b", 6)):
        p = tmp_path / f"{name}.csv"
        write_measure_csv(gaussian_ring(3, n_samples=n, seed=seed), str(p))
        paths.append(str(p))
    code, doc = run_json(["robust", *paths, "--rho1", "0.05",
                          "--rho2", str(rho2)], capsys)
    assert code == (0 if doc["converged"] else 3)
    assert doc["gap"] >= 0.0
    if doc["converged"]:
        assert doc["gap"] <= 1e-7 * max(1.0, doc["value"])


def test_sinkhorn_flag(clouds, capsys):
    a, b = clouds
    code, doc = run_json(["ot", a, b, "--sinkhorn", "--eps", "0.05"], capsys)
    assert code == 0
    assert doc["params"]["sinkhorn"] is True


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_sinkhorn_rejects_non_finite_eps(clouds, capsys, eps):
    a, b = clouds
    assert run(["ot", a, b, "--sinkhorn", "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "epsilon" in captured.err


def test_unbalanced_command(clouds, capsys):
    a, b = clouds
    code, doc = run_json(["unbalanced", a, b, "--tau", "10"], capsys)
    assert code == 0
    assert doc["value"] > 0


def test_sweep_with_elbow(clouds, capsys):
    a, b = clouds
    code, doc = run_json(
        ["sweep", a, b, "--rho-grid", "0.001:0.2:5:log", "--elbow"], capsys
    )
    assert code == 0
    assert len(doc["values"]) == 5
    assert np.all(np.diff(doc["values"]) <= 1e-8)
    assert doc["elbow"] is not None


def test_sweep_without_certificate_exits_3(clouds, monkeypatch, capsys):
    sweep = cli.analysis.sweep_rho

    def capped(*args, **kwargs):
        return sweep(*args, max_outer_iter=1, **kwargs)

    monkeypatch.setattr(cli.analysis, "sweep_rho", capped)
    a, b = clouds
    code, doc = run_json(["sweep", a, b, "--rho-grid", "0.05:0.2:3"], capsys)
    assert code == 3
    assert doc["converged"] is False


def test_bad_grid_spec(clouds, capsys):
    a, b = clouds
    assert run(["sweep", a, b, "--rho-grid", "nonsense"]) == 2


def test_bound_command(capsys):
    code, doc = run_json(
        ["bound", "--k", "5", "--gamma", "0.1", "--rho", "0.0555",
         "--n-atoms", "10"], capsys
    )
    assert code == 0
    assert doc["holds"] is True


def test_gen_writes_csv(tmp_path, capsys):
    out = tmp_path / "ring.csv"
    code = run([
        "gen", "ring", "--modes", "4", "--n", "40", "--seed", "3",
        "--outliers", "0.1", "--out", str(out),
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    mu = read_measure(str(out))
    assert mu.n == 40
    assert sum(doc["labels"]) == 4


def test_gen_deterministic(tmp_path):
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for p in (p1, p2):
        run(["gen", "ring", "--n", "20", "--seed", "9", "--out", str(p)])
    assert p1.read_text() == p2.read_text()


def test_props_command(clouds, tmp_path, capsys):
    a, b = clouds
    c = tmp_path / "c.csv"
    write_measure_csv(gaussian_ring(2, n_samples=4, seed=11), str(c))
    code, doc = run_json(
        ["props", "--inputs", a, b, str(c), "--rho", "0.05"], capsys
    )
    assert code == 0
    assert doc["nonnegativity_ok"] is True
    assert doc["identity_ok"] is True


def test_couplings_svg(clouds, tmp_path, capsys):
    a, b = clouds
    res = tmp_path / "r.json"
    code = run(["robust", a, b, "--rho1", "0.05", "--out", str(res)])
    assert code in (0, 3)
    svg = tmp_path / "fig.svg"
    code = run(["couplings-svg", str(res), "--points", a, b,
                "--out", str(svg)])
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "green" in text and "red" in text and "blue" in text


def test_out_file_and_csv_tables(clouds, tmp_path, capsys):
    a, b = clouds
    res = tmp_path / "res.json"
    prefix = str(tmp_path / "tbl")
    code = run(["robust", a, b, "--rho1", "0.03", "--out", str(res),
                "--csv", prefix])
    assert code in (0, 3)
    doc = json.loads(res.read_text())
    assert "value" in doc
    assert (tmp_path / "tbl.weights_x.csv").exists()
    assert (tmp_path / "tbl.coupling.csv").exists()
