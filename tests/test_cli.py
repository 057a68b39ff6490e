import argparse
import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

import robust_scatter
from robust_scatter import EmptyData, FitOptions, SimConfig, fit_sppca, gen_mixture
from robust_scatter.cli import build_parser, load_csv, main

ROOT = Path(__file__).resolve().parents[1]
SCHEMAS = ROOT / "docs" / "schemas"


def schema(name):
    with open(SCHEMAS / f"{name}.schema.json") as fh:
        return json.load(fh)


def write_csv(path, rows, header):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_gaussian_csv(path, n=250, p=4, seed=0, outliers=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) @ np.diag([2.0, 1.5, 1.0, 0.5][:p])
    if outliers:
        X[:outliers] += 25.0
    write_csv(path, X.tolist(), [f"v{j}" for j in range(p)])
    return X


# ------------------------------------------------------------------ loading


def test_load_csv_standardize_hand_example(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [[1.0, 3.0], [3.0, 5.0]], ["a", "b"])
    data = load_csv(path, standardize=True)
    expect = np.array([[-np.sqrt(0.5), -np.sqrt(0.5)], [np.sqrt(0.5), np.sqrt(0.5)]])
    assert np.allclose(data.X, expect, atol=1e-12)
    assert data.column_names == ["a", "b"]


def test_load_csv_passthrough_bit_exact(tmp_path):
    path = tmp_path / "t.csv"
    vals = [[0.1, 2.5e-7], [1 / 3, -4.0]]
    write_csv(path, vals, ["x", "y"])
    data = load_csv(path, standardize=False)
    assert np.array_equal(data.X, np.array(vals))


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"")
    with pytest.raises(EmptyData, match="file is empty"):
        load_csv(path)


def test_load_csv_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [], ["a", "b"])
    with pytest.raises(EmptyData):
        load_csv(path)
    # a body of blank lines has no data either; neither case may warn
    with open(path, "a", newline="") as fh:
        fh.write("\r\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyData):
            load_csv(path)


def reference_load(path):
    """Header and body of a CSV parsed cell by cell: blank rows skipped,
    every cell through ``float``."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array([[float(c) for c in row] for row in rows if row])


def random_body(seed=7, n=200, p=6):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-300, 150, (n, p))
    fmts = ["{!r}", "{:.6g}", "{:.17e}", "{:+.3f}", "{:.0f}"]
    return "".join(",".join(fmts[(i + j) % 5].format(v) for j, v in enumerate(row)) + "\n"
                   for i, row in enumerate(V.tolist()))


@pytest.mark.parametrize("text", [
    '"a","b c"\n"1.5","-2e-3"\n3,"4"\n',
    "a,b\r\n0.1,2\r\n3,1e-300\r\n",
    "a,b\n1,2\n\n\n3,4\n\n0.5, -7 \n",
    "a,b\n1_000,2\n3,4\n",
    "v0,v1,v2,v3,v4,v5\n" + random_body(),
], ids=["quoted", "crlf", "blank_lines", "underscore", "random"])
def test_load_csv_matches_per_cell_float(tmp_path, text):
    # 1_000 is rejected by np.loadtxt and accepted by float
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    header, X = reference_load(path)
    data = load_csv(path, standardize=False)
    assert data.column_names == header
    assert data.X.shape == X.shape and data.X.tobytes() == X.tobytes()


def test_load_csv_non_numeric_reports_position(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [[1.0, 2.0], ["oops", 3.0]], ["a", "b"])
    with pytest.raises(ValueError, match=r"row 3.*'a'"):
        load_csv(path)


@pytest.mark.parametrize("rows, row, cells", [
    ([[1.0, 2.0], [3.0], [4.0, 5.0]], 3, 1),  # one short row
    ([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]], 2, 3),  # every row one cell too long
], ids=["short", "long"])
def test_cli_ragged_row_is_structured_json(tmp_path, capsys, rows, row, cells):
    path = tmp_path / "t.csv"
    write_csv(path, rows, ["a", "b"])
    rc = main(["tune", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"] == f"{path}: row {row} has {cells} cells, the header has 2"


@pytest.mark.parametrize("command", ["tune", "fit"])
def test_cli_one_row_csv_is_one_json_error(tmp_path, capsys, command):
    # rejected before the standard deviation, whose n - 1 = 0 would warn
    path = tmp_path / "t.csv"
    write_csv(path, [[1.0, 2.0, 3.0]], ["a", "b", "c"])
    for standardize in (True, False):
        with pytest.raises(ValueError, match=r"need n >= 2 data rows, got 1$"):
            load_csv(path, standardize=standardize)
    rc = main([command, str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValueError",
                                "message": f"{path}: need n >= 2 data rows, got 1"}


def test_load_csv_constant_column(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]], ["a", "b"])
    with pytest.raises(ValueError, match="constant"):
        load_csv(path, standardize=True)
    data = load_csv(path, standardize=False)
    assert data.X.shape == (3, 2)


# --------------------------------------------------------------------- tune


def test_cmd_tune_outputs(tmp_path):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=200, p=4, seed=1)
    out = tmp_path / "out"
    # perfbench's tune_fit workload passes --threads 1, so the flag stays parsed
    rc = main(["tune", str(src), "--out-dir", str(out), "--threads", "1"])
    assert rc == 0
    curve = json.loads((out / "ar_curve.json").read_text())
    tuning = json.loads((out / "tuning.json").read_text())
    jsonschema.validate(curve, schema("ar_curve"))
    jsonschema.validate(tuning, schema("tuning"))
    assert len(curve["a"]) == 50
    assert all(0.0 <= v <= 1.0 for v in curve["ar_raw"])
    assert curve["ar_raw"][-1] == 1.0
    assert tuning["a_star"] in curve["a"]


def test_cmd_tune_default_grid_size(tmp_path):
    # the grid has 50 scales whatever n
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=400, p=4, seed=3)
    out = tmp_path / "out"
    assert main(["tune", str(src), "--out-dir", str(out)]) == 0
    curve = json.loads((out / "ar_curve.json").read_text())
    jsonschema.validate(curve, schema("ar_curve"))
    assert len(curve["a"]) == 50


def test_cmd_tune_has_no_grid_size_option(tmp_path, capsys):
    # the grid is a constant of the method, so its size is not an option
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=100, p=3, seed=3)
    with pytest.raises(SystemExit) as exc:
        main(["tune", str(src), "--grid-size", "20", "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid-size 20" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_tune_deterministic(tmp_path):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=150, p=3, seed=2)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["tune", str(src), "--out-dir", str(out)]) == 0
        outs.append((out / "ar_curve.json").read_bytes() + (out / "tuning.json").read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------- fit


def test_cmd_fit_outputs(tmp_path):
    src = tmp_path / "data.csv"
    X = write_gaussian_csv(src, n=250, p=4, seed=3, outliers=12)
    out = tmp_path / "out"
    rc = main(["fit", str(src), "--a", "6.0", "--k", "2", "--out-dir", str(out)])
    assert rc == 0
    model = json.loads((out / "model.json").read_text())
    jsonschema.validate(model, schema("model"))
    # the fit's own record: what fit_sppca reports at the same scale
    fit = fit_sppca(load_csv(src), 6.0)
    assert [model[key] for key in ("converged", "iterations", "residual", "active_ratio")] \
        == [fit.converged, fit.iterations, fit.residual, fit.active_ratio]
    assert len(model["eigenvalues"]) == 2
    assert model["eigenvalues"] == sorted(model["eigenvalues"], reverse=True)
    assert len(model["eigenvectors"]) == 4 and len(model["eigenvectors"][0]) == 2

    with open(out / "weights.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 250
    zero_rows = {int(r["index"]) for r in rows if float(r["weight"]) == 0.0}
    inactive = {int(r["index"]) for r in rows if r["active"] == "0"}
    assert zero_rows == inactive
    assert zero_rows  # the planted outliers are flagged

    with open(out / "scores.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        scores = np.array([[float(v) for v in row] for row in reader])
    assert header == ["PC1", "PC2"]
    assert scores.shape == (250, 2)

    # --alpha is the trimming level: inside the ball e^{-d} > alpha
    assert main(["fit", str(src), "--a", "6.0", "--k", "2", "--alpha", "0.2",
                 "--out-dir", str(out / "alpha")]) == 0
    assert json.loads((out / "alpha" / "model.json").read_text())["alpha"] == 0.2
    with open(out / "alpha" / "weights.csv") as fh:
        kept = [float(r["weight"]) for r in csv.DictReader(fh) if r["active"] == "1"]
    assert kept and min(kept) > 0.2
    # at the default alpha = 0.05 some active rows weigh less: the flag is not ignored
    assert min(float(r["weight"]) for r in rows if r["active"] == "1") <= 0.2


def test_cmd_fit_scores_align_with_model(tmp_path):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=400, p=4, seed=4)
    out = tmp_path / "out"
    assert main(["fit", str(src), "--a", "4.0", "--k", "4", "--out-dir", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    with open(out / "scores.csv") as fh:
        reader = csv.reader(fh)
        next(reader)
        scores = np.array([[float(v) for v in row] for row in reader])
    # the score covariance should be near-diagonal with descending diagonal
    S = np.cov(scores.T)
    off = S - np.diag(np.diag(S))
    assert np.max(np.abs(off)) <= 0.2 * np.max(np.diag(S))
    assert np.all(np.diff(np.diag(S)) <= 0.05 * np.max(np.diag(S)))
    assert model["alpha"] == 0.05


def test_cmd_fit_uses_prior_tuning(tmp_path):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=150, p=3, seed=5)
    out = tmp_path / "out"
    assert main(["tune", str(src), "--out-dir", str(out)]) == 0
    rc = main(["fit", str(src), "--tuning", str(out / "tuning.json"), "--k", "1",
               "--out-dir", str(out)])
    assert rc == 0
    model = json.loads((out / "model.json").read_text())
    tuning = json.loads((out / "tuning.json").read_text())
    assert model["a"] == tuning["a_star"]


def test_cmd_fit_requires_scale(tmp_path, capsys):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=100, p=3, seed=6)
    rc = main(["fit", str(src), "--k", "1", "--out-dir", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "a" in err["message"]


# ----------------------------------------------------------------- simulate


@pytest.mark.parametrize("scale, args, ref_args, factor", [
    (1.0, ["fit", "--a", "1e300"], ["fit", "--a", "1e100"], 1e200),
    (1e78, ["fit", "--a", "1", "--no-standardize"], None, 1e156),
    (1e78, ["tune", "--no-standardize"], None, None),
], ids=["fit-huge-a", "fit-huge-data", "tune-huge-data"])
def test_cmd_fits_huge_starts(tmp_path, scale, args, ref_args, factor):
    # the stopping rule measures each step in the metric of its start, so a
    # start far above sqrt(float max) fits: its model is the reference model
    # with the eigenvalues times ``factor``
    bound = 10 * FitOptions().tol  # the models stop within one step of tol
    X = np.random.default_rng(0).standard_normal((200, 3))

    def run(name, Y, argv):
        src, out = tmp_path / f"{name}.csv", tmp_path / name
        write_csv(src, Y.tolist(), ["v0", "v1", "v2"])
        assert main([argv[0], str(src), *argv[1:], "--out-dir", str(out)]) == 0
        return {f.name: json.loads(f.read_text()) for f in out.glob("*.json")}

    got, ref = run("huge", scale * X, args), run("ref", X, ref_args or args)
    if factor is None:  # the grid and the active ratios have no units
        assert got == ref
        return
    model, ref = got["model.json"], ref["model.json"]
    assert model["converged"] and model["residual"] <= FitOptions().tol
    assert np.isfinite(np.concatenate([model["mu"], model["eigenvalues"]])).all()
    lam, ref_lam = np.array(model["eigenvalues"]) / factor, np.array(ref["eigenvalues"])
    assert np.abs(lam - ref_lam).max() <= bound * ref_lam.max()
    assert np.abs(np.array(model["mu"]) / scale - ref["mu"]).max() <= bound


@pytest.mark.parametrize("a", ["inf", "nan", "-inf"])
def test_cmd_fit_rejects_non_finite_scale(tmp_path, capsys, a):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=100, p=3, seed=6)
    rc = main(["fit", str(src), f"--a={a}", "--out-dir", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "a must be a positive finite number"}
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("tuning", [{}, {"a_star": None}, {"a_star": "4.0"},
                                    {"a_star": True}, [4.0]],
                         ids=["missing", "null", "string", "bool", "not-an-object"])
def test_cmd_fit_names_a_bad_a_star(tmp_path, capsys, tuning):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=100, p=3, seed=6)
    path = tmp_path / "tuning.json"
    path.write_text(json.dumps(tuning))
    rc = main(["fit", str(src), "--tuning", str(path), "--out-dir", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"{path}: a_star must be a number"}


def test_cmd_simulate_outputs_and_schema(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--n", "80", "--p", "5", "--k", "2", "--nu", "10",
               "--pi", "0.0", "--c", "4", "--replicates", "2", "--seed", "9",
               "--methods", "sppca_astar,sppca_opt", "--out-dir", str(out)])
    assert rc == 0
    table = json.loads((out / "experiment.json").read_text())
    jsonschema.validate(table, schema("experiment"))
    assert len(table["results"]) == 2
    with open(out / "experiment.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    # CSV and JSON carry identical numbers
    for row, jrow in zip(rows, table["results"]):
        assert float(row["mean_rho"]) == jrow["mean_rho"]
        assert int(row["n_fail"]) == jrow["n_fail"]


def test_cmd_simulate_usage_error_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--pi", "1.5", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    (["--n", ","], "invalid simulation grid: empty parameter list"),
    (["--methods", "foo"], "methods must be a subset of "),
    (["--k", "0"], "invalid simulation grid: need k >= 1"),
    (["--k", "-1"], "invalid simulation grid: need k >= 1"),
    (["--n", "0"], "invalid simulation grid: need n >= 2"),
    (["--n", "-3"], "invalid simulation grid: need n >= 2"),
    (["--n", "1"], "invalid simulation grid: need n >= 2"),
    (["--nu", "inf"], "invalid simulation grid: need a finite nu > 2"),
    (["--pi", "0.15", "--c", "nan"], "invalid simulation grid: need a finite c >= 0"),
    (["--pi", "0", "--c", "nan"], "invalid simulation grid: need a finite c >= 0"),
    (["--seed", "-1"], "invalid simulation grid: need an integer seed >= 0"),
    (["--replicates", "0"], "--replicates must be at least 1, got 0"),
    (["--replicates", "-2"], "--replicates must be at least 1, got -2"),
    (["--n", "60,60"], "--n repeats the value 60"),
    (["--p", "5,6,5"], "--p repeats the value 5"),
    (["--k", "1,1"], "--k repeats the value 1"),
    (["--nu", "10,10.0"], "--nu repeats the value 10.0"),
    (["--pi", "0.1,0.10"], "--pi repeats the value 0.1"),
    (["--c", "4,4"], "--c repeats the value 4.0"),
    (["--methods", "tme,tme,sppca_astar"], "--methods repeats the value tme"),
], ids=["empty-n", "unknown-method", "k-zero", "k-negative", "n-zero", "n-negative", "n-one",
        "nu-inf", "c-nan", "c-nan-clean", "seed-negative", "replicates-zero",
        "replicates-negative", "n-repeated", "p-repeated", "k-repeated", "nu-repeated",
        "pi-repeated", "c-repeated", "method-repeated"])
def test_cmd_simulate_bad_lists_exit_2(tmp_path, capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *args, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: robust-scatter simulate")  # the subcommand's usage
    assert message in err


def test_cmd_simulate_determinism_across_workers(tmp_path):
    # two calls in one process write identical bytes
    args = ["simulate", "--n", "60", "--p", "4", "--k", "2", "--nu", "10",
            "--pi", "0.1", "--c", "3", "--replicates", "2", "--seed", "3"]
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(args + ["--out-dir", str(out)]) == 0
        blobs.append((out / "experiment.csv").read_bytes()
                     + (out / "experiment.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_error_is_structured_json(tmp_path, capsys):
    rc = main(["tune", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_tune_full_metric_below_p_rows_names_the_cause(tmp_path, capsys):
    # at n < p every full-metric fit of the grid fails at its first step
    data, _ = gen_mixture(SimConfig(n=50, p=100, k=5, nu=10, pi=0.15, c=4, seed=1))
    path = tmp_path / "wide.csv"
    write_csv(path, data.X.tolist(), [f"v{j}" for j in range(100)])
    rc = main(["tune", str(path), "--full-mahalanobis", "--out-dir", str(tmp_path)])
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "RobustScatterError",
        "message": "fewer than 4 usable fits on the tuning grid; the largest failed fit, at "
                   "a = 300, ended in SingularScatter: fewer than 100 observations active "
                   "(iteration 1), 50 of 50 active",
    }
    assert not (tmp_path / "tuning.json").exists()


def test_tune_with_one_far_row(tmp_path):
    # one row far beyond every scale of the grid keeps AR at 99/100: tune
    # still selects a scale
    X = np.vstack([np.random.default_rng(0).standard_normal((99, 3)), np.full((1, 3), 1e6)])
    src = tmp_path / "far.csv"
    write_csv(src, X.tolist(), ["x1", "x2", "x3"])
    out = tmp_path / "out"
    assert main(["tune", str(src), "--out-dir", str(out)]) == 0
    tuning = json.loads((out / "tuning.json").read_text())
    assert tuning["ar_at_a_star"] == 0.99


def test_cli_out_dir_failure_is_structured_json(tmp_path, capsys):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=50, p=3, seed=11)
    blocker = tmp_path / "somefile"
    blocker.write_text("")
    rc = main(["fit", str(src), "--a", "50", "--k", "2", "--out-dir", str(blocker / "sub")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotADirectoryError"


# scipy subpackages that no command loads
OPTIONAL_SCIPY = {"scipy.stats", "scipy.integrate", "scipy.interpolate", "scipy.special",
                  "scipy.optimize", "scipy.sparse"}


def run_fresh(*args):
    """Run ``python -X importtime *args`` in a fresh interpreter that imports
    the same package as this process, installed or not; returns the
    completed process and the set of modules it imported."""
    root = str(Path(robust_scatter.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env)
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    return proc, loaded


def scipy_modules(loaded):
    return {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_import_loads_no_optional_scipy():
    # a subprocess, because the test modules import scipy themselves
    proc, loaded = run_fresh("-c", "import robust_scatter, robust_scatter.cli")
    assert proc.returncode == 0, proc.stderr
    assert "numpy" in loaded
    assert not scipy_modules(loaded)


def test_cli_entry_point_subprocess(tmp_path):
    # default-metric tune and fit, and the simulator, run on numpy alone; a
    # full-metric fit imports scipy.linalg, and nothing more, on first use
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=100, p=3, seed=8)
    out = tmp_path / "out"
    proc, loaded = run_fresh("-m", "robust_scatter.cli", "tune", str(src), "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "tuning.json").exists()
    assert not scipy_modules(loaded)
    proc, loaded = run_fresh("-m", "robust_scatter.cli", "fit", str(src), "--tuning",
                             str(out / "tuning.json"), "--k", "1", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "model.json").exists()
    assert not scipy_modules(loaded)
    proc, loaded = run_fresh("-m", "robust_scatter.cli", "fit", str(src), "--a", "5",
                             "--k", "1", "--full-mahalanobis", "--out-dir", str(out / "full"))
    assert proc.returncode == 0, proc.stderr
    assert (out / "full" / "model.json").exists()
    assert "scipy.linalg" in loaded
    assert not loaded & OPTIONAL_SCIPY
    proc, loaded = run_fresh("-m", "robust_scatter.cli", "benchmark", "--n", "60", "--p", "4",
                             "--k", "1", "--replicates", "1", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "experiment.json").exists()
    assert not scipy_modules(loaded)


def test_cmd_benchmark_with_overrides(tmp_path):
    out = tmp_path / "out"
    rc = main(["benchmark", "--n", "60", "--p", "4", "--k", "1", "--pi", "0.0",
               "--replicates", "1", "--seed", "2", "--methods", "sppca_astar",
               "--out-dir", str(out)])
    assert rc == 0
    table = json.loads((out / "experiment.json").read_text())
    jsonschema.validate(table, schema("experiment"))
    assert len(table["results"]) == 1


def test_cli_env_thread_fallback(tmp_path, monkeypatch):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=100, p=3, seed=10)
    # the variable is no longer read, so even a value that is not a number
    # leaves the run alone
    monkeypatch.setenv("ROBUST_SCATTER_THREADS", "abc")
    out = tmp_path / "out"
    assert main(["tune", str(src), "--out-dir", str(out)]) == 0
    assert (out / "tuning.json").exists()


def test_cli_seed_only_for_simulation():
    parser = build_parser()
    assert parser.parse_args(["benchmark", "--seed", "3"]).seed == 3
    assert parser.parse_args(["simulate", "--seed", "4"]).seed == 4
    for cmd in ("tune", "fit"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([cmd, "x.csv", "--seed", "1"])
        assert exc.value.code == 2
    # every fit runs the plain fixed-point map: there is no ridge blend
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["fit", "x.csv", "--a", "5", "--tau", "0.3"])
    assert exc.value.code == 2
    # the solver's tolerance and iteration cap are not options
    for cmd in (["tune", "x.csv"], ["fit", "x.csv"], ["simulate"], ["benchmark"]):
        for flag in (["--tol", "1e-6"], ["--max-iter", "10"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*cmd, *flag])
            assert exc.value.code == 2


@pytest.mark.parametrize("cmd", ["simulate", "benchmark"])
def test_no_standardize_only_with_an_input(cmd, capsys):
    # simulate and benchmark read no CSV, so they take no --no-standardize;
    # they run the estimator at its defaults, so no --alpha or metric either.
    # The usage error is the subcommand's, as for its other usage errors.
    for flag in (["--no-standardize"], ["--alpha", "0.1"], ["--full-mahalanobis"]):
        with pytest.raises(SystemExit) as exc:
            main([cmd, *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: robust-scatter {cmd} ")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")


def test_parser_is_built_once_and_parses_afresh():
    # main reuses one parser per process; a parse leaves no state behind
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["fit", "a.csv", "--a", "2", "--k", "3"])
    second = parser.parse_args(["fit", "b.csv"])
    assert (first.a, first.k) == (2.0, 3)
    assert (second.input, second.a, second.k) == ("b.csv", None, None)


def test_readme_cli_section_names_every_option():
    # README's ## CLI section names each option some subcommand parses, and
    # no option that none does
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {opt for sp in sub.choices.values() for action in sp._actions
              for opt in action.option_strings if opt.startswith("--")} - {"--help"}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named - parsed == set()
    assert parsed - named == set()


def test_readme_library_example_runs():
    # README's one python block, on a seeded mixture as its X
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    X = gen_mixture(SimConfig(n=500, p=10, k=3, nu=10, pi=0.1, c=4, seed=1))[0].X
    scope = {"X": X}
    exec(block, scope)
    assert scope["model"].eigenvectors.shape == (10, 3)
    assert scope["best"].a == scope["sel"].a_star
    assert 0 < scope["outliers"].sum() < 500
