import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

import robust_scatter
from robust_scatter import EmptyData
from robust_scatter.cli import build_parser, load_csv, main

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"


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
    rc = main(["tune", str(src), "--grid-size", "20", "--out-dir", str(out), "--threads", "1"])
    assert rc == 0
    curve = json.loads((out / "ar_curve.json").read_text())
    tuning = json.loads((out / "tuning.json").read_text())
    jsonschema.validate(curve, schema("ar_curve"))
    jsonschema.validate(tuning, schema("tuning"))
    assert len(curve["a"]) == 20
    assert all(0.0 <= v <= 1.0 for v in curve["ar_raw"])
    assert curve["ar_raw"][-1] == 1.0
    assert tuning["a_star"] in curve["a"]


def test_cmd_tune_default_grid_size(tmp_path):
    # the grid has 50 scales whatever n, unless --grid-size says otherwise
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=400, p=4, seed=3)
    out = tmp_path / "out"
    assert main(["tune", str(src), "--out-dir", str(out)]) == 0
    curve = json.loads((out / "ar_curve.json").read_text())
    jsonschema.validate(curve, schema("ar_curve"))
    assert len(curve["a"]) == 50


def test_cmd_tune_deterministic(tmp_path):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=150, p=3, seed=2)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["tune", str(src), "--grid-size", "15", "--out-dir", str(out)]) == 0
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
    assert main(["tune", str(src), "--grid-size", "12", "--out-dir", str(out)]) == 0
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


def test_cmd_simulate_determinism_across_workers(tmp_path):
    args = ["simulate", "--n", "60", "--p", "4", "--k", "2", "--nu", "10",
            "--pi", "0.1", "--c", "3", "--replicates", "2", "--seed", "3"]
    blobs = []
    for name, threads in (("w1", "1"), ("w4", "4")):
        out = tmp_path / name
        assert main(args + ["--threads", threads, "--out-dir", str(out)]) == 0
        blobs.append((out / "experiment.csv").read_bytes()
                     + (out / "experiment.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_error_is_structured_json(tmp_path, capsys):
    rc = main(["tune", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_cli_out_dir_failure_is_structured_json(tmp_path, capsys):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=50, p=3, seed=11)
    blocker = tmp_path / "somefile"
    blocker.write_text("")
    rc = main(["fit", str(src), "--a", "50", "--k", "2", "--out-dir", str(blocker / "sub")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotADirectoryError"


# scipy subpackages that no command needs at import time
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


def test_import_loads_no_optional_scipy():
    # a subprocess, because the test modules import scipy.stats themselves
    proc, loaded = run_fresh("-c", "import robust_scatter, robust_scatter.cli")
    assert proc.returncode == 0, proc.stderr
    assert "scipy.linalg" in loaded
    assert not loaded & OPTIONAL_SCIPY


def test_cli_entry_point_subprocess(tmp_path):
    src = tmp_path / "data.csv"
    write_gaussian_csv(src, n=100, p=3, seed=8)
    out = tmp_path / "out"
    proc, loaded = run_fresh("-m", "robust_scatter.cli", "tune", str(src), "--grid-size", "10",
                             "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "tuning.json").exists()
    assert "scipy.linalg" in loaded
    assert not loaded & OPTIONAL_SCIPY
    proc, loaded = run_fresh("-m", "robust_scatter.cli", "fit", str(src), "--tuning",
                             str(out / "tuning.json"), "--k", "1", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "model.json").exists()
    assert "scipy.linalg" in loaded
    assert not loaded & OPTIONAL_SCIPY
    proc, loaded = run_fresh("-m", "robust_scatter.cli", "benchmark", "--n", "60", "--p", "4",
                             "--k", "1", "--replicates", "1", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "experiment.json").exists()
    assert "scipy.linalg" in loaded
    assert not loaded & OPTIONAL_SCIPY


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
    assert main(["tune", str(src), "--grid-size", "10", "--out-dir", str(out)]) == 0
    assert (out / "tuning.json").exists()


def test_cli_seed_only_for_simulation():
    parser = build_parser()
    assert parser.parse_args(["benchmark", "--seed", "3"]).seed == 3
    assert parser.parse_args(["simulate", "--seed", "4"]).seed == 4
    for cmd in ("tune", "fit"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([cmd, "x.csv", "--seed", "1"])
        assert exc.value.code == 2
