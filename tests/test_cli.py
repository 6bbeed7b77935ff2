"""End-to-end tests of the command line: artifacts, reports, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coopt import CootProblem, export_heatmap, ot, solve_coot, validate_coupling
from coopt.apps import BlockConfig, cocluster, generate_blocks
from coopt.cli import main
from coopt.fileio import (
    read_labels_csv,
    read_matrix_csv,
    write_labels_csv,
    write_matrix_csv,
)


def run(argv):
    return main([str(a) for a in argv])


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


@pytest.fixture
def small_pair(tmp_path):
    rng = np.random.default_rng(90)
    x = tmp_path / "a.csv"
    y = tmp_path / "b.csv"
    write_matrix_csv(x, rng.random((4, 3)))
    write_matrix_csv(y, rng.random((5, 4)))
    return x, y


def test_coot_writes_expected_artifacts(tmp_path, small_pair):
    x, y = small_pair
    out = tmp_path / "run1"
    code = run(["coot", "--x", x, "--y", y, "--loss", "sq", "--eps1", "0",
                "--eps2", "0", "--seed", "7", "--out", out])
    assert code == 0
    for name in ("pi_s.csv", "pi_v.csv", "report.json"):
        assert (out / name).exists()
    report = read_report(out)
    assert set(report) >= {"command", "seed", "cost", "iterations", "converged",
                           "wallMillis", "outputs", "config"}
    assert report["command"] == "coot"
    assert report["seed"] == 7
    assert report["converged"] is True


def test_report_names_the_blas_library_and_echoes_its_thread_settings(
        tmp_path, small_pair, monkeypatch):
    """Two reports show why their plans' bytes may differ: numpy's BLAS
    library and version, and each BLAS thread variable, null when unset."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    x, y = small_pair
    assert run(["coot", "--x", x, "--y", y, "--seed", "1", "--out", tmp_path]) == 0
    blas = read_report(tmp_path)["blas"]
    built = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert blas == {"name": built["name"], "version": built["version"],
                    "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": None}
    assert isinstance(blas["name"], str) and blas["name"]


def test_coot_roundtrip_coupling_is_feasible(tmp_path, small_pair):
    x, y = small_pair
    out = tmp_path / "run2"
    assert run(["coot", "--x", x, "--y", y, "--seed", "1", "--out", out]) == 0
    plan = read_matrix_csv(out / "pi_s.csv")
    n, n2 = plan.shape
    assert validate_coupling(plan, np.full(n, 1 / n), np.full(n2, 1 / n2), 1e-6)


def test_coot_restarts_report_best_cost(tmp_path, small_pair):
    x, y = small_pair
    out = tmp_path / "run3"
    assert run(["coot", "--x", x, "--y", y, "--seed", "3", "--restarts", "6",
                "--out", out]) == 0
    report = read_report(out)
    problem = CootProblem(read_matrix_csv(x), read_matrix_csv(y))
    best = min(
        solve_coot(problem, restarts=6, seed=3).cost,
        solve_coot(problem).cost,
    )
    assert report["cost"] == pytest.approx(best, abs=1e-12)


def test_coot_determinism_across_runs_and_jobs(tmp_path, small_pair):
    x, y = small_pair
    outs = [tmp_path / f"det{i}" for i in range(3)]
    for out, jobs in zip(outs, ("1", "1", "4")):
        assert run(["coot", "--x", x, "--y", y, "--seed", "11", "--restarts", "5",
                    "--jobs", jobs, "--out", out]) == 0
    ref_s = (outs[0] / "pi_s.csv").read_bytes()
    ref_v = (outs[0] / "pi_v.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "pi_s.csv").read_bytes() == ref_s
        assert (out / "pi_v.csv").read_bytes() == ref_v
    costs = {read_report(out)["cost"] for out in outs}
    assert len(costs) == 1


@pytest.mark.parametrize("eps", ["0", "0.05"])
def test_coot_csvs_are_byte_identical_across_jobs_in_fresh_processes(tmp_path, eps):
    """Two fresh ``coopt coot`` processes with BLAS pinned to one thread, at
    ``--jobs 1`` and ``--jobs 2``, write the same CSV bytes: exact sides
    (threads pull one restart at a time) and entropic ones (threads run
    shares of the lockstep stack)."""
    rng = np.random.default_rng(96)
    x, y = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(x, rng.random((20, 12)))
    write_matrix_csv(y, rng.random((15, 7)))
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    blobs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        proc = subprocess.run([sys.executable, "-m", "coopt.cli", "coot", "--x", str(x),
                               "--y", str(y), "--eps1", eps, "--eps2", eps, "--seed", "4",
                               "--restarts", "4", "--jobs", jobs, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        blobs.append([(out / name).read_bytes() for name in ("pi_s.csv", "pi_v.csv")])
    assert blobs[0] == blobs[1]


def test_report_rerun_reproduces_cost(tmp_path, small_pair):
    x, y = small_pair
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    argv = ["coot", "--x", x, "--y", y, "--seed", "5", "--restarts", "3", "--eps2", "0.5"]
    assert run(argv + ["--out", first]) == 0
    echoed = read_report(first)["config"]
    assert run(["coot", "--x", echoed["x"], "--y", echoed["y"],
                "--seed", echoed["seed"], "--restarts", echoed["restarts"],
                "--eps2", echoed["eps2"], "--out", second]) == 0
    assert abs(read_report(first)["cost"] - read_report(second)["cost"]) <= 1e-12


def test_gen_then_cocluster_with_truth(tmp_path):
    data = tmp_path / "d1"
    assert run(["gen", "--preset", "D3", "--seed", "1", "--out", data]) == 0
    for name in ("X.csv", "rows.csv", "cols.csv"):
        assert (data / name).exists()
    out = tmp_path / "cc"
    assert run(["cocluster", "--x", data / "X.csv", "-g", "2", "-m", "4",
                "--truth", data, "--seed", "1", "--out", out]) == 0
    report = read_report(out)
    assert "cce" in report
    assert 0.0 <= report["cce"] <= 1.0
    rows = read_labels_csv(out / "row_labels.csv")
    assert rows.size == 300
    assert read_matrix_csv(out / "xc.csv").shape == (2, 4)


def test_gen_then_cocluster_inner_solves_converge(tmp_path, entropic_calls):
    data = tmp_path / "d3"
    assert run(["gen", "--preset", "D3", "--seed", "1", "--out", data]) == 0
    assert run(["cocluster", "--x", data / "X.csv", "-g", "2", "-m", "4",
                "--truth", data, "--seed", "1", "--out", tmp_path / "cc"]) == 0
    assert entropic_calls and all(res.converged for res in entropic_calls)


def test_election_identical_files_cost_zero(tmp_path):
    e = tmp_path / "e1.csv"
    write_matrix_csv(e, np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]], dtype=float))
    out = tmp_path / "el"
    assert run(["election", "--x", e, "--y", e, "--seed", "0", "--restarts", "5",
                "--out", out]) == 0
    assert read_report(out)["cost"] == pytest.approx(0.0, abs=1e-12)


def test_hda_writes_one_label_per_target_row(tmp_path):
    rng = np.random.default_rng(91)
    xs = tmp_path / "xs.csv"
    xt = tmp_path / "xt.csv"
    ys = tmp_path / "ys.csv"
    ytp = tmp_path / "yt.csv"
    Xs = rng.random((4, 3))
    sigma = rng.permutation(4)
    write_matrix_csv(xs, Xs)
    write_matrix_csv(xt, Xs[sigma][:, rng.permutation(3)])
    labels = np.array([0, 1, 0, 1])
    write_labels_csv(ys, labels)
    partial = -np.ones(4, dtype=int)
    partial[0] = labels[sigma][0]
    write_labels_csv(ytp, partial)
    out = tmp_path / "hda"
    assert run(["hda", "--xs", xs, "--xt", xt, "--ys", ys, "--yt-partial", ytp,
                "--penalty", "auto", "--restarts", "20", "--seed", "2",
                "--out", out]) == 0
    got = read_labels_csv(out / "labels.csv")
    np.testing.assert_array_equal(got, labels[sigma])


def test_gw_points_mode(tmp_path):
    rng = np.random.default_rng(92)
    x = tmp_path / "p.csv"
    write_matrix_csv(x, rng.random((4, 2)))
    out = tmp_path / "gw"
    assert run(["gw", "--x", x, "--y", x, "--points", "--restarts", "3",
                "--seed", "0", "--out", out]) == 0
    assert read_report(out)["cost"] == pytest.approx(0.0, abs=1e-9)
    assert (out / "pi.csv").exists()


def test_heatmap_flag_writes_pgm(tmp_path, small_pair):
    x, y = small_pair
    out = tmp_path / "hm"
    assert run(["coot", "--x", x, "--y", y, "--seed", "1", "--out", out,
                "--heatmaps"]) == 0
    data = (out / "pi_s.pgm").read_bytes()
    assert data.startswith(b"P5\n")


def test_exit_code_usage():
    assert run(["coot", "--x", "a.csv"]) == 1  # missing required flags
    assert run(["nosuchcommand"]) == 1


def test_seed_rules(tmp_path, small_pair):
    x, y = small_pair
    # deterministic single-start runs may omit the seed (defaults to 0)
    out = tmp_path / "noseed"
    assert run(["coot", "--x", x, "--y", y, "--out", out]) == 0
    assert read_report(out)["seed"] == 0
    # stochastic modes insist on one
    assert run(["coot", "--x", x, "--y", y, "--restarts", "3", "--out", out]) == 1
    assert run(["cocluster", "--x", x, "-g", "2", "-m", "2", "--out", out]) == 1
    e = tmp_path / "e.csv"
    write_matrix_csv(e, np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert run(["election", "--x", e, "--y", e, "--out", tmp_path / "el0"]) == 0


def test_exit_code_io(tmp_path):
    out = tmp_path / "x"
    assert run(["coot", "--x", tmp_path / "missing.csv", "--y", tmp_path / "m2.csv",
                "--seed", "1", "--out", out]) == 2
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    other = tmp_path / "ok.csv"
    write_matrix_csv(other, np.eye(2))
    assert run(["coot", "--x", ragged, "--y", other, "--seed", "1", "--out", out]) == 2


def test_exit_code_numeric(tmp_path, small_pair):
    x, y = small_pair
    out = tmp_path / "bad"
    assert run(["coot", "--x", x, "--y", y, "--seed", "1", "--eps1", "-2",
                "--out", out]) == 3
    e = tmp_path / "notranks.csv"
    write_matrix_csv(e, np.array([[1.0, 1.0], [2.0, 1.0]]))
    assert run(["election", "--x", e, "--y", e, "--seed", "0", "--out", out]) == 3


def test_exit_code_nonconvergence_and_override(tmp_path):
    rng = np.random.default_rng(93)
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    write_matrix_csv(x, rng.random((6, 5)))
    write_matrix_csv(y, rng.random((7, 4)))
    out = tmp_path / "nc"
    args = ["coot", "--x", x, "--y", y, "--seed", "1", "--max-iter", "0", "--out", out]
    assert run(args) == 4
    assert run(args + ["--allow-maxiter"]) == 0


def test_heatmap_min_max_bytes(tmp_path):
    path = tmp_path / "h.pgm"
    export_heatmap(np.array([[0.0, 1.0], [1.0, 0.0]]), path)
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])


def test_heatmap_constant_matrix_is_midgray(tmp_path):
    path = tmp_path / "c.pgm"
    export_heatmap(np.full((3, 3), 4.2), path)
    assert path.read_bytes() == b"P5\n3 3\n255\n" + bytes([128] * 9)


def test_heatmap_single_cell(tmp_path):
    path = tmp_path / "one.pgm"
    export_heatmap(np.array([[123.4]]), path)
    assert path.read_bytes() == b"P5\n1 1\n255\n" + bytes([128])


def test_matrix_csv_roundtrip_full_precision(tmp_path):
    rng = np.random.default_rng(94)
    m = rng.random((3, 4)) * np.array([1e-7, 1.0, 1e7, 123.456])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    np.testing.assert_array_equal(read_matrix_csv(path), m)


def test_coot_explicit_weight_files_match_default(tmp_path, small_pair):
    x, y = small_pair
    wx = tmp_path / "wx.csv"
    wy = tmp_path / "wy.csv"
    write_matrix_csv(wx, np.full((4, 1), 0.25))
    write_matrix_csv(wy, np.full((5, 1), 0.2))
    explicit = tmp_path / "explicit"
    implied = tmp_path / "implied"
    assert run(["coot", "--x", x, "--y", y, "--wx", wx, "--wy", wy,
                "--seed", "2", "--out", explicit]) == 0
    assert run(["coot", "--x", x, "--y", y, "--seed", "2", "--out", implied]) == 0
    assert (explicit / "pi_s.csv").read_bytes() == (implied / "pi_s.csv").read_bytes()


def test_coot_column_mean_feature_weighting(tmp_path, small_pair):
    x, y = small_pair
    out = tmp_path / "meanw"
    assert run(["coot", "--x", x, "--y", y, "--vx", "mean", "--vy", "mean",
                "--seed", "2", "--out", out]) == 0
    plan = read_matrix_csv(out / "pi_v.csv")
    means = read_matrix_csv(x).mean(axis=0)
    np.testing.assert_allclose(plan.sum(axis=1), means / means.sum(), atol=1e-9)


def test_gw_accepts_similarity_matrices_directly(tmp_path):
    rng = np.random.default_rng(96)
    A = rng.random((4, 4))
    sym = tmp_path / "c.csv"
    write_matrix_csv(sym, (A + A.T) / 2)
    out = tmp_path / "gwsym"
    assert run(["gw", "--x", sym, "--y", sym, "--restarts", "3", "--seed", "0",
                "--out", out]) == 0
    assert read_report(out)["cost"] == pytest.approx(0.0, abs=1e-9)


def test_coot_kl_loss_on_positive_data(tmp_path):
    rng = np.random.default_rng(97)
    x = tmp_path / "p.csv"
    y = tmp_path / "q.csv"
    write_matrix_csv(x, rng.random((3, 3)) + 0.1)
    write_matrix_csv(y, rng.random((4, 2)) + 0.1)
    out = tmp_path / "kl"
    assert run(["coot", "--x", x, "--y", y, "--loss", "kl", "--seed", "1",
                "--out", out]) == 0
    assert read_report(out)["cost"] >= -1e-12


def test_gw_zero_restarts_is_a_domain_error(tmp_path):
    p = tmp_path / "p.csv"
    write_matrix_csv(p, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    assert run(["gw", "--x", p, "--y", p, "--points", "--restarts", "0",
                "--out", tmp_path / "gw0"]) == 3


def test_cocluster_reports_outer_rounds_as_iterations(tmp_path):
    config = BlockConfig(30, 20, 2, 2, (0.5, 0.5), (0.5, 0.5), 4.0)
    X, _, _ = generate_blocks(config, 5)
    x = tmp_path / "X.csv"
    write_matrix_csv(x, X)
    out = tmp_path / "cc"
    code = run(["cocluster", "--x", x, "-g", "2", "-m", "2", "--outer-iter", "2",
                "--seed", "4", "--out", out, "--allow-maxiter"])
    assert code == 0
    clustering = cocluster(read_matrix_csv(x), 2, 2, outer_iter=2, seed=4)
    iterations = read_report(out)["iterations"]
    assert iterations <= 2
    assert iterations == len(clustering.objective_trace)


def _output_names(out):
    return [Path(p).relative_to(out).as_posix() for p in read_report(out)["outputs"]]


@pytest.mark.parametrize("heatmaps", [False, True])
def test_report_outputs_name_every_artifact_in_order(tmp_path, small_pair, heatmaps):
    x, y = small_pair
    e = tmp_path / "e.csv"
    write_matrix_csv(e, np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]))
    ys = tmp_path / "ys.csv"
    write_labels_csv(ys, np.array([0, 1, 0, 1]))
    data = tmp_path / "data"
    flag = ["--heatmaps"] if heatmaps else []
    plan = (lambda stem: [f"{stem}.csv", f"{stem}.pgm"]) if heatmaps else (
        lambda stem: [f"{stem}.csv"])
    cases = [
        (["coot", "--x", x, "--y", y], plan("pi_s") + plan("pi_v")),
        (["gw", "--x", x, "--y", x, "--points"], plan("pi")),
        (["cocluster", "--x", x, "-g", "2", "-m", "2", "--outer-iter", "2"],
         ["row_labels.csv", "col_labels.csv", "xc.csv"] + plan("pi_s") + plan("pi_v")),
        (["hda", "--xs", x, "--xt", x, "--ys", ys],
         ["labels.csv", "scores.csv"] + plan("pi_s") + plan("pi_v")),
        (["election", "--x", e, "--y", e], plan("pi_s") + plan("pi_v")),
    ]
    for i, (argv, names) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert run(argv + ["--seed", "1", "--out", out, "--allow-maxiter"] + flag) == 0
        assert _output_names(out) == names, argv[0]
    if not heatmaps:  # gen writes data, not couplings, and has no --heatmaps
        assert run(["gen", "--n", "6", "--d", "4", "-g", "2", "-m", "2", "--seed", "1",
                    "--out", data]) == 0
        assert _output_names(data) == ["X.csv", "rows.csv", "cols.csv"]


def test_gw_non_square_matrices_are_a_dimension_error(tmp_path):
    x = tmp_path / "c.csv"
    write_matrix_csv(x, np.ones((3, 4)))
    assert run(["gw", "--x", x, "--y", x, "--out", tmp_path / "gw"]) == 3


@pytest.mark.parametrize("penalty", ["-1", "0"])
def test_hda_non_positive_penalty_is_a_domain_error(tmp_path, penalty):
    xs = tmp_path / "xs.csv"
    ys = tmp_path / "ys.csv"
    yt = tmp_path / "yt.csv"
    write_matrix_csv(xs, np.arange(6.0).reshape(3, 2))
    write_labels_csv(ys, [0, 1, 0])
    write_labels_csv(yt, [0, -1, -1])
    assert run(["hda", "--xs", xs, "--xt", xs, "--ys", ys, "--yt-partial", yt,
                "--penalty", penalty, "--out", tmp_path / "hda"]) == 3


def test_coot_negative_max_iter_is_a_domain_error(tmp_path, small_pair):
    x, y = small_pair
    assert run(["coot", "--x", x, "--y", y, "--max-iter", "-1",
                "--out", tmp_path / "neg"]) == 3


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_coot_jobs_below_one_is_a_domain_error(tmp_path, small_pair, jobs):
    x, y = small_pair
    assert run(["coot", "--x", x, "--y", y, "--jobs", jobs, "--out", tmp_path / "jobs"]) == 3


def test_gen_unequal_writes_ramped_cluster_sizes(tmp_path):
    out = tmp_path / "ramp"
    assert run(["gen", "--n", "6", "--d", "4", "-g", "2", "-m", "2", "--unequal",
                "--seed", "0", "--out", out]) == 0
    # proportions 1/3 and 2/3, rounded by largest remainder
    np.testing.assert_array_equal(read_labels_csv(out / "rows.csv"), [0, 0, 1, 1, 1, 1])
    np.testing.assert_array_equal(read_labels_csv(out / "cols.csv"), [0, 1, 1, 1])


def test_coot_feature_weights_from_csv(tmp_path, small_pair):
    x, y = small_pair
    vx = tmp_path / "vx.csv"
    weights = np.array([0.5, 0.3, 0.2])
    write_matrix_csv(vx, weights[:, None])
    out = tmp_path / "vxcsv"
    assert run(["coot", "--x", x, "--y", y, "--vx", vx, "--seed", "2", "--out", out]) == 0
    plan = read_matrix_csv(out / "pi_v.csv")
    np.testing.assert_allclose(plan.sum(axis=1), weights, atol=1e-9)


def test_coot_column_mean_weighting_needs_positive_means(tmp_path, small_pair):
    _, y = small_pair
    x = tmp_path / "negcol.csv"
    write_matrix_csv(x, np.array([[1.0, -2.0], [3.0, 1.0]]))
    assert run(["coot", "--x", x, "--y", y, "--vx", "mean", "--seed", "2",
                "--out", tmp_path / "negmean"]) == 3


def test_coot_weights_file_must_be_a_single_column(tmp_path, small_pair):
    x, y = small_pair  # 4x3 and 5x4
    w22 = tmp_path / "w22.csv"
    write_matrix_csv(w22, np.full((2, 2), 0.25))
    assert run(["coot", "--x", x, "--y", y, "--wx", w22, "--seed", "2",
                "--out", tmp_path / "wx"]) == 2
    assert run(["coot", "--x", y, "--y", x, "--vx", w22, "--seed", "2",
                "--out", tmp_path / "vx"]) == 2


@pytest.mark.parametrize("flags", [["--tol", "-1"], ["--tol", "nan"], ["--eps1", "nan"],
                                   ["--eps2", "inf"]])
def test_coot_non_finite_eps_or_bad_tol_is_a_domain_error(tmp_path, small_pair, flags):
    x, y = small_pair
    out = tmp_path / "bad"
    assert run(["coot", "--x", x, "--y", y, *flags, "--out", out]) == 3
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--tol=-1e-9"], ["--eps", "nan"]])
def test_gw_non_finite_eps_or_bad_tol_is_a_domain_error(tmp_path, flags):
    x = tmp_path / "p.csv"
    write_matrix_csv(x, np.random.default_rng(94).random((4, 2)))
    out = tmp_path / "gw"
    assert run(["gw", "--x", x, "--y", x, "--points", *flags, "--out", out]) == 3
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["coot", "--x", "a.csv", "--y", "b.csv", "--restarts", "2"],
    ["gw", "--x", "a.csv", "--y", "b.csv", "--restarts", "2"],
    ["cocluster", "--x", "a.csv", "-g", "2", "-m", "2"],
    ["hda", "--xs", "a.csv", "--xt", "b.csv", "--ys", "c.csv", "--restarts", "2"],
    ["election", "--x", "a.csv", "--y", "b.csv", "--restarts", "2"],
    ["gen", "--preset", "D1"],
])
@pytest.mark.parametrize("seed", ["-1", "-0", "1.5", "x"])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, argv, seed):
    """A bad seed is a usage error, found before any file is read."""
    assert run(argv + ["--seed", seed, "--out", tmp_path / "out"]) == 1
    assert f"argument --seed: must be an integer >= 0, got '{seed}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_hda_non_numeric_penalty_is_a_domain_error(tmp_path, capsys):
    xs = tmp_path / "xs.csv"
    ys = tmp_path / "ys.csv"
    write_matrix_csv(xs, np.arange(6.0).reshape(3, 2))
    write_labels_csv(ys, [0, 1, 0])
    assert run(["hda", "--xs", xs, "--xt", xs, "--ys", ys, "--penalty", "abc",
                "--out", tmp_path / "hda"]) == 3
    assert "--penalty must be 'auto' or a number, got 'abc'" in capsys.readouterr().err


def test_gen_without_preset_or_sizes_names_the_missing_flags(tmp_path, capsys):
    assert run(["gen", "--n", "30", "-g", "2", "--seed", "0", "--out", tmp_path / "g"]) == 3
    assert "missing ['--d', '-m']" in capsys.readouterr().err
    assert run(["gen", "--seed", "0", "--out", tmp_path / "g"]) == 3
    assert "missing ['--n', '--d', '-g', '-m']" in capsys.readouterr().err


def test_gen_with_a_preset_rejects_size_flags(tmp_path, capsys):
    """A preset fixes the sizes and proportions, so size flags beside it are
    an error, not silently ignored."""
    out = tmp_path / "g"
    assert run(["gen", "--preset", "D3", "--n", "5", "--seed", "0", "--out", out]) == 3
    assert "drop ['--n']" in capsys.readouterr().err
    assert run(["gen", "--preset", "D3", "--d", "4", "-g", "2", "-m", "2", "--unequal",
                "--seed", "0", "--out", out]) == 3
    assert "drop ['--d', '-g', '-m', '--unequal']" in capsys.readouterr().err
    assert run(["gen", "--preset", "D3", "--separation", "9", "--seed", "0", "--out", out]) == 3
    assert "drop ['--separation']" in capsys.readouterr().err
    assert not out.exists()


def test_hda_with_a_huge_source_label_is_a_domain_error(tmp_path, capsys):
    xs, ys = tmp_path / "xs.csv", tmp_path / "ys.csv"
    write_matrix_csv(xs, np.arange(6.0).reshape(3, 2))
    write_labels_csv(ys, [0, 2**62, 1])
    assert run(["hda", "--xs", xs, "--xt", xs, "--ys", ys, "--out", tmp_path / "hda"]) == 3
    assert f"label {2**62} " in capsys.readouterr().err


def test_stdout_is_the_bytes_of_report_json(tmp_path, small_pair, capsysbinary):
    x, y = small_pair
    out = tmp_path / "run"
    assert run(["coot", "--x", x, "--y", y, "--seed", "0", "--out", out]) == 0
    assert capsysbinary.readouterr().out == (out / "report.json").read_bytes()


def test_coot_exits_4_when_an_inner_solve_does_not_converge(tmp_path):
    """At 1e8 magnitudes some abs-loss entropic calls end above their
    tolerance, so the run reports unconverged even though the outer
    iterations stop by tolerance."""
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    write_matrix_csv(x, 1e8 * np.random.default_rng(5).random((5, 4)))
    write_matrix_csv(y, 1e8 * np.random.default_rng(6).random((6, 3)))
    argv = ["coot", "--x", x, "--y", y, "--loss", "abs", "--eps1", "0.05", "--eps2", "0.05"]
    assert run(argv + ["--out", tmp_path / "strict"]) == 4
    report = read_report(tmp_path / "strict")
    assert report["converged"] is False and report["iterations"] < 50
    assert run(argv + ["--allow-maxiter", "--out", tmp_path / "allowed"]) == 0


def test_gen_rejects_non_finite_separation(tmp_path):
    argv = ["gen", "--n", "10", "--d", "6", "-g", "2", "-m", "2", "--separation", "inf",
            "--seed", "0", "--out", tmp_path]
    assert run(argv) == 3
    assert not (tmp_path / "X.csv").exists()


def test_election_cost_zero_across_rank_bases(tmp_path):
    one, zero = tmp_path / "e1.csv", tmp_path / "e0.csv"
    E = np.array([[1, 2, 3], [3, 1, 2]], dtype=float)
    write_matrix_csv(one, E)
    write_matrix_csv(zero, E - 1)
    out = tmp_path / "el"
    assert run(["election", "--x", one, "--y", zero, "--seed", "0", "--restarts", "5",
                "--out", out]) == 0
    assert read_report(out)["cost"] == 0.0


def test_feature_weight_flag_takes_a_path_or_mean(tmp_path, small_pair):
    """``--vx uniform`` names a weights file like any other value but
    ``mean``; with no such file the run is an I/O error."""
    x, y = small_pair
    for flag in ("--vx", "--vy"):
        assert run(["coot", "--x", x, "--y", y, flag, "uniform",
                    "--out", tmp_path / "vu"]) == 2


def test_coot_exits_4_on_an_uncertified_lp(tmp_path, small_pair, monkeypatch):
    real = ot._transport_lp

    def uncertified(w, wp, C):
        x, nit, _, potentials = real(w, wp, C)
        return x, nit, -1e-6, potentials

    monkeypatch.setattr(ot, "_transport_lp", uncertified)
    x, y = small_pair
    assert run(["coot", "--x", x, "--y", y, "--out", tmp_path / "lp"]) == 4
    assert read_report(tmp_path / "lp")["converged"] is False


def test_coot_exits_3_on_a_non_finite_entropic_plan(tmp_path):
    """An eps far below the costs' rounding overflows the sample plan, which
    the solve refuses as a domain error."""
    rng = np.random.default_rng(0)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    write_matrix_csv(x, 1e5 * rng.random((4, 3)))
    write_matrix_csv(y, rng.random((5, 2)))
    with np.errstate(all="ignore"):
        code = run(["coot", "--x", x, "--y", y, "--eps1", "1e-300", "--out", tmp_path / "o"])
    assert code == 3
    assert not (tmp_path / "o" / "report.json").exists()


def test_cocluster_exits_4_when_an_earlier_round_hit_its_cap(tmp_path):
    """D2 seed 0: a round before the last stops at the ``--inner-iter`` cap,
    so the run is not converged and exits 4; ``--allow-maxiter`` writes the
    same artifacts with exit 0."""
    data = tmp_path / "d2"
    assert run(["gen", "--preset", "D2", "--seed", "0", "--out", data]) == 0
    argv = ["cocluster", "--x", data / "X.csv", "-g", "3", "-m", "3", "--seed", "0"]
    assert run(argv + ["--out", tmp_path / "cc"]) == 4
    assert read_report(tmp_path / "cc")["converged"] is False
    assert run(argv + ["--allow-maxiter", "--out", tmp_path / "ok"]) == 0
    for name in ("row_labels.csv", "col_labels.csv", "xc.csv"):
        assert (tmp_path / "cc" / name).read_bytes() == (tmp_path / "ok" / name).read_bytes()
