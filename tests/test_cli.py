import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iclust import DataSet, MvHyperParams, UvHyperParams, icl_exact
from iclust import cli
from iclust.cli import main
from iclust.io import read_csv, standardize, write_csv


@pytest.fixture
def cluster_csv(tmp_path, rng):
    a = rng.normal(0.0, 1.0, size=(12, 2))
    b = rng.normal(0.0, 1.0, size=(12, 2)) + np.array([15.0, 0.0])
    path = tmp_path / "data.csv"
    write_csv(np.vstack([a, b]), path)
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClusterCommand:
    def test_missing_data_flag_exits_1(self, capsys):
        code, _, err = run(capsys, ["cluster"])
        assert code == 1
        assert "usage" in err

    def test_basic_run(self, capsys, tmp_path, cluster_csv):
        out = tmp_path / "result.json"
        code, stdout, _ = run(capsys, [
            "cluster", "--data", str(cluster_csv), "--seed", "3",
            "--restarts", "6", "--sweeps", "15", "--out", str(out),
        ])
        assert code == 0
        assert re.search(r"K = 2", stdout)
        assert re.search(r"ICL_ex = -?\d", stdout)
        doc = json.loads(out.read_text())
        assert doc["K"] == 2
        assert len(doc["labels"]) == 24
        assert doc["runtime_ms"] > 0

    def test_eval_reproduces_cluster_icl(self, capsys, tmp_path, cluster_csv):
        out = tmp_path / "result.json"
        code, stdout, _ = run(capsys, [
            "cluster", "--data", str(cluster_csv), "--seed", "3",
            "--restarts", "6", "--sweeps", "15", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        labels_path = tmp_path / "labels.csv"
        labels_path.write_text("\n".join(str(v) for v in doc["labels"]) + "\n")
        code, stdout, _ = run(capsys, [
            "eval", "--data", str(cluster_csv), "--labels", str(labels_path),
        ])
        assert code == 0
        total = float(re.search(r"total = (\S+)", stdout).group(1))
        assert total == pytest.approx(doc["icl_ex"], abs=1e-8)

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["cluster", "--data", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_bad_data_content_exits_1(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,oops\n")
        code, _, err = run(capsys, ["cluster", "--data", str(p)])
        assert code == 1
        assert "line 2" in err

    def test_plain_algorithm(self, capsys, cluster_csv):
        # single-observation greedy sticks in local optima much more easily
        # than the block variant, so only the interface is asserted here
        code, stdout, _ = run(capsys, [
            "cluster", "--data", str(cluster_csv), "--seed", "1",
            "--restarts", "4", "--sweeps", "15", "--algorithm", "plain",
        ])
        assert code == 0
        assert re.search(r"K = \d+", stdout)

    def test_plot_data_flag(self, capsys, tmp_path, cluster_csv):
        plot = tmp_path / "plot.csv"
        code, _, _ = run(capsys, [
            "cluster", "--data", str(cluster_csv), "--seed", "1",
            "--restarts", "4", "--sweeps", "12", "--plot-data", str(plot),
        ])
        assert code == 0
        plotted = read_csv(plot)
        assert plotted.n == 24 and plotted.b == 3
        labels = plotted.values[:, 2]
        assert set(labels.tolist()) == {1.0, 2.0}


class TestEvalCommand:
    def test_single_point_at_mu(self, capsys, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("0.0,0.0\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("1\n")
        code, stdout, _ = run(capsys, [
            "eval", "--data", str(data), "--labels", str(labels),
            "--mu", "0", "--tau", "1", "--nu", "3", "--omega", "1",
        ])
        assert code == 0
        total = float(re.search(r"total = (\S+)", stdout).group(1))
        assert total == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_all_ones_labels_zero_prior(self, capsys, tmp_path, cluster_csv):
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join(["1"] * 24) + "\n")
        code, stdout, _ = run(capsys, [
            "eval", "--data", str(cluster_csv), "--labels", str(labels),
        ])
        assert code == 0
        prior = float(re.search(r"prior_term = (\S+)", stdout).group(1))
        assert prior == 0.0

    def test_length_mismatch_exits_1(self, capsys, tmp_path, cluster_csv):
        labels = tmp_path / "labels.csv"
        labels.write_text("1\n2\n")
        code, _, err = run(capsys, [
            "eval", "--data", str(cluster_csv), "--labels", str(labels),
        ])
        assert code == 1
        assert "length" in err


class TestGenerateCommand:
    def test_files_written(self, capsys, tmp_path):
        # 500 points in up to 5 groups, figure-style generation settings
        out_data = tmp_path / "gen.csv"
        out_labels = tmp_path / "lab.csv"
        code, stdout, _ = run(capsys, [
            "generate", "--n", "500", "--k", "5", "--b", "2",
            "--alpha", "100", "--tau", "0.1", "--nu", "2", "--seed", "5",
            "--out-data", str(out_data), "--out-labels", str(out_labels),
        ])
        assert code == 0
        data = read_csv(out_data)
        labels = read_csv(out_labels)
        assert data.n == 500 and data.b == 2
        assert labels.n == 500
        lab = labels.values[:, 0].astype(int)
        assert lab.min() == 1 and lab.max() <= 5

    def test_n_zero_exits_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, [
            "generate", "--n", "0", "--k", "2", "--b", "2",
            "--out-data", str(tmp_path / "d.csv"), "--out-labels", str(tmp_path / "l.csv"),
        ])
        assert code == 1

    def test_seed_reproducible(self, capsys, tmp_path):
        paths = []
        for tag in ("a", "b"):
            od, ol = tmp_path / f"d{tag}.csv", tmp_path / f"l{tag}.csv"
            code, _, _ = run(capsys, [
                "generate", "--n", "30", "--k", "3", "--b", "2", "--seed", "9",
                "--out-data", str(od), "--out-labels", str(ol),
            ])
            assert code == 0
            paths.append((od, ol))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_missing_labels_directory_writes_no_data(self, capsys, tmp_path):
        od, ol = tmp_path / "d.csv", tmp_path / "missing" / "l.csv"
        code, stdout, err = run(capsys, [
            "generate", "--n", "50", "--k", "2", "--b", "2", "--seed", "1",
            "--out-data", str(od), "--out-labels", str(ol),
        ])
        assert code == 2 and stdout == ""
        assert err == f"I/O error: no such directory: {ol.parent}\n"
        assert not od.exists()

    def test_univariate_generation(self, capsys, tmp_path):
        od, ol = tmp_path / "d.csv", tmp_path / "l.csv"
        code, _, _ = run(capsys, [
            "generate", "--n", "25", "--k", "2", "--b", "1", "--seed", "2",
            "--gamma", "1.0", "--delta", "0.5",
            "--out-data", str(od), "--out-labels", str(ol),
        ])
        assert code == 0
        assert read_csv(od).b == 1


class TestSweepCommand:
    def test_cross_product_order_and_csv_roundtrip(self, capsys, tmp_path, cluster_csv):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(capsys, [
            "sweep", "--data", str(cluster_csv), "--seed", "4",
            "--tau-grid", "0.1,0.01", "--omega-grid", "0.5,1,2",
            "--restarts", "2", "--sweeps", "5", "--out", str(out),
        ])
        assert code == 0
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        header, rows = lines[0], lines[1:]
        assert header.split()[:2] == ["tau", "omega"]
        assert len(rows) == 6
        got_grid = [tuple(r.split()[:2]) for r in rows]
        assert got_grid == [("0.1", "0.5"), ("0.1", "1"), ("0.1", "2"),
                            ("0.01", "0.5"), ("0.01", "1"), ("0.01", "2")]
        # CSV carries full precision; printed table rounds to 2 decimals
        csv_lines = out.read_text().splitlines()
        assert csv_lines[0] == "tau,omega,k,icl_ex,error"
        assert len(csv_lines) == 7
        for printed, csv_row in zip(rows, csv_lines[1:]):
            cells = csv_row.split(",")
            assert printed.split()[2] == cells[2]
            assert printed.split()[3] == f"{float(cells[3]):.2f}"

    def test_plain_sweep_rows_are_multi_start_runs(self, capsys, monkeypatch, tmp_path,
                                                   cluster_csv):
        import iclust.optimizer as opt
        from iclust import SearchConfig, multi_start

        def no_order(*args, **kwargs):
            raise AssertionError("the plain search builds no neighbour order")

        monkeypatch.setattr(cli, "neighbor_order", no_order)
        monkeypatch.setattr(opt, "neighbor_order", no_order)
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, [
            "sweep", "--data", str(cluster_csv), "--seed", "4", "--algorithm", "plain",
            "--tau-grid", "0.1,0.01", "--restarts", "2", "--sweeps", "5", "--out", str(out),
        ])
        assert code == 0, err
        data = read_csv(cluster_csv)
        master = np.random.SeedSequence(4)
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        for idx, (row, tau) in enumerate(zip(rows, (0.1, 0.01))):
            seed = int(np.random.SeedSequence(entropy=master.entropy, spawn_key=(idx,))
                       .generate_state(1)[0])
            params = MvHyperParams(alpha=4.0, tau=tau, mu=data.values.mean(axis=0), nu=3.0,
                                   omega=1.0)
            sol = multi_start(data, params, SearchConfig(max_sweeps=5, restarts=2, seed=seed),
                              algorithm="plain")
            assert row.split(",") == [repr(tau), str(sol.K), repr(sol.icl), ""]

    def test_no_grid_flags_exits_1(self, capsys, cluster_csv):
        code, _, err = run(capsys, ["sweep", "--data", str(cluster_csv)])
        assert code == 1

    def test_failed_grid_point_reported_in_row(self, capsys, tmp_path, cluster_csv):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(capsys, [
            "sweep", "--data", str(cluster_csv), "--seed", "4",
            "--tau-grid", "0.1,-1", "--restarts", "2", "--sweeps", "4", "--out", str(out),
        ])
        assert code == 0
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        assert len(lines) == 3
        assert "failed" in lines[2]
        # the failed row's error text holds a comma and still reads back as one cell
        with open(out, encoding="utf-8", newline="") as fh:
            good, bad = csv.DictReader(fh)
        assert good["error"] == "" and int(good["k"]) == int(lines[1].split()[1])
        assert bad == {"tau": "-1.0", "k": "", "icl_ex": "",
                       "error": "tau must be strictly positive, got -1.0"}

    def test_sweep_whose_every_grid_point_fails_reports_each_row(self, capsys, tmp_path,
                                                                  cluster_csv):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(capsys, [
            "sweep", "--data", str(cluster_csv), "--tau-grid", "-1", "--restarts", "1",
            "--sweeps", "2", "--out", str(out),
        ])
        assert code == 0
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        assert len(lines) == 2 and "failed: tau" in lines[1]
        with open(out, encoding="utf-8", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row == {"tau": "-1.0", "k": "", "icl_ex": "",
                       "error": "tau must be strictly positive, got -1.0"}

    @pytest.mark.parametrize("flag,value,name", [("--beta1", "inf", "beta1"),
                                                 ("--alpha", "-1", "alpha")])
    def test_bad_scalar_flag_fails_the_sweep(self, capsys, monkeypatch, cluster_csv, flag,
                                             value, name):
        # no grid overrides the flag, so it fails before the order is built
        monkeypatch.setattr(cli, "neighbor_order", None)
        code, stdout, err = run(capsys, [
            "sweep", "--data", str(cluster_csv), "--seed", "4", "--tau-grid", "0.1,0.01",
            "--restarts", "1", "--sweeps", "2", flag, value,
        ])
        assert code == 1
        assert err.startswith("error:") and f"{name} must be strictly positive" in err
        assert "failed" not in stdout

    def test_scalar_flag_overridden_by_every_row_is_not_judged(self, capsys, cluster_csv):
        code, stdout, _ = run(capsys, [
            "sweep", "--data", str(cluster_csv), "--seed", "4", "--alpha", "-1",
            "--alpha-grid", "0.5,-2", "--restarts", "1", "--sweeps", "2",
        ])
        assert code == 0
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        assert "failed" not in lines[1] and "failed: alpha" in lines[2]

    @pytest.mark.parametrize("flag,kind", [("--omega-grid", "univariate"),
                                           ("--nu-grid", "univariate"),
                                           ("--delta-grid", "multivariate")])
    def test_other_family_grid_rejected(self, capsys, monkeypatch, cluster_csv, galaxy_path,
                                        flag, kind):
        # judged with the other family's scalar flags, before the order is built
        monkeypatch.setattr(cli, "neighbor_order", None)
        data = galaxy_path if kind == "univariate" else cluster_csv
        code, stdout, err = run(capsys, [
            "sweep", "--data", str(data), "--tau-grid", "0.1", flag, "1,0.1",
        ])
        assert code == 1 and stdout == ""
        assert err == f"error: {flag} does not apply to {kind} data\n"


def test_galaxy_cli_run(capsys, tmp_path, galaxy_path):
    out = tmp_path / "galaxy.json"
    code, stdout, _ = run(capsys, [
        "cluster", "--data", str(galaxy_path), "--standardize",
        "--gamma", "1", "--mu", "0", "--tau", "0.01", "--delta", "0.1",
        "--alpha", "0.5", "--restarts", "10", "--sweeps", "10", "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0
    assert "K = 3" in stdout
    doc = json.loads(out.read_text())
    assert doc["K"] == 3
    assert doc["hyperparams"]["family"] == "univariate"


@pytest.mark.parametrize("command,flag,extra", [
    ("cluster", "--out", []),
    ("cluster", "--plot-data", []),
    ("sweep", "--out", ["--tau-grid", "0.1,0.01"]),
])
def test_missing_output_directory_fails_before_any_work(capsys, monkeypatch, tmp_path,
                                                        cluster_csv, command, flag, extra):
    # the data is not read, the order not built and no search run
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the output directory was checked")

    for name in ("read_csv", "neighbor_order", "multi_start"):
        monkeypatch.setattr(cli, name, no_work)
    target = tmp_path / "missing" / "result"
    code, stdout, err = run(capsys, [command, "--data", str(cluster_csv), flag, str(target),
                                     *extra])
    assert code == 2 and stdout == ""
    assert err == f"I/O error: no such directory: {target.parent}\n"


@pytest.mark.parametrize("command,extra", [
    ("cluster", []),
    ("sweep", ["--tau-grid", "0.1,0.01"]),
    ("generate", ["--n", "5", "--k", "2", "--b", "2"]),
])
def test_bad_seed_fails_before_any_work(capsys, monkeypatch, tmp_path, cluster_csv, command,
                                        extra):
    # numpy's SeedSequence would raise only once the order is built or the
    # sampling starts, with a message that does not name the seed
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the seed was checked")

    for name in ("neighbor_order", "multi_start", "sample_dataset"):
        monkeypatch.setattr(cli, name, no_work)
    io_flags = (["--out-data", str(tmp_path / "d.csv"), "--out-labels", str(tmp_path / "l.csv")]
                if command == "generate" else ["--data", str(cluster_csv)])
    code, stdout, err = run(capsys, [command, *io_flags, "--seed", "-1", *extra])
    assert code == 1 and stdout == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("command,mu", [
    ("cluster", "abc"),
    ("sweep", "abc"),
    ("eval", "abc"),
    ("generate-b2", "abc"),
    ("generate-b1", "abc"),
    ("generate-b1", "1,2"),
    ("generate-b1", ""),
])
def test_bad_mu_is_a_validation_error(capsys, tmp_path, cluster_csv, command, mu):
    labels = tmp_path / "labels.csv"
    labels.write_text("1\n" * 24)
    out = ["--out-data", str(tmp_path / "d.csv"), "--out-labels", str(tmp_path / "l.csv")]
    argv = {
        "cluster": ["cluster", "--data", str(cluster_csv)],
        "sweep": ["sweep", "--data", str(cluster_csv), "--tau-grid", "0.1,0.01"],
        "eval": ["eval", "--data", str(cluster_csv), "--labels", str(labels)],
        "generate-b2": ["generate", "--n", "10", "--k", "2", "--b", "2"] + out,
        "generate-b1": ["generate", "--n", "10", "--k", "2", "--b", "1"] + out,
    }[command]
    code, _, err = run(capsys, argv + ["--mu", mu])
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("command,flags", [
    ("cluster-galaxy", ["--nu", "50", "--omega", "9"]),
    ("cluster", ["--gamma", "2"]),
    ("sweep", ["--delta", "0.1"]),
    ("sweep-galaxy", ["--nu", "5"]),
    ("eval", ["--gamma", "2"]),
    ("generate-b2", ["--delta", "0.1"]),
    ("generate-b1", ["--omega", "2"]),
])
def test_other_family_prior_flag_is_rejected(capsys, tmp_path, cluster_csv, galaxy_path,
                                             command, flags):
    # the flags of the other prior family used to be dropped without a word
    labels = tmp_path / "labels.csv"
    labels.write_text("1\n" * 24)
    out = ["--out-data", str(tmp_path / "d.csv"), "--out-labels", str(tmp_path / "l.csv")]
    run_flags = ["--restarts", "1", "--sweeps", "1", "--seed", "1"]
    argv = {
        "cluster": ["cluster", "--data", str(cluster_csv)] + run_flags,
        "cluster-galaxy": ["cluster", "--data", str(galaxy_path), "--standardize"] + run_flags,
        "sweep": ["sweep", "--data", str(cluster_csv), "--tau-grid", "0.1,0.01"] + run_flags,
        "sweep-galaxy": ["sweep", "--data", str(galaxy_path), "--tau-grid", "0.1"] + run_flags,
        "eval": ["eval", "--data", str(cluster_csv), "--labels", str(labels)],
        "generate-b2": ["generate", "--n", "10", "--k", "2", "--b", "2"] + out,
        "generate-b1": ["generate", "--n", "10", "--k", "2", "--b", "1"] + out,
    }[command]
    code, stdout, err = run(capsys, argv + flags)
    assert code == 1
    assert err.startswith("error:")
    assert flags[0] in err
    assert "ICL_ex" not in stdout
    assert not (tmp_path / "d.csv").exists()


def test_omitted_prior_flags_take_their_defaults(capsys, tmp_path, cluster_csv, galaxy_path):
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, ["cluster", "--data", str(cluster_csv), "--restarts", "1",
                              "--sweeps", "1", "--seed", "1", "--out", str(out)])
    assert code == 0
    hyper = json.loads(out.read_text())["hyperparams"]
    assert (hyper["nu"], hyper["omega"]) == (3, 1.0)
    code, _, _ = run(capsys, ["cluster", "--data", str(galaxy_path), "--standardize",
                              "--restarts", "1", "--sweeps", "1", "--seed", "1",
                              "--out", str(out)])
    assert code == 0
    hyper = json.loads(out.read_text())["hyperparams"]
    assert (hyper["gamma"], hyper["delta"]) == (0.5, 0.5)


def test_every_restart_failing_exits_3(capsys, monkeypatch, cluster_csv):
    import iclust.optimizer as opt
    from iclust.model import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("forced failure")

    monkeypatch.setattr(opt, "greedy_combined_icl", boom)
    code, stdout, err = run(capsys, ["cluster", "--data", str(cluster_csv), "--restarts", "2",
                                     "--sweeps", "1", "--seed", "1"])
    assert code == 3
    assert err.startswith("numerical error:")
    assert "every restart" in err
    assert "ICL_ex" not in stdout


@pytest.mark.parametrize("flag", ["--beta1", "--beta2"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_beta_exits_1(capsys, cluster_csv, flag, value):
    # Beta(0.1, inf) draws 0, which would silently run unit blocks
    code, _, err = run(capsys, ["cluster", "--data", str(cluster_csv), "--seed", "1",
                                "--restarts", "1", flag, value])
    assert code == 1
    assert f"{flag[2:]} must be strictly positive" in err


def _cluster_process(tmp_path, scale, flags, shift=0.0):
    # a fresh process, as a user runs it: numpy's overflow warnings stay
    # warnings, and an uncaught exception shows as a traceback
    path = tmp_path / "data.csv"
    write_csv((np.random.default_rng(1).standard_normal((40, 2)) + shift) * scale, path)
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "iclust.cli", "cluster", "--data", str(path), "--restarts", "2",
         "--sweeps", "2", "--seed", "1", *flags],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("scale, flags", [
    (1.0, ["--omega", "1e308"]),
    (1.0, ["--tau", "1e308"]),
    (1.0, ["--mu", "1e300"]),
    (1e200, []),
], ids=["omega", "tau", "mu", "data"])
def test_overflowing_run_exits_3_not_nan(tmp_path, scale, flags):
    proc = _cluster_process(tmp_path, scale, flags)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("numerical error:")
    assert "Traceback" not in proc.stderr


def test_standardized_huge_data_clusters_as_unscaled(tmp_path):
    # two clouds 8 sds apart; at 1e200 the squares of the raw values overflow
    shift = np.repeat([[0.0, 0.0], [8.0, 0.0]], 20, axis=0)
    flags = ["--standardize", "--omega", "0.1"]
    runs = [_cluster_process(tmp_path, scale, flags, shift) for scale in (1e200, 1.0)]
    for proc in runs:
        assert proc.returncode == 0
        assert proc.stderr == ""
    huge, unscaled = (re.fullmatch(r"K = (\d+)\nICL_ex = (\S+)\n", proc.stdout).groups()
                      for proc in runs)
    assert int(huge[0]) == int(unscaled[0]) > 1
    assert math.isfinite(float(huge[1]))
    assert float(huge[1]) == pytest.approx(float(unscaled[1]), rel=1e-9)


# 145 rows, each one of the four points (+-1e7, +-1e7), by quadrant index
_QUADRANTS = ("2332333012112320230213013103333123232012121302002111321331000222332201"
              "330112011032032021113030330301220013120331311103012103330111032001330310300")


def test_near_duplicate_corners_cluster_without_a_numerical_error(capsys, tmp_path):
    # moving a point out of a group of near-duplicates leaves a scatter near
    # 0 that the signed merge computes with rounding noise far above xi; that
    # column is rebuilt from the group's members, so no restart aborts
    corners = np.array([[1e7, 1e7], [1e7, -1e7], [-1e7, 1e7], [-1e7, -1e7]])
    x = corners[[int(q) for q in _QUADRANTS]]
    path, out = tmp_path / "corners.csv", tmp_path / "r.json"
    write_csv(x, path)
    code, stdout, err = run(capsys, ["cluster", "--data", str(path), "--restarts", "2",
                                     "--sweeps", "2", "--seed", "1", "--out", str(out)])
    assert code == 0, err
    doc = json.loads(out.read_text())
    assert None not in doc["restart_best"]
    params = MvHyperParams(alpha=4.0, tau=0.01, mu=x.mean(axis=0), nu=3.0, omega=1.0)
    icl = float(re.fullmatch(r"K = \d+\nICL_ex = (\S+)\n", stdout).group(1))
    assert icl == icl_exact(DataSet(x), np.array(doc["labels"]), params).total


@pytest.mark.parametrize("flag", ["--alpha", "--nu"])
def test_prior_that_overflows_lgamma_exits_1(tmp_path, flag):
    proc = _cluster_process(tmp_path, 1.0, [flag, "1e308"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "lgamma overflows" in proc.stderr
    assert "Traceback" not in proc.stderr


@st.composite
def extreme_cluster_flags(draw):
    # each prior flag of the data's family omitted or anywhere in 1e-300..1e300,
    # mu with either sign; the data is two clouds, univariate or bivariate
    magnitude = st.floats(-300, 300).map(lambda e: 10.0 ** e)
    b = draw(st.sampled_from([1, 2]))
    family = ("gamma", "delta") if b == 1 else ("nu", "omega")
    flags = {name: draw(st.none() | magnitude) for name in ("alpha", "tau") + family}
    flags["mu"] = draw(st.none() | st.tuples(st.sampled_from([-1.0, 1.0]), magnitude)
                       .map(lambda sm: sm[0] * sm[1]))
    return b, flags, draw(st.booleans()), draw(st.sampled_from(["combined", "plain"]))


@settings(max_examples=40, deadline=None)
@given(case=extreme_cluster_flags())
def test_cluster_prints_an_exact_finite_icl_or_a_typed_error(case):
    # numpy's overflow warnings stay warnings, as in a user's process (see
    # _cluster_process); no exception may escape main and no nan reach stdout
    b, flags, scaled, algorithm = case
    x = np.random.default_rng(4).standard_normal((30, b))
    x[15:, 0] += 8.0
    values = {name: value for name, value in flags.items() if value is not None}
    argv = [f"--{name}={value!r}" for name, value in values.items()]
    argv += ["--standardize"] * scaled + ["--algorithm", algorithm]
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(x, Path(tmp) / "data.csv")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always", RuntimeWarning)
            code = main(["cluster", "--data", str(Path(tmp) / "data.csv"), "--restarts", "2",
                         "--sweeps", "2", "--seed", "1", "--out", str(Path(tmp) / "r.json"),
                         *argv])
            if code == 0:
                labels = json.loads((Path(tmp) / "r.json").read_text())["labels"]
        stdout, stderr = out.getvalue(), err.getvalue()
    assert "nan" not in stdout.lower()
    if code != 0:
        assert code in (1, 3)
        assert stdout == ""
        last = stderr.splitlines()[-1]
        assert last.startswith("error:" if code == 1 else "numerical error:")
        return
    k, icl = re.fullmatch(r"K = (\d+)\nICL_ex = (\S+)\n", stdout).groups()
    data = standardize(DataSet(x))[0] if scaled else DataSet(x)
    mu = np.full(b, values["mu"]) if "mu" in values else data.values.mean(axis=0)
    alpha, tau = values.get("alpha", 4.0), values.get("tau", 0.01)
    if b == 1:
        params = UvHyperParams(alpha=alpha, tau=tau, mu=float(mu[0]),
                               gamma=values.get("gamma", 0.5), delta=values.get("delta", 0.5))
    else:
        params = MvHyperParams(alpha=alpha, tau=tau, mu=mu, nu=values.get("nu", 3.0),
                               omega=values.get("omega", 1.0))
    assert math.isfinite(float(icl))
    assert int(k) == max(labels)
    assert float(icl) == icl_exact(data, np.array(labels), params).total
