import json
import math
import re

import numpy as np
import pytest

from iclust.cli import main
from iclust.io import read_csv, read_result, write_csv


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
        doc = read_result(out)
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
        doc = read_result(out)
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

    def test_no_grid_flags_exits_1(self, capsys, cluster_csv):
        code, _, err = run(capsys, ["sweep", "--data", str(cluster_csv)])
        assert code == 1

    def test_failed_grid_point_reported_in_row(self, capsys, cluster_csv):
        code, stdout, _ = run(capsys, [
            "sweep", "--data", str(cluster_csv), "--seed", "4",
            "--tau-grid", "0.1,-1", "--restarts", "2", "--sweeps", "4",
        ])
        assert code == 0
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        assert len(lines) == 3
        assert "failed" in lines[2]

    def test_delta_grid_rejected_for_multivariate(self, capsys, cluster_csv):
        code, _, err = run(capsys, [
            "sweep", "--data", str(cluster_csv), "--delta-grid", "1,0.1",
        ])
        assert code == 1
        assert "univariate" in err or "delta" in err


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
    hyper = read_result(out)["hyperparams"]
    assert (hyper["nu"], hyper["omega"]) == (3, 1.0)
    code, _, _ = run(capsys, ["cluster", "--data", str(galaxy_path), "--standardize",
                              "--restarts", "1", "--sweeps", "1", "--seed", "1",
                              "--out", str(out)])
    assert code == 0
    hyper = read_result(out)["hyperparams"]
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
