import json

import numpy as np
import pytest

from divknn import TruncatedGaussianSpec, sample_truncated_gaussian, true_renyi_integral
from divknn.cli import main

BENCH_COMMON = ["--dims", "1", "--n-grid", "50,100", "--trials", "2",
                "--l-list", "0.5,1.0,2.0", "--seed", "3"]


def write_samples(tmp_path, n=150, d=1):
    f1 = TruncatedGaussianSpec(d, (0.7,), 0.1)
    f2 = TruncatedGaussianSpec(d, (0.3,), 0.1)
    y_path = tmp_path / "f1.csv"
    x_path = tmp_path / "f2.csv"
    np.savetxt(y_path, sample_truncated_gaussian(f1, n, 0, stream=1).points, delimiter=",")
    np.savetxt(x_path, sample_truncated_gaussian(f2, n, 0, stream=2).points, delimiter=",")
    return str(y_path), str(x_path)


def test_truth_renyi(capsys):
    assert main(["truth", "-d", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(
        true_renyi_integral(TruncatedGaussianSpec(1, (0.7,), 0.1),
                            TruncatedGaussianSpec(1, (0.3,), 0.1), 0.5), abs=1e-15)


def test_truth_mc_kl(capsys):
    assert main(["truth", "-d", "1", "--functional", "kl", "--mc-n", "10000"]) == 0
    out = capsys.readouterr().out
    assert "mc std error" in out


def test_weights_sum_to_one(capsys):
    assert main(["weights", "--mode", "odin1", "-d", "2", "-n", "400",
                 "--l-list", "0.5,1.0,1.5,2.0", "--solver", "exact"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("l=")]
    assert len(lines) == 4
    assert "sum=1" in out


def test_estimate_text_and_json(capsys, tmp_path):
    y_path, x_path = write_samples(tmp_path)
    common = ["estimate", "--f1-sample", y_path, "--f2-sample", x_path,
              "--l-list", "0.5,1.0,2.0", "--reps", "15", "--solver", "exact"]
    assert main(common) == 0
    text = capsys.readouterr().out
    assert "estimate" in text and "ci" in text
    assert main(common + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ci_low"] < payload["estimate"] < payload["ci_high"]
    assert payload["null_value"] == 1.0  # renyi null
    assert payload["bootstrap_reps"] == 15


def test_bench_csv_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", "--out", str(out1), "--slopes"] + BENCH_COMMON) == 0
    capsys.readouterr()
    assert main(["bench", "--out", str(out2)] + BENCH_COMMON) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    header = text.splitlines()[1]
    assert header == "d,n,estimator,trials,mean_estimate,true_value,bias,variance,mse,wall_time_ms"
    assert text.splitlines()[0].startswith("# ")  # provenance comment


def test_bench_json_output(tmp_path):
    out = tmp_path / "a.json"
    assert main(["bench", "--out", str(out), "--format", "json",
                 "--estimators", "plugin"] + BENCH_COMMON) == 0
    data = json.loads(out.read_text())
    assert {r["estimator"] for r in data} == {"plugin"}
    assert {r["n"] for r in data} == {50, 100}


def test_bench_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 2\nseed = 3\ndims = 1\n# comment\nestimators = plugin\n")
    out = tmp_path / "c.csv"
    assert main(["bench", "--out", str(out), "--config", str(cfg),
                 "--n-grid", "50,100", "--l-list", "0.5,1.0,2.0",
                 "--trials", "3"]) == 0  # flag overrides the file's trials=2
    body = [l for l in out.read_text().splitlines() if not l.startswith(("#", "d,"))]
    assert all(line.split(",")[2] == "plugin" for line in body)
    assert all(line.split(",")[3] == "3" for line in body)


def test_estimate_header_flag(tmp_path, capsys):
    y_path, x_path = write_samples(tmp_path, n=80)
    for p in (y_path, x_path):
        raw = open(p).read()
        with open(p, "w") as fh:
            fh.write("x0\n" + raw)
    assert main(["estimate", "--f1-sample", y_path, "--f2-sample", x_path, "--header",
                 "--l-list", "0.5,1.0,2.0", "--reps", "10", "--solver", "exact"]) == 0
    assert "estimate" in capsys.readouterr().out



def run_estimate(capsys, y_path, x_path, l_list, *extra):
    assert main(["estimate", "--f1-sample", y_path, "--f2-sample", x_path, "--l-list", l_list,
                 "--reps", "10", "--solver", "exact", *extra]) == 0
    return capsys.readouterr().out


def test_estimate_reports_warnings_and_clamps(capsys, tmp_path):
    y_path, x_path = write_samples(tmp_path)
    # At N=150, l=0.5 and l=0.52 both map to k=6.
    payload = json.loads(run_estimate(capsys, y_path, x_path, "0.5,0.52,1.0,2.0",
                                      "--format", "json"))
    assert payload["warnings"] == ["k collision: l=0.5 and l=0.52 both map to k=6"]
    assert payload["degeneracy_count"] == 0
    text = run_estimate(capsys, y_path, x_path, "0.5,0.52,1.0,2.0")
    assert "warnings   k collision: l=0.5 and l=0.52 both map to k=6" in text
    assert "warnings" not in run_estimate(capsys, y_path, x_path, "0.5,1.0,2.0")
    # Seven copies of one f2 point: each has six zero leave-one-out distances,
    # so k=6 (of k = 6, 12, 25 at N=156) clamps once per copy.
    x = np.loadtxt(x_path, delimiter=",", ndmin=2)
    np.savetxt(x_path, np.vstack([x, np.repeat(x[:1], 6, axis=0)]), delimiter=",")
    payload = json.loads(run_estimate(capsys, y_path, x_path, "0.5,1.0,2.0", "--format", "json"))
    assert payload["warnings"] == [] and payload["degeneracy_count"] == 7
