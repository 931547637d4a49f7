import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from divknn import (EnsembleConfig, ExperimentConfig, TruncatedGaussianSpec,
                    sample_truncated_gaussian, solve_weights, true_renyi_integral)
from divknn import cli
from divknn.bench import MC_TRUTH_N
from divknn.cli import _l_values, build_parser, main
from divknn.ensemble import default_l_grid

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


def test_truth_prints_the_value_bench_scores_against(tmp_path, capsys):
    assert main(["truth", "-d", "1", "--functional", "kl", "--seed", "3"]) == 0
    printed = float(capsys.readouterr().out.split()[0])
    out = tmp_path / "kl.csv"
    assert main(["bench", "--out", str(out), "--functional", "kl", *BENCH_COMMON]) == 0
    rows = out.read_text().splitlines()
    column = rows[1].split(",").index("true_value")
    assert {float(row.split(",")[column]) for row in rows[2:]} == {printed}


ENSEMBLE_FIELDS = ("delta", "nu", "eta", "solver", "k_min")
BENCH_FIELDS = tuple(name for name in ExperimentConfig.__dataclass_fields__
                     if name != "l_values_odin1")  # the l flags set the ODin1 grid


@pytest.mark.parametrize("argv, fields", [
    (["estimate", "--f1-sample", "y.csv", "--f2-sample", "x.csv"],
     ("functional", "alpha") + ENSEMBLE_FIELDS),
    (["weights", "-d", "3", "-n", "400"], ENSEMBLE_FIELDS),
    (["bench", "--out", "out.csv"], BENCH_FIELDS),
    (["truth", "-d", "3"], ("functional", "alpha", "mean1", "mean2", "variance", "seed")),
])
def test_flag_defaults_are_the_config_defaults(argv, fields):
    args = build_parser().parse_args(argv)
    for name in fields:
        assert getattr(args, name) == getattr(ExperimentConfig, name), name
        if name in ENSEMBLE_FIELDS:
            assert getattr(args, name) == getattr(EnsembleConfig, name), name
    if argv[0] == "truth":
        assert args.mc_n == MC_TRUTH_N
        return
    assert _l_values(args, 400) == default_l_grid(getattr(args, "mode", "odin1"), 400, 0.5)
    if argv[0] == "bench":
        assert _l_values(args, None) == ExperimentConfig.l_values_odin1


def test_weights_sum_to_one(capsys):
    assert main(["weights", "--mode", "odin1", "-d", "2", "-n", "400",
                 "--l-list", "0.5,1.0,1.5,2.0", "--solver", "exact"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("l=")]
    assert len(lines) == 4
    assert "sum=1" in out


def test_weights_reports_norm_and_levels(capsys):
    argv = ["weights", "--mode", "odin1", "-d", "3", "-n", "800"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    solution = solve_weights(EnsembleConfig("odin1", tuple(np.linspace(0.3, 3.0, 50)), 3, 800))
    summary = dict(field.split("=") for field in out.splitlines()[-1].split())
    assert float(summary["w_norm"]) == np.linalg.norm(solution.weights)
    assert int(summary["levels"]) == solution.solver_iterations > 0
    assert float(summary["objective"]) == solution.objective


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
    assert header == ("d,n,estimator,trials,mean_estimate,true_value,bias,variance,mse,"
                      "wall_time_ms,error")
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


def bench_with_config(tmp_path, text, *flags):
    """Run bench with ``text`` as its config file; returns the provenance as a dict."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "run.csv"
    assert main(["bench", "--out", str(out), "--config", str(cfg), "--trials", "2", *flags]) == 0
    return dict(item.split("=", 1) for item in out.read_text().splitlines()[0][2:].split())


def test_bench_config_loses_to_a_flag_at_its_default(tmp_path):
    provenance = bench_with_config(tmp_path, "dims = 1\nseed = 3\n", "--n-grid", "50,100",
                                   "--l-list", "0.5,1,2", "--seed", "0")
    assert provenance["seed"] == "0"


def test_bench_config_one_value_list(tmp_path):
    provenance = bench_with_config(tmp_path, "dims = 1\nn_grid = 100\n", "--l-list", "0.5,1,2")
    assert provenance["n_grid"] == "100"


def test_bench_config_sets_l_grid_plugin_k_and_switches(tmp_path):
    provenance = bench_with_config(tmp_path, "dims = 1\nl_list = 0.5,1,2\nk = 3\ntiming = true\n",
                                   "--n-grid", "50,100")
    assert provenance["plugin_k"] == "3"
    assert provenance["l_values_odin1"] == "0.5,1,2"
    assert provenance["timing"] == "True"


def test_bench_config_unknown_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    argv = ["bench", "--out", str(tmp_path / "run.csv"), "--config", str(cfg), "--trials", "2",
            "--n-grid", "50,100", "--l-list", "0.5,1,2"]
    cfg.write_text("dims = 1\ntrails = 9\n")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code != 0
    assert "--trails" in capsys.readouterr().err
    cfg.write_text("dims = 1\ntrials\n")
    assert main(argv) == 1
    assert "error: config line without '='" in capsys.readouterr().err


def test_bench_rejects_mode(tmp_path, capsys):
    # bench runs every estimator --estimators names, so a --mode would be ignored.
    argv = ["bench", "--out", str(tmp_path / "run.csv"), *BENCH_COMMON]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = odin2\n")
    for extra in (["--mode", "odin2"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err


def test_estimate_header_flag(tmp_path, capsys):
    y_path, x_path = write_samples(tmp_path, n=80)
    for p in (y_path, x_path):
        Path(p).write_text("x0\n" + Path(p).read_text())
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


RATE_MESSAGE = ("nu=2 < ceil(1/delta)=4: the parametric MSE rate is not guaranteed for "
                "this configuration")


def test_rate_warning_reaches_estimate_and_weights(capsys, tmp_path):
    # The message is data (plan.warnings), never a Python warning: under
    # "error" a warnings.warn anywhere would raise.
    y_path, x_path = write_samples(tmp_path)
    odin2 = ("--mode", "odin2", "--delta", "0.25", "--nu", "2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = json.loads(run_estimate(capsys, y_path, x_path, "1.0,2.0,3.0", *odin2,
                                          "--format", "json"))
        assert payload["warnings"] == [RATE_MESSAGE]
        text = run_estimate(capsys, y_path, x_path, "1.0,2.0,3.0", *odin2)
        assert "warnings   %s" % RATE_MESSAGE in text
        assert main(["weights", "-d", "1", "-n", "150", "--l-list", "1.0,2.0,3.0",
                     "--solver", "exact", *odin2]) == 0
    assert capsys.readouterr().err.splitlines() == ["warning: %s" % RATE_MESSAGE]


@pytest.mark.parametrize("estimators, expected", [
    ("plugin,odin1,odin2", ["warning: %s" % RATE_MESSAGE]),
    ("odin2", ["warning: %s" % RATE_MESSAGE]),
    ("plugin,odin1", []),  # the ODin2 config is judged but not run
])
def test_bench_prints_the_rate_warning_once_when_odin2_runs(tmp_path, capsys, estimators,
                                                            expected):
    # ODin1's l = 0.5 and 0.52 collide at k = 4 (N = 50): bench does not print
    # k collisions, which the default ODin1 grid has at every small N.
    out = tmp_path / "run.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bench", "--out", str(out), *BENCH_COMMON, "--l-list", "0.5,0.52,2.0",
                     "--delta", "0.25", "--estimators", estimators, "--threads", "2"]) == 0
    assert capsys.readouterr().err.splitlines() == expected


def test_library_errors_are_one_line_and_exit_1(capsys):
    # The exact program is rank deficient at d=7.
    assert main(["weights", "--mode", "odin1", "-d", "7", "-n", "1600", "--solver", "exact"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "cond(A)" in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["weights", "-d", "3", "-n", "100", "--eta", "nan"],
    ["weights", "-d", "3", "-n", "100", "--eta", "inf"],
    ["weights", "-d", "3", "-n", "100", "--l-list", "nan,1"],
    ["weights", "-d", "3", "-n", "100", "--l-min", "nan"],
    ["weights", "-d", "3", "-n", "100", "--delta", "nan", "--mode", "odin2"],
    ["bench", "--l-list", "1,nan", "--dims", "1", "--trials", "1"],
    ["bench", "--delta", "nan", "--dims", "1", "--trials", "1"],
    ["bench", "--eta", "nan", "--dims", "1", "--trials", "1"],
    ["estimate", "--alpha", "nan", "--reps", "5"],
    ["truth", "-d", "2", "--alpha", "nan"],
])
def test_non_finite_flags_are_one_error_line(tmp_path, capsys, argv):
    if argv[0] == "bench":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    if argv[0] == "estimate":
        y_path, x_path = write_samples(tmp_path)
        argv = argv + ["--f1-sample", y_path, "--f2-sample", x_path]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "finite" in lines[0]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["weights", "--mode", "odin2", "-d", "3", "-n", "100", "--delta", "1e300"],
    ["weights", "--mode", "odin2", "-d", "3", "-n", "100", "--delta=-1e300"],
    ["weights", "-d", "3", "-n", "100", "--l-list", "1,2,1e308"],
    ["bench", "--delta", "1e300"],
    ["bench", "--delta=-1e300"],
    ["bench", "--l-list", "1,2,1e308"],
    ["bench", "--eta", "-1"],
    ["bench", "--nu", "0"],
    ["bench", "--solver", "exact", "--estimators", "plugin", "--eta", "0"],
    ["weights", "-d", "3", "-n", "100", "--k-min", "0"],
    ["bench", "--k-min", "-5"],
])
def test_out_of_range_flags_are_one_error_line(tmp_path, capsys, argv):
    if argv[0] == "bench":
        argv = argv + ["--dims", "1", "--n-grid", "50,100", "--trials", "2",
                       "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not (tmp_path / "out.csv").exists()


def _file_error_argv(tmp_path, case):
    """A command whose input or output file is bad in the way ``case`` names."""
    y_path, x_path = write_samples(tmp_path, n=60)
    out, extra = tmp_path / "out.csv", []
    if case == "malformed_sample":
        Path(x_path).write_text("0.1\nabc\n")
    elif case == "empty_sample":
        Path(x_path).write_text("")
    elif case == "missing_sample":
        x_path = str(tmp_path / "missing.csv")
    elif case == "missing_config":
        extra = ["--config", str(tmp_path / "missing.cfg")]
    elif case == "out_in_missing_directory":
        out = tmp_path / "missing" / "out.csv"
    elif case == "out_is_a_directory":
        out.mkdir()
    if case.endswith("_sample"):
        return ["estimate", "--f1-sample", y_path, "--f2-sample", x_path, "--reps", "10"]
    return ["bench", *BENCH_COMMON, "--out", str(out), *extra]


@pytest.mark.parametrize("case", ["malformed_sample", "empty_sample", "missing_sample",
                                  "missing_config", "out_in_missing_directory",
                                  "out_is_a_directory"])
def test_unreadable_and_unwritable_files_are_one_error_line(tmp_path, capsys, monkeypatch, case):
    argv = _file_error_argv(tmp_path, case)
    monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the grid ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not (tmp_path / "missing").exists()
    assert not (tmp_path / "out.csv").is_file()


@pytest.mark.parametrize("exists", [False, True])
def test_an_unwritable_out_is_one_error_line_before_the_grid(tmp_path, capsys, monkeypatch,
                                                             exists):
    # Under root every path is writable, so os.access stands in for an --out
    # the process may not write: the file if it exists, else its directory.
    out = tmp_path / "out.csv"
    if exists:
        out.write_text("old\n")
    asked = []

    def access(path, mode):
        asked.append((str(path), mode))
        return False

    monkeypatch.setattr(cli.os, "access", access)
    monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the grid ran"))
    assert main(["bench", *BENCH_COMMON, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --out %s is not writable\n" % out
    assert asked == [(str(out) if exists else str(tmp_path), cli.os.W_OK)]
    assert (out.read_text() == "old\n") if exists else not out.exists()


def test_odin2_takes_its_own_default_l_grid(capsys):
    # 25 consecutive ks from round(1.4 * sqrt(100)) = 14, as ExperimentConfig schedules them.
    assert main(["weights", "--mode", "odin2", "-d", "7", "-n", "100"]) == 0
    captured = capsys.readouterr()
    assert "k collision" not in captured.err
    ks = [int(line.split()[1][2:]) for line in captured.out.splitlines() if line.startswith("l=")]
    assert ks == list(range(14, 39))
    # Any l flag selects the linspace grid again.
    assert main(["weights", "--mode", "odin2", "-d", "7", "-n", "100", "--l-count", "20"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("l=") for line in out.splitlines()) == 20
