import csv
import io
import json
import math
import multiprocessing

import numpy as np
import pytest

from divknn import (
    ConfigurationError,
    ExperimentConfig,
    ParameterError,
    PointSet,
    ResultRow,
    SolverError,
    emit,
    ensemble_estimate,
    fit_loglog_slope,
    make_functional,
    plugin_estimate,
    run_experiment,
    sample_truncated_gaussian,
)
from divknn import bench, synth
from divknn.bench import CSV_HEADER, _trial_stream, rows_to_csv, rows_to_json
from divknn.ensemble import k_schedule

TINY = dict(dims=(1,), n_grid=(50, 100, 200), trials=4, seed=9,
            l_values_odin1=tuple(np.linspace(0.5, 2.0, 6)))


def make_rows(mses, estimator="odin1", d=7):
    return [ResultRow(d, n, estimator, 10, 0.5, 0.5, 0.0, m, m)
            for n, m in mses]


def test_slope_exact_power_laws():
    ns = (100, 200, 400, 800, 1600)
    rows = make_rows([(n, 3.7 / n) for n in ns])
    assert fit_loglog_slope(rows) == pytest.approx(-1.0, abs=1e-12)
    rows = make_rows([(n, 0.2 * n**-0.25) for n in ns])
    assert fit_loglog_slope(rows) == pytest.approx(-0.25, abs=1e-12)


def test_slope_preconditions():
    ns = (100, 200)
    with pytest.raises(ParameterError, match="3 rows"):
        fit_loglog_slope(make_rows([(n, 1.0 / n) for n in ns]))
    mixed = make_rows([(100, 0.1), (200, 0.05)]) + make_rows([(400, 0.02)], estimator="plugin")
    with pytest.raises(ParameterError, match="one"):
        fit_loglog_slope(mixed)
    with pytest.raises(ParameterError, match="positive"):
        fit_loglog_slope(make_rows([(100, 0.1), (200, 0.0), (400, 0.01)]))


def test_config_validation():
    with pytest.raises(ConfigurationError, match="increasing"):
        ExperimentConfig(n_grid=(200, 100))
    with pytest.raises(ConfigurationError, match="estimator"):
        ExperimentConfig(estimators=("bogus",))
    with pytest.raises(ConfigurationError, match="too small"):
        ExperimentConfig(dims=(1,), n_grid=(10,))  # max k exceeds N-1
    with pytest.raises(ConfigurationError, match="trials"):
        ExperimentConfig(trials=0)
    for threads in (0, -4):
        with pytest.raises(ConfigurationError, match="threads"):
            ExperimentConfig(threads=threads)


@pytest.mark.parametrize("estimator, fields", [
    ("plugin", {}),
    ("plugin", {"plugin_k": 30}),
    ("odin1", {}),
    ("odin1", {"l_values_odin1": (0.5, 1.0, 6.0)}),
    ("odin2", {}),
    ("odin2", {"l_values_odin2": (0.5, 1.0, 4.5), "delta": 0.6}),
])
def test_config_raises_exactly_when_the_schedule_clamps_to_n_minus_1(estimator, fields):
    # k(l) = round(l * sqrt(N)) for ODin1 and the plug-in, round(l * N^delta)
    # for ODin2, rounded half away from zero; k_schedule clamps it to N-1.
    valid = ExperimentConfig(dims=(1,), n_grid=(10**6,), estimators=(estimator,), **fields)
    raised = []
    for n in range(5, 121):
        config = valid.ensemble_config(estimator, 1, n)
        base = math.sqrt(n) if config.mode == "odin1" else n**config.delta
        raw = [math.floor(l * base + 0.5) for l in config.l_values]
        try:
            ExperimentConfig(dims=(1,), n_grid=(n,), estimators=(estimator,), **fields)
        except ConfigurationError as err:
            assert "too small" in str(err) and max(raw) > n - 1, n
            raised.append(n)
            continue
        assert max(raw) <= n - 1, n
        schedule, _ = k_schedule(config)
        assert [k for _, k in schedule] == [max(k, config.k_min) for k in raw]
    # The plug-in's default k = round(sqrt(N)) never reaches N; every other
    # case raises below some N and holds above it.
    assert bool(raised) == (estimator != "plugin" or bool(fields))
    assert raised == list(range(5, len(raised) + 5))


def test_odin2_default_grid_consecutive_k():
    config = ExperimentConfig(**TINY)
    grid = config.odin2_l_grid(100)
    ks = [round(l * 100**0.5) for l in grid]
    assert ks == list(range(ks[0], ks[0] + 25))
    assert ks[0] == round(1.4 * 100**0.5)
    explicit = ExperimentConfig(**{**TINY, "l_values_odin2": (1.0, 2.0)})
    assert explicit.odin2_l_grid(100) == (1.0, 2.0)


def test_run_experiment_shapes_and_identity():
    config = ExperimentConfig(**TINY)
    rows = run_experiment(config)
    assert len(rows) == 3 * 3  # three N values, three estimators
    for r in rows:
        assert r.error is None
        assert r.mse == pytest.approx(r.bias**2 + r.variance, abs=1e-18)
        assert r.trials == 4
        assert r.wall_time_ms == 0.0  # timing off by default
        assert np.isfinite(r.mean_estimate)


def test_single_trial_zero_variance():
    config = ExperimentConfig(**{**TINY, "trials": 1, "n_grid": (50,),
                                 "estimators": ("plugin",)})
    (row,) = run_experiment(config)
    assert row.variance == 0.0
    assert row.mse == pytest.approx(row.bias**2, abs=0)


def test_rows_equal_standalone_estimates_to_the_bit():
    # One shared profile per trial must give each estimator exactly what its
    # own entry point gives on the same samples.
    config = ExperimentConfig(dims=(3,), n_grid=(100, 400), trials=3, seed=5)
    spec = config.functional_spec()
    spec1, spec2 = config.density_specs(3)
    rows = run_experiment(config)
    assert len(rows) == 6
    for row in rows:
        values = []
        for trial in range(config.trials):
            x = sample_truncated_gaussian(spec2, row.n, config.seed,
                                          _trial_stream(3, row.n, trial, 0))
            y = sample_truncated_gaussian(spec1, row.n, config.seed,
                                          _trial_stream(3, row.n, trial, 1))
            if row.estimator == "plugin":
                k = round(row.n**0.5)
                values.append(plugin_estimate(x, y, k, k, spec).value)
            else:
                econf = config.ensemble_config(row.estimator, 3, row.n)
                values.append(ensemble_estimate(x, y, econf, spec).value)
        assert row.mean_estimate == float(np.mean(values)), row.estimator


def test_deterministic_rerun_byte_identical():
    config = ExperimentConfig(**TINY)
    a = rows_to_csv(run_experiment(config), provenance=config.canonical())
    b = rows_to_csv(run_experiment(config), provenance=config.canonical())
    assert a == b


def test_threaded_matches_serial():
    for fields in (
        {**TINY, "trials": 6},
        # The neighbor screen's chunked BLAS products run in the worker processes.
        dict(dims=(7,), n_grid=(100, 400), trials=4, seed=9),
        # More workers than trials: one trial per chunk.
        {**TINY, "trials": 3},
    ):
        serial = rows_to_csv(run_experiment(ExperimentConfig(**fields)))
        for threads in (2, 4):
            assert rows_to_csv(run_experiment(ExperimentConfig(**fields, threads=threads))) \
                == serial, (fields, threads)
            assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [1, 2])
def test_wall_time_is_the_cells_solve_and_trial_time_under_timing(threads):
    fields = {**TINY, "threads": threads}
    timed = run_experiment(ExperimentConfig(**fields, timing=True))
    assert all(r.error is None and r.wall_time_ms > 0.0 for r in timed)
    assert all(r.wall_time_ms == 0.0 for r in run_experiment(ExperimentConfig(**fields)))


def test_csv_format(tmp_path):
    rows = make_rows([(100, 0.125)])
    path = tmp_path / "out.csv"
    emit(rows, "csv", path, provenance="cfg")
    lines = path.read_text().splitlines()
    assert lines[0] == "# cfg"
    assert lines[1] == CSV_HEADER
    assert CSV_HEADER == ("d,n,estimator,trials,mean_estimate,true_value,bias,variance,mse,"
                          "wall_time_ms,error")
    assert lines[2] == "7,100,odin1,10,0.5,0.5,0,0.125,0.125,0,"  # an OK row's error is empty
    # Header-only output for an empty row list.
    assert rows_to_csv([]) == CSV_HEADER + "\n"


def test_csv_17_digit_floats():
    rows = [ResultRow(1, 10, "plugin", 1, 1 / 3, 0.1, 0.1 + 1 / 3 - 0.1, 0.0, 0.0)]
    text = rows_to_csv(rows)
    assert "0.33333333333333331" in text


def test_json_round_trip(tmp_path):
    rows = make_rows([(100, 0.125), (200, 0.0625)])
    path = tmp_path / "out.json"
    emit(rows, "json", path)
    data = json.loads(path.read_text())
    assert len(data) == 2
    assert data[0]["estimator"] == "odin1"
    assert data[0]["mse"] == 0.125
    assert data[1]["n"] == 200
    assert data[0]["error"] is None
    assert json.loads(rows_to_json([])) == []


def test_json_non_finite_becomes_null():
    nan = float("nan")
    rows = [ResultRow(1, 10, "plugin", 1, nan, 0.1, nan, nan, nan, 0.0, error="boom")]
    data = json.loads(rows_to_json(rows))
    assert data[0]["mse"] is None
    assert data[0]["error"] == "boom"


def test_csv_error_column_reads_back_as_the_json_error():
    nan = float("nan")
    message = 'l="0.5, 1" failed, twice'
    rows = [ResultRow(1, 10, "odin1", 2, nan, 0.1, nan, nan, nan, 0.0, error=message),
            ResultRow(1, 10, "plugin", 2, 0.2, 0.1, 0.1, 0.0, 0.01)]
    records = list(csv.reader(io.StringIO(rows_to_csv(rows, provenance="a, b"))))
    assert records[1] == CSV_HEADER.split(",")
    assert [len(record) for record in records[1:]] == [11, 11, 11]
    failed, ok = (dict(zip(records[1], record)) for record in records[2:])
    data = json.loads(rows_to_json(rows))
    assert failed["error"] == data[0]["error"] == message
    assert failed["mse"] == "nan" and data[0]["mse"] is None
    assert ok["error"] == "" and data[1]["error"] is None
    assert [list(row) for row in data] == [records[1]] * 2


def test_failed_weight_solve_fails_only_its_row():
    # At d=7 the exact program is rank deficient for both ensembles; the
    # plug-in row needs no weights and must still be computed.
    config = ExperimentConfig(dims=(7,), n_grid=(200,), trials=2, solver="exact")
    rows = {r.estimator: r for r in run_experiment(config)}
    assert rows["plugin"].error is None
    assert np.isfinite(rows["plugin"].mse)
    for est in ("odin1", "odin2"):
        assert "rank deficient" in rows[est].error
        assert np.isnan(rows[est].mse)
    data = json.loads(rows_to_json([rows["plugin"], rows["odin1"]]))
    assert data[0]["error"] is None
    assert "rank deficient" in data[1]["error"]
    records = list(csv.DictReader(io.StringIO(rows_to_csv(rows.values()))))
    assert [r["estimator"] for r in records] == ["plugin", "odin1", "odin2"]
    assert records[0]["error"] == ""
    for record in records[1:]:
        assert record["error"] == rows[record["estimator"]].error
        assert record["error"].startswith("constraint matrix is rank deficient")


@pytest.mark.parametrize("fields", [
    {"eta": -1.0},
    {"eta": 0.0},
    {"nu": 0},
    {"solver": "bogus"},
    {"delta": 1e300},
    {"delta": -1e300},
    {"dims": ()},
    {"n_grid": ()},
])
def test_config_rejects_bad_ensemble_parameters_whichever_estimators_run(fields):
    # EnsembleConfig judges every ensemble field for all three estimators,
    # so a bad value fails at construction, not as a grid of nan rows.
    for estimators in (("plugin",), ("plugin", "odin1", "odin2")):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**{**TINY, "estimators": estimators, **fields})


def test_programming_error_in_a_cell_propagates(monkeypatch):
    # Only a failed weight solve or a rejected value makes a failed row; a
    # bug must not become nan rows, here or in a worker process.
    def broken(*args, **kwargs):
        raise TypeError("broken profile")

    monkeypatch.setattr("divknn.bench.plugin_profile", broken)
    for threads in (1, 2):
        with pytest.raises(TypeError, match="broken profile"):
            run_experiment(ExperimentConfig(**{**TINY, "n_grid": (50,), "threads": threads}))
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("error", [ValueError("bad sample"), SolverError("no weights")])
def test_an_error_in_one_cells_trials_fails_only_that_cell(monkeypatch, threads, error):
    # The patched profile fails every trial at N=100 only; a worker's error
    # comes back to the parent, which records it for the cell and goes on.
    profile = bench.plugin_profile

    def failing_at_100(x, y, ks, spec):
        if x.n == 100:
            raise error
        return profile(x, y, ks, spec)

    config = ExperimentConfig(**{**TINY, "threads": threads})
    monkeypatch.setattr("divknn.bench.plugin_profile", failing_at_100)
    rows = run_experiment(config)
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    clean = run_experiment(config)
    for row, want in zip(rows, clean):
        if row.n == 100:
            assert row.error == str(error) and math.isnan(row.mse)
        else:
            assert row == want


def test_worker_processes_need_fork(monkeypatch):
    def no_fork(method=None):
        raise ValueError("cannot find context for %r" % method)

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    with pytest.raises(ConfigurationError, match="fork"):
        run_experiment(ExperimentConfig(**{**TINY, "threads": 2}))
    assert run_experiment(ExperimentConfig(**TINY))  # one worker runs here, without a pool


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ParameterError):
        emit([], "xml", tmp_path / "x")


def test_canonical_is_deterministic():
    a = ExperimentConfig(**TINY).canonical()
    b = ExperimentConfig(**TINY).canonical()
    assert a == b and "seed=9" in a


def test_monte_carlo_truths_share_no_draws_across_chunks_or_dimensions(monkeypatch):
    # Truths keyed by stream=d.  Chunk 0 keeps that stream, so a one-chunk
    # truth keeps its bits; every later chunk has a stream of its own.
    streams = {}

    def stub(spec, n, seed, stream=0):
        streams.setdefault(spec.dim, []).append(stream)
        return PointSet(np.full((1, spec.dim), 0.5))

    monkeypatch.setattr(synth, "sample_truncated_gaussian", stub)
    monkeypatch.setattr(synth, "truncated_gaussian_pdf", lambda spec, points: np.ones(len(points)))
    dims = (2, 3, 4)
    for d in dims:
        spec1, spec2 = ExperimentConfig(dims=(d,), n_grid=(100,)).density_specs(d)
        synth.mc_truth(spec1, spec2, make_functional("kl"), 3 * 10**6, 0, stream=d)
    assert [streams[d][0] for d in dims] == list(dims)
    drawn = [s for d in dims for s in streams[d]]
    assert len(drawn) == 9 and len(set(drawn)) == 9


@pytest.mark.parametrize("functional", ["renyi_integral", "kl", "reverse_kl", "l2",
                                        "shannon_entropy"])
def test_oracle_truth_is_the_exact_value_and_reads_no_seed(functional):
    truths = [bench.oracle_truth(ExperimentConfig(functional=functional, seed=seed), 7)
              for seed in (0, 1, 2)]
    config = ExperimentConfig(functional=functional)
    exact = synth.true_value(*config.density_specs(7), config.functional_spec())
    assert [t.hex() for t in truths] == [exact.hex()] * 3
