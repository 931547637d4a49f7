"""Benchmark harness: MSE-convergence experiments over (N, d, estimator) grids.

Each grid cell runs independent trials with fresh samples from the two
truncated Gaussians, shares one neighbor-distance sweep per trial across all
requested estimators, and aggregates bias/variance/MSE against the synth
module's oracle truth.  Trial RNG streams are indexed by (d, N, trial, role)
so aggregates are independent of execution order and worker count.
"""

import csv
import io
import json
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .ensemble import (DEFAULT_DELTA, DEFAULT_ETA, DEFAULT_K_MIN, DEFAULT_NU, EnsembleConfig,
                       _raw_k, default_l_grid, estimation_plan)
from .errors import ConfigurationError, ParameterError, SolverError, as_index
from .functionals import make_functional, plugin_profile
from .synth import TruncatedGaussianSpec, sample_truncated_gaussian, true_value

_ESTIMATORS = ("plugin", "odin1", "odin2")

# Stream id layout for trial sampling: (d, N, trial, role) packed into the
# Philox stream word.  role 0 = f2 sample (x), role 1 = f1 sample (y).
def _trial_stream(d, n, trial, role):
    return (((d << 50) | (n << 26) | trial) << 1) | role


@dataclass(frozen=True)
class ExperimentConfig:
    dims: tuple = (7,)
    n_grid: tuple = (100, 200, 400, 800, 1600)
    trials: int = 200
    estimators: tuple = _ESTIMATORS
    functional: str = "renyi_integral"
    alpha: float = 0.5
    mean1: float = 0.7
    mean2: float = 0.3
    variance: float = 0.1
    l_values_odin1: tuple = default_l_grid("odin1", None, DEFAULT_DELTA)
    # Empty means default_l_grid("odin2", N, delta) at each N: ODIN2_L_COUNT
    # consecutive ks from round(ODIN2_L_MIN * N^delta).
    l_values_odin2: tuple = ()
    delta: float = DEFAULT_DELTA
    nu: int = DEFAULT_NU
    eta: float = DEFAULT_ETA
    solver: str = EnsembleConfig.solver
    plugin_k: int = 0  # 0 means round(sqrt(N))
    k_min: int = DEFAULT_K_MIN
    seed: int = 0
    threads: int = 1
    timing: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(as_index("d", d, ConfigurationError)
                                               for d in self.dims))
        object.__setattr__(self, "n_grid", tuple(as_index("N", n, ConfigurationError)
                                                 for n in self.n_grid))
        for name in ("trials", "threads", "plugin_k", "seed"):
            as_index(name, getattr(self, name), ConfigurationError)
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "l_values_odin1", tuple(float(l) for l in self.l_values_odin1))
        object.__setattr__(self, "l_values_odin2", tuple(float(l) for l in self.l_values_odin2))
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        if not (self.dims and self.n_grid):
            raise ConfigurationError("dims and n_grid must not be empty")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ConfigurationError("n_grid must be strictly increasing")
        for e in self.estimators:
            if e not in _ESTIMATORS:
                raise ConfigurationError("unknown estimator %r" % e)
        for n in self.n_grid:
            # Every estimator at every d, run or not: EnsembleConfig judges the ensemble fields.
            for d in self.dims:
                configs = {est: self.ensemble_config(est, d, n) for est in _ESTIMATORS}
            # The largest k scheduled at N (k grows with l, not with d), before k_schedule
            # clamps it to N-1.
            max_k = max((_raw_k(max(configs[e].l_values), n, configs[e].mode, self.delta)
                         for e in self.estimators), default=1)
            if max_k > n - 1:
                raise ConfigurationError(
                    "N=%d too small: max scheduled k=%d exceeds N-1" % (n, max_k)
                )

    def functional_spec(self):
        return make_functional(self.functional, alpha=self.alpha)

    def density_specs(self, d):
        return (
            TruncatedGaussianSpec(d, (self.mean1,), self.variance),
            TruncatedGaussianSpec(d, (self.mean2,), self.variance),
        )

    def odin2_l_grid(self, n):
        return self.l_values_odin2 or default_l_grid("odin2", n, self.delta)

    def ensemble_config(self, estimator, d, n):
        """The estimator's EnsembleConfig at (d, N).

        ODin1 reads no delta or nu, and the plug-in (one member, k_min 1) no
        eta or solver either: solve_weights gives L = 1 the weight 1.
        """
        if estimator == "plugin":  # one member at k = plugin_k, or at round(sqrt(N)) (l = 1)
            mode, grid = "odin1", (self.plugin_k / math.sqrt(n) if self.plugin_k else 1.0,)
        elif estimator == "odin1":
            mode, grid = "odin1", self.l_values_odin1
        else:
            mode, grid = "odin2", self.odin2_l_grid(n)
        return EnsembleConfig(mode, grid, d, n, delta=self.delta, nu=self.nu, eta=self.eta,
                              solver=self.solver,
                              k_min=1 if estimator == "plugin" else self.k_min)

    def canonical(self):
        """Deterministic flat key=value rendering for provenance comments."""
        items = []
        for name in sorted(self.__dataclass_fields__):
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = ",".join("%.17g" % v if isinstance(v, float) else str(v) for v in value)
            items.append("%s=%s" % (name, value))
        return " ".join(items)


@dataclass(frozen=True)
class ResultRow:
    d: int
    n: int
    estimator: str
    trials: int
    mean_estimate: float
    true_value: float
    bias: float
    variance: float
    mse: float
    wall_time_ms: float = 0.0
    error: str = None


# The CSV columns and JSON keys, in order.
_COLUMNS = tuple(f.name for f in fields(ResultRow))
CSV_HEADER = ",".join(_COLUMNS)


def oracle_truth(config, d):
    """The exact value the benchmark scores its dimension-d rows against.

    ``synth.true_value`` of the config's functional and densities; it reads
    no seed.  ``divknn truth`` prints it.
    """
    return true_value(*config.density_specs(d), config.functional_spec())


def run_experiment(config):
    """Run the full (d, N, estimator) grid and return aggregated rows.

    This process solves every cell's plans first.  Each cell's trials then run
    in ``min(threads, trials)`` interleaved chunks: here when ``threads`` is 1,
    else on ``threads`` forked worker processes that take the chunks of every
    cell from one queue, largest N first.
    """
    plans, failed, solve_s = {}, {}, {}
    for d in config.dims:
        for n in config.n_grid:
            t0 = time.perf_counter()
            plans[d, n], failed[d, n] = _cell_plans(config, d, n)
            solve_s[d, n] = time.perf_counter() - t0
    chunks = min(config.threads, config.trials)
    tasks = {}
    for d, n in sorted(plans, key=lambda cell: -cell[1]):
        if plans[d, n]:
            union_ks = sorted(set().union(*(plan.ks for plan in plans[d, n].values())))
            for c in range(chunks):
                tasks[d, n, c] = (config, d, n, plans[d, n], union_ks,
                                  range(c, config.trials, chunks))
    outcomes = _run_tasks(config.threads, tasks)
    rows = []
    for d in config.dims:
        truth = oracle_truth(config, d)
        for n in config.n_grid:
            results = [outcomes[d, n, c] for c in range(chunks) if (d, n, c) in outcomes]
            errors = [str(r) for r in results if isinstance(r, Exception)]
            if errors:  # record and continue with the grid
                per_estimator = {est: errors[0] for est in config.estimators}
            else:
                per_estimator = dict(failed[d, n])
                for est in plans[d, n]:
                    per_estimator[est] = values = np.empty(config.trials)
                    for c, (chunk_values, _) in enumerate(results):
                        values[c::chunks] = chunk_values[est]
            work_s = solve_s[d, n] + sum(r[1] for r in results if not isinstance(r, Exception))
            elapsed = work_s * 1e3 if config.timing else 0.0
            for est in config.estimators:
                values = per_estimator[est]
                if isinstance(values, str):
                    nan = float("nan")
                    rows.append(ResultRow(d, n, est, config.trials, nan, truth, nan, nan, nan,
                                          elapsed, error=values))
                    continue
                mean = float(np.mean(values))
                bias = mean - truth
                variance = float(np.var(values))  # population variance over trials
                mse = bias * bias + variance
                rows.append(ResultRow(d, n, est, config.trials, mean, truth, bias,
                                      variance, mse, elapsed))
    return rows


def _cell_plans(config, d, n):
    """The cell's plan per estimator, and the error message of each whose weights failed."""
    plans, failed = {}, {}
    for est in config.estimators:
        try:
            plans[est] = estimation_plan(config.ensemble_config(est, d, n))
        except (SolverError, ValueError) as exc:  # fails this estimator's row only
            failed[est] = str(exc)
    return plans, failed


def _trials(config, d, n, plans, union_ks, trials):
    """Each plan's estimate on each listed trial's samples, and the seconds that took.

    Module-level, and the functional is rebuilt from the config, so that a
    worker process can run it from pickled arguments.
    """
    t0 = time.perf_counter()
    spec = config.functional_spec()
    spec1, spec2 = config.density_specs(d)
    values = {est: [] for est in plans}
    for trial in trials:
        x = sample_truncated_gaussian(spec2, n, config.seed, _trial_stream(d, n, trial, 0))
        y = sample_truncated_gaussian(spec1, n, config.seed, _trial_stream(d, n, trial, 1))
        profile, _ = plugin_profile(x, y, union_ks, spec)
        for est, plan in plans.items():
            values[est].append(plan.combine(union_ks, profile))
    return values, time.perf_counter() - t0


def _outcome(call):
    """call(), or the SolverError or ValueError it raised, which fails its cell's rows."""
    try:
        return call()
    except (SolverError, ValueError) as exc:
        return exc


def _run_tasks(workers, tasks):
    """Each task's _trials outcome, in this process or on forked worker processes.

    Tasks are queued in the order given.  No worker outlives the call; an
    error that propagates cancels the tasks not yet started.
    """
    if workers == 1 or not tasks:
        return {key: _outcome(lambda: _trials(*args)) for key, args in tasks.items()}
    # Imported here, so that importing divknn does not pay for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        # Fork, since a worker then starts without importing numpy and divknn anew.
        context = multiprocessing.get_context("fork")
    except ValueError:
        raise ConfigurationError("threads > 1 needs the fork start method, "
                                 "which this platform lacks") from None
    pool = ProcessPoolExecutor(min(workers, len(tasks)), mp_context=context)
    try:
        futures = {key: pool.submit(_trials, *args) for key, args in tasks.items()}
        return {key: _outcome(future.result) for key, future in futures.items()}
    finally:
        pool.shutdown(cancel_futures=True)


def fit_loglog_slope(rows):
    """OLS slope of log(mse) against log(N) for one estimator and dimension."""
    rows = [r for r in rows if r.error is None]
    if len(rows) < 3:
        raise ParameterError("need at least 3 rows to fit a slope, got %d" % len(rows))
    if len({(r.d, r.estimator) for r in rows}) != 1:
        raise ParameterError("rows must be filtered to one (d, estimator) pair")
    if any(not r.mse > 0 for r in rows):
        raise ParameterError("all rows must have positive mse")
    logn = np.log([r.n for r in rows])
    logm = np.log([r.mse for r in rows])
    return float(np.polyfit(logn, logm, 1)[0])


def _csv_value(value):
    return "%.17g" % value if isinstance(value, float) else value


def _json_value(value):
    if value is None or isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, float) and not math.isfinite(value):
        return "null"
    return str(_csv_value(value))


def rows_to_csv(rows, provenance=None):
    """One line per row, the ResultRow fields as columns; an OK row's error is empty."""
    out = io.StringIO()
    if provenance:
        out.write("# %s\n" % provenance)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for r in rows:
        writer.writerow(_csv_value(getattr(r, name)) for name in _COLUMNS)
    return out.getvalue()


def rows_to_json(rows):
    # Hand-rendered so floats carry 17 significant digits.
    parts = ["{" + ", ".join('"%s": %s' % (name, _json_value(getattr(r, name)))
                             for name in _COLUMNS) + "}"
             for r in rows]
    return "[\n" + ",\n".join(parts) + "\n]\n" if parts else "[]\n"


def emit(rows, format, path, provenance=None):
    """Write rows to ``path`` as CSV or JSON."""
    if format == "csv":
        text = rows_to_csv(rows, provenance=provenance)
    elif format == "json":
        text = rows_to_json(rows)
    else:
        raise ParameterError("format must be 'csv' or 'json'")
    with open(path, "w") as fh:
        fh.write(text)
    return path
