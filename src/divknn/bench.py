"""Benchmark harness: MSE-convergence experiments over (N, d, estimator) grids.

Each grid cell runs independent trials with fresh samples from the two
truncated Gaussians, shares one neighbor-distance sweep per trial across all
requested estimators, and aggregates bias/variance/MSE against the synth
module's oracle truth.  Trial RNG streams are indexed by (d, N, trial, role)
so aggregates are independent of execution order and thread count.
"""

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ensemble import (DEFAULT_DELTA, DEFAULT_ETA, DEFAULT_K_MIN, DEFAULT_NU, EnsembleConfig,
                       _raw_k, default_l_grid, estimation_plan)
from .errors import ConfigurationError, ParameterError, SolverError
from .functionals import make_functional, plugin_profile
from .synth import TruncatedGaussianSpec, mc_truth, sample_truncated_gaussian, true_renyi_integral

CSV_HEADER = "d,n,estimator,trials,mean_estimate,true_value,bias,variance,mse,wall_time_ms"

_ESTIMATORS = ("plugin", "odin1", "odin2")

# Stream id layout for trial sampling: (d, N, trial, role) packed into the
# Philox stream word.  role 0 = f2 sample (x), role 1 = f1 sample (y).
def _trial_stream(d, n, trial, role):
    return (((d << 50) | (n << 26) | trial) << 1) | role


_TRUTH_STREAM = 1 << 62

# Monte Carlo draws behind the truth of a functional with no closed form.
MC_TRUTH_N = 10**6


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
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "l_values_odin1", tuple(float(l) for l in self.l_values_odin1))
        object.__setattr__(self, "l_values_odin2", tuple(float(l) for l in self.l_values_odin2))
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ConfigurationError("n_grid must be strictly increasing")
        for e in self.estimators:
            if e not in _ESTIMATORS:
                raise ConfigurationError("unknown estimator %r" % e)
        for n in self.n_grid:
            max_k = self._max_scheduled_k(n)
            if max_k > n - 1:
                raise ConfigurationError(
                    "N=%d too small: max scheduled k=%d exceeds N-1" % (n, max_k)
                )

    def _max_scheduled_k(self, n):
        """The largest k scheduled at N (k grows with l), before k_schedule clamps it to N-1."""
        grids = [self._l_grid(e, n) for e in self.estimators]
        return max((_raw_k(max(grid), n, mode, self.delta) for mode, grid in grids), default=1)

    def functional_spec(self):
        return make_functional(self.functional, alpha=self.alpha)

    def density_specs(self, d):
        return (
            TruncatedGaussianSpec(d, (self.mean1,), self.variance),
            TruncatedGaussianSpec(d, (self.mean2,), self.variance),
        )

    def odin2_l_grid(self, n):
        return self.l_values_odin2 or default_l_grid("odin2", n, self.delta)

    def _l_grid(self, estimator, n):
        """The estimator's (mode, l grid) at N."""
        if estimator == "plugin":  # one member at k = plugin_k, or at round(sqrt(N)) (l = 1)
            return "odin1", (self.plugin_k / math.sqrt(n) if self.plugin_k else 1.0,)
        if estimator == "odin1":
            return "odin1", self.l_values_odin1
        return "odin2", self.odin2_l_grid(n)

    def ensemble_config(self, estimator, d, n):
        """The estimator's EnsembleConfig at (d, N); ODin1 reads no delta or nu."""
        mode, grid = self._l_grid(estimator, n)
        if estimator == "plugin":
            return EnsembleConfig(mode, grid, d, n, k_min=1)
        return EnsembleConfig(mode, grid, d, n, delta=self.delta, nu=self.nu, eta=self.eta,
                              solver=self.solver, k_min=self.k_min)

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
    trial_count: int
    mean_estimate: float
    true_value: float
    bias: float
    variance: float
    mse: float
    wall_time_ms: float = 0.0
    error: str = None


def oracle_truth(config, d, n_mc=MC_TRUTH_N):
    """The value the benchmark scores its dimension-d rows against, and its MC standard error.

    The Renyi integral comes from quadrature (standard error None); any other
    functional is the mean of ``n_mc`` Monte Carlo draws from f2 at the
    config's seed, on stream ``_TRUTH_STREAM + d``.  ``divknn truth`` prints
    this value.
    """
    spec1, spec2 = config.density_specs(d)
    if config.functional == "renyi_integral":
        return true_renyi_integral(spec1, spec2, config.alpha), None
    result = mc_truth(spec1, spec2, config.functional_spec(), n_mc, config.seed,
                      stream=_TRUTH_STREAM + d)
    return result.value, result.std_error


def run_experiment(config):
    """Run the full (d, N, estimator) grid and return aggregated rows."""
    spec = config.functional_spec()
    rows = []
    for d in config.dims:
        truth, _ = oracle_truth(config, d)
        spec1, spec2 = config.density_specs(d)
        for n in config.n_grid:
            t0 = time.perf_counter()
            try:
                per_estimator = _run_cell(config, spec, spec1, spec2, d, n)
            except Exception as exc:  # record and continue with the grid
                per_estimator = {est: str(exc) for est in config.estimators}
            elapsed = (time.perf_counter() - t0) * 1e3 if config.timing else 0.0
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


def _run_cell(config, spec, spec1, spec2, d, n):
    """Trial values per estimator, or the error message of an estimator whose weights failed."""
    plans = {}
    failed = {}
    for est in config.estimators:
        econf = config.ensemble_config(est, d, n)
        try:
            plans[est] = estimation_plan(econf)
        except (SolverError, ValueError) as exc:  # fails this estimator's row only
            failed[est] = str(exc)
    if not plans:
        return failed
    union_ks = sorted(set().union(*(plan.ks for plan in plans.values())))

    def run_trial(trial):
        x = sample_truncated_gaussian(spec2, n, config.seed, _trial_stream(d, n, trial, 0))
        y = sample_truncated_gaussian(spec1, n, config.seed, _trial_stream(d, n, trial, 1))
        values, _ = plugin_profile(x, y, union_ks, spec)
        return {est: plan.combine(union_ks, values) for est, plan in plans.items()}

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        trial_results = list(pool.map(run_trial, range(config.trials)))
    values = {est: np.array([r[est] for r in trial_results]) for est in plans}
    return {**values, **failed}


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


def _fmt(value):
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def rows_to_csv(rows, provenance=None):
    lines = []
    if provenance:
        lines.append("# %s" % provenance)
    lines.append(CSV_HEADER)
    for r in rows:
        lines.append(",".join([
            str(r.d), str(r.n), r.estimator, str(r.trial_count),
            _fmt(r.mean_estimate), _fmt(r.true_value), _fmt(r.bias),
            _fmt(r.variance), _fmt(r.mse), _fmt(r.wall_time_ms),
        ]))
    return "\n".join(lines) + "\n"


def _fmt_json(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "null"
    return _fmt(value)


def rows_to_json(rows):
    # Hand-rendered so floats carry 17 significant digits.
    parts = []
    for r in rows:
        fields = [
            '"d": %d' % r.d,
            '"n": %d' % r.n,
            '"estimator": %s' % json.dumps(r.estimator),
            '"trials": %d' % r.trial_count,
            '"mean_estimate": %s' % _fmt_json(r.mean_estimate),
            '"true_value": %s' % _fmt_json(r.true_value),
            '"bias": %s' % _fmt_json(r.bias),
            '"variance": %s' % _fmt_json(r.variance),
            '"mse": %s' % _fmt_json(r.mse),
            '"wall_time_ms": %s' % _fmt_json(r.wall_time_ms),
            '"error": %s' % json.dumps(r.error),
        ]
        parts.append("{" + ", ".join(fields) + "}")
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
