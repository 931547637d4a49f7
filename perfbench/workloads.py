"""The three divknn benchmark workloads and the checks on their outputs.

Each workload has ``setup(seed, params, work_dir)``, which builds the inputs
from the seed and returns a state whose ``describe`` spells them out, and ``run_pass(state)``, which makes the
user-facing calls once and returns a :class:`PassResult`.  Passes call the
package only through public names looked up on the module at call time, so
the tracer's patches take effect.  Why each workload exists is recorded in
``perfbench/README.md`` and in ``BENCHMARK.json``.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import divknn.bench as dbench
import divknn.cli as dcli
import divknn.ensemble as densemble
import divknn.synth as dsynth

# Tolerances of the weight checks.  sum(w) = 1 is the program's equality
# constraint.  1e-8 is the feasibility slack the relaxed solver documents for
# its own solution invariants; the exact program's |psi w| = 0 is held to it.
SUM_TOL = 1e-9
EXACT_RESIDUAL_TOL = 1e-8
RELAXED_SLACK = 1e-8

# The estimate's oracle truth must lie within this many bootstrap standard
# errors of the estimate (two-sided normal tail about 6e-5).
TRUTH_STD_MULTIPLE = 4.0

DEFAULTS = {
    # Paper defaults for everything but the trial count; threads None means
    # min(2, nproc).
    "fig1_grid": {"dims": (7,), "n_grid": (100, 200, 400, 800, 1600), "trials": 20,
                  "threads": None},
    "bootstrap_ci": {"d": 3, "n": 1000, "reps": 50},
    "weights_sweep": {"dims": (2, 3, 5, 7), "n_grid": (100, 200, 400, 800, 1600),
                      "estimators": ("odin1", "odin2"), "solvers": ("relaxed", "exact")},
}


@dataclass
class Op:
    """One checked operation: a grid row, an estimate call or a weight solve."""

    label: str
    ok: bool
    reason: str = ""


@dataclass
class PassResult:
    output: bytes  # compared byte for byte across passes and with the traced run
    ops: list
    solve_s: list = field(default_factory=list)  # per-solve wall times (sweep only)
    digests: dict = field(default_factory=dict)


# --- fig1_grid ---------------------------------------------------------------

@dataclass
class GridState:
    config: object
    truth: dict
    describe: str


def grid_setup(seed, params, work_dir):
    config = dbench.ExperimentConfig(dims=tuple(params["dims"]), n_grid=tuple(params["n_grid"]),
                                     trials=params["trials"], threads=params["threads"],
                                     seed=seed)
    truth = {}
    for d in config.dims:
        spec1, spec2 = config.density_specs(d)
        truth[d] = dsynth.true_renyi_integral(spec1, spec2, config.alpha)
    return GridState(config, truth, config.canonical())


def check_grid_rows(rows, truth, n_max):
    """Each row finite with the oracle truth; at the largest N both ensembles beat the plug-in."""
    ops = []
    plugin_mse = {r.d: r.mse for r in rows if r.n == n_max and r.estimator == "plugin"}
    for r in rows:
        label = "d=%d n=%d %s" % (r.d, r.n, r.estimator)
        values = (r.mean_estimate, r.true_value, r.bias, r.variance, r.mse)
        if not all(math.isfinite(v) for v in values):
            ops.append(Op(label, False, "non-finite row: %s" % (r.error or "no error recorded")))
        elif r.true_value != truth[r.d]:
            ops.append(Op(label, False, "true_value %r != oracle %r" % (r.true_value, truth[r.d])))
        elif r.n == n_max and r.estimator != "plugin" and not r.mse < plugin_mse.get(r.d, -1.0):
            ops.append(Op(label, False, "mse %r not below plug-in mse %r at largest N"
                          % (r.mse, plugin_mse.get(r.d))))
        else:
            ops.append(Op(label, True))
    return ops


def grid_pass(state):
    rows = dbench.run_experiment(state.config)
    csv = dbench.rows_to_csv(rows)
    ops = check_grid_rows(rows, state.truth, max(state.config.n_grid))
    digest = hashlib.sha256(csv.encode()).hexdigest()
    return PassResult(csv.encode(), ops, digests={"rows_to_csv_sha256": digest})


# --- bootstrap_ci ------------------------------------------------------------

@dataclass
class BootState:
    argv: list
    truth: float
    describe: str


def boot_setup(seed, params, work_dir):
    # Same density specs as fig1_grid, at the workload's dimension.
    spec1, spec2 = dbench.ExperimentConfig().density_specs(params["d"])
    y = dsynth.sample_truncated_gaussian(spec1, params["n"], seed, stream=1)
    x = dsynth.sample_truncated_gaussian(spec2, params["n"], seed, stream=0)
    f1 = work_dir / "f1.csv"
    f2 = work_dir / "f2.csv"
    np.savetxt(f1, y.points, delimiter=",", fmt="%.17g")
    np.savetxt(f2, x.points, delimiter=",", fmt="%.17g")
    truth = dsynth.true_renyi_integral(spec1, spec2, 0.5)
    argv = ["estimate", "--f1-sample", str(f1), "--f2-sample", str(f2),
            "--reps", str(params["reps"]), "--seed", str(seed), "--format", "json"]
    return BootState(argv, truth, " ".join(argv))


def check_estimate(code, text, truth):
    label = "estimate"
    if code != 0:
        return Op(label, False, "exit code %r" % code)
    try:
        result = json.loads(text)
        est, std = float(result["estimate"]), float(result["std_error"])
    except (ValueError, KeyError, TypeError) as exc:
        return Op(label, False, "unparsable output: %r" % exc)
    if not (math.isfinite(est) and math.isfinite(std) and std > 0):
        return Op(label, False, "estimate %r / std %r not finite and positive" % (est, std))
    if abs(est - truth) > TRUTH_STD_MULTIPLE * std:
        return Op(label, False, "truth %r outside estimate %r +/- %g * %r"
                  % (truth, est, TRUTH_STD_MULTIPLE, std))
    return Op(label, True)


def boot_pass(state):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = dcli.main(list(state.argv))
    except Exception as exc:  # a failed operation is counted, not fatal
        text = "%s: %s" % (type(exc).__name__, exc)
        return PassResult(text.encode(), [Op("estimate", False, text)])
    text = buf.getvalue()
    return PassResult(text.encode(), [check_estimate(code, text, state.truth)])


# --- weights_sweep -----------------------------------------------------------

@dataclass
class SweepState:
    configs: list  # (label, EnsembleConfig) in canonical order
    order: list  # the seed's permutation of the canonical order
    describe: str


def sweep_setup(seed, params, work_dir):
    configs = []
    for solver in params["solvers"]:
        experiment = dbench.ExperimentConfig(solver=solver)
        for est in params["estimators"]:
            for d in params["dims"]:
                for n in params["n_grid"]:
                    label = "%s %s d=%d n=%d" % (solver, est, d, n)
                    configs.append((label, experiment.ensemble_config(est, d, n)))
    order = [int(i) for i in np.random.default_rng(seed).permutation(len(configs))]
    return SweepState(configs, order, "; ".join(label for label, _ in configs))


def check_solution(config, solution):
    """Whether a returned weight vector satisfies its own program; (ok, reason)."""
    w = np.asarray(solution.weights, dtype=np.float64)
    if w.shape != (config.L,) or not np.all(np.isfinite(w)):
        return False, "weights not a finite vector of length L=%d" % config.L
    sum_err = abs(float(w.sum()) - 1.0)
    if sum_err > SUM_TOL:
        return False, "|sum(w) - 1| = %.3g > %g" % (sum_err, SUM_TOL)
    basis = densemble.build_basis(config)
    if config.solver == "exact":
        residual = float(np.max(np.abs(basis.psi_matrix(config.l_values) @ w)))
        if residual > EXACT_RESIDUAL_TOL:
            return False, "exact ||psi w||_inf = %.3g > %g" % (residual, EXACT_RESIDUAL_TOL)
        return True, ""
    value = max(float(np.max(np.abs(basis.scaled_rows(config.l_values, config.n) @ w))),
                float(w @ w) / config.eta)
    objective = float(solution.objective)
    if not value <= objective + RELAXED_SLACK * max(1.0, abs(objective)):
        return False, "relaxed max(|a.w|, |w|^2/eta) = %.17g > objective %.17g" % (value, objective)
    return True, ""


def sweep_pass(state):
    results = [None] * len(state.configs)
    solve_s = []
    for i in state.order:
        config = state.configs[i][1]
        t0 = time.perf_counter()
        try:
            results[i] = densemble.solve_weights(config)
        except Exception as exc:  # a failed solve is counted, not fatal
            results[i] = exc
        solve_s.append(time.perf_counter() - t0)
    ops = []
    digest = hashlib.sha256()
    for (label, config), result in zip(state.configs, results):
        if isinstance(result, Exception):
            text = "%s: %s" % (type(result).__name__, result)
            ops.append(Op(label, False, text))
            digest.update(("%s|%s\n" % (label, text)).encode())
            continue
        ok, reason = check_solution(config, result)
        ops.append(Op(label, ok, reason))
        digest.update(("%s|" % label).encode())
        digest.update(np.ascontiguousarray(result.weights, dtype="<f8").tobytes())
    sha = digest.hexdigest()
    return PassResult(sha.encode(), ops, solve_s=solve_s, digests={"weights_sha256": sha})


WORKLOADS = {
    "fig1_grid": (grid_setup, grid_pass),
    "bootstrap_ci": (boot_setup, boot_pass),
    "weights_sweep": (sweep_setup, sweep_pass),
}
