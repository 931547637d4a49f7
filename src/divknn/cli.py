"""Command-line interface: estimate, bench, weights, truth.

Flags are the source of truth.  ``bench --config FILE`` reads a flat
``key = value`` file (``#`` comments, comma-separated lists) as the bench
flags it names: each line becomes ``--key=value`` with ``_`` read as ``-``,
``true`` becomes the bare switch and ``false`` nothing.  Those flags go
ahead of the command line's and the whole argv is parsed again, so the
command line wins and an unknown key is an argparse error.  Benchmark output
embeds the canonical configuration as a header comment for provenance.
"""

import argparse
import json
import sys

import numpy as np

from .bench import (MC_TRUTH_N, ExperimentConfig, emit, fit_loglog_slope, oracle_truth,
                    run_experiment)
from .ensemble import (ODIN1_L_RANGE, ODIN2_L_COUNT, ODIN2_L_MIN, EnsembleConfig, default_l_grid,
                       estimation_plan)
from .errors import ConfigurationError, ParameterError, SolverError
from .functionals import BUILTIN_FUNCTIONALS, make_functional
from .inference import confidence_interval
from .neighbors import PointSet


def _config_argv(path):
    """The flags a flat ``key = value`` config file names, in file order."""
    argv = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError("config line without '=': %r" % line)
            key, _, value = (part.strip() for part in line.partition("="))
            flag = "--" + key.replace("_", "-")
            if value.lower() == "true":
                argv.append(flag)
            elif value.lower() != "false":
                argv.append("%s=%s" % (flag, value))
    return argv


def _csv_list(cast):
    def parse(text):
        return [cast(v) for v in text.split(",") if v != ""]

    return parse


def _add_functional_flags(p):
    p.add_argument("--functional", default=ExperimentConfig.functional,
                   choices=[name for name in BUILTIN_FUNCTIONALS if name != "custom"])
    p.add_argument("--alpha", type=float, default=ExperimentConfig.alpha)


def _add_density_flags(p):
    p.add_argument("--mean1", type=float, default=ExperimentConfig.mean1)
    p.add_argument("--mean2", type=float, default=ExperimentConfig.mean2)
    p.add_argument("--variance", type=float, default=ExperimentConfig.variance)


def _add_ensemble_flags(p, mode=True):
    if mode:
        p.add_argument("--mode", default="odin1", choices=["odin1", "odin2"])
    l_min, l_max, l_count = ODIN1_L_RANGE
    p.add_argument("--l-min", type=float, default=None, help="default %g" % l_min)
    p.add_argument("--l-max", type=float, default=None, help="default %g" % l_max)
    p.add_argument("--l-count", type=int, default=None, help="default %d" % l_count)
    p.add_argument("--l-list", type=_csv_list(float), default=None,
                   help="explicit l grid; overrides --l-min/--l-max/--l-count")
    p.add_argument("--delta", type=float, default=EnsembleConfig.delta)
    p.add_argument("--nu", type=int, default=EnsembleConfig.nu)
    p.add_argument("--eta", type=float, default=EnsembleConfig.eta)
    p.add_argument("--solver", default=EnsembleConfig.solver, choices=["exact", "relaxed"])
    p.add_argument("--k-min", type=int, default=EnsembleConfig.k_min)


def _l_values(args, n):
    """The l grid the flags name at N (``n`` is read only by ODin2's default).

    --l-list wins.  Any of --l-min/--l-max/--l-count gives linspace over
    ODIN1_L_RANGE with those flags in place, in either mode.  With no l flag
    the mode (ODin1 where there is no --mode) takes default_l_grid.
    """
    if args.l_list:
        return tuple(args.l_list)
    given = (args.l_min, args.l_max, args.l_count)
    if given == (None, None, None):
        return default_l_grid(getattr(args, "mode", "odin1"), n, args.delta)
    return tuple(np.linspace(*(v if v is not None else d for v, d in zip(given, ODIN1_L_RANGE))))


def build_parser():
    parser = argparse.ArgumentParser(prog="divknn",
                                     description="k-NN ensemble divergence estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="one-shot estimate with confidence interval")
    p.add_argument("--f1-sample", required=True, help="CSV sample drawn from f1")
    p.add_argument("--f2-sample", required=True, help="CSV sample drawn from f2 (outer sample)")
    p.add_argument("--header", action="store_true", help="skip one header line in inputs")
    _add_functional_flags(p)
    _add_ensemble_flags(p)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="text", choices=["text", "json"])

    p = sub.add_parser("bench", help="grid MSE-convergence experiment")
    p.add_argument("--config", default=None,
                   help="flat key=value file of bench flags; the command line wins")
    # Each flag's dest is the ExperimentConfig field it sets (see cmd_bench).
    p.add_argument("--dims", type=_csv_list(int), default=ExperimentConfig.dims)
    p.add_argument("--n-grid", type=_csv_list(int), default=ExperimentConfig.n_grid)
    p.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    p.add_argument("--estimators", type=_csv_list(str), default=ExperimentConfig.estimators)
    _add_functional_flags(p)
    _add_ensemble_flags(p, mode=False)  # --estimators names the modes bench runs
    p.add_argument("--l-list-odin2", dest="l_values_odin2", type=_csv_list(float),
                   default=ExperimentConfig.l_values_odin2,
                   help="explicit ODin2 l grid; default takes %d consecutive k values "
                        "starting at k = round(%g * N^delta)" % (ODIN2_L_COUNT, ODIN2_L_MIN))
    _add_density_flags(p)
    p.add_argument("--k", dest="plugin_k", type=int, default=ExperimentConfig.plugin_k,
                   help="plugin k; 0 means round(sqrt(N))")
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--threads", type=int, default=ExperimentConfig.threads)
    p.add_argument("--timing", action="store_true",
                   help="record wall times (breaks byte-level determinism)")
    p.add_argument("--slopes", action="store_true", help="print log-log MSE slopes to stderr")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out", required=True)

    p = sub.add_parser("weights", help="print the solved ensemble weight vector")
    _add_ensemble_flags(p)
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("-n", "--n", type=int, required=True)

    p = sub.add_parser("truth", help="print the oracle value of the functional")
    _add_functional_flags(p)
    p.add_argument("-d", "--dim", type=int, required=True)
    _add_density_flags(p)
    p.add_argument("--mc-n", type=int, default=MC_TRUTH_N)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    return parser


def _ensemble_config(args, d, n):
    return EnsembleConfig(args.mode, _l_values(args, n), d, n, delta=args.delta, nu=args.nu,
                          eta=args.eta, solver=args.solver, k_min=args.k_min)


def _read_sample(path, skip_header):
    data = np.loadtxt(path, delimiter=",", skiprows=1 if skip_header else 0, ndmin=2)
    return PointSet(data)


def cmd_estimate(args):
    y = _read_sample(args.f1_sample, args.header)
    x = _read_sample(args.f2_sample, args.header)
    spec = make_functional(args.functional, alpha=args.alpha)
    config = _ensemble_config(args, x.dim, x.n)
    null = 1.0 if args.functional == "renyi_integral" else 0.0
    result = confidence_interval(x, y, config, spec, level=args.level, reps=args.reps,
                                 seed=args.seed, null_value=null)
    if args.format == "json":
        print(json.dumps({
            "estimate": result.estimate, "std_error": result.std_error,
            "ci_low": result.ci_low, "ci_high": result.ci_high,
            "z_score": result.z_score, "p_value": result.p_value,
            "level": result.level, "null_value": result.null_value,
            "bootstrap_reps": result.bootstrap_reps,
            "degeneracy_count": result.degeneracy_count, "warnings": list(result.warnings),
        }))
    else:
        print("estimate   %.10g" % result.estimate)
        print("std_error  %.10g" % result.std_error)
        print("ci%g%%     [%.10g, %.10g]" % (100 * args.level, result.ci_low, result.ci_high))
        print("z vs %g    %.6g  (p=%.6g)" % (result.null_value, result.z_score, result.p_value))
        if result.warnings:
            print("warnings   %s" % "; ".join(result.warnings))
    return 0


def _config_fields(args):
    """The ExperimentConfig fields that the parsed flags set by name."""
    return {key: value for key, value in vars(args).items()
            if key in ExperimentConfig.__dataclass_fields__}


def cmd_bench(args):
    config = ExperimentConfig(l_values_odin1=_l_values(args, None), **_config_fields(args))
    rows = run_experiment(config)
    emit(rows, args.format, args.out, provenance=config.canonical())
    if args.slopes:
        for d in config.dims:
            for est in config.estimators:
                sel = [r for r in rows if r.d == d and r.estimator == est]
                try:
                    slope = fit_loglog_slope(sel)
                    print("slope d=%d %s: %.4f" % (d, est, slope), file=sys.stderr)
                except ParameterError as exc:
                    print("slope d=%d %s: n/a (%s)" % (d, est, exc), file=sys.stderr)
    return 0


def cmd_weights(args):
    plan = estimation_plan(_ensemble_config(args, args.dim, args.n))
    for (l, k), w in zip(plan.schedule, plan.weights.weights):
        print("l=%-10.6g k=%-6d w=%.17g" % (l, k, w))
    # w_norm = ||w||_2 is the factor by which the ensemble scales up noise; levels
    # counts the pieces of the relaxed solution path walked (0 for exact).
    print("objective=%.17g sum=%.17g w_norm=%.17g levels=%d"
          % (plan.weights.objective, float(np.sum(plan.weights.weights)),
             float(np.linalg.norm(plan.weights.weights)), plan.weights.solver_iterations))
    for message in plan.warnings:
        print("warning: %s" % message, file=sys.stderr)
    return 0


def cmd_truth(args):
    """Print the truth ``bench`` scores its dimension-d rows against, for the same flags."""
    config = ExperimentConfig(dims=(args.dim,), **_config_fields(args))
    value, std_error = oracle_truth(config, args.dim, args.mc_n)
    if std_error is None:
        print("%.17g" % value)
    else:
        print("%.17g  (mc std error %.3g)" % (value, std_error))
    return 0


def main(argv=None):
    """Run one command; a library error is printed as one ``error:`` line and exits 1."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": cmd_estimate,
        "bench": cmd_bench,
        "weights": cmd_weights,
        "truth": cmd_truth,
    }
    try:
        if getattr(args, "config", None):
            args = parser.parse_args(argv[:1] + _config_argv(args.config) + argv[1:])
        return handlers[args.command](args)
    except (ParameterError, ConfigurationError, SolverError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
