"""Smoke test of the benchmark at tiny sizes.

From the repository root:

    python3 perfbench/smoke.py

Checks, for every workload, untraced and traced, that the result line has
the contract's keys and every metric named in BENCHMARK.json with its unit;
that a deliberately bad weight vector is counted as a failed operation; that
more Python threads than cores are refused; and that the runner fails
without printing a result in a directory holding only BENCHMARK.json and
perfbench/.  Exits non-zero at the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import divknn.ensemble as densemble  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "fig1_grid": {"dims": (2,), "n_grid": (100, 200), "trials": 2},
    "bootstrap_ci": {"d": 2, "n": 60, "reps": 10},
    "weights_sweep": {"dims": (2,), "n_grid": (100,), "estimators": ("odin1", "odin2"),
                      "solvers": ("relaxed", "exact")},
}
OUT = run.OUT_DIR / "smoke"


def check(condition, message):
    if not condition:
        print("FAIL: %s" % message)
        sys.exit(1)
    print("ok: %s" % message)


def check_result(result, expected, label):
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "%s: result keys" % label)
    check(result["correct"] is True, "%s: correct" % label)
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          "%s: attempted >= 1" % label)
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          "%s: metric names match BENCHMARK.json (missing %s, extra %s)"
          % (label, sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
    bad = [name for name, unit in expected.items()
           if metrics[name].get("unit") != unit
           or not isinstance(metrics[name].get("value"), (int, float))
           or not math.isfinite(metrics[name]["value"])]
    check(not bad, "%s: all %d metrics finite and in their units (bad: %s)"
          % (label, len(expected), bad))


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json names every workload")
    for name, params in TINY.items():
        for trace in (0, 1):
            _, result = run.run_workload(name, 0, 0, trace, params=params, out_dir=OUT)
            check_result(result, expected[trace], "%s trace=%d" % (name, trace))

    # A solver that returns twice its real weights breaks sum(w) = 1 everywhere.
    real = densemble.solve_weights

    def doubled(config, *args, **kwargs):
        solution = real(config, *args, **kwargs)
        return densemble.WeightSolution(2.0 * solution.weights, solution.residuals,
                                        solution.objective, solution.solver_iterations,
                                        solution.l_values)

    densemble.solve_weights = doubled
    try:
        _, result = run.run_workload("weights_sweep", 0, 0, 0, params=TINY["weights_sweep"],
                                     out_dir=OUT)
    finally:
        densemble.solve_weights = real
    check(result["failed"] == result["attempted"],
          "doubled weight vectors all counted as failed (%d of %d)"
          % (result["failed"], result["attempted"]))

    # A vector that keeps sum(w) = 1 but moves mass breaks the relaxed objective.
    config = densemble.EnsembleConfig("odin1", tuple(np.linspace(0.3, 3.0, 50)), 2, 100)
    solution = real(config)
    shifted = solution.weights.copy()
    shifted[0] += 0.1
    shifted[-1] -= 0.1
    bad = densemble.WeightSolution(shifted, solution.residuals, solution.objective,
                                   solution.solver_iterations, solution.l_values)
    check(workloads.check_solution(config, solution)[0], "relaxed solution passes its check")
    check(not workloads.check_solution(config, bad)[0], "shifted relaxed vector fails its check")

    cores = run.nproc()
    try:
        run.run_workload("fig1_grid", 0, 0, 0, params=dict(TINY["fig1_grid"], threads=cores + 1),
                         out_dir=OUT)
        refused = False
    except SystemExit:
        refused = True
    check(refused, "%d threads on %d cores refused" % (cores + 1, cores))

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable] + spec["command"][1:] +
                              ["--workload", "weights_sweep", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          "runner fails without printing a result when src/ is absent")
    print("smoke test passed")


if __name__ == "__main__":
    main()
