import dataclasses
import math
import warnings

import numpy as np
import pytest

from divknn import (
    BasisEntry,
    BasisSystem,
    ConfigurationError,
    EnsembleConfig,
    ExperimentConfig,
    ParameterError,
    PointSet,
    SolverError,
    build_basis,
    ensemble_estimate,
    k_schedule,
    make_functional,
    plugin_estimate,
    solve_weights_exact,
    solve_weights_relaxed,
)
from divknn import ensemble
from divknn.ensemble import (
    DEPENDENT_TOL,
    RESIDUAL_FACTOR,
    _check_constraints,
    _check_relaxed,
    _exchange,
    _level_normals,
    _LevelSystem,
    _min_norm,
    _piece_root,
    _round_half_away,
    default_l_grid,
    estimation_plan,
    solve_weights,
)


def odin1(l_values, d, n, **kw):
    return EnsembleConfig("odin1", l_values, d, n, **kw)


def odin2(l_values, d, n, **kw):
    return EnsembleConfig("odin2", l_values, d, n, **kw)


# ---------------------------------------------------------------- k_schedule

def test_schedule_odin1_basic():
    sched, warn = k_schedule(odin1((1.0,), 1, 400))
    assert sched == [(1.0, 20)]
    assert warn == []


def test_schedule_odin1_paper_grid_endpoints():
    lv = tuple(np.linspace(0.3, 3.0, 50))
    sched, _ = k_schedule(odin1(lv, 7, 1000))
    assert sched[0][1] == round(0.3 * math.sqrt(1000))  # 9
    assert sched[-1][1] == 95


def test_schedule_odin2():
    sched, _ = k_schedule(odin2((1.4,), 4, 256, delta=0.5))
    assert sched == [(1.4, 22)]


def test_schedule_k_min_clamp_and_collision_warning():
    cfg = odin1((0.01, 0.011, 2.0), 1, 100, k_min=3)
    sched, warn = k_schedule(cfg)
    assert sched[0][1] == 3 and sched[1][1] == 3
    assert any("collision" in w for w in warn)


def test_schedule_degenerate_error():
    with pytest.raises(ConfigurationError, match="degenerate"):
        k_schedule(odin1((0.001, 0.002, 0.003), 1, 100, k_min=3))


def test_round_half_away():
    assert _round_half_away(2.5) == 3
    assert _round_half_away(2.4999) == 2
    assert _round_half_away(-2.5) == -3


# ---------------------------------------------------------------- build_basis

def test_basis_odin1_d2():
    basis = build_basis(odin1((1.0, 2.0, 3.0, 4.0), 2, 100))
    entries = [(e.l_exponent, e.n_exponent) for e in basis.entries]
    assert entries == [(0.5, -0.25), (1.0, -0.5), (-1.0, -0.5)]
    assert basis.count == 3


def test_basis_odin2_d4():
    basis = build_basis(odin2(tuple(np.linspace(1, 3, 8)), 4, 256, delta=0.5, nu=2))
    pairs = {e.label for e in basis.entries}
    assert pairs == {"j=1,q=0", "j=2,q=0", "j=3,q=0", "j=1,q=1"}


def test_basis_odin2_d1_empty():
    basis = build_basis(odin2((1.0, 2.0), 1, 100, delta=0.5, nu=2))
    assert basis.count == 0
    sol = solve_weights_relaxed(basis, (1.0, 2.0), 100, 1.0)
    assert np.allclose(sol.weights, 0.5)


def test_basis_odin2_exponent_window():
    for d in (2, 3, 7, 10):
        basis = build_basis(odin2(tuple(np.linspace(1, 2, 40)), d, 500, delta=0.3, nu=4))
        for e in basis.entries:
            assert -0.5 < e.n_exponent < 0.0


def test_basis_exponent_pairs_are_distinct():
    # Equal l exponents j - q/2 force q' - q = 2 (j' - j), and the rates then
    # differ by (j' - j) ((1 - delta)/d + delta): no two (j, q) share a pair,
    # also after rounding to 12 digits.
    grid = tuple(np.linspace(0.1, 40.0, 400))
    for d in range(1, 11):
        configs = [odin1(grid, d, 1000)]
        configs += [odin2(grid, d, 1000, delta=delta, nu=nu)
                    for delta in np.linspace(0.05, 0.95, 19) for nu in range(1, 5)]
        for config in configs:
            pairs = [(e.l_exponent, e.n_exponent) for e in build_basis(config).entries]
            rounded = {(round(l, 12), round(n, 12)) for l, n in pairs}
            assert len(rounded) == len(pairs), (config.mode, d, config.delta, config.nu)


def test_basis_too_large_for_ensemble():
    with pytest.raises(ConfigurationError, match="increase L"):
        build_basis(odin1((1.0, 2.0), 7, 100))


def test_nu_warning_when_rate_not_guaranteed():
    # The warning is the plan's data, not a Python warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = estimation_plan(odin2((1.0, 2.0, 3.0), 2, 100, delta=0.25, nu=2))
    assert plan.warnings == ("nu=2 < ceil(1/delta)=4: the parametric MSE rate is not "
                             "guaranteed for this configuration",)
    assert estimation_plan(odin2((1.0, 2.0, 3.0), 2, 100, delta=0.5, nu=2)).warnings == ()


# ---------------------------------------------------------------- exact solver

def test_exact_single_weight():
    basis = BasisSystem((), "odin1")
    sol = solve_weights_exact(basis, [2.0])
    assert np.allclose(sol.weights, [1.0])


def test_exact_two_point_hand_case():
    basis = BasisSystem((BasisEntry("psi", 1.0, -0.5),), "odin1")
    sol = solve_weights_exact(basis, [1.0, 2.0])
    assert np.allclose(sol.weights, [2.0, -1.0], atol=1e-12)


def test_exact_three_point_hand_case():
    basis = BasisSystem((BasisEntry("psi", 1.0, -0.5),), "odin1")
    sol = solve_weights_exact(basis, [1.0, 2.0, 3.0])
    assert np.allclose(sol.weights, [4 / 3, 1 / 3, -2 / 3], atol=1e-9)
    assert sol.weights @ sol.weights == pytest.approx(21 / 9, abs=1e-9)
    assert sol.objective == pytest.approx(math.sqrt(21 / 9), abs=1e-9)


def test_exact_random_instances_feasible():
    rng = np.random.default_rng(0)
    for _ in range(50):
        L = int(rng.integers(2, 9))
        I = int(rng.integers(0, min(L - 1, 6) + 1))
        lv = np.sort(rng.uniform(0.2, 4.0, L))
        basis = BasisSystem(
            tuple(BasisEntry(str(i), float(e), -0.3) for i, e in
                  enumerate(rng.uniform(-1.5, 1.5, I))), "odin1")
        A = np.vstack([np.ones(L), basis.psi_matrix(lv)])
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] < 1e-10 * sv[0]:  # near-singular draws exercise the error path
            with pytest.raises(SolverError):
                solve_weights_exact(basis, lv)
            continue
        if sv[-1] < 1e-6 * sv[0]:
            # Numerically borderline: tolerances below are not attainable in
            # double precision, and such grids are useless for estimation.
            continue
        sol = solve_weights_exact(basis, lv)
        assert abs(sol.weights.sum() - 1.0) < 1e-10
        if I:
            assert np.abs(sol.residuals).max() < 1e-8


def test_exact_rank_deficient_duplicate_l():
    basis = BasisSystem((BasisEntry("a", 1.0, -0.5), BasisEntry("b", 1.0, -0.25)), "odin1")
    with pytest.raises(SolverError, match="rank deficient"):
        solve_weights_exact(basis, [1.0, 2.0, 3.0])


def test_exact_rank_deficient_names_condition_number():
    config = ExperimentConfig(solver="exact").ensemble_config("odin1", 7, 100)
    with pytest.raises(SolverError, match=r"rank deficient \(cond\(A\) = 7\.1e\+10\)"):
        solve_weights(config)


def test_exact_min_norm_against_sampled_feasible_points():
    # Oracle: sample the affine solution space; the KKT solution's norm must
    # be minimal over every sampled feasible point.
    rng = np.random.default_rng(4)
    for _ in range(10):
        L = int(rng.integers(3, 9))
        I = int(rng.integers(1, min(L - 1, 6) + 1))
        lv = np.sort(rng.uniform(0.3, 3.0, L))
        basis = BasisSystem(
            tuple(BasisEntry(str(i), float(e), -0.3) for i, e in
                  enumerate(rng.uniform(-1.2, 1.2, I))), "odin1")
        A = np.vstack([np.ones(L), basis.psi_matrix(lv)])
        if np.linalg.matrix_rank(A) < A.shape[0]:
            continue
        sol = solve_weights_exact(basis, lv)
        w0, _, _, _ = np.linalg.lstsq(A, np.r_[1.0, np.zeros(I)], rcond=None)
        null = np.linalg.svd(A)[2][A.shape[0]:]
        norm = np.linalg.norm(sol.weights)
        for _ in range(1000):
            cand = w0 + null.T @ rng.normal(size=null.shape[0])
            assert norm <= np.linalg.norm(cand) + 1e-9


def _residual_bound(A, w):
    # The exact program's stated post-solve bound on ||A w - b||_inf.
    return (RESIDUAL_FACTOR * A.shape[1] * np.finfo(np.float64).eps
            * np.linalg.norm(A, 2) * np.linalg.norm(w))


def _sampled_feasible_draws():
    # Replays the random stream of test_exact_min_norm_against_sampled_feasible_points,
    # including its 1000 null-space samples per full-rank draw.
    rng = np.random.default_rng(4)
    for _ in range(10):
        L = int(rng.integers(3, 9))
        I = int(rng.integers(1, min(L - 1, 6) + 1))
        lv = np.sort(rng.uniform(0.3, 3.0, L))
        basis = BasisSystem(
            tuple(BasisEntry(str(i), float(e), -0.3) for i, e in
                  enumerate(rng.uniform(-1.2, 1.2, I))), "odin1")
        A = np.vstack([np.ones(L), basis.psi_matrix(lv)])
        if np.linalg.matrix_rank(A) < A.shape[0]:
            continue
        rng.normal(size=(1000, L - A.shape[0]))
        yield basis, lv, A


def test_exact_ill_conditioned_draws_meet_bound_or_raise():
    # The two draws of the sampled-feasible-points stream with cond(A) of
    # 3.05e9 and 5.0e8, where a KKT saddle solve returned weights with
    # constraint residuals above 1 and raised nothing.
    draws = [(b, lv, A) for b, lv, A in _sampled_feasible_draws()
             if np.linalg.cond(A) > 1e8]
    assert [np.linalg.cond(A) for _, _, A in draws] == pytest.approx([3.05e9, 5.0e8], rel=0.01)
    for basis, lv, A in draws:
        rhs = np.r_[1.0, np.zeros(A.shape[0] - 1)]
        try:
            w = solve_weights_exact(basis, lv).weights
        except SolverError as exc:
            assert exc.best_weights is not None
            continue
        assert np.max(np.abs(A @ w - rhs)) <= _residual_bound(A, w)


@pytest.mark.parametrize("n", [200, 400, 800])
def test_exact_paper_odin2_d5_constraints(n):
    config = ExperimentConfig(solver="exact").ensemble_config("odin2", 5, n)
    basis = build_basis(config)
    sol = solve_weights(config)
    assert abs(sol.weights.sum() - 1.0) <= 1e-9
    assert np.max(np.abs(basis.psi_matrix(config.l_values) @ sol.weights)) <= 1e-8
    assert np.array_equal(sol.residuals, basis.psi_matrix(config.l_values) @ sol.weights)


def test_exact_constraint_check_rejects_infeasible_weights():
    lv = np.array([1.0, 2.0, 3.0])
    basis = BasisSystem((BasisEntry("psi", 1.0, -0.5),), "odin1")
    A = np.vstack([np.ones(3), basis.psi_matrix(lv)])
    rhs = np.array([1.0, 0.0])
    w = solve_weights_exact(basis, lv).weights
    _check_constraints(A, rhs, w, np.linalg.norm(A, 2))  # the solution passes
    bad = w + np.array([1e-6, 0.0, 0.0])
    with pytest.raises(SolverError, match="constraint check") as info:
        _check_constraints(A, rhs, bad, np.linalg.norm(A, 2))
    assert np.array_equal(info.value.best_weights, bad)
    assert np.allclose(info.value.residuals, basis.psi_matrix(lv) @ bad)
    with pytest.raises(SolverError, match="constraint check"):
        _check_constraints(A, rhs, np.full(3, np.nan), np.linalg.norm(A, 2))


# ---------------------------------------------------------------- relaxed solver

def test_relaxed_empty_basis_uniform():
    sol = solve_weights_relaxed(BasisSystem((), "odin2"), np.linspace(1, 2, 5), 100, 2.0)
    assert np.allclose(sol.weights, 0.2)
    assert sol.objective == pytest.approx(1 / (5 * 2.0), abs=1e-12)


def test_relaxed_constant_row():
    # A constraint row constant over l cannot be reduced below |a| by any
    # sum-one weighting; the norm term then fixes w at uniform.
    basis = BasisSystem((BasisEntry("c", 0.0, -0.5),), "odin2")
    a = 100 ** (0.5 - 0.5)  # scaled row value: N^(1/2+n_exp) * l^0 = 1
    sol = solve_weights_relaxed(basis, [1.0, 2.0], 100, 4.0)
    assert np.allclose(sol.weights, 0.5, atol=1e-6)
    assert sol.objective == pytest.approx(max(a, 1 / (2 * 4.0)), rel=1e-6)


def test_relaxed_matches_exact_at_large_eta():
    basis = BasisSystem((BasisEntry("psi", 1.0, -0.5),), "odin1")
    sol = solve_weights_relaxed(basis, [1.0, 2.0, 3.0], 100, 1e9)
    assert np.allclose(sol.weights, [4 / 3, 1 / 3, -2 / 3], atol=1e-6)
    assert sol.objective < 1e-4


def test_relaxed_solution_invariants():
    lv = tuple(np.linspace(0.3, 3.0, 50))
    cfg = odin1(lv, 7, 1600, eta=1.0)
    basis = build_basis(cfg)
    sol = solve_weights_relaxed(basis, lv, 1600, 1.0)
    assert abs(sol.weights.sum() - 1.0) < 1e-10
    assert sol.weights @ sol.weights <= 1.0 * sol.objective + 1e-8
    scaled = basis.scaled_rows(np.asarray(lv), 1600) @ sol.weights
    assert np.abs(scaled).max() <= sol.objective + 1e-8


def test_relaxed_requires_l2():
    with pytest.raises(Exception):
        solve_weights_relaxed(BasisSystem((), "odin1"), [1.0], 100, 1.0)


def _relaxed_f(a, w, eta):
    return max(np.max(np.abs(a @ w)), w @ w / eta)


def test_relaxed_paper_default_odin1_d7_n100_solves():
    # The paper's default ODin1 configuration, on which a projected-subgradient
    # solve ran into its iteration cap.
    config = ExperimentConfig().ensemble_config("odin1", 7, 100)
    basis = build_basis(config)
    sol = solve_weights(config)
    a = basis.scaled_rows(np.asarray(config.l_values), config.n)
    assert abs(sol.weights.sum() - 1.0) <= 1e-12
    assert sol.objective == pytest.approx(_relaxed_f(a, sol.weights, config.eta), rel=1e-15)


def _slsqp_relaxed_objective(a, eta):
    # Independent reference: the epigraph program min epsilon over (w, epsilon)
    # with |a w| <= epsilon, ||w||^2 <= eta epsilon and sum(w) = 1, solved by
    # scipy's SLSQP from the uniform weights; f is recomputed at its weights.
    minimize = pytest.importorskip("scipy.optimize").minimize
    m, L = a.shape
    w0 = np.full(L, 1.0 / L)
    constraints = [
        {"type": "ineq", "fun": lambda x: x[-1] - a @ x[:-1],
         "jac": lambda x: np.c_[-a, np.ones(m)]},
        {"type": "ineq", "fun": lambda x: x[-1] + a @ x[:-1],
         "jac": lambda x: np.c_[a, np.ones(m)]},
        {"type": "ineq", "fun": lambda x: np.array([eta * x[-1] - x[:-1] @ x[:-1]]),
         "jac": lambda x: np.r_[-2.0 * x[:-1], eta][None, :]},
        {"type": "eq", "fun": lambda x: np.array([x[:-1].sum() - 1.0]),
         "jac": lambda x: np.r_[np.ones(L), 0.0][None, :]},
    ]
    res = minimize(lambda x: x[-1], np.r_[w0, _relaxed_f(a, w0, eta)],
                   jac=lambda x: np.r_[np.zeros(L), 1.0], method="SLSQP",
                   constraints=constraints, options={"ftol": 1e-16, "maxiter": 2000})
    w = res.x[:-1] / res.x[:-1].sum()
    return _relaxed_f(a, w, eta)


@pytest.mark.parametrize("mode,d,n", [("odin2", 7, 100), ("odin2", 5, 100),
                                      ("odin1", 5, 400), ("odin1", 3, 800)])
def test_relaxed_objective_matches_slsqp_reference(mode, d, n):
    config = ExperimentConfig().ensemble_config(mode, d, n)
    basis = build_basis(config)
    a = basis.scaled_rows(np.asarray(config.l_values), n)
    sol = solve_weights(config)
    assert sol.objective == pytest.approx(_slsqp_relaxed_objective(a, config.eta), rel=1e-9)


def test_relaxed_check_rejects_corrupted_answers():
    config = ExperimentConfig().ensemble_config("odin1", 3, 800)
    basis = build_basis(config)
    a = basis.scaled_rows(np.asarray(config.l_values), config.n)
    level = solve_weights(config).objective
    w, u = _level_qp(*_level_constraints(a, level))
    system = _LevelSystem(a)  # checked at level, not at the level it was built at
    assert _check_relaxed(a, config.eta, w, u, level, system) == pytest.approx(level, rel=1e-12)
    # A sum-preserving move that raises the largest |a_i . w| above the level.
    i = int(np.argmax(np.abs(a @ w)))
    up = np.sign(a[i] @ w) * (a[i] - a[i].mean())
    negated = u.copy()
    negated[np.argmax(u[1:]) + 1] *= -1.0
    corrupted = [
        (w + np.r_[1e-9, np.zeros(config.L - 1)], u),  # sum(w) off by 1e-9
        (w + 1e-6 * up / np.linalg.norm(up), u),
        (w, negated),  # a multiplier with the wrong sign
        (np.full(config.L, np.nan), u),
    ]
    for bad_w, bad_u in corrupted:
        with pytest.raises(SolverError, match="relaxed weights fail their check") as info:
            _check_relaxed(a, config.eta, bad_w, bad_u, level, system)
        assert np.array_equal(info.value.best_weights, bad_w, equal_nan=True)


# The 40 relaxed configurations of the weights_sweep benchmark workload.
SWEEP = [(mode, d, n) for mode in ("odin1", "odin2") for d in (2, 3, 5, 7)
         for n in (100, 200, 400, 800, 1600)]


def _sweep_program(mode, d, n):
    config = ExperimentConfig().ensemble_config(mode, d, n)
    basis = build_basis(config)
    return config, basis, basis.scaled_rows(np.asarray(config.l_values), n)


def _level_constraints(a, level):
    # The unit normals and right-hand sides of the level-epsilon QP, built cold.
    system = _LevelSystem(a)
    return system.normals, system.at(level)


def _level_qp(normals, rhs):
    """Goldfarb-Idnani dual active-set solve of one strictly convex QP, from a cold start.

    Minimizes 1/2 ||w||^2 subject to normals[0] . w = rhs[0] and
    normals[j] . w >= rhs[j] for j >= 1; every row of normals has unit norm.
    From the minimum-norm point on the equality it adds the most violated
    constraint and walks the primal-dual path to the minimizer over the
    enlarged active set, dropping an active constraint whose multiplier
    reaches zero on the way (Goldfarb & Idnani, Math. Programming 27, 1983).
    Each target point is a QR min-norm solve over the active normals.  A
    constraint counts as violated when its slack is below
    -RESIDUAL_FACTOR * L * eps * max(1, ||w||_2), the rounding that
    normals . w can carry.  Returns (w, u) with w = normals^T u and
    u[1:] >= 0, or None when the constraints are infeasible: a violated
    normal lies in the span of the active ones (|R_pp| <= DEPENDENT_TOL) and
    no active multiplier can give way.  solve_weights_relaxed does not call
    it: it is the tests' independent reference for one level of that program.
    """
    L = normals.shape[1]
    tol = RESIDUAL_FACTOR * L * np.finfo(np.float64).eps
    active = [0]
    w = rhs[0] * normals[0]
    u = np.zeros(len(rhs))
    u[0] = rhs[0]
    seen = set()
    while True:
        slack = normals @ w - rhs
        slack[active] = np.inf
        p = int(np.argmin(slack))
        if slack[p] >= -tol * max(1.0, np.linalg.norm(w)):
            return w, u
        while True:
            s = active + [p]
            q, r = np.linalg.qr(normals[s].T)
            if len(s) <= L and abs(r[-1, -1]) > DEPENDENT_TOL:
                w_t, u_t = _min_norm(q, r, rhs[s])
                # Multipliers move linearly from u[s] to u_t; an active
                # inequality whose multiplier would turn negative blocks.
                blocked = np.flatnonzero(u_t[1:-1] < 0) + 1
                ratio = u[s][blocked] / (u[s][blocked] - u_t[blocked])
                step = min(1.0, ratio.min(initial=np.inf))
                w = w + step * (w_t - w)
                u[s] += step * (u_t - u[s])
                np.maximum(u[1:], 0.0, out=u[1:])  # a rounding tie must not flip a sign
                if step == 1.0:
                    break
                drop = s[blocked[np.argmin(ratio)]]
            else:
                trade = _exchange(r, u[active])
                if trade is None:
                    return None
                theta, coef, i = trade
                u[active] -= theta * coef
                np.maximum(u[1:], 0.0, out=u[1:])
                u[p] += theta
                drop = active[i]
            u[drop] = 0.0
            active.remove(drop)
        active.append(p)
        key = frozenset(active)
        if key in seen:  # impossible in exact arithmetic: the objective rises
            raise SolverError("active-set solve revisited an active set")
        seen.add(key)


# The cold oracle's stopping tolerance: its bracket [lo, hi] on the optimal
# level ends at hi - lo <= LEVEL_RTOL * hi.
LEVEL_RTOL = 1e-12


def _cold_start_relaxed(a, eta):
    # Reference: the relaxed program solved by searching levels.  Each level
    # is a cold _level_qp.  A bracket [lo, hi] holds the optimal level: an
    # infeasible level raises lo to it; a solved one raises lo to its Newton
    # point on h(epsilon) - eta * epsilon, with h' = -2 sum_i mu_i / ||a_i||,
    # and lowers hi to max(level, h / eta).  The next level is the Newton point
    # lo while that halves the bracket and the midpoint otherwise.  Returns
    # the weights that reached hi and their objective.
    L = a.shape[1]
    lo, hi = 1.0 / (L * eta), float(np.max(np.abs(a @ np.full(L, 1.0 / L))))
    best = np.full(L, 1.0 / L)
    level, gap = lo, np.inf
    while hi - lo > LEVEL_RTOL * hi:
        sol = _level_qp(*_level_constraints(a, level))
        if sol is None:
            lo = level
        else:
            w, u = sol
            h = float(w @ w)
            slope = -2.0 * np.sum((u[1:len(a) + 1] + u[len(a) + 1:]) / np.linalg.norm(a, axis=1))
            lo = max(lo, level + (h - eta * level) / (eta - slope))
            if max(level, h / eta) < hi:
                hi, best = max(level, h / eta), w
        prev, gap = gap, hi - lo
        level = lo if sol is not None and gap <= 0.5 * prev else 0.5 * (lo + hi)
    return best, _relaxed_f(a, best, eta)


@pytest.mark.parametrize("mode,d,n", SWEEP)
def test_relaxed_matches_cold_start_oracle(mode, d, n):
    config, basis, a = _sweep_program(mode, d, n)
    w_ref, f_ref = _cold_start_relaxed(a, config.eta)
    sol = solve_weights(config)
    assert sol.objective == pytest.approx(f_ref, rel=2 * LEVEL_RTOL)
    assert np.max(np.abs(sol.weights - w_ref)) <= 1e-9 * np.max(np.abs(w_ref))


def _checked_answer(monkeypatch, config):
    # Solves config and returns the weights, multipliers and level that
    # solve_weights_relaxed handed to _check_relaxed.
    checked = []

    def check(a, eta, w, u, level, *args):
        checked.append((w, u, level))
        return _check_relaxed(a, eta, w, u, level, *args)

    monkeypatch.setattr(ensemble, "_check_relaxed", check)
    sol = solve_weights(config)
    assert len(checked) == 1
    return sol, checked[0]


@pytest.mark.parametrize("mode,d,n", SWEEP)
def test_relaxed_path_answer_is_the_level_qp_minimizer(monkeypatch, mode, d, n):
    # The cold Goldfarb-Idnani solve at the returned level gives the same
    # weights and multipliers as the end of the path.
    config, _, a = _sweep_program(mode, d, n)
    sol, (w, u, _) = _checked_answer(monkeypatch, config)
    w_ref, u_ref = _level_qp(*_level_constraints(a, sol.objective))
    assert np.max(np.abs(w - w_ref)) <= 1e-9 * np.max(np.abs(w))
    assert np.max(np.abs(u - u_ref)) <= 1e-9 * np.max(np.abs(u_ref))


@pytest.mark.parametrize("mode,d,n", SWEEP)
def test_relaxed_level_schedule(monkeypatch, mode, d, n):
    # The levels the path visits: the first piece starts at the uniform
    # weights' level, each piece starts no higher than the one before, and the
    # last ends at the returned level.  On each piece, w at its upper end and
    # w + t * w_b halfway down it are the cold level-QP minimizers there.
    config, _, a = _sweep_program(mode, d, n)
    pieces, real_root = [], ensemble._piece_root

    def root(w, w_b, level, eta):
        pieces.append((w.copy(), w_b.copy(), level))
        return real_root(w, w_b, level, eta)

    monkeypatch.setattr(ensemble, "_piece_root", root)
    sol = solve_weights(config)
    assert len(pieces) == sol.solver_iterations
    L = a.shape[1]
    assert pieces[0][2] == float(np.max(np.abs(a @ np.full(L, 1.0 / L))))
    ends = [level for _, _, level in pieces[1:]] + [sol.objective]
    for (w, w_b, level), end in zip(pieces, ends):
        assert end <= level
        for at in (level, 0.5 * (level + end)):
            w_ref = _level_qp(*_level_constraints(a, at))[0]
            assert np.max(np.abs(w + (at - level) * w_b - w_ref)) <= 1e-9 * np.max(np.abs(w_ref))


@pytest.mark.parametrize("mode,d,n", SWEEP)
def test_relaxed_path_ends_at_the_norm_crossing(mode, d, n):
    # The returned level is the root of ||w||^2 = eta * epsilon.
    config, basis, _ = _sweep_program(mode, d, n)
    sol = solve_weights(config)
    assert sol.weights @ sol.weights / config.eta == pytest.approx(sol.objective, rel=1e-12)
    assert sol.solver_iterations > 0


@pytest.mark.parametrize("mode,d,n", [("odin1", 2, 100), ("odin1", 7, 1600),
                                      ("odin2", 3, 400), ("odin2", 7, 100)])
def test_level_system_rhs_is_the_fresh_rhs(monkeypatch, mode, d, n):
    # Each right-hand side the solve writes in place holds the same doubles
    # as one built fresh at that level, and the normals are _level_normals(a).
    config, basis, a = _sweep_program(mode, d, n)
    visited, real_at = [], ensemble._LevelSystem.at

    def at(self, level):
        visited.append(level)
        return real_at(self, level)

    monkeypatch.setattr(ensemble._LevelSystem, "at", at)
    solve_weights(config)
    monkeypatch.undo()
    L = a.shape[1]
    system = _LevelSystem(a)
    normals, norms = _level_normals(a)
    assert np.array_equal(system.normals, normals)

    def fresh(level):
        return np.r_[L**-0.5, -np.tile(level / norms, 2)]

    assert np.array_equal(system.slope, fresh(1.0) - fresh(0.0))
    uniform_level = float(np.max(np.abs(a @ np.full(L, 1.0 / L))))
    assert len(visited) > 2
    for level in [0.0, uniform_level] + visited:
        assert np.array_equal(system.at(level), fresh(level))


def test_w_norm_on_every_path():
    lv = tuple(np.linspace(0.3, 3.0, 50))
    solutions = {
        "exact": solve_weights(odin1(lv, 3, 400, solver="exact")),
        "relaxed": solve_weights(odin1(lv, 3, 400)),
        "uniform": solve_weights(odin1(lv, 3, 400, eta=1e-6)),
        "single": solve_weights(odin1((1.5,), 3, 400)),
    }
    assert solutions["relaxed"].solver_iterations > 0
    assert np.all(solutions["uniform"].weights == 1.0 / 50)
    for path, sol in solutions.items():
        assert sol.w_norm == np.linalg.norm(sol.weights), path
    doubled = dataclasses.replace(solutions["relaxed"], weights=2.0 * solutions["relaxed"].weights)
    assert doubled.w_norm == np.linalg.norm(doubled.weights)


def _random_programs(seed, count):
    # Relaxed programs on random l grids, kept where the basis is not empty
    # and cond([1; psi / ||psi||]) < 1e6, the rows of psi scaled to unit norm.
    rng = np.random.default_rng(seed)
    while count:
        mode = ("odin1", "odin2")[int(rng.integers(2))]
        d, n, L = int(rng.integers(1, 8)), int(rng.integers(50, 2001)), int(rng.integers(2, 41))
        lv = np.sort(rng.uniform(0.3, 3.0, L))
        eta = float(10.0 ** rng.uniform(-1.0, 1.0))
        try:
            basis = build_basis(EnsembleConfig(mode, lv, d, n, eta=eta))
        except ConfigurationError:
            continue
        if basis.count == 0:
            continue
        psi = basis.psi_matrix(lv)
        if np.linalg.cond(np.vstack([np.ones(L), psi / np.linalg.norm(psi, axis=1)[:, None]])) < 1e6:
            count -= 1
            yield basis, lv, n, eta


def test_relaxed_path_matches_cold_start_on_random_programs():
    for basis, lv, n, eta in _random_programs(11, 200):
        sol = solve_weights_relaxed(basis, lv, n, eta)
        f_ref = _cold_start_relaxed(basis.scaled_rows(lv, n), eta)[1]
        assert sol.objective == pytest.approx(f_ref, rel=1e-9)


def _line_search_relaxed(a, eta):
    # Reference for L = 2: f is convex in w = (x, 1 - x), so a ternary search
    # over x finds its minimum.
    (a00, a01), (a10, a11) = a

    def f(x):
        return max(abs(a00 * x + a01 * (1 - x)), abs(a10 * x + a11 * (1 - x)),
                   (x * x + (1 - x) ** 2) / eta)

    lo, hi = -1e3, 1e3
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        lo, hi = (lo, m2) if f(m1) < f(m2) else (m1, hi)
    return f(0.5 * (lo + hi))


def test_relaxed_two_members_two_rows_match_line_search():
    # With L = 2 the sum row and one row span R^2, so the next row to turn
    # tight joins in the span of the active normals: it trades multipliers,
    # or no multiplier can give way and the path ends there.
    rng = np.random.default_rng(12)
    for _ in range(100):
        basis = BasisSystem(tuple(BasisEntry(str(i), float(e), float(r)) for i, (e, r) in
                                  enumerate(zip(rng.uniform(-1.5, 1.5, 2),
                                                rng.uniform(-0.5, 0.0, 2)))), "odin1")
        lv = np.array([1.0, rng.uniform(1.2, 3.0)])
        eta = float(10.0 ** rng.uniform(-1.0, 1.0))
        a = basis.scaled_rows(lv, 100)
        f_ref = _line_search_relaxed(a, eta)
        assert solve_weights_relaxed(basis, lv, 100, eta).objective == pytest.approx(f_ref, rel=1e-9)
        assert _cold_start_relaxed(a, eta)[1] == pytest.approx(f_ref, rel=1e-9)


def test_piece_root_closed_form_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # w(1 + t) = (1 - t) e_1: h = (1 - t)^2 meets 0.1 (1 + t) first at t = 0.6.
        root = _piece_root(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1.0, 0.1)
        assert root == pytest.approx(1.6, rel=1e-15)
        # A flat piece (w_b = 0) gives the Newton point h / eta.
        assert _piece_root(np.array([1.0, 0.0]), np.zeros(2), 0.5, 1.0) == pytest.approx(
            1.0, rel=1e-15)


# ---------------------------------------------------------------- ensemble_estimate

def test_single_member_reduces_to_plugin():
    rng = np.random.default_rng(8)
    x = PointSet(rng.random((100, 2)))
    y = PointSet(rng.random((100, 2)))
    spec = make_functional("renyi_integral", alpha=0.5)
    cfg = odin1((1.0,), 2, 100)
    report = ensemble_estimate(x, y, cfg, spec)
    k = round(math.sqrt(100))
    assert report.value == pytest.approx(plugin_estimate(x, y, k, k, spec).value, abs=1e-15)
    assert np.allclose(report.weights.weights, [1.0])


def test_value_is_dot_product():
    rng = np.random.default_rng(12)
    x = PointSet(rng.random((150, 2)))
    y = PointSet(rng.random((150, 2)))
    spec = make_functional("kl")
    cfg = odin1(tuple(np.linspace(0.5, 2.0, 10)), 2, 150)
    report = ensemble_estimate(x, y, cfg, spec)
    w = report.weights.weights
    v = np.array([pk[2] for pk in report.per_k])
    assert report.value == pytest.approx(float(np.dot(w, v)), abs=1e-12)


def test_linearity_in_functional():
    rng = np.random.default_rng(14)
    x = PointSet(rng.random((120, 2)))
    y = PointSet(rng.random((120, 2)))
    cfg = odin1(tuple(np.linspace(0.5, 2.0, 8)), 2, 120)
    g1 = make_functional("kl")
    g2 = make_functional("l2")
    a, b = 2.5, -0.75
    combo = make_functional("custom", g=lambda t1, t2: (a * g1.g_log(np.log(t1), np.log(t2))
                                                        + b * g2.g_log(np.log(t1), np.log(t2))))
    v1 = ensemble_estimate(x, y, cfg, g1).value
    v2 = ensemble_estimate(x, y, cfg, g2).value
    vc = ensemble_estimate(x, y, cfg, combo).value
    assert vc == pytest.approx(a * v1 + b * v2, abs=1e-10)


def test_mismatched_n_warns_in_report():
    rng = np.random.default_rng(15)
    x = PointSet(rng.random((90, 1)))
    y = PointSet(rng.random((90, 1)))
    cfg = odin1((0.5, 1.0, 2.0), 1, 120)
    report = ensemble_estimate(x, y, cfg, make_functional("kl"))
    assert any("config.n" in w for w in report.warnings)


def test_solver_selection_through_config():
    rng = np.random.default_rng(16)
    x = PointSet(rng.random((100, 1)))
    y = PointSet(rng.random((100, 1)))
    spec = make_functional("renyi_integral", alpha=0.5)
    lv = tuple(np.linspace(0.5, 2.5, 6))
    exact = ensemble_estimate(x, y, odin1(lv, 1, 100, solver="exact"), spec)
    relaxed = ensemble_estimate(x, y, odin1(lv, 1, 100, solver="relaxed", eta=1e9), spec)
    assert relaxed.value == pytest.approx(exact.value, abs=1e-3)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EnsembleConfig("odin3", (1.0,), 1, 100)
    with pytest.raises(ConfigurationError):
        odin1((1.0, 1.0), 1, 100)  # duplicate l
    with pytest.raises(ConfigurationError):
        odin1((-1.0,), 1, 100)
    with pytest.raises(ConfigurationError):
        odin2((1.0, 2.0), 1, 100, delta=1.5)
    with pytest.raises(ConfigurationError):
        odin1((1.0,), 1, 100, eta=0.0)


@pytest.mark.parametrize("mode,lv,kw", [
    ("odin1", (float("nan"), 1.0), {}),
    ("odin1", (1.0, float("inf")), {}),
    ("odin1", (1.0, 2.0), {"eta": float("nan")}),
    ("odin1", (1.0, 2.0), {"eta": float("inf")}),
    ("odin1", (1.0, 2.0), {"delta": float("nan")}),
    ("odin2", (1.0, 2.0), {"delta": float("nan")}),
])
def test_config_rejects_non_finite_parameters(mode, lv, kw):
    with pytest.raises(ConfigurationError, match="must be finite"):
        EnsembleConfig(mode, lv, 1, 100, **kw)


@pytest.mark.parametrize("field, value", [("d", 3.0), ("n", 400.7), ("nu", 1.5), ("k_min", 2.5)])
def test_config_rejects_non_integer_counts(field, value):
    # Unchecked, d=3.0 and nu=1.5 fail inside range(), k_min=2.5 passes, and
    # n=400.7 schedules k from 400.7 while its warning reads N=400.
    fields = dict(mode="odin2", l_values=tuple(np.linspace(0.3, 3.0, 50)), d=3, n=400)
    with pytest.raises(ConfigurationError, match="^%s must be an integer" % field):
        EnsembleConfig(**{**fields, field: value})
    config = EnsembleConfig(**{**fields, field: np.int64(value)})  # a NumPy int is an integer
    assert getattr(config, field) == int(value)


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_default_l_grid_rejects_non_finite_delta(delta):
    with pytest.raises(ConfigurationError, match="delta must be finite"):
        default_l_grid("odin2", 100, delta)


@pytest.mark.parametrize("delta", [1e300, -1e300, 0.0, 1.0])
def test_odin2_delta_outside_its_range_is_rejected_before_the_power(delta):
    # N^delta overflows at 1e300 and underflows to a zero divisor at -1e300.
    with pytest.raises(ConfigurationError, match=r"delta in \(0, 1\)"):
        default_l_grid("odin2", 100, delta)
    with pytest.raises(ConfigurationError, match=r"delta in \(0, 1\)"):
        odin2((1.0, 2.0), 3, 100, delta=delta)


@pytest.mark.parametrize("mode", ["odin1", "odin2"])
def test_k_schedule_rejects_an_overflowing_k(mode):
    config = EnsembleConfig(mode, (1.0, 2.0, 1e308), 3, 100)
    with pytest.raises(ConfigurationError, match="overflows"):
        k_schedule(config)


@pytest.mark.parametrize("kw", [
    {"l_values_odin1": (1.0, float("nan"))},
    {"l_values_odin2": (float("inf"), 1.0)},
    {"delta": float("nan")},
    {"eta": float("nan")},
])
def test_experiment_config_rejects_non_finite_parameters(kw):
    with pytest.raises(ConfigurationError, match="must be finite"):
        ExperimentConfig(**kw)


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0])
def test_relaxed_solver_rejects_eta_outside_its_range(eta):
    config = odin1((0.5, 1.0, 2.0), 1, 100)
    with pytest.raises(ParameterError, match="eta must be finite and > 0"):
        solve_weights_relaxed(build_basis(config), config.l_values, 100, eta)


def test_solve_weights_l1_shortcut():
    sol = solve_weights(odin1((1.5,), 3, 400))
    assert np.allclose(sol.weights, [1.0])
