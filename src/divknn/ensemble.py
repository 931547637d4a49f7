"""Weighted ensembles of k-NN plug-in estimators with bias-cancelling weights.

Two ensemble constructions are provided.  ODin1 uses the neighbor schedule
k(l) = l * sqrt(N); ODin2 uses k(l) = l * N^delta.  Each mode generates a
system of bias basis functions psi_i(l) = l^a paired with rate factors
phi_i(N) = N^b.  The ensemble weights are chosen so the weighted sums of the
psi_i over the l grid (nearly) vanish, cancelling the leading bias terms
without ever computing the unknown bias constants.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ParameterError, SolverError, as_index
from .functionals import check_profile_args, plugin_profile
from .neighbors import as_pointset

DEFAULT_DELTA = 0.5
DEFAULT_NU = 2
DEFAULT_ETA = 1.0
DEFAULT_K_MIN = 3

# Safety factor of the exact program's post-solve residual bound.  The
# worst-case backward error of a Householder QR min-norm solve grows like
# L * m * u (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# Thms 19.4 and 21.4); rounding errors accumulate like its square root in
# practice, which is at most L * u for m <= L.  The factor 8 covers that
# together with the triangular solve, the product Q y and the final A w.
RESIDUAL_FACTOR = 8.0

# A violated unit normal whose QR pivot |R_pp| (its distance from the span of
# the active normals) is at most this is treated as linearly dependent.
DEPENDENT_TOL = 1e-10


@dataclass(frozen=True)
class EnsembleConfig:
    mode: str  # "odin1" | "odin2"
    l_values: tuple
    d: int
    n: int
    delta: float = DEFAULT_DELTA
    nu: int = DEFAULT_NU
    eta: float = DEFAULT_ETA
    solver: str = "relaxed"  # "exact" | "relaxed"
    k_min: int = DEFAULT_K_MIN

    def __post_init__(self):
        mode = self.mode.lower()
        if mode not in ("odin1", "odin2"):
            raise ConfigurationError("mode must be 'odin1' or 'odin2', got %r" % self.mode)
        object.__setattr__(self, "mode", mode)
        lv = tuple(float(l) for l in self.l_values)
        if len(lv) < 1:
            raise ConfigurationError("need at least one l value")
        _require_finite("l values", *lv)
        _require_finite("delta", self.delta)
        _require_finite("eta", self.eta)
        if any(l <= 0 for l in lv):
            raise ConfigurationError("all l values must be > 0")
        if len(set(lv)) != len(lv):
            raise ConfigurationError("l values must be distinct")
        object.__setattr__(self, "l_values", lv)
        for name in ("d", "n", "nu", "k_min"):
            as_index(name, getattr(self, name), ConfigurationError)
        if self.d < 1 or self.n < 2:
            raise ConfigurationError("need d >= 1 and n >= 2")
        if self.k_min < 1:
            raise ConfigurationError("k_min must be >= 1, got %d" % self.k_min)
        if self.solver not in ("exact", "relaxed"):
            raise ConfigurationError("solver must be 'exact' or 'relaxed'")
        if mode == "odin2":
            _require_odin2_delta(self.delta)
            if self.nu < 1:
                raise ConfigurationError("odin2 requires nu >= 1")
        if self.eta <= 0:
            raise ConfigurationError("eta must be > 0")

    @property
    def L(self):
        return len(self.l_values)


def _require_finite(name, *values):
    """Raise ConfigurationError unless every value is finite: a NaN passes every range test."""
    if not all(math.isfinite(v) for v in values):
        raise ConfigurationError("%s must be finite" % name)


def _require_odin2_delta(delta):
    """Raise ConfigurationError unless delta is finite and in (0, 1), ODin2's range."""
    _require_finite("delta", delta)
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("odin2 requires delta in (0, 1)")


def _rate_warnings(config):
    """The warning that an ODin2 config's nu < ceil(1/delta) voids the rate, as a 0- or 1-list."""
    bound = math.ceil(1.0 / config.delta)
    if config.mode == "odin2" and config.nu < bound:
        return ["nu=%d < ceil(1/delta)=%d: the parametric MSE rate is not guaranteed for "
                "this configuration" % (config.nu, bound)]
    return []


class BasisEntry(NamedTuple):
    label: str
    l_exponent: float  # psi(l) = l ** l_exponent
    n_exponent: float  # phi(N) = N ** n_exponent


@dataclass(frozen=True)
class BasisSystem:
    entries: tuple
    mode: str

    @property
    def count(self):
        return len(self.entries)

    def psi_matrix(self, l_values):
        """(I, L) matrix of psi_i evaluated on the l grid."""
        lv = np.asarray(l_values, dtype=np.float64)
        if self.count == 0:
            return np.zeros((0, lv.size))
        return np.vstack([lv**e.l_exponent for e in self.entries])

    def row_scale(self, n):
        """(I,) vector of sqrt(N) * phi_i(N), the factor of psi_i in the relaxed-program rows."""
        return np.array([n ** (0.5 + e.n_exponent) for e in self.entries])

    def scaled_rows(self, l_values, n):
        """(I, L) matrix of sqrt(N) * phi_i(N) * psi_i(l_j), the relaxed-program rows."""
        return self.row_scale(n)[:, None] * self.psi_matrix(l_values)


@dataclass(frozen=True)
class WeightSolution:
    weights: np.ndarray
    residuals: np.ndarray  # gamma_w(i) = sum_l w(l) psi_i(l), per basis entry
    objective: float  # achieved epsilon (relaxed) or ||w||_2 (exact)
    solver_iterations: int  # pieces of the solution path walked (relaxed); 0 (exact)
    l_values: tuple = ()
    # ||w||_2, the factor by which the ensemble scales up noise; always
    # computed from the weights.
    w_norm: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "w_norm", float(np.linalg.norm(self.weights)))


@dataclass(frozen=True)
class EstimateReport:
    value: float
    per_k: tuple  # sequence of (l, k, plug-in estimate at k)
    weights: WeightSolution
    warnings: tuple = ()
    # Clamped neighbor distances (at most DEGENERATE_RHO), x->y and x->x,
    # summed over the scheduled ks: the sum of plugin_estimate's
    # degeneracy_count at each of them.
    degeneracy_count: int = 0


def _round_half_away(x):
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def _raw_k(l, n, mode, delta):
    """k(l) before clamping: l * sqrt(N) (ODin1) or l * N^delta (ODin2), rounded half away."""
    base = math.sqrt(n) if mode == "odin1" else n**delta
    k = l * base
    if not math.isfinite(k):
        raise ConfigurationError("k(l) = l * %.17g overflows at l=%g" % (base, l))
    return _round_half_away(k)


# The default l grids.  ODin1: linspace(l_min, l_max, l_count) of ODIN1_L_RANGE.
# ODin2: ODIN2_L_COUNT consecutive ks from round(ODIN2_L_MIN * N^delta).
ODIN1_L_RANGE = (0.3, 3.0, 50)
ODIN2_L_MIN = 1.4
ODIN2_L_COUNT = 25


def default_l_grid(mode, n, delta):
    """The mode's default l grid at N.

    ODin1's is linspace(*ODIN1_L_RANGE) at every N (``n`` and ``delta`` are
    not read).  ODin2's is l_i = (k0 + i) / N^delta for ODIN2_L_COUNT
    consecutive ks from k0 = round(ODIN2_L_MIN * N^delta), so no two members
    share a k.  A delta outside (0, 1) raises ConfigurationError.
    """
    if mode == "odin1":
        return tuple(np.linspace(*ODIN1_L_RANGE))
    _require_odin2_delta(delta)
    k0 = _raw_k(ODIN2_L_MIN, n, "odin2", delta)
    base = n**delta
    return tuple((k0 + i) / base for i in range(ODIN2_L_COUNT))


def k_schedule(config):
    """Map each l to a neighbor count k(l), clamped to [k_min, N-1].

    Returns (schedule, warnings) where schedule is a list of (l, k) pairs.
    Collisions (two l rounding to the same k) are retained but reported.
    """
    n = config.n
    lo = config.k_min
    hi = n - 1
    if lo > hi:
        raise ConfigurationError("k_min=%d exceeds M2=%d" % (config.k_min, hi))
    sched = []
    warn = []
    for l in config.l_values:
        k = min(max(_raw_k(l, n, config.mode, config.delta), lo), hi)
        sched.append((l, k))
    ks = [k for _, k in sched]
    if len(config.l_values) > 1 and len(set(ks)) == 1:
        raise ConfigurationError(
            "all l values map to k=%d: ensemble degenerate, widen the l grid" % ks[0]
        )
    seen = {}
    for l, k in sched:
        if k in seen:
            warn.append("k collision: l=%g and l=%g both map to k=%d" % (seen[k], l, k))
        else:
            seen[k] = l
    return sched, warn


def build_basis(config):
    """Construct the bias basis system for the configured ensemble mode."""
    d = config.d
    if config.mode == "odin1":
        entries = [BasisEntry("i=%d" % i, i / d, -i / (2.0 * d)) for i in range(1, d + 1)]
        entries.append(BasisEntry("i=%d" % (d + 1), -1.0, -0.5))
    else:
        delta, nu = config.delta, config.nu
        j_max = math.ceil(d / (2.0 * (1.0 - delta)))
        entries = []
        # No two (j, q) give the same (l, N) exponents: equal l exponents
        # j - q/2 mean q' - q = 2 (j' - j), and the rates then differ by
        # (j' - j) ((1 - delta)/d + delta), which is never 0.
        for j in range(0, j_max + 1):
            for q in range(0, nu + 1):
                rate = (1.0 - delta) * j / d + q * delta / 2.0
                if not (0.0 < rate < 0.5):
                    continue
                if not (j + q / 2.0 > 0.5):
                    continue
                entries.append(BasisEntry("j=%d,q=%d" % (j, q), j - q / 2.0, -rate))
    basis = BasisSystem(tuple(entries), config.mode)
    if basis.count >= config.L:
        raise ConfigurationError(
            "basis has I=%d entries but only L=%d ensemble members; "
            "increase L above I" % (basis.count, config.L)
        )
    return basis


def solve_weights_exact(basis, l_values):
    """Minimum-norm weights with exact bias cancellation (QR min-norm solve).

    Solves min ||w||_2 subject to A w = b, where A = [1; psi] stacks the
    all-ones row over the basis rows psi_i(l) and b = e_1: sum(w) = 1 and
    psi_i . w = 0 for every basis entry.  With the Householder factorization
    A^T = Q R the minimum-norm solution is w = Q y, R^T y = b.  Unlike the
    KKT saddle system [2I, A^T; A, 0] this does not square cond(A), and it is
    backward stable: the computed w exactly solves (A + dA) w = b with
    ||dA|| a modest multiple of L * eps * ||A||_2.

    Every answer is checked against its own constraints (see
    _check_constraints): weights with ||A w - b||_inf above
    RESIDUAL_FACTOR * L * eps * ||A||_2 * ||w||_2 are never returned; a
    SolverError carrying them as best_weights is raised instead.
    """
    lv = np.asarray(l_values, dtype=np.float64)
    L = lv.size
    psi = basis.psi_matrix(lv)
    A = np.vstack([np.ones((1, L)), psi])
    m = A.shape[0]
    if m > L:
        raise SolverError("constraint count %d exceeds ensemble size L=%d" % (m, L))
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
        raise SolverError("constraint matrix is rank deficient (cond(A) = %.2g)" % cond)
    b = np.zeros(m)
    b[0] = 1.0
    w, _ = _min_norm(*np.linalg.qr(A.T), b)
    _check_constraints(A, b, w, sv[0])
    return WeightSolution(w, psi @ w, float(np.linalg.norm(w)), 0, tuple(lv))


def _min_norm(q, r, rhs):
    """Minimum-norm solution of normals @ w = rhs, given normals^T = Q R.

    w = Q y with R^T y = rhs.  Also returns u = R^{-1} y, the multipliers of
    1/2 ||w||^2 under those equalities (w = normals^T u).
    """
    y = np.linalg.solve(r.T, rhs)
    return q @ y, np.linalg.solve(r, y)


def _check_constraints(A, b, w, a_norm):
    """Raise SolverError unless A w = b holds to the QR backward-error bound.

    a_norm is ||A||_2.  The bound is RESIDUAL_FACTOR * L * eps * ||A||_2 *
    ||w||_2 on ||A w - b||_inf, the residual a backward-stable solve can
    leave; a larger residual means the weights do not cancel the bias terms
    they claim to.
    """
    w = np.asarray(w, dtype=np.float64)
    err = float(np.max(np.abs(A @ w - b)))
    bound = RESIDUAL_FACTOR * w.size * np.finfo(np.float64).eps * a_norm * np.linalg.norm(w)
    if not (np.all(np.isfinite(w)) and err <= bound):
        raise SolverError(
            "exact weights fail their constraint check: ||A w - b||_inf = %.3g "
            "exceeds the backward-error bound %.3g" % (err, bound),
            best_weights=w,
            residuals=A[1:] @ w,
        )


def _exchange(r, u_active):
    """Trade multipliers for a joining unit normal n_p in the span of the active ones.

    r is the R factor of [normals[active]^T, n_p]; with m = len(active), the
    system r[:m, :m] coef = r[:m, m] gives n_p = normals[active]^T coef, also
    when the active normals span R^L and r has only m rows.  Moving theta of
    multiplier from the active rows (u_active - theta * coef) onto n_p
    leaves w = normals^T u as it is; theta stops where an inequality
    multiplier reaches zero.  Returns (theta, coef, i) with i the position
    in active of the row that leaves, or None when no inequality multiplier
    can give way (coef[1:] <= 0): the constraints are then infeasible with
    n_p among them.
    """
    m = len(u_active)
    coef = np.linalg.solve(r[:m, :m], r[:m, m])
    blocked = np.flatnonzero(coef[1:] > 0) + 1
    if blocked.size == 0:
        return None
    ratio = u_active[blocked] / coef[blocked]
    i = int(np.argmin(ratio))
    return ratio[i], coef, int(blocked[i])


def _level_normals(a):
    """Unit normals of the level QP, and the row norms of a.

    Row 0 is the equality sum(w) = 1 (normals[0] . w = rhs[0]); rows 1..I
    are -a_i . w >= -epsilon and rows I+1..2I are a_i . w >= -epsilon, and
    every row j >= 1 is an inequality normals[j] . w >= rhs[j].  Every row
    is divided by the norm of its normal.
    The normals do not depend on epsilon.
    """
    L = a.shape[1]
    norms = np.linalg.norm(a, axis=1)
    unit = a / norms[:, None]
    return np.vstack([np.full(L, L**-0.5), -unit, unit]), norms


class _LevelSystem:
    """The level QP of the rows a, built once per solve.

    normals and norms are those of _level_normals.  rhs is the right-hand
    side at the level last passed to at(), which rewrites it in place: L^-1/2
    in row 0, then -level / norms in rows 1..I and again in rows I+1..2I.
    slope is its epsilon-derivative, 0 in row 0 and -1 / norms below.
    """

    def __init__(self, a):
        self.normals, self.norms = _level_normals(a)
        self.rhs = np.empty(len(self.normals))
        self.rhs[0] = a.shape[1] ** -0.5
        self.slope = self.at(1.0).copy()
        self.slope[0] = 0.0

    def at(self, level):
        """The right-hand side at level, written into and returned as self.rhs."""
        i = len(self.norms)
        upper = self.rhs[1:i + 1]
        np.divide(level, self.norms, out=upper)
        np.negative(upper, out=upper)
        self.rhs[i + 1:] = upper
        return self.rhs


def _piece_root(w, w_b, level, eta):
    """Root of ||w(epsilon)||^2 = eta * epsilon on the piece w(level + t) = w + t * w_b.

    The root solves c2 t^2 + c1 t + c0 = 0 with c2 = ||w_b||^2,
    c1 = 2 w . w_b - eta and c0 = ||w||^2 - eta * level.  ||w(epsilon)||^2
    decreases (w . w_b <= 0), so c1 < 0; above the root c0 <= 0 and the
    discriminant is at least c1^2.  The smaller root is taken, in the form
    2 c0 / (-c1 + sqrt(c1^2 - 4 c2 c0)), which holds at c2 = 0 and does not
    cancel.
    """
    c2 = float(w_b @ w_b)
    c1 = 2.0 * float(w @ w_b) - eta
    c0 = float(w @ w) - eta * level
    return level + 2.0 * c0 / (math.sqrt(c1 * c1 - 4.0 * c2 * c0) - c1)


def solve_weights_relaxed(basis, l_values, n, eta):
    """Relaxed weight program: min epsilon with scaled residual and norm caps.

    Epigraph form: minimize f(w) = max(max_i |a_i . w|, ||w||^2 / eta) over
    the hyperplane sum(w) = 1, where a_i = sqrt(N) * phi_i(N) * psi_i(l).
    For a level epsilon, h(epsilon) = min ||w||^2 s.t. sum(w) = 1,
    |a_i . w| <= epsilon is a strictly convex QP, posed on the unit normals
    of _level_normals.  h is decreasing, so the optimal level epsilon* is the
    root of h(epsilon) = eta * epsilon.

    The QP's right-hand side is affine in epsilon, so its minimizer w(epsilon)
    is piecewise affine and h piecewise quadratic.  The solve walks that path
    down from the level of the uniform weights, where only sum(w) = 1 is
    active (the homotopy of LARS; Efron et al., Ann. Statist. 32, 2004).  On
    each piece the active normals are QR-factored; w and the multipliers u
    are solved afresh at the piece's upper end, so rounding does not build
    up, and their epsilon-derivatives come from the same factors.  The
    normals and the right-hand side (_LevelSystem) are built once per solve.
    The piece ends at the first of three events: an inactive row turns tight
    and joins the active set; an active multiplier reaches 0 and its row
    leaves; or the piece's closed-form root of ||w||^2 = eta * epsilon
    (_piece_root) is reached, where w and u are solved at the root and
    returned.  A joining normal with |R_pp| <= DEPENDENT_TOL trades
    multipliers with the active rows (_exchange); any other joins, and the
    factors that gave its R_pp serve the next piece.  When no multiplier can
    give way, every lower level is infeasible and the path ends at the
    current level.  A revisited active set raises SolverError.
    solver_iterations counts the pieces.

    The returned weights are checked (see _check_relaxed): sum(w) = 1 and the
    level-QP constraints to the backward-error bound, and the KKT signs and
    stationarity of its multipliers; otherwise SolverError is raised with
    them as best_weights.  The reported objective is f recomputed from the
    weights.  When the uniform weights already meet the norm bound 1/(L eta)
    they are optimal and are returned without a solve.
    """
    lv = np.asarray(l_values, dtype=np.float64)
    L = lv.size
    if L < 2:
        raise ParameterError("relaxed solver requires L >= 2")
    if not 0.0 < eta < math.inf:
        raise ParameterError("eta must be finite and > 0")
    psi = basis.psi_matrix(lv)
    a = basis.row_scale(n)[:, None] * psi
    uniform = np.full(L, 1.0 / L)
    floor = 1.0 / (L * eta)  # ||w||^2 >= 1/L on sum(w) = 1
    level = float(np.max(np.abs(a @ uniform), initial=0.0))
    if level <= floor:
        return WeightSolution(uniform, psi @ uniform, floor, 0, tuple(lv))
    system = _LevelSystem(a)
    normals, slope = system.normals, system.slope
    active, seen, pieces, factors = [0], {frozenset([0])}, 0, None
    while True:
        pieces += 1
        q, r = factors if factors else np.linalg.qr(normals[active].T)
        factors = None
        rhs = system.at(level)
        w, u_a = _min_norm(q, r, rhs[active])
        w_b, u_b = _min_norm(q, r, slope[active])
        # Going down by t, an inactive slack falls at rate normals . w_b - slope
        # and the active multipliers at rate u_b.
        rate = normals @ w_b - slope
        rate[active] = 0.0
        join = np.flatnonzero(rate > 0)
        t_join = np.maximum(normals[join] @ w - rhs[join], 0.0) / rate[join]
        give = np.flatnonzero(u_b[1:] > 0) + 1
        t_leave = np.maximum(u_a[give], 0.0) / u_b[give]
        t_in, t_out = t_join.min(initial=np.inf), t_leave.min(initial=np.inf)
        root = _piece_root(w, w_b, level, eta)
        if level - root <= min(t_in, t_out):
            level = root
            break
        level -= min(t_in, t_out)
        if t_out <= t_in:
            del active[give[np.argmin(t_leave)]]
        else:
            p = int(join[np.argmin(t_join)])
            q_p, r_p = np.linalg.qr(normals[active + [p]].T)
            if len(active) == L or abs(r_p[-1, -1]) <= DEPENDENT_TOL:
                trade = _exchange(r_p, u_a - t_in * u_b)
                if trade is None:  # every lower level is infeasible
                    break
                del active[trade[2]]
            else:  # the next piece factors the same matrix
                factors = q_p, r_p
            active.append(p)
        key = frozenset(active)
        if key in seen:  # impossible in exact arithmetic: each set holds on one piece
            raise SolverError("relaxed solution path revisited an active set")
        seen.add(key)
    w, u_a = _min_norm(q, r, system.at(level)[active])
    u = np.zeros(len(normals))
    u[active] = u_a
    objective = _check_relaxed(a, eta, w, u, level, system)
    return WeightSolution(w, psi @ w, objective, pieces, tuple(lv))


def _check_relaxed(a, eta, w, u, level, system):
    """Check w against its level QP and return f(w) = max(max_i |a_i . w|, ||w||^2 / eta).

    system is the _LevelSystem of a; its right-hand side is written at level.
    With tol = RESIDUAL_FACTOR * L * eps, SolverError is raised unless w is
    finite, |sum(w) - 1| <= tol * sqrt(L) * ||w||_2, no level constraint is
    violated by more than tol * max(1, ||w||_2) (the rows have unit norm), the
    multipliers u have the KKT signs (u >= 0 on the inequality rows), and
    stationarity w = normals^T u holds to tol * ||u||_1.
    """
    w = np.asarray(w, dtype=np.float64)
    normals, rhs = system.normals, system.at(level)
    tol = RESIDUAL_FACTOR * w.size * np.finfo(np.float64).eps
    w_norm = np.linalg.norm(w)
    sum_err = abs(w.sum() - 1.0)
    violation = float(np.max(rhs[1:] - normals[1:] @ w))
    stationarity = float(np.max(np.abs(w - normals.T @ u)))
    if not (np.all(np.isfinite(w)) and sum_err <= tol * math.sqrt(w.size) * w_norm
            and violation <= tol * max(1.0, w_norm) and np.all(u[1:] >= 0)
            and stationarity <= tol * np.sum(np.abs(u))):
        raise SolverError(
            "relaxed weights fail their check at level %.6g: |sum(w) - 1| = %.3g, level "
            "violation = %.3g, stationarity residual = %.3g, least multiplier = %.3g"
            % (level, sum_err, violation, stationarity, np.min(u[1:])),
            best_weights=w,
            residuals=a @ w,
        )
    return max(float(np.max(np.abs(a @ w))), float(w @ w) / eta)


def solve_weights(config):
    """Solve the weight program selected by the config, on its own bias basis."""
    if config.L == 1:
        # A single member: the sum constraint pins w = [1] in either program.
        return WeightSolution(np.array([1.0]), np.zeros(0), 1.0, 0, config.l_values)
    basis = build_basis(config)
    if config.solver == "exact":
        return solve_weights_exact(basis, config.l_values)
    return solve_weights_relaxed(basis, config.l_values, config.n, config.eta)


@dataclass(frozen=True)
class EstimationPlan:
    """The fixed combination sum_l w(l) * Ghat_{k(l)} of one config (see estimation_plan).

    It does not depend on the data, so one plan serves an estimate and all its
    replicates or trials.  The plug-in at k is a one-member plan of weight 1.0.
    """

    config: EnsembleConfig
    schedule: tuple  # (l, k) pairs
    warnings: tuple  # the config's and the schedule's
    ks: tuple  # the distinct scheduled ks, ascending
    weights: WeightSolution

    def members(self, ks, values):
        """Each l's Ghat_{k(l)}, read from a profile over ascending ks that hold self.ks."""
        return np.asarray(values)[np.searchsorted(ks, [k for _, k in self.schedule])]

    def combine(self, ks, values):
        """sum_l w(l) * Ghat_{k(l)}, read from a profile as in members."""
        return float(np.dot(self.weights.weights, self.members(ks, values)))


def estimation_plan(config):
    """The config's EstimationPlan: its k schedule and the weights solved for it."""
    sched, warn = k_schedule(config)
    return EstimationPlan(config, tuple(sched), tuple(_rate_warnings(config) + warn),
                          tuple(sorted({k for _, k in sched})), solve_weights(config))


def ensemble_estimate(x, y, config, spec):
    """Weighted ensemble estimate sum_l w(l) * Ghat_{k(l)} with diagnostics.

    Uses k1 = k2 = k(l) with N taken as the f2 sample size, combined by the
    config's EstimationPlan.  Degenerate distances are clamped and reported
    in ``degeneracy_count``.
    """
    return _estimate(as_pointset(x), as_pointset(y), estimation_plan(config), spec, None)


def _check_samples(x, y, plan):
    """The plan's ks checked against samples x and y, as by ``check_profile_args``.

    The weights cancel the bias terms of the config's dimension d, so samples
    of another dimension are a ParameterError.
    """
    ks = check_profile_args(x, y, plan.ks)
    if x.dim != plan.config.d:
        raise ParameterError("config has d=%d but the samples have d=%d"
                             % (plan.config.d, x.dim))
    return ks


def _estimate(x, y, plan, spec, tables):
    """ensemble_estimate with its plan given; ``tables`` as in ``plugin_profile``."""
    _check_samples(x, y, plan)
    warn = plan.warnings
    if plan.config.n != x.n:
        warn = ("config.n=%d but f2 sample has N=%d; schedule uses config.n"
                % (plan.config.n, x.n),) + warn
    ghat, degs = plugin_profile(x, y, plan.ks, spec, tables=tables)
    per_k = tuple((l, k, float(v)) for (l, k), v in zip(plan.schedule, plan.members(plan.ks, ghat)))
    return EstimateReport(plan.combine(plan.ks, ghat), per_k, plan.weights, warn, int(degs.sum()))
