"""CLT-based inference: bootstrap standard errors, confidence intervals, and
a two-sample divergence test.

The ensemble estimator is asymptotically normal, but no closed-form variance
is available, so the standard error comes from a nonparametric bootstrap:
both samples are resampled with replacement (independently), the ensemble
estimate is recomputed per replicate, and the replicate standard deviation
is used to standardize.  Replicate RNG streams are keyed by replicate index
so results do not depend on execution order.

A resample is a vector of multiplicities over the original points, so no
replicate recomputes neighbors.  One pair of indexed neighbor tables (sorted
distances with neighbor rows, x into y and x into x leave-one-out) is built
on the original samples; a resampled copy of x_i reads its k-th distance as
the first table entry where the cumulative multiplicity of row i reaches k,
after m_i - 1 zero-distance self-copies for leave-one-out, and the outer mean
weights x_i by m_i.  Rows whose table runs out are answered by a direct query
over all points.  Replicates are exact: they equal ``ensemble_estimate`` on
the resampled points to rounding.  The point estimate of
:func:`confidence_interval` and :func:`two_sample_test` reads the distance
half of the same tables.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import _estimate, estimation_plan
from .errors import ParameterError
from .functionals import check_profile_args, neighbor_tables, plugin_profile
from .neighbors import NeighborIndex
from .synth import rng_stream

# Stream-id offsets separating the x and y bootstrap resampling streams.
_BOOT_STREAM_X = 0x626F6F74_0000
_BOOT_STREAM_Y = 0x626F6F74_8000

# Depth of the indexed tables behind bootstrap replicates, as a multiple of
# the largest k.  At least 1: the point estimate reads the same tables.  A
# replicate row whose table runs out before the largest k falls back to a
# direct query, so the depth changes speed, never the answer.
RESAMPLE_DEPTH = 2


def normal_cdf(z):
    """Standard normal CDF via erfc (accurate to ~1e-16)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# Coefficients of Acklam's rational approximation to the standard normal
# quantile (relative error < 1.15e-9); one Newton step against erfc-based
# normal_cdf then pushes the absolute error below 1e-13.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def normal_quantile(p):
    """Inverse standard normal CDF (Acklam approximation + Newton polish)."""
    if not (0.0 < p < 1.0):
        raise ParameterError("quantile level must lie in (0, 1), got %g" % p)
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        z = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        z = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        z = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    err = normal_cdf(z) - p
    z -= err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
    return z


@dataclass(frozen=True)
class InferenceResult:
    estimate: float
    std_error: float
    ci_low: float
    ci_high: float
    z_score: float
    p_value: float
    bootstrap_reps: int
    level: float = 0.95
    null_value: float = 0.0
    reject: bool = False
    degeneracy_count: int = 0  # the point estimate's clamp total
    warnings: tuple = ()  # the point estimate's warnings (rate, k collisions)


def resample_tables(x, y, k_max):
    """Indexed neighbor tables on the original samples for bootstrap replicates.

    ``(distances, rows)`` pairs for x into y and x into x leave-one-out,
    ``RESAMPLE_DEPTH * k_max`` deep (capped at the reference count).  Their
    distance halves are the point estimate's tables.
    """
    return neighbor_tables(x, y, RESAMPLE_DEPTH * k_max, return_indices=True)


def _resampled_table(dist, counts, zeros, k_max):
    """Sorted k-NN distances of query copies in a resample, from an indexed table.

    Row i of ``dist`` lists a query's sorted distances to the original
    references, ``counts[i]`` their multiplicities in the resample, and
    ``zeros[i]`` extra zero-distance copies ahead of them (a leave-one-out
    query's other self-copies).  The resample's sorted distance list is then
    ``zeros[i]`` zeros followed by each entry repeated ``counts`` times, and
    its k-th distance is the first entry at which the cumulative multiplicity
    reaches k.  Returns the ``(rows, k_max)`` table and a mask of the rows
    whose lists run out before ``k_max`` (their values are not meaningful).
    """
    flat = np.repeat(dist.ravel(), counts.ravel())
    if not flat.size:  # every list is empty; only the zeros are meaningful
        flat = np.zeros(1)
    total = counts.sum(axis=1)
    start = np.cumsum(total) - total - zeros
    j = np.arange(k_max)
    table = flat[np.clip(start[:, None] + j, 0, len(flat) - 1)]
    table[j < zeros[:, None]] = 0.0
    return table, total + zeros < k_max


def _replicate_tables(x, y, tables, m_x, m_y, k_max):
    """The resample's x->y and leave-one-out x->x tables on the rows with m_x > 0.

    Rows whose indexed table is too shallow for ``k_max`` are answered by a
    direct query over all references (``_direct_rows``).
    """
    support = np.flatnonzero(m_x)
    (d1, r1), (d2, r2) = tables
    self_copies = m_x[support] - 1
    t1, short1 = _resampled_table(d1[support], m_y[r1[support]], np.zeros_like(support), k_max)
    t2, short2 = _resampled_table(d2[support], m_x[r2[support]], self_copies, k_max)
    if short1.any():
        t1[short1] = _direct_rows(y, x.points[support[short1]], m_y, None, k_max)
    if short2.any():
        t2[short2] = _direct_rows(x, x.points[support[short2]], m_x, support[short2], k_max)
    return (t1, t2), m_x[support]


def _direct_rows(ref, queries, mult, self_rows, k_max):
    """Resampled k-NN tables for ``queries`` from their full distance rows.

    ``self_rows`` names each query's own row in ``ref`` for leave-one-out;
    that row then counts one copy fewer.
    """
    dist, rows = NeighborIndex(ref).kth_distance_table(queries, ref.n, return_indices=True)
    counts = mult[rows]
    if self_rows is not None:
        counts = counts - (rows == self_rows[:, None])
    return _resampled_table(dist, counts, np.zeros(len(queries), dtype=int), k_max)[0]


def bootstrap_replicates(x, y, config, spec, reps, seed, mode="robust", weights=None,
                         tables=None):
    """Ensemble estimates on ``reps`` with-replacement resamples of x and y.

    Replicate r resamples both samples from the streams keyed by r, and all
    replicates share the config's EstimationPlan.  It is computed through
    the resample's multiplicities from one set of indexed neighbor tables on
    the original samples (``tables``, as returned by :func:`resample_tables`;
    built here when not given), and equals ``ensemble_estimate`` on the
    resampled points to rounding.
    """
    return _replicates(x, y, estimation_plan(config, weights), spec, reps, seed, mode, tables)


def _replicates(x, y, plan, spec, reps, seed, mode, tables):
    """The plan's estimates on ``reps`` resamples; see :func:`bootstrap_replicates`."""
    if reps < 10:
        raise ParameterError("reps must be >= 10, got %d" % reps)
    ks = check_profile_args(x, y, plan.ks)
    if tables is None:
        tables = resample_tables(x, y, ks[-1])
    values = np.empty(reps)
    for r in range(reps):
        ix = rng_stream(seed, _BOOT_STREAM_X + r).integers(0, x.n, size=x.n)
        iy = rng_stream(seed, _BOOT_STREAM_Y + r).integers(0, y.n, size=y.n)
        m_x = np.bincount(ix, minlength=x.n)
        m_y = np.bincount(iy, minlength=y.n)
        rep_tables, outer = _replicate_tables(x, y, tables, m_x, m_y, ks[-1])
        profile, _ = plugin_profile(x, y, ks, spec, mode=mode, tables=rep_tables,
                                    outer_weights=outer)
        values[r] = plan.combine(ks, profile)
    return values


def bootstrap_std(x, y, config, spec, reps=200, seed=0, mode="robust", weights=None):
    """Bootstrap standard error of the ensemble estimate."""
    values = bootstrap_replicates(x, y, config, spec, reps, seed, mode=mode, weights=weights)
    return float(np.std(values, ddof=1))


def _bootstrap_normal(x, y, config, spec, quantile, alpha, coverage, reps, seed, null_value,
                      mode, weights):
    """Estimate, bootstrap std, z, p and the interval estimate +/- z_quantile * std.

    The point estimate and the replicates share one plan and one set of neighbor tables.
    """
    plan = estimation_plan(config, weights)
    tables = resample_tables(x, y, check_profile_args(x, y, plan.ks)[-1])
    report = _estimate(x, y, plan, spec, mode, (tables[0][0], tables[1][0]))
    values = _replicates(x, y, plan, spec, reps, seed, mode, tables)
    estimate = report.value
    std = float(np.std(values, ddof=1))
    z_crit = normal_quantile(quantile)
    if std > 0.0:
        z = (estimate - null_value) / std
    else:
        z = 0.0 if estimate == null_value else math.copysign(math.inf, estimate - null_value)
    p = 2.0 * (1.0 - normal_cdf(abs(z)))
    return InferenceResult(estimate, std, estimate - z_crit * std, estimate + z_crit * std, z, p,
                           reps, coverage, null_value, reject=p < alpha,
                           degeneracy_count=report.degeneracy_count, warnings=report.warnings)


def confidence_interval(x, y, config, spec, level=0.95, reps=200, seed=0, null_value=0.0,
                        mode="robust", weights=None):
    """Normal-theory interval: estimate +/- z_{(1+level)/2} * bootstrap std."""
    if not (0.0 < level < 1.0):
        raise ParameterError("level must lie in (0, 1)")
    return _bootstrap_normal(x, y, config, spec, 0.5 * (1.0 + level), 1.0 - level, level, reps,
                             seed, null_value, mode, weights)


def two_sample_test(x, y, config, spec, null_value, level=0.05, reps=200, seed=0,
                    mode="robust", weights=None):
    """Two-sided test of H0: G(f1, f2) = null_value via the bootstrap CLT.

    Requires a functional with constant g(t, t) so the no-difference null
    has a known value (renyi_integral: 1, kl and l2: 0).
    """
    if not (0.0 < level < 1.0):
        raise ParameterError("level must lie in (0, 1)")
    probe = np.array([0.5, 1.0, 2.0, 7.0])
    diag = np.asarray(spec.eval(probe, probe), dtype=np.float64)
    if np.ptp(diag) > 1e-9:
        raise ParameterError(
            "two_sample_test requires g(t, t) constant; functional %r varies on the diagonal"
            % spec.name
        )
    result = _bootstrap_normal(x, y, config, spec, 1.0 - level / 2.0, level, 1.0 - level, reps,
                               seed, null_value, mode, weights)
    if result.std_error == 0.0 and result.estimate != null_value:
        raise ParameterError("degenerate variance: std_error=0 with estimate != null")
    return result
