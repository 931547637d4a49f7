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
distances with neighbor rows, x into y and x into x) is built on the
original samples.  A resampled copy of x_i reads its k-th neighbor as the
first table entry where the cumulative multiplicity of row i reaches k, and
the outer mean weights x_i by m_i.  The x->x table holds each point's own
entry, at distance 0 ahead of every other, so its m_i copies head the list
of a copy of x_i; one of them is the query itself, and the leave-one-out
k-th neighbor is the (k + 1)-th entry.  The lookup never writes the
resampled lists out: it bins each row's cumulative counts, and the running
sum of the bins names the entry that holds each k; it reads only the plan's
ks, straight from the whole table by flat index, into the ``(ks, rows)``
layout the plug-in values take (:func:`_resampled_table`).  The tables are
k_max + 4 sqrt(k_max) entries deep (:func:`_table_depth`), which nearly
always hold k_max copies, and each row is counted once.  Rows whose table
runs out are answered by a direct query over all points, through the same
lookup.  Replicates are exact: they equal ``ensemble_estimate`` on the
resampled points to rounding.

The point estimate of :func:`confidence_interval` and :func:`two_sample_test`
reads the distances of the same tables, the x->x one without its column 0.
Then each table's distances are turned, in place, into log density
denominators log(m * c_d) + d * log max(rho, DEGENERATE_RHO)
(``functionals._log_denominators``).  A replicate subtracts the log
denominators it reads from log k, so the log and the clamp are paid once
per table entry instead of once per replicate, and the values are the same
bits as log densities from the distances.  A distance that is not finite
gives a value that is not finite there, and a replicate raises
``ParameterError`` only if it reads one (``functionals._check_read``), as
the point estimate and ``knn_density`` raise on the distances they read.

One thread pool serves a whole call, with one worker per CPU the process may
use (at most one per replicate).  It builds the two tables as two tasks side
by side, and then runs the replicates.  Each replicate draws from its own
streams and its value is placed by index, so the values are the same, bit
for bit, for any worker count.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .ensemble import _check_samples, _estimate, estimation_plan
from .errors import ParameterError, as_index
from .functionals import _check_read, _denominator_profile, _log_denominators
from .neighbors import NeighborIndex, as_pointset
from .synth import rng_stream

# Stream-id offsets separating the x and y bootstrap resampling streams.
_BOOT_STREAM_X = 0x626F6F74_0000
_BOOT_STREAM_Y = 0x626F6F74_8000


def normal_quantile(p):
    """Inverse standard normal CDF (Wichura's AS241, via ``statistics.NormalDist``)."""
    if not (0.0 < p < 1.0):
        raise ParameterError("quantile level must lie in (0, 1), got %g" % p)
    return NormalDist().inv_cdf(p)


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
    # The point estimate's clamped distances, summed over its scheduled ks
    # (EstimateReport.degeneracy_count).
    degeneracy_count: int = 0
    warnings: tuple = ()  # the point estimate's warnings (rate, k collisions)


def _resampled_table(table, which, counts, ks):
    """Entries at ``ks`` of the sorted lists of query copies in a resample, read from an indexed table.

    Row ``which[i]`` of ``table`` holds a query's values (distances, or the
    log density denominators made of them) at its sorted neighbors among the
    original references, and ``counts[i]`` the multiplicities in the
    resample of its leading entries (as many as ``counts`` has columns).
    With c[i, e] the cumulative multiplicity of entries 0..e, position
    j < k_max = ``ks[-1]`` of the resample's sorted list holds entry
    #{e : c[i, e] <= j}.  Clipping c at k_max and counting it into k_max + 1
    bins per row (one ``bincount`` over row-offset positions) gives those
    entry numbers as the running sum of the bins, and each position k - 1 is
    read from ``table`` by flat index (row * depth + entry).  Returns the
    ``(len(ks), rows)`` table and a mask of the rows whose lists run out
    before k_max (their values are not meaningful).
    """
    rows, lead = counts.shape
    cols = np.asarray(ks) - 1
    k_max = int(cols[-1]) + 1
    width = k_max + 1
    # int32 holds every bin (row offset + row total) unless the table is huge.
    bound = rows * width + lead * int(counts.max(initial=0))
    itype = np.int32 if bound < 2**31 else np.int64
    start = np.arange(0, rows * width, width, dtype=itype)
    # Bin of entry e of row i: start[i] + min(cumulative count, k_max).
    cum = np.cumsum(counts, axis=1, dtype=itype)
    cum += start[:, None]
    last = start + k_max
    np.minimum(cum, last[:, None], out=cum)
    short = cum[:, -1] < last
    # The running sum over all bins counts the entries of the rows before row
    # i as well: entry[i, j] = i * lead + #{e : c[i, e] <= j}.
    entry = np.cumsum(np.bincount(cum.ravel(), minlength=rows * width))
    # flat[j, i]: flat index in ``table`` of the entry covering position ks[j] - 1 of row i.
    flat = np.take(entry, cols[:, None] + start)
    flat += np.asarray(which) * table.shape[1] - np.arange(0, rows * lead, lead)
    # Only a short last row runs past the end.
    return np.take(table, flat, mode="clip"), short


def _table_depth(k):
    """Depth of an indexed table whose resampled rows are read up to their k-th entry.

    A resample holds one copy of each reference on average, so a row's
    leading k + 4 sqrt(k) entries nearly always hold k copies: at d=3 and
    N=1000 with the ODin1 defaults, 0.14 rows per replicate ran short and
    took the direct query.  At k + 3 sqrt(k) 3.7 rows did, and the
    replicates took about 1.4 times as long.  The depth changes speed,
    never the answer.
    """
    return k + 4 * math.isqrt(k)


def _replicate_tables(x, y, tables, m_x, m_y, ks):
    """The resample's x->y and leave-one-out x->x log denominators at ``ks``, rows with m_x > 0.

    ``tables`` are the indexed tables turned into log denominators; the x->x one
    holds each point's own entry, so it is read at ``ks + 1``.  Each result
    is a ``(len(ks), rows)`` array.  Rows whose indexed table holds too few
    copies for the largest k are answered by a direct query over all
    references (``_direct_rows``).  Each result, direct-query rows included,
    is checked for entries made of distances that were not finite
    (:func:`_check_read`).
    """
    support = np.flatnonzero(m_x)
    m_x = m_x.astype(np.int32)
    m_y = m_y.astype(np.int32)
    ks = np.asarray(ks)
    out = []
    for (values, rows), ref, mult, at, m in ((tables[0], y, m_y, ks, y.n),
                                             (tables[1], x, m_x, ks + 1, x.n - 1)):
        table, short = _resampled_table(values, support, np.take(mult, rows[support]), at)
        if short.any():
            table[:, short] = _direct_rows(ref, x.points[support[short]], mult, at, m)
        _check_read(table)
        out.append(table)
    return tuple(out), np.take(m_x, support)


def _direct_rows(ref, queries, mult, ks, m):
    """Resampled log denominators at ``ks`` for ``queries`` from their full distance rows.

    :func:`_resampled_table` on a table over every reference, so no row
    runs short; the log denominators are those of M = ``m``.
    """
    dist, rows = NeighborIndex(ref).kth_distance_table(queries, ref.n, return_indices=True)
    _log_denominators(dist, m, ref.dim, out=dist)
    return _resampled_table(dist, np.arange(len(queries)), np.take(mult, rows), ks)[0]


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def bootstrap_replicates(x, y, config, spec, reps, seed):
    """Ensemble estimates on ``reps`` with-replacement resamples of x and y.

    Replicate r resamples both samples from the streams keyed by r, and all
    replicates share the config's EstimationPlan.  It is computed through
    the resample's multiplicities from one pair of indexed neighbor tables on
    the original samples (built once, see :func:`_bootstrap`), and equals
    ``ensemble_estimate`` on the resampled points to rounding.  Degenerate
    distances in a resample are clamped, never raised on.
    """
    return _bootstrap(x, y, config, spec, reps, seed, False)[1]


def _bootstrap(x, y, config, spec, reps, seed, point):
    """The point estimate's report (when ``point``, else None) and ``reps`` replicate values.

    ``reps`` is checked before any work.  One pool of min(usable CPUs,
    ``reps``) workers builds the x->y and the x->x indexed tables,
    :func:`_table_depth` of the largest k deep (capped at the reference
    count; x->x of the largest k + 1, for each point's own entry), as two
    tasks side by side, and then runs the replicates.  The point estimate
    reads the tables' distances, the x->x one without its column 0; the
    replicates read their log density denominators (see :func:`_replicates`).
    """
    reps, seed = as_index("reps", reps), as_index("seed", seed)
    if reps < 10:
        raise ParameterError("reps must be >= 10, got %d" % reps)
    x, y = as_pointset(x), as_pointset(y)
    plan = estimation_plan(config)
    ks = _check_samples(x, y, plan)
    pool = ThreadPoolExecutor(max_workers=min(_usable_cpus(), reps))
    try:
        xy = pool.submit(NeighborIndex(y).kth_distance_table, x.points,
                         min(_table_depth(ks[-1]), y.n), return_indices=True)
        xx = pool.submit(NeighborIndex(x).kth_distance_table, x.points,
                         min(_table_depth(ks[-1] + 1), x.n), return_indices=True)
        (xy_dist, _), (xx_dist, _) = tables = (xy.result(), xx.result())
        report = _estimate(x, y, plan, spec, (xy_dist, xx_dist[:, 1:])) if point else None
        return report, _replicates(x, y, plan, spec, reps, seed, tables, pool)
    finally:
        pool.shutdown(cancel_futures=True)


def _replicates(x, y, plan, spec, reps, seed, tables, pool):
    """The plan's estimates on ``reps`` resamples, run on ``pool``; see :func:`bootstrap_replicates`.

    ``tables`` are the indexed ``(distances, rows)`` tables of x and y.  Their
    distances are turned into log density denominators in place, once, so
    that a replicate subtracts the entries it reads from log k and does no
    log and no clamp.
    """
    ks = plan.ks
    for (dist, _), m in zip(tables, (y.n, x.n - 1)):
        _log_denominators(dist, m, x.dim, out=dist)

    def replicate(r):
        ix = rng_stream(seed, _BOOT_STREAM_X + r).integers(0, x.n, size=x.n)
        iy = rng_stream(seed, _BOOT_STREAM_Y + r).integers(0, y.n, size=y.n)
        m_x = np.bincount(ix, minlength=x.n)
        m_y = np.bincount(iy, minlength=y.n)
        (den1, den2), outer = _replicate_tables(x, y, tables, m_x, m_y, ks)
        return plan.combine(ks, _denominator_profile(den1, den2, ks, spec, outer))

    return np.fromiter(pool.map(replicate, range(reps)), dtype=np.float64, count=reps)


def _bootstrap_normal(x, y, config, spec, quantile, alpha, coverage, reps, seed, null_value):
    """Estimate, bootstrap std, z, p and the interval estimate +/- z_quantile * std.

    The point estimate and the replicates share one plan, one pool and one pair of
    indexed neighbor tables (see :func:`_bootstrap`).
    """
    report, values = _bootstrap(x, y, config, spec, reps, seed, True)
    estimate = report.value
    std = float(np.std(values, ddof=1))
    z_crit = normal_quantile(quantile)
    if std > 0.0:
        z = (estimate - null_value) / std
    else:
        z = 0.0 if estimate == null_value else math.copysign(math.inf, estimate - null_value)
    # erfc(|z| / sqrt 2) = 2 (1 - Phi(|z|)) without the cancellation that
    # rounds far tails to 0.
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return InferenceResult(estimate, std, estimate - z_crit * std, estimate + z_crit * std, z, p,
                           reps, coverage, null_value, reject=p < alpha,
                           degeneracy_count=report.degeneracy_count, warnings=report.warnings)


def confidence_interval(x, y, config, spec, level=0.95, reps=200, seed=0, null_value=0.0):
    """Normal-theory interval: estimate +/- z_{(1+level)/2} * bootstrap std.

    Degenerate distances are clamped; the result's ``degeneracy_count`` reports them.
    """
    if not (0.0 < level < 1.0):
        raise ParameterError("level must lie in (0, 1)")
    return _bootstrap_normal(x, y, config, spec, 0.5 * (1.0 + level), 1.0 - level, level, reps,
                             seed, null_value)


def two_sample_test(x, y, config, spec, null_value, level=0.05, reps=200, seed=0):
    """Two-sided test of H0: G(f1, f2) = null_value via the bootstrap CLT.

    Requires a functional with finite, constant g(t, t) so the no-difference
    null has a known value (renyi_integral: 1, kl and l2: 0).  Degenerate
    distances are clamped, as in confidence_interval.
    """
    if not (0.0 < level < 1.0):
        raise ParameterError("level must lie in (0, 1)")
    probe = np.log([0.5, 1.0, 2.0, 7.0])
    diag = np.asarray(spec.g_log(probe, probe), dtype=np.float64)
    # A NaN or inf spread is not > 1e-9, so finiteness is checked first.
    if not np.all(np.isfinite(diag)) or np.ptp(diag) > 1e-9:
        raise ParameterError("two_sample_test requires g(t, t) finite and constant; "
                             "functional %r is not on the diagonal" % spec.name)
    result = _bootstrap_normal(x, y, config, spec, 1.0 - level / 2.0, level, 1.0 - level, reps,
                               seed, null_value)
    if result.std_error == 0.0 and result.estimate != null_value:
        raise ParameterError("degenerate variance: std_error=0 with estimate != null")
    return result
