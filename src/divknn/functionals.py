"""Divergence functional registry and the leave-one-out k-NN plug-in estimator.

Conventions, loudly: the estimated quantity is the integral of
``g(f1(x), f2(x))`` weighted by ``f2``.  The *x* argument of
:func:`plugin_estimate` is the sample drawn from ``f2`` (the outer,
averaging sample of size N2); the *y* argument is the sample drawn from
``f1``.  Density estimates at each x-point use the k1-th neighbor distance
into y (M1 = N1, no self-exclusion) and the k2-th neighbor distance within
x excluding the point itself (M2 = N2 - 1).

One path leads from a neighbor distance to g, for the plug-in, the
ensembles and the bootstrap replicates alike, and densities travel on it as
logs.  :func:`_log_denominators` turns distances into
log(m * c_d) + d * log max(rho, ``DEGENERATE_RHO``), so that the log density
at k is log k minus it: distances at most ``DEGENERATE_RHO`` (duplicate
points) are clamped, and counted as ``degeneracy_count``, and a distance
that is not finite gives a value that is not finite, which
:func:`_check_read` raises on wherever it is read.
:func:`_denominator_profile` evaluates g on the log densities.  A g of the
density ratio (Renyi, KL, reverse KL) therefore gives the same estimate
when every coordinate is rescaled, as long as no distance is clamped.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, as_index
from .neighbors import NeighborIndex, as_pointset

# Distances below this floor count as degenerate (duplicate points).
DEGENERATE_RHO = 1e-12

BUILTIN_FUNCTIONALS = ("renyi_integral", "kl", "reverse_kl", "l2", "shannon_entropy", "custom")


@dataclass(frozen=True)
class FunctionalSpec:
    """A named functional g(t1, t2) of two densities, evaluated on their logs.

    ``g_log(l1, l2)`` is g(exp(l1), exp(l2)), vectorized over numpy arrays.
    """

    name: str
    params: dict = field(default_factory=dict)
    g_log: callable = None


def make_functional(name, **params):
    """Build one of the built-in functionals, or wrap a custom g.

    Each built-in g is written on the log densities (l1, l2), with
    delta = l1 - l2.  renyi_integral(alpha): g(t1,t2) = (t1/t2)^alpha =
    exp(alpha * delta), so the f2-weighted integral is the Renyi-alpha
    integral of f1 against f2.  kl: (t1/t2) log(t1/t2) = e^delta * delta.
    reverse_kl: log(t2/t1) = l2 - l1.  l2: (t1 - t2)^2 / t2 =
    e^l2 * expm1(delta)^2.  shannon_entropy: -log t2 = -l2.
    custom: pass g=callable(t1, t2) on densities, vectorized over numpy
    arrays; it is called on exp of the log densities.
    """
    if name == "renyi_integral":
        alpha = float(params.get("alpha", 0.5))
        if alpha in (0.0, 1.0) or not math.isfinite(alpha):
            raise ParameterError("renyi_integral requires a finite alpha not in {0, 1}")
        return FunctionalSpec(name, {"alpha": alpha}, lambda l1, l2: np.exp(alpha * (l1 - l2)))
    if name == "kl":
        return FunctionalSpec(name, {}, lambda l1, l2: np.exp(l1 - l2) * (l1 - l2))
    if name == "reverse_kl":
        return FunctionalSpec(name, {}, lambda l1, l2: l2 - l1)
    if name == "l2":
        return FunctionalSpec(name, {}, lambda l1, l2: np.exp(l2) * np.expm1(l1 - l2) ** 2)
    if name == "shannon_entropy":
        return FunctionalSpec(name, {}, lambda l1, l2: -l2)
    if name == "custom":
        g = params.get("g")
        if g is None or not callable(g):
            raise ParameterError("custom functional requires a callable g=...")
        return FunctionalSpec("custom", {}, lambda l1, l2: g(np.exp(l1), np.exp(l2)))
    raise ParameterError("unknown functional %r (known: %s)" % (name, ", ".join(BUILTIN_FUNCTIONALS)))


def diagonal_value(spec):
    """g(t, t) when it is finite and the same at every t, else None.

    It is the functional's value at f1 = f2, the null of a no-difference
    test: 1 for renyi_integral, 0 for kl, reverse_kl and l2, and None for
    shannon_entropy, whose g(t, t) = -log t.  g is probed at a few t.
    """
    probe = np.log([0.5, 1.0, 2.0, 7.0])
    diag = np.asarray(spec.g_log(probe, probe), dtype=np.float64)
    # A NaN or inf spread is not > 1e-9, so finiteness is checked first.
    if not np.all(np.isfinite(diag)) or np.ptp(diag) > 1e-9:
        return None
    return float(diag[0])


@dataclass(frozen=True)
class PluginEstimate:
    value: float
    k1: int
    k2: int
    n1: int
    n2: int
    degeneracy_count: int = 0


def unit_ball_volume(d):
    """Volume of the d-dimensional Euclidean unit ball.

    Exact integer factorials where they fit in a float (odd d < 301, even
    d < 344); above that exp((d/2) log(pi) - lgamma(d/2 + 1)).  Raises
    ParameterError where the volume underflows float64's normal range.
    """
    d = as_index("d", d)
    if d < 1:
        raise ParameterError("d must be >= 1, got %d" % d)
    try:
        if d % 2 == 0:
            value = math.pi ** (d // 2) / math.factorial(d // 2)
        else:
            # Odd d: 2^((d+1)/2) * pi^((d-1)/2) / d!! avoids Gamma rounding at d=1.
            double_fact = math.prod(range(d, 0, -2))
            value = 2.0 ** ((d + 1) // 2) * math.pi ** ((d - 1) // 2) / double_fact
    except OverflowError:
        value = math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0))
    if value < sys.float_info.min:
        raise ParameterError("unit-ball volume underflows float64 at d=%d" % d)
    return value


def knn_density(rho, k, m, d):
    """k-NN density estimate k / (m * c_d * rho^d).

    ``rho`` may be a scalar or an array of neighbor distances, and ``k`` an
    integer or an integer array that broadcasts against it (for example one
    k per row of a (ks, points) distance array).  Distances below
    ``DEGENERATE_RHO`` are clamped, and one that is negative or not finite
    raises.  The density is exp(log k - :func:`_log_denominators`); one past
    float64's range is inf, without a warning (a clamped distance from
    d = 26 on).  The estimators never read it: they stay in log space.
    """
    k = np.asarray(k)
    if k.dtype.kind not in "iu":  # as_index's rule, for an array
        raise ParameterError("k must be an integer or an integer array, got %r" % (k,))
    m = as_index("m", m)
    if np.any(k < 1) or np.any(k > m):
        raise ParameterError("k=%s out of range for m=%d" % (k, m))
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho < 0):
        raise ParameterError("rho must be >= 0")
    den = _log_denominators(rho, m, d)
    _check_read(den)
    with np.errstate(over="ignore"):
        value = np.exp(np.log(k) - den)
    if np.ndim(value) == 0:
        return float(value)
    return value


def _log_denominators(rho, m, d, out=None):
    """log(m * c_d) + d * log max(rho, DEGENERATE_RHO): the log density at k is log k minus it.

    Finite for every finite distance, however large or small; a distance
    that is not finite gives a value that is not finite, which
    :func:`_check_read` raises on where it is read.  Always an array, also
    for a scalar ``rho``: numpy's scalar log can differ from its array log
    in the last bit, and every value must equal the one an array of
    distances would give.  ``out`` may be ``rho`` itself (float64) to
    convert a distance table in place.
    """
    if out is None:
        out = np.empty(np.shape(rho))
    np.maximum(rho, DEGENERATE_RHO, out=out)
    np.log(out, out=out)
    out *= d
    out += math.log(m * unit_ball_volume(d))
    return out


def _check_read(den):
    """Raise where a log denominator read was made of a distance that was not finite."""
    if not np.isfinite(den).all():
        raise ParameterError("rho must be finite")


def _clamp_count(rho):
    """Degenerate distances along the last axis."""
    return np.count_nonzero(rho <= DEGENERATE_RHO, axis=-1)


def _denominator_profile(den1, den2, ks, spec, weights=None):
    """Plug-in estimates at ``ks`` from ``(len(ks), rows)`` log density denominators.

    The log density at k is log k minus the log denominator, and g reads it
    (``spec.g_log``).
    ``ks`` may also be a pair: the ks of den1's rows, then those of den2's.
    Each array is contiguous along the rows, so each k's mean is the same
    pairwise sum as a mean over that k's column alone.  ``weights`` gives each row an integer multiplicity in the outer
    sample (a bootstrap resample of x): the outer mean then counts row i
    ``weights[i]`` times.  Bootstrap replicates read their log denominators
    from tables converted once, so they do no log and no clamp here.
    """
    log_k1, log_k2 = np.log(np.broadcast_to(ks, (2, len(den1))))[:, :, None]
    g = spec.g_log(log_k1 - den1, log_k2 - den2)
    if weights is None:
        return np.mean(g, axis=1)
    return g @ weights / np.sum(weights)


def check_profile_args(x, y, ks):
    """Validate a plug-in profile's samples and k values; returns the ks as ints."""
    if x.dim != y.dim:
        raise ParameterError("dimension mismatch: x has d=%d, y has d=%d" % (x.dim, y.dim))
    if x.n < 2:
        raise ParameterError("need N2 >= 2 for leave-one-out estimation")
    ks = [as_index("k", k) for k in ks]
    m1, m2 = y.n, x.n - 1
    for k in ks:
        if k < 1 or k > min(m1, m2):
            raise ParameterError("k=%d out of range (M1=%d, M2=%d)" % (k, m1, m2))
    return ks


def plugin_profile(x, y, ks, spec, tables=None):
    """Plug-in estimates for several k values (k1 = k2 = k), sharing distance tables.

    Returns (values, degeneracy_counts) aligned with ``ks``: degenerate
    distances are clamped and counted, never raised on; the values are
    :func:`_denominator_profile` of the distances' log denominators.  ``tables``
    may carry precomputed ``(rho1_table, rho2_table)`` sorted-distance
    arrays, at least max(ks) deep (a bootstrap's point estimate reads its
    replicates').
    """
    x, y = as_pointset(x), as_pointset(y)
    ks = check_profile_args(x, y, ks)
    if tables is None:
        tables = neighbor_tables(x, y, max(ks))
    den1, den2, degs = _column_denominators(x, y, tables, ks, ks)
    return _denominator_profile(den1, den2, ks, spec), degs


def _column_denominators(x, y, tables, k1s, k2s):
    """The log density denominators of the x->y table at ``k1s`` and the x->x one at ``k2s``.

    Gathers each table's columns as a ``(len(ks), N2)`` array, contiguous
    along the rows; counts the clamped distances of each column pair; turns
    the distances into ``_log_denominators``; and raises ParameterError
    where one was not finite (:func:`_check_read`).  Returns (den1, den2,
    counts).
    """
    rho1, rho2 = (np.ascontiguousarray(table[:, np.asarray(ks) - 1].T)
                  for table, ks in zip(tables, (k1s, k2s)))
    degs = _clamp_count(rho1) + _clamp_count(rho2)
    # The gathered distances are this call's own copies: turn them into log denominators in place.
    for den, m in ((rho1, y.n), (rho2, x.n - 1)):
        _log_denominators(den, m, x.dim, out=den)
        _check_read(den)
    return rho1, rho2, degs


def neighbor_tables(x, y, k_max):
    """Sorted neighbor-distance tables (x into y; x into x leave-one-out).

    Each table is at most ``k_max`` deep; see ``NeighborIndex.kth_distance_table``.
    The x->x table is built one column deeper, each point's own 0 first, and
    that column is dropped.
    """
    rho1 = NeighborIndex(y).kth_distance_table(x.points, min(k_max, y.n))
    rho2 = NeighborIndex(x).kth_distance_table(x.points, min(k_max, x.n - 1) + 1)
    return rho1, rho2[:, 1:]


def plugin_estimate(x, y, k1, k2, spec):
    """Leave-one-out k-NN plug-in estimate of the divergence functional.

    x: PointSet sampled from f2 (outer sample).  y: PointSet sampled from f1.
    Degenerate distances are clamped and counted in ``degeneracy_count``,
    through the path of :func:`plugin_profile`.
    """
    x, y = as_pointset(x), as_pointset(y)
    check_profile_args(x, y, ())
    k1, k2 = as_index("k1", k1), as_index("k2", k2)
    m1, m2 = y.n, x.n - 1
    if k1 < 1 or k1 > m1:
        raise ParameterError("k1=%d out of range for M1=%d" % (k1, m1))
    if k2 < 1 or k2 > m2:
        raise ParameterError("k2=%d out of range for M2=%d" % (k2, m2))
    # The tables are exact, so column k of a deeper table is the k-th distance.
    tables = neighbor_tables(x, y, max(k1, k2))
    den1, den2, degs = _column_denominators(x, y, tables, [k1], [k2])
    (value,) = _denominator_profile(den1, den2, [[k1], [k2]], spec)
    return PluginEstimate(float(value), k1, k2, y.n, x.n, int(degs[0]))
