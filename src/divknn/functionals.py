"""Divergence functional registry and the leave-one-out k-NN plug-in estimator.

Conventions, loudly: the estimated quantity is the integral of
``g(f1(x), f2(x))`` weighted by ``f2``.  The *x* argument of
:func:`plugin_estimate` is the sample drawn from ``f2`` (the outer,
averaging sample of size N2); the *y* argument is the sample drawn from
``f1``.  Density estimates at each x-point use the k1-th neighbor distance
into y (M1 = N1, no self-exclusion) and the k2-th neighbor distance within
x excluding the point itself (M2 = N2 - 1).

Degenerate distances (at most ``DEGENERATE_RHO``: duplicate points) are
clamped and counted, and densities are clipped into [``EVAL_FLOOR``,
``EVAL_CEIL``] before g.  The clamp and the power live in one place,
:func:`_density_denominators` (m * c_d * rho^d); the density at k is k over
it.  Only :func:`knn_density` and :func:`plugin_estimate`
offer ``mode="strict"``, which raises ``DegeneracyError`` instead.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, ParameterError
from .neighbors import NeighborIndex, as_pointset

# Distances below this floor count as degenerate (duplicate points).
DEGENERATE_RHO = 1e-12

# Density estimates are clamped into this box before evaluating g in robust
# mode; the true positivity bounds of the densities are unknown at runtime.
EVAL_FLOOR = 1e-12
EVAL_CEIL = 1e12

BUILTIN_FUNCTIONALS = ("renyi_integral", "kl", "reverse_kl", "l2", "shannon_entropy", "custom")


@dataclass(frozen=True)
class FunctionalSpec:
    """A named functional g(t1, t2) evaluated on positive density values."""

    name: str
    params: dict = field(default_factory=dict)
    eval: callable = None

    def __call__(self, t1, t2):
        return self.eval(t1, t2)


def make_functional(name, **params):
    """Build one of the built-in functionals, or wrap a custom g.

    renyi_integral(alpha): g(t1,t2) = (t1/t2)^alpha, so the f2-weighted
    integral is the Renyi-alpha integral of f1 against f2.
    custom: pass g=callable(t1, t2) vectorized over numpy arrays.
    """
    if name == "renyi_integral":
        alpha = float(params.get("alpha", 0.5))
        if alpha in (0.0, 1.0):
            raise ParameterError("renyi_integral requires alpha not in {0, 1}")
        return FunctionalSpec(name, {"alpha": alpha}, lambda t1, t2: (t1 / t2) ** alpha)
    if name == "kl":
        return FunctionalSpec(name, {}, lambda t1, t2: (t1 / t2) * np.log(t1 / t2))
    if name == "reverse_kl":
        return FunctionalSpec(name, {}, lambda t1, t2: np.log(t2 / t1))
    if name == "l2":
        return FunctionalSpec(name, {}, lambda t1, t2: (t1 - t2) ** 2 / t2)
    if name == "shannon_entropy":
        return FunctionalSpec(name, {}, lambda t1, t2: -np.log(t2))
    if name == "custom":
        g = params.get("g")
        if g is None or not callable(g):
            raise ParameterError("custom functional requires a callable g=...")
        return FunctionalSpec("custom", {}, g)
    raise ParameterError("unknown functional %r (known: %s)" % (name, ", ".join(BUILTIN_FUNCTIONALS)))


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
    d = int(d)
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


def knn_density(rho, k, m, d, mode="robust"):
    """k-NN density estimate k / (m * c_d * rho^d).

    ``rho`` may be a scalar or an array of neighbor distances, and ``k`` an
    integer or an integer array that broadcasts against it (for example one
    k per row of a (ks, points) distance array).  Robust mode clamps
    distances below ``DEGENERATE_RHO`` (the denominator is
    :func:`_density_denominators`); strict mode raises instead.
    """
    if mode not in ("strict", "robust"):
        raise ParameterError("mode must be 'strict' or 'robust'")
    k = np.asarray(k, dtype=np.int64)
    m = int(m)
    if np.any(k < 1) or np.any(k > m):
        raise ParameterError("k=%s out of range for m=%d" % (k, m))
    rho_arr = np.asarray(rho, dtype=np.float64)
    _check_finite(rho_arr)
    if mode == "strict" and np.any(rho_arr <= DEGENERATE_RHO):
        raise DegeneracyError("degenerate neighbor distance (rho <= %g)" % DEGENERATE_RHO)
    value = k / _density_denominators(rho_arr, m, d)
    if np.ndim(value) == 0:
        return float(value)
    return value


def _check_finite(rho):
    """Raise ParameterError unless every distance is finite."""
    if not np.all(np.isfinite(rho)):
        raise ParameterError("rho must be finite")


def _density_denominators(rho, m, d, out=None):
    """m * c_d * max(rho, DEGENERATE_RHO)^d, so that the robust density at k is k over it.

    Always an array, also for a scalar ``rho``: numpy's scalar power can
    differ from its array power in the last bit, and every denominator must
    equal the one an array of distances would give.  ``out`` may be ``rho``
    itself (float64) to convert a distance table in place.
    """
    if out is None:
        out = np.empty(np.shape(rho))
    np.maximum(rho, DEGENERATE_RHO, out=out)
    out **= d
    out *= m * unit_ball_volume(d)
    return out


def _clamp_count(rho):
    """Degenerate distances along the last axis."""
    return np.count_nonzero(rho <= DEGENERATE_RHO, axis=-1)


def _denominator_profile(den1, den2, ks, spec, weights=None, clip=True):
    """Plug-in estimates at ``ks`` from ``(len(ks), rows)`` density denominators.

    The density at k is k over the denominator, clipped into [``EVAL_FLOOR``,
    ``EVAL_CEIL``] before g unless ``clip`` is false (the strict plug-in).
    ``ks`` may also be a pair: the ks of den1's rows, then those of den2's.
    Each array is contiguous along the rows, so each k's mean is the same
    pairwise sum as a mean over that k's column alone.  ``weights`` gives each row an integer multiplicity in the outer
    sample (a bootstrap resample of x): the outer mean then counts row i
    ``weights[i]`` times.  Bootstrap replicates read their denominators from
    tables converted once, so they do no power and no clamp here.
    """
    k1, k2 = np.broadcast_to(ks, (2, len(den1)))[:, :, None]
    f1 = k1 / den1
    f2 = k2 / den2
    if clip:
        np.clip(f1, EVAL_FLOOR, EVAL_CEIL, out=f1)
        np.clip(f2, EVAL_FLOOR, EVAL_CEIL, out=f2)
    g = spec.eval(f1, f2)
    if weights is None:
        return np.mean(g, axis=1)
    return g @ weights / np.sum(weights)


def check_profile_args(x, y, ks):
    """Validate a plug-in profile's samples and k values; returns the ks as ints."""
    if x.dim != y.dim:
        raise ParameterError("dimension mismatch: x has d=%d, y has d=%d" % (x.dim, y.dim))
    if x.n < 2:
        raise ParameterError("need N2 >= 2 for leave-one-out estimation")
    ks = [int(k) for k in ks]
    m1, m2 = y.n, x.n - 1
    for k in ks:
        if k < 1 or k > min(m1, m2):
            raise ParameterError("k=%d out of range (M1=%d, M2=%d)" % (k, m1, m2))
    return ks


def plugin_profile(x, y, ks, spec, tables=None):
    """Plug-in estimates for several k values (k1 = k2 = k), sharing distance tables.

    Returns (values, degeneracy_counts) aligned with ``ks``: degenerate
    distances are clamped and counted, never raised on; the values are
    :func:`_denominator_profile` of the distances' denominators.  ``tables``
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
    """The density denominators of the x->y table at ``k1s`` and the x->x one at ``k2s``.

    Gathers each table's columns as a ``(len(ks), N2)`` array, contiguous
    along the rows; raises ParameterError unless every distance is finite;
    counts the clamped distances of each column pair; and turns the
    distances into ``_density_denominators``.  Returns (den1, den2, counts).
    """
    rho1, rho2 = (np.ascontiguousarray(table[:, np.asarray(ks) - 1].T)
                  for table, ks in zip(tables, (k1s, k2s)))
    _check_finite(rho1)
    _check_finite(rho2)
    degs = _clamp_count(rho1) + _clamp_count(rho2)
    # The gathered distances are this call's own copies: turn them into denominators in place.
    _density_denominators(rho1, y.n, x.dim, out=rho1)
    _density_denominators(rho2, x.n - 1, x.dim, out=rho2)
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


def plugin_estimate(x, y, k1, k2, spec, mode="robust"):
    """Leave-one-out k-NN plug-in estimate of the divergence functional.

    x: PointSet sampled from f2 (outer sample).  y: PointSet sampled from f1.
    Robust mode clamps and counts degenerate distances, and clips the
    densities; strict mode raises ``DegeneracyError`` on a degenerate
    distance and does not clip.  Both read k1 and k2 through the path of
    :func:`plugin_profile`.
    """
    if mode not in ("strict", "robust"):
        raise ParameterError("mode must be 'strict' or 'robust'")
    x, y = as_pointset(x), as_pointset(y)
    check_profile_args(x, y, ())
    k1, k2 = int(k1), int(k2)
    m1, m2 = y.n, x.n - 1
    if k1 < 1 or k1 > m1:
        raise ParameterError("k1=%d out of range for M1=%d" % (k1, m1))
    if k2 < 1 or k2 > m2:
        raise ParameterError("k2=%d out of range for M2=%d" % (k2, m2))
    # The tables are exact, so column k of a deeper table is the k-th distance.
    tables = neighbor_tables(x, y, max(k1, k2))
    den1, den2, degs = _column_denominators(x, y, tables, [k1], [k2])
    if mode == "strict" and degs[0]:
        raise DegeneracyError("degenerate neighbor distance (rho <= %g)" % DEGENERATE_RHO)
    (value,) = _denominator_profile(den1, den2, [[k1], [k2]], spec, clip=mode == "robust")
    return PluginEstimate(float(value), k1, k2, y.n, x.n, int(degs[0]))
