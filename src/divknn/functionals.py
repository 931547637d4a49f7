"""Divergence functional registry and the leave-one-out k-NN plug-in estimator.

Conventions, loudly: the estimated quantity is the integral of
``g(f1(x), f2(x))`` weighted by ``f2``.  The *x* argument of
:func:`plugin_estimate` is the sample drawn from ``f2`` (the outer,
averaging sample of size N2); the *y* argument is the sample drawn from
``f1``.  Density estimates at each x-point use the k1-th neighbor distance
into y (M1 = N1, no self-exclusion) and the k2-th neighbor distance within
x excluding the point itself (M2 = N2 - 1).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .neighbors import DEGENERATE_RHO, NeighborIndex, PointSet, knn_density

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


def _clamp_count(rho, counts=None):
    """Degenerate distances along the last axis, row i counted ``counts[i]`` times."""
    degenerate = rho <= DEGENERATE_RHO
    if counts is None:
        return np.count_nonzero(degenerate, axis=-1)
    return degenerate @ counts


def _plugin_terms(rho1, rho2, k1, k2, m1, m2, d, spec, mode, counts=None):
    """g(f1, f2) at each neighbor distance pair, and the clamp counts along the last axis."""
    degs = _clamp_count(rho1, counts) + _clamp_count(rho2, counts)
    f1 = knn_density(rho1, k1, m1, d, mode)
    f2 = knn_density(rho2, k2, m2, d, mode)
    if mode == "robust":
        f1 = np.clip(f1, EVAL_FLOOR, EVAL_CEIL)
        f2 = np.clip(f2, EVAL_FLOOR, EVAL_CEIL)
    return spec.eval(f1, f2), degs


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


def plugin_profile(x, y, ks, spec, mode="robust", tables=None, outer_weights=None):
    """Plug-in estimates for several k values (k1 = k2 = k), sharing distance tables.

    Returns (values, degeneracy_counts) aligned with ``ks``.  ``tables`` may
    carry precomputed ``(rho1_table, rho2_table)`` sorted-distance arrays, at
    least max(ks) deep (a bootstrap's point estimate reads its replicates').
    ``outer_weights`` gives each table row an integer multiplicity in the
    outer sample (a bootstrap resample of x): the outer mean and the clamp
    counts then weight row i by ``outer_weights[i]``, and the tables may hold
    only the rows with positive weight, in the same order.
    """
    ks = check_profile_args(x, y, ks)
    m1, m2 = y.n, x.n - 1
    if tables is None:
        tables = neighbor_tables(x, y, max(ks))
    rho1_table, rho2_table = tables
    # One (|ks|, rows) array per table, contiguous along the rows, so each
    # k's mean is the same pairwise sum as a mean over that k's column alone.
    cols = np.asarray(ks) - 1
    rho1 = np.ascontiguousarray(rho1_table[:, cols].T)
    rho2 = np.ascontiguousarray(rho2_table[:, cols].T)
    k_col = np.asarray(ks)[:, None]
    g, degs = _plugin_terms(rho1, rho2, k_col, k_col, m1, m2, x.dim, spec, mode, outer_weights)
    if outer_weights is None:
        values = np.mean(g, axis=1)
    else:
        values = g @ outer_weights / np.sum(outer_weights)
    return values, degs


def neighbor_tables(x, y, k_max, return_indices=False):
    """Sorted neighbor-distance tables (x into y; x into x leave-one-out).

    Each table is at most ``k_max`` deep.  With ``return_indices`` each table
    is a ``(distances, rows)`` pair; see ``NeighborIndex.kth_distance_table``.
    """
    index_y = NeighborIndex(y)
    index_x = NeighborIndex(x)
    rho1 = index_y.kth_distance_table(x.points, min(k_max, y.n), return_indices=return_indices)
    rho2 = index_x.kth_distance_table(x.points, min(k_max, x.n - 1), leave_one_out=True,
                                      return_indices=return_indices)
    return rho1, rho2


def plugin_estimate(x, y, k1, k2, spec, mode="robust"):
    """Leave-one-out k-NN plug-in estimate of the divergence functional.

    x: PointSet sampled from f2 (outer sample).  y: PointSet sampled from f1.
    """
    if not isinstance(x, PointSet):
        x = PointSet(np.asarray(x))
    if not isinstance(y, PointSet):
        y = PointSet(np.asarray(y))
    check_profile_args(x, y, ())
    k1, k2 = int(k1), int(k2)
    m1, m2 = y.n, x.n - 1
    if k1 < 1 or k1 > m1:
        raise ParameterError("k1=%d out of range for M1=%d" % (k1, m1))
    if k2 < 1 or k2 > m2:
        raise ParameterError("k2=%d out of range for M2=%d" % (k2, m2))
    # The tables are exact, so column k of a deeper table is the k-th distance.
    rho1, rho2 = neighbor_tables(x, y, max(k1, k2))
    g, degs = _plugin_terms(rho1[:, k1 - 1], rho2[:, k2 - 1], k1, k2, m1, m2, x.dim, spec, mode)
    return PluginEstimate(float(np.mean(g)), k1, k2, y.n, x.n, int(degs))
