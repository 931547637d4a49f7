"""Point storage and exact k-nearest-neighbor distance tables.

One engine answers every query: ``NeighborIndex.kth_distance_table``, and
``kth_nn`` is a one-row table.  For each block of queries it works in two
steps:

* Screen: every squared distance is computed in the expanded form
  ``|q - c|^2 + |p - c|^2 - 2 (q - c).(p - c)``, with ``c`` the reference
  mean, which costs one thin matrix product instead of a (block, M, d)
  difference tensor.  The k_max smallest screened values of a row, plus every
  entry within a slack of its k_max-th (ties at the cut), are its candidates.
* Refine: only the candidates get the exact difference form
  ``sum_k (q_k - p_k)^2``, which is then partitioned and sorted.

The slack is a floating-point error bound on the gap between the two forms
(``SCREEN_SLACK``), so every true k-nearest neighbor and every tie at the cut
is a candidate.  The table therefore equals, bit for bit, the k_max smallest
difference-form distances of a full brute-force sweep in ascending order, and
its rows are ordered by distance and then by ascending row index.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ParameterError

# Distances below this floor count as degenerate (duplicate points).
DEGENERATE_RHO = 1e-12

# Safety factor on the screen's error bound.  With u = eps/2, centering
# rounds each coordinate once (at most 2u relative after squaring), the
# expanded form's two norms, dot product and two additions add (d + 3)u, and
# the difference form's subtractions, squares and sum add (d + 2)u, each
# relative to (|q - c| + |p - c|)^2.  So the two forms of one squared
# distance differ by at most (2d + 7)u (|q - c| + |p - c|)^2, and a
# candidate must lie within twice that (its own error and that of the k-th
# entry) of the k-th screened value.  The factor 2 over this first-order
# bound covers the rounding of the norms and of the slack itself.
SCREEN_SLACK = 2.0


@dataclass(frozen=True)
class PointSet:
    """An N x d batch of sample coordinates from one density."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ParameterError("points must be a 2-D array, got ndim=%d" % pts.ndim)
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ParameterError("need N >= 1 and d >= 1, got shape %r" % (pts.shape,))
        if not np.all(np.isfinite(pts)):
            raise ParameterError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


class NeighborIndex:
    """Immutable exact k-NN index over one :class:`PointSet`."""

    def __init__(self, pointset):
        if not isinstance(pointset, PointSet):
            pointset = PointSet(np.asarray(pointset))
        self.pointset = pointset
        self._pts = pointset.points

    @property
    def size(self):
        return self.pointset.n

    def kth_nn(self, query, k, exclude_self=False):
        """Return (distance, row index) of the k-th nearest reference point.

        ``exclude_self`` implements leave-one-out semantics for member
        queries: the single zero-distance row with the lowest index is
        removed from the candidate list before ranking.  Ties in distance
        are broken by ascending row index.
        """
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.pointset.dim:
            raise ParameterError(
                "query has dim %d, index has dim %d" % (query.shape[0], self.pointset.dim)
            )
        k = int(k)
        m = self.size - 1 if exclude_self else self.size
        if k < 1 or k > m:
            raise ParameterError("k=%d out of range for M=%d reference points" % (k, m))
        depth = k + 1 if exclude_self else k
        dist, rows = self.kth_distance_table(query[None], depth, return_indices=True)
        dist, rows = dist[0], rows[0]
        if exclude_self:
            first_zero = np.flatnonzero(dist == 0.0)[:1]
            dist, rows = np.delete(dist, first_zero), np.delete(rows, first_zero)
        return float(dist[k - 1]), int(rows[k - 1])

    def kth_nn_distance(self, query, k, exclude_self=False):
        return self.kth_nn(query, k, exclude_self)[0]

    def kth_distance_table(self, queries, k_max, leave_one_out=False, block=256,
                           return_indices=False):
        """Sorted distances to the ``k_max`` nearest references for each query.

        Exact: screened by the expanded form, refined by the difference form
        (see the module docstring).  With ``leave_one_out`` the queries must
        be the index's own point array in row order and each row excludes
        itself by identity; a duplicate of the query is kept, at distance 0.
        With ``return_indices`` it returns ``(distances, rows)``, where
        ``rows`` holds the reference row of each entry, ordered by distance
        and then by ascending row index; the distances are the same array,
        bit for bit, as without it.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.pointset.dim:
            raise ParameterError("queries must have shape (n, %d), got %r"
                                 % (self.pointset.dim, queries.shape))
        if not np.all(np.isfinite(queries)):
            raise ParameterError("query coordinates must be finite")
        k_max = int(k_max)
        m = self.size - 1 if leave_one_out else self.size
        if k_max < 1 or k_max > m:
            raise ParameterError("k_max=%d out of range for M=%d" % (k_max, m))
        if leave_one_out and queries.shape[0] != self.size:
            raise ParameterError("leave-one-out queries must be the index's own points")
        pts = self._pts
        center = pts.mean(axis=0)
        centered_t = np.ascontiguousarray((pts - center).T)
        p_norm2 = np.einsum("ij,ij->j", centered_t, centered_t)
        radius = math.sqrt(p_norm2.max())
        slack_unit = SCREEN_SLACK * (2 * pts.shape[1] + 7) * np.finfo(np.float64).eps
        nq = queries.shape[0]
        out = np.empty((nq, k_max))
        out_rows = np.empty((nq, k_max), dtype=np.int32) if return_indices else None
        for start in range(0, nq, block):
            q = queries[start : start + block]
            qc = q - center
            q_norm2 = np.einsum("ij,ij->i", qc, qc)
            # einsum, not BLAS: multithreaded BLAS is slow on this thin
            # (block, d) x (d, M) shape.  Scaling by -2 is exact.
            screen = np.einsum("ik,kj->ij", -2.0 * qc, centered_t)
            screen += p_norm2
            screen += q_norm2[:, None]
            if leave_one_out:
                own = np.arange(len(q))
                screen[own, start + own] = np.inf
            scale = np.maximum((np.sqrt(q_norm2) + radius) ** 2, np.finfo(np.float64).tiny)
            cand = _candidates(screen, k_max, slack_unit * scale)
            diff = q[:, None, :] - pts[cand]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            if return_indices:
                # Candidate columns ascend in each row, so a stable sort on
                # the distance breaks ties by ascending row.
                order = np.argsort(d2, axis=1, kind="stable")[:, :k_max]
                part = np.take_along_axis(d2, order, axis=1)
                out_rows[start : start + len(q)] = np.take_along_axis(cand, order, axis=1)
            else:
                part = d2
                if k_max < d2.shape[1]:
                    part = np.partition(d2, k_max - 1, axis=1)[:, :k_max]
                part.sort(axis=1)
            out[start : start + len(q)] = np.sqrt(part)
        if return_indices:
            return out, out_rows
        return out


def _candidates(screen, k, slack):
    """Columns of the entries of each row of ``screen`` within ``slack`` (one
    value per row) of the row's k-th smallest, ascending in each row.

    Every row has at least ``k`` such entries; when some row has more (ties
    at the cut), each row gets as many of its smallest entries as the widest.
    """
    nq, m = screen.shape
    if k < m:
        kth = np.partition(screen, k - 1, axis=1)[:, k - 1]
        within = screen <= (kth + slack)[:, None]
        flat = np.flatnonzero(within)
        if flat.size == nq * k:
            return flat.reshape(nq, k) % m
        width = int(np.count_nonzero(within, axis=1).max())
        if width < m:
            return np.sort(np.argpartition(screen, width - 1, axis=1)[:, :width], axis=1)
    return np.broadcast_to(np.arange(m), screen.shape)


def build_index(points):
    """Build an exact neighbor index over a point set."""
    if isinstance(points, PointSet):
        return NeighborIndex(points)
    return NeighborIndex(PointSet(np.asarray(points)))


def kth_nn_distance(index, query, k, exclude_self=False):
    return index.kth_nn_distance(query, k, exclude_self=exclude_self)


def unit_ball_volume(d):
    """Volume of the d-dimensional Euclidean unit ball."""
    d = int(d)
    if d < 1:
        raise ParameterError("d must be >= 1, got %d" % d)
    if d % 2 == 0:
        return math.pi ** (d // 2) / math.factorial(d // 2)
    # Odd d: 2^((d+1)/2) * pi^((d-1)/2) / d!! avoids Gamma rounding at d=1.
    double_fact = math.prod(range(d, 0, -2))
    return 2.0 ** ((d + 1) // 2) * math.pi ** ((d - 1) // 2) / double_fact


def knn_density(rho, k, m, d, mode="robust"):
    """k-NN density estimate k / (m * c_d * rho^d).

    ``rho`` may be a scalar or an array of neighbor distances, and ``k`` an
    integer or an integer array that broadcasts against it (for example one
    k per row of a (ks, points) distance array).  Robust mode clamps
    distances below ``DEGENERATE_RHO``; strict mode raises instead.
    """
    if mode not in ("strict", "robust"):
        raise ParameterError("mode must be 'strict' or 'robust'")
    k = np.asarray(k, dtype=np.int64)
    m = int(m)
    if np.any(k < 1) or np.any(k > m):
        raise ParameterError("k=%s out of range for m=%d" % (k, m))
    rho_arr = np.asarray(rho, dtype=np.float64)
    if not np.all(np.isfinite(rho_arr)):
        raise ParameterError("rho must be finite")
    degenerate = rho_arr <= DEGENERATE_RHO
    if np.any(degenerate):
        if mode == "strict":
            raise DegeneracyError("degenerate neighbor distance (rho <= %g)" % DEGENERATE_RHO)
        rho_arr = np.maximum(rho_arr, DEGENERATE_RHO)
    value = k / (m * unit_ball_volume(d) * rho_arr**d)
    if np.ndim(value) == 0:
        return float(value)
    return value
