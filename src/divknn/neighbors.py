"""Point storage and exact k-nearest-neighbor distance queries.

Single queries (``kth_nn``) go through a static median-split kd-tree, built
on the first such query; the estimator's tables come from a blocked
brute-force sweep that never needs the tree.  Queries are exact: the returned
k-th neighbor distance always equals the k-th order statistic of the
brute-force distance list, with ties broken by ascending row index.  Point
sets below ``BRUTE_FORCE_THRESHOLD`` rows are kept as a single leaf and
searched by brute force.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ParameterError

BRUTE_FORCE_THRESHOLD = 64

# Distances below this floor count as degenerate (duplicate points).
DEGENERATE_RHO = 1e-12


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


class _Node:
    __slots__ = ("axis", "split", "left", "right", "lo", "hi", "leaf_idx")

    def __init__(self, lo, hi):
        self.axis = -1
        self.split = 0.0
        self.left = None
        self.right = None
        self.lo = lo  # bounding box, used for pruning
        self.hi = hi
        self.leaf_idx = None


class NeighborIndex:
    """Immutable exact k-NN index over one :class:`PointSet`."""

    def __init__(self, pointset, leaf_size=BRUTE_FORCE_THRESHOLD):
        if not isinstance(pointset, PointSet):
            pointset = PointSet(np.asarray(pointset))
        self.pointset = pointset
        self._pts = pointset.points
        self._leaf_size = max(int(leaf_size), 1)

    @property
    def size(self):
        return self.pointset.n

    @functools.cached_property
    def _root(self):
        return self._build(np.arange(self.pointset.n))

    def _build(self, idx):
        pts = self._pts[idx]
        node = _Node(pts.min(axis=0), pts.max(axis=0))
        if len(idx) <= self._leaf_size:
            node.leaf_idx = idx
            return node
        spread = node.hi - node.lo
        axis = int(np.argmax(spread))
        if spread[axis] <= 0.0:
            # All points identical: nothing to split on.
            node.leaf_idx = idx
            return node
        order = np.argsort(pts[:, axis], kind="stable")
        mid = len(idx) // 2
        node.axis = axis
        node.split = float(pts[order[mid], axis])
        node.left = self._build(idx[order[:mid]])
        node.right = self._build(idx[order[mid:]])
        return node

    def _query_candidates(self, query, k):
        """Collect >= k candidates as (distance, row) arrays with pruning."""
        pts = self._pts
        cand_d = []
        cand_i = []
        state = {"count": 0, "bound": np.inf}

        def visit(node):
            # Lower bound on the distance from query to the node's box.
            gap = np.maximum(node.lo - query, 0.0) + np.maximum(query - node.hi, 0.0)
            if state["count"] >= k and math.sqrt(float(gap @ gap)) > state["bound"]:
                return
            if node.leaf_idx is not None:
                diff = pts[node.leaf_idx] - query
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                cand_d.append(dist)
                cand_i.append(node.leaf_idx)
                state["count"] += len(dist)
                if state["count"] >= k:
                    alld = np.concatenate(cand_d)
                    kth = np.partition(alld, k - 1)[k - 1]
                    if kth < state["bound"]:
                        state["bound"] = float(kth)
                return
            if query[node.axis] < node.split:
                visit(node.left)
                visit(node.right)
            else:
                visit(node.right)
                visit(node.left)

        visit(self._root)
        return np.concatenate(cand_d), np.concatenate(cand_i)

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
        want = k + 1 if exclude_self else k
        dist, rows = self._query_candidates(query, want)
        order = np.lexsort((rows, dist))
        dist = dist[order]
        rows = rows[order]
        if exclude_self:
            zero = np.flatnonzero(dist == 0.0)
            if zero.size:
                keep = np.ones(len(dist), dtype=bool)
                keep[zero[0]] = False
                dist = dist[keep]
                rows = rows[keep]
        return float(dist[k - 1]), int(rows[k - 1])

    def kth_nn_distance(self, query, k, exclude_self=False):
        return self.kth_nn(query, k, exclude_self)[0]

    def kth_distance_table(self, queries, k_max, leave_one_out=False, block=256,
                           return_indices=False):
        """Sorted distances to the ``k_max`` nearest references for each query.

        Vectorized brute-force path used by the estimator hot loop; exact by
        construction.  With ``leave_one_out`` the queries must be the index's
        own point array in row order and each row excludes itself by identity.
        With ``return_indices`` it returns ``(distances, rows)``, where
        ``rows`` holds the reference row of each entry, ordered by distance
        and then by ascending row index; the distances are the same array,
        bit for bit, as without it.
        """
        queries = np.asarray(queries, dtype=np.float64)
        k_max = int(k_max)
        m = self.size - 1 if leave_one_out else self.size
        if k_max < 1 or k_max > m:
            raise ParameterError("k_max=%d out of range for M=%d" % (k_max, m))
        if leave_one_out and queries.shape[0] != self.size:
            raise ParameterError("leave-one-out queries must be the index's own points")
        pts = self._pts
        nq = queries.shape[0]
        out = np.empty((nq, k_max))
        out_rows = np.empty((nq, k_max), dtype=np.int32) if return_indices else None
        for start in range(0, nq, block):
            q = queries[start : start + block]
            diff = q[:, None, :] - pts[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            del diff  # the (block, M, d) tensor is the largest transient
            if leave_one_out:
                rows = np.arange(len(q))
                d2[rows, start + rows] = np.inf
            if return_indices:
                part, out_rows[start : start + len(q)] = _nearest_rows(d2, k_max)
            else:
                if k_max < d2.shape[1]:
                    part = np.partition(d2, k_max - 1, axis=1)[:, :k_max]
                else:
                    part = d2
                part.sort(axis=1)
            out[start : start + len(q)] = np.sqrt(part)
        if return_indices:
            return out, out_rows
        return out


def _nearest_rows(d2, k):
    """The ``k`` smallest entries of each row of ``d2`` and their columns.

    Ordered by value and then by ascending column, so ties at the k-th value
    keep the lowest columns.
    """
    if k < d2.shape[1]:
        sel = np.argpartition(d2, k - 1, axis=1)[:, :k]
        part = np.take_along_axis(d2, sel, axis=1)
        kth = part.max(axis=1)
        # argpartition picks arbitrary members of a tie at the k-th value;
        # rows where the tie reaches past the cut are redone by a stable sort.
        ragged = np.count_nonzero(d2 == kth[:, None], axis=1) > np.count_nonzero(
            part == kth[:, None], axis=1)
        for r in np.flatnonzero(ragged):
            sel[r] = np.argsort(d2[r], kind="stable")[:k]
            part[r] = d2[r, sel[r]]
    else:
        sel = np.broadcast_to(np.arange(d2.shape[1]), d2.shape)
        part = d2
    order = np.lexsort((sel, part), axis=1)
    return np.take_along_axis(part, order, axis=1), np.take_along_axis(sel, order, axis=1)


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

    ``rho`` may be a scalar or array of neighbor distances.  Robust mode
    clamps distances below ``DEGENERATE_RHO``; strict mode raises instead.
    """
    if mode not in ("strict", "robust"):
        raise ParameterError("mode must be 'strict' or 'robust'")
    k = int(k)
    m = int(m)
    if k < 1 or k > m:
        raise ParameterError("k=%d out of range for m=%d" % (k, m))
    rho_arr = np.asarray(rho, dtype=np.float64)
    if not np.all(np.isfinite(rho_arr)):
        raise ParameterError("rho must be finite")
    degenerate = rho_arr <= DEGENERATE_RHO
    if np.any(degenerate):
        if mode == "strict":
            raise DegeneracyError("degenerate neighbor distance (rho <= %g)" % DEGENERATE_RHO)
        rho_arr = np.maximum(rho_arr, DEGENERATE_RHO)
    value = k / (m * unit_ball_volume(d) * rho_arr**d)
    if np.ndim(rho) == 0:
        return float(value)
    return value
