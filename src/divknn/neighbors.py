"""Point storage and exact k-nearest-neighbor distance tables.

One engine answers every query: ``NeighborIndex.kth_distance_table``.  A
query that is one of the reference points finds itself at distance exactly
0, ahead of every other entry, so its leave-one-out neighbors are its table
one column deeper with column 0 dropped; the engine has no leave-one-out
mode.  It takes the queries in blocks sized so that a block's screen and
candidates stay in a core's L2 cache (``SCREEN_BLOCK_BYTES``), and works on
each block in two steps:

* Screen: the coordinates are scaled by a power of two so that every one is
  below 1 in magnitude, centered on the reference mean, scaled again
  to unit spread (all in float64; the scalings are exact) and cast to
  float32.  Every squared distance is computed in float32 in the expanded
  form ``|a|^2 + |b|^2 - 2 a.b`` as one BLAS product of augmented operands,
  ``[-2a, |a|^2, 1]`` by ``[b; 1; |b|^2]``, instead of a (block, M, d)
  difference tensor.  The product is computed in chunks small enough that
  BLAS runs each on the calling thread (``SCREEN_PRODUCT_SIZE``).  The k_max
  smallest screened values of a row, plus every entry within a slack of its
  k_max-th (near ties at the cut), are its candidates.
* Refine: only the candidates get the exact float64 difference form
  ``sum_k (p_k - q_k)^2`` in the original coordinates, which is then
  partitioned and sorted.  Rows with more candidates than others are padded
  with ``inf``.  A row whose k_max-th refined value overflows to ``inf`` is
  refined over every reference, so its ``inf`` entries are ordered by row.

The slack is a floating-point error bound on the gap between the screened
and the refined value (``SCREEN_SLACK``), so every true k-nearest neighbor
and every tie at the cut is a candidate.  The table therefore equals, bit for
bit, the k_max smallest difference-form distances of a full brute-force
sweep in ascending order, and its rows are ordered by distance and then by
ascending row index.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, as_index

# Safety factor on the screen's error bound.  Let u_s = 2^-24 and u = 2^-53 be
# the unit roundoffs of float32 and float64.  In scaled units, with a the
# query and b the reference point after scaling and centering, the screened
# value and the refined squared distance differ by at most, relative to
# (|a| + |b|)^2:
#   2u          centering each coordinate in float64 (scaling is exact),
#   2u_s        casting each coordinate to float32,
#   d u_s       the float32 norms |a|^2 and |b|^2, each a d-term sum,
#   (d + 2)u_s  the augmented product: a (d + 2)-term dot product in any
#               order, with or without FMA, is off by at most (d + 2)u_s
#               times the sum of its terms' magnitudes, 2|a.b| + |a|^2 +
#               |b|^2 <= (|a| + |b|)^2 to first order,
#   (d + 2)u    the refine's subtractions, squares and sum,
# that is (2d + 4)u_s + (d + 4)u.  Products that underflow in the screen add
# at most 6d eta_s, and the refine's own underflows d eta s^2 / 2, where
# eta_s and eta are the smallest float32 and float64 subnormals and s the
# total scale.  A coordinate that underflows when scaled is off by eta / 2
# before the second scaling by 2^-e_spread and by eta / 2 after it, which
# adds at most 4d eta (1 + 2^-e_spread).  A candidate must lie within twice
# this bound (its own error and that of the k-th entry) of the k-th screened
# value, with |b| bounded by the reference radius.  The factor 2 over this
# first-order bound covers second-order terms and the rounding of the slack
# and of the threshold's cast to float32.  The bound holds for any spread:
# when the reference is tiny against the queries (its scaled coordinates
# square into float32's subnormals), the underflow terms widen the
# candidates, up to every reference.
SCREEN_SLACK = 2.0

# Bytes of one block's screen plus its gathered candidates.  Together with
# the partition's copy of the screen they stay within a 2 MiB L2 cache while
# every step of the block passes over them; smaller blocks cost more in
# per-block interpreter overhead, which threads running tables side by side
# pay one at a time.
SCREEN_BLOCK_BYTES = 1024 * 1024

# Largest rows x columns x (d + 2) of one chunk of the screen product.
# OpenBLAS runs a GEMM of m x n x k <= 65536 x GEMM_MULTITHREAD_THRESHOLD
# (4 by default) = 2^18 on the calling thread.  A whole block's product is
# larger, so OpenBLAS starts its own threads in each of the Figure-1 grid's
# forked worker processes at once and oversubscribes the cores.  On a 2-vCPU
# Xeon a pass of perfbench's fig1_grid (8 s runs, seeds 1-4) took
# 0.69-0.75 s in chunks and 1.93-6.85 s unchunked; bootstrap_ci's took
# 0.12-0.13 s either way.
SCREEN_PRODUCT_SIZE = 2**18


@dataclass(frozen=True)
class PointSet:
    """An N x d batch of sample coordinates from one density.

    The coordinates are a read-only copy, so writing into the caller's array
    cannot change an index built on them.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ParameterError("points must be a 2-D array, got ndim=%d" % pts.ndim)
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ParameterError("need N >= 1 and d >= 1, got shape %r" % (pts.shape,))
        if not np.all(np.isfinite(pts)):
            raise ParameterError("point coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


def as_pointset(points):
    """``points`` itself if it is a :class:`PointSet`, else a PointSet of the (N, d) array."""
    return points if isinstance(points, PointSet) else PointSet(points)


class NeighborIndex:
    """Immutable exact k-NN index over one :class:`PointSet`."""

    def __init__(self, pointset):
        self.pointset = as_pointset(pointset)
        self._pts = self.pointset.points

    @property
    def size(self):
        return self.pointset.n

    def kth_distance_table(self, queries, k_max, return_indices=False):
        """Sorted distances to the ``k_max`` nearest references for each query.

        Exact: screened by the expanded form, refined by the difference form
        (see the module docstring).  A query that is a reference point is at
        distance 0 from itself, so column 0 of its row reads 0.  For
        leave-one-out distances, ask for ``k_max + 1`` and drop column 0; a
        duplicate of the query stays, at distance 0 (the dropped row may then
        be the duplicate's, and the query's own row stays in its place).
        With ``return_indices`` it returns ``(distances, rows)``, where
        ``rows`` holds the reference row of each entry, ordered by distance
        and then by ascending row index; the distances are the same array,
        bit for bit, as without it.  Queries are taken in blocks sized from
        ``SCREEN_BLOCK_BYTES``.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.pointset.dim:
            raise ParameterError("queries must have shape (n, %d), got %r"
                                 % (self.pointset.dim, queries.shape))
        if not np.all(np.isfinite(queries)):
            raise ParameterError("query coordinates must be finite")
        k_max = as_index("k_max", k_max)
        if k_max < 1 or k_max > self.size:
            raise ParameterError("k_max=%d out of range for M=%d" % (k_max, self.size))
        pts = self._pts
        m, dim = pts.shape
        nq = queries.shape[0]
        # Scale by 2^-e_mag so every coordinate is below 1 in magnitude, and
        # centering on the mean cannot overflow; then by 2^-e_spread to unit
        # spread.  Powers of two scale exactly, bar underflow.
        e_mag = math.frexp(max(float(np.abs(pts).max()), float(np.abs(queries).max())))[1]
        p_scaled = np.ldexp(pts, -e_mag)
        q_scaled = np.ldexp(queries, -e_mag)
        center = p_scaled.mean(axis=0)
        p_scaled -= center
        q_scaled -= center
        e_spread = math.frexp(max(float(np.abs(p_scaled).max()),
                                  float(np.abs(q_scaled).max())))[1]
        np.ldexp(p_scaled, -e_spread, out=p_scaled)
        np.ldexp(q_scaled, -e_spread, out=q_scaled)
        # q_aug @ p_aug = |a|^2 + |b|^2 - 2 a.b, norms from the float32 cast
        # (the factor -2 is exact).
        p_t = np.ascontiguousarray(p_scaled.T, dtype=np.float32)
        p_aug = np.vstack([p_t, np.ones(m, dtype=np.float32), np.einsum("ij,ij->j", p_t, p_t)])
        q_cast = q_scaled.astype(np.float32)
        q_aug = np.column_stack([-2 * q_cast, np.einsum("ij,ij->i", q_cast, q_cast),
                                 np.ones(nq, dtype=np.float32)])
        slack = _slack(dim, e_mag, e_spread, q_scaled, p_scaled)
        block = max(1, SCREEN_BLOCK_BYTES // (4 * m + 8 * k_max * dim))
        chunk_rows = max(1, SCREEN_PRODUCT_SIZE // (m * (dim + 2)))
        chunk_cols = max(1, SCREEN_PRODUCT_SIZE // (chunk_rows * (dim + 2)))
        screen_buf = np.empty((min(block, nq), m), dtype=np.float32)
        out = np.empty((nq, k_max))
        out_rows = np.empty((nq, k_max), dtype=np.int32) if return_indices else None
        for start in range(0, nq, block):
            stop = min(start + block, nq)
            q = queries[start:stop]
            if k_max < m:
                screen = screen_buf[:stop - start]
                for r in range(start, stop, chunk_rows):
                    r_stop = min(r + chunk_rows, stop)
                    for c in range(0, m, chunk_cols):
                        np.matmul(q_aug[r:r_stop], p_aug[:, c:c + chunk_cols],
                                  out=screen[r - start:r_stop - start, c:c + chunk_cols])
                cand, pad = _candidates(screen, k_max, slack[start:stop])
            else:
                cand, pad = np.broadcast_to(np.arange(m), (stop - start, m)), None
            # Candidates ascend in each row, so ties break by ascending row.
            part, rows = _refine(pts, q, cand, pad, k_max, return_indices)
            # A row whose k_max-th distance overflows is refined over every
            # reference, so that its inf entries are ordered by row.
            over = np.flatnonzero(part[:, -1] == np.inf)
            if over.size:
                every = np.broadcast_to(np.arange(m), (over.size, m))
                part[over], full = _refine(pts, q[over], every, None, k_max, True)
                if return_indices:
                    rows[over] = full
            np.sqrt(part, out=out[start:stop])
            if return_indices:
                out_rows[start:stop] = rows
        if return_indices:
            return out, out_rows
        return out


def _slack(dim, e_mag, e_spread, q_scaled, p_scaled):
    """Per-query bound on the gap between a screened value and the scaled
    refined distance, doubled (see ``SCREEN_SLACK``)."""
    f32, f64 = np.finfo(np.float32), np.finfo(np.float64)
    relative = (2 * dim + 4) * float(f32.eps) + (dim + 4) * float(f64.eps)
    tiny = float(f64.smallest_subnormal)
    scaling_underflow = tiny + math.ldexp(tiny, -e_spread)
    # The refine's underflows, eta s^2 in scaled units with s = 2^-e; past
    # 2^900 the slack admits every column anyway.
    e = e_mag + e_spread
    refine_underflow = math.ldexp(tiny, min(-2 * e, 1974))
    absolute = dim * (12 * float(f32.smallest_subnormal) + 8 * scaling_underflow
                      + refine_underflow)
    radius = math.sqrt(np.einsum("ij,ij->i", p_scaled, p_scaled).max())
    q_norm = np.sqrt(np.einsum("ij,ij->i", q_scaled, q_scaled))
    slack = SCREEN_SLACK * (relative * (q_norm + radius) ** 2 + absolute)
    # Screened values are at most about 4d, so this cap keeps every
    # threshold finite in float32.
    return np.minimum(slack, float(f32.max) / 2)


def _refine(pts, queries, cand, pad, k, with_rows):
    """The ``k`` smallest squared difference-form distances from each query
    to the references in its row of ``cand``, ascending, with the ``pad``
    entries left out (set to inf).  With ``with_rows`` also their rows, ties
    broken by position in ``cand``; else None.
    """
    # (p - q)^2 equals (q - p)^2 bit for bit.
    diff = np.take(pts, cand, axis=0)
    diff -= queries[:, None, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    if pad is not None:
        d2[pad] = np.inf
    if with_rows:
        nq, width = d2.shape
        order = np.argsort(d2, axis=1)
        offset = np.arange(0, nq * width, width)[:, None]
        ranked = np.take(d2, order[:, :k + 1] + offset)
        # Without two equal values among its k + 1 smallest, a row's first k
        # are unique in value and order; the rest are sorted again stably,
        # which reorders their rows but not their values.
        tied = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
        if tied.size:
            order[tied] = np.argsort(d2[tied], axis=1, kind="stable")
        order = order[:, :k]
        # take_along_axis reads a broadcast cand without copying it.
        return ranked[:, :k], np.take_along_axis(cand, order, axis=1)
    if k < d2.shape[1]:
        d2 = np.partition(d2, k - 1, axis=1)[:, :k]
    d2.sort(axis=1)
    return d2, None


def _candidates(screen, k, slack):
    """Columns of the entries of each row of ``screen`` within ``slack`` (one
    value per row) of the row's k-th smallest, ascending in each row.

    Every row has at least ``k`` such entries.  When some row has more (near
    ties at the cut), every row is padded to the widest; the second result
    then marks the padding, else it is None.
    """
    nq, m = screen.shape
    # Non-negative IEEE floats order as their bit patterns read as integers,
    # and integer selection is the faster.  Negative values (rounding below
    # an exact 0) read as integers below every non-negative one, so the k-th
    # smallest is exact unless it is negative, and then 0 bounds it above.
    as_int = screen.view("i%d" % screen.itemsize)
    kth = np.partition(as_int, k - 1, axis=1)[:, k - 1].view(screen.dtype)
    threshold = (np.maximum(kth, 0.0) + slack).astype(screen.dtype)
    flat = np.flatnonzero(screen <= threshold[:, None])
    row_start = np.arange(0, nq * m + 1, m)
    if flat.size == nq * k:
        return flat.reshape(nq, k) - row_start[:-1, None], None
    bounds = np.searchsorted(flat, row_start)
    counts = np.diff(bounds)
    cols = np.arange(counts.max())
    cand = np.take(flat, bounds[:-1, None] + cols, mode="clip") - row_start[:-1, None]
    pad = cols >= counts[:, None]
    cand[pad] = 0
    return cand, pad
