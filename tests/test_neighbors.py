import math
import sys
import warnings

import numpy as np
import pytest

import divknn.neighbors as neighbors
from divknn import NeighborIndex, ParameterError, PointSet, knn_density, unit_ball_volume
from divknn.functionals import neighbor_tables


def brute_kth(points, query, k, exclude_row=None):
    """Independent oracle: full distance list, lexicographic (dist, row) sort."""
    dist = np.linalg.norm(points - query, axis=1)
    rows = np.arange(len(points))
    if exclude_row is not None:
        keep = rows != exclude_row
        dist, rows = dist[keep], rows[keep]
    order = np.lexsort((rows, dist))
    return dist[order][k - 1], rows[order][k - 1]


def test_pointset_validation():
    with pytest.raises(ParameterError):
        PointSet(np.zeros((0, 2)))
    with pytest.raises(ParameterError):
        PointSet(np.array([[np.nan]]))
    with pytest.raises(ParameterError):
        PointSet(np.array([1.0, 2.0]))  # 1-D


def test_singleton_index():
    idx = NeighborIndex(np.array([[0.25]]))
    assert idx.size == 1
    assert idx.kth_distance_table([[0.25]], 1)[0, 0] == 0.0


def test_duplicate_rows_build():
    idx = NeighborIndex(np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.2]]))
    assert idx.size == 3


def test_member_query_excludes_self():
    # Leave-one-out is the member query's table one column deeper.
    idx = NeighborIndex(np.array([[0.0], [0.5], [0.9]]))
    assert idx.kth_distance_table([[0.0]], 2)[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_self_distance_zero_without_exclusion():
    idx = NeighborIndex(np.array([[0.3, 0.7]]))
    assert idx.kth_distance_table([[0.3, 0.7]], 1)[0, 0] == 0.0


def test_nonmember_query():
    idx = NeighborIndex(np.array([[0.2], [0.8]]))
    assert idx.kth_distance_table([[0.4]], 2)[0, 1] == pytest.approx(0.4, abs=1e-15)


def test_k_out_of_range_message():
    idx = NeighborIndex(np.array([[0.2], [0.8]]))
    with pytest.raises(ParameterError, match="k_max=3.*M=2"):
        idx.kth_distance_table([[0.4]], 3)
    with pytest.raises(ParameterError, match="k_max=0.*M=2"):
        idx.kth_distance_table([[0.4]], 0)


@pytest.mark.parametrize("n,d,seed", [(50, 1, 0), (200, 2, 1), (500, 3, 2), (1000, 7, 3)])
def test_matches_brute_force(n, d, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    draws = [(rng.random(d), int(rng.integers(1, min(n, 40) + 1))) for _ in range(25)]
    queries, ks = np.array([q for q, _ in draws]), [k for _, k in draws]
    dist, rows = NeighborIndex(pts).kth_distance_table(queries, max(ks), return_indices=True)
    for i, (q, k) in enumerate(draws):
        exp_d, exp_i = brute_kth(pts, q, k)
        assert abs(dist[i, k - 1] - exp_d) < 1e-12
        assert rows[i, k - 1] == exp_i


def test_tie_break_ascending_row_index():
    # Three reference points at identical distance from the query.
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [5.0, 5.0]])
    _, rows = NeighborIndex(pts).kth_distance_table([[0.0, 0.0]], 3, return_indices=True)
    assert rows[0].tolist() == [0, 1, 2]


def test_monotone_in_k():
    rng = np.random.default_rng(7)
    pts = rng.random((120, 3))
    q = rng.random(3)
    dists = NeighborIndex(pts).kth_distance_table(q[None], 120)[0]
    assert all(a <= b + 1e-15 for a, b in zip(dists, dists[1:]))


def test_translation_invariance():
    rng = np.random.default_rng(11)
    pts = rng.random((90, 2))
    shift = np.array([13.5, -2.25])
    q = rng.random(2)
    a = NeighborIndex(pts).kth_distance_table(q[None], 30)[0]
    b = NeighborIndex(pts + shift).kth_distance_table((q + shift)[None], 30)[0]
    for k in (1, 5, 30):
        assert abs(a[k - 1] - b[k - 1]) < 1e-12


def test_kth_distance_table_matches_single_queries():
    # A batch's rows are, bit for bit, the one-row tables of its queries.
    rng = np.random.default_rng(13)
    pts = rng.random((150, 2))
    queries = rng.random((20, 2))
    idx = NeighborIndex(pts)
    table = idx.kth_distance_table(queries, 10)
    for i, q in enumerate(queries):
        assert np.array_equal(table[i], idx.kth_distance_table(q[None], 10)[0])


def test_kth_distance_table_leave_one_out():
    # Each point's own 0 heads its row; one column deeper without it is its
    # leave-one-out table.
    rng = np.random.default_rng(17)
    pts = rng.random((80, 3))
    idx = NeighborIndex(pts)
    full = idx.kth_distance_table(pts, 6)
    assert not full[:, 0].any()
    table = full[:, 1:]
    for i in (0, 17, 79):
        exp, _ = brute_kth(pts, pts[i], 3, exclude_row=i)
        assert table[i, 2] == pytest.approx(exp, abs=1e-12)


def test_unit_ball_volume_values():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == pytest.approx(np.pi, abs=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4 * np.pi / 3, abs=1e-14)
    with pytest.raises(ParameterError):
        unit_ball_volume(0)


def _factorial_unit_ball_volume(d):
    # The integer-factorial formula, which overflows from odd d = 301 and even d = 344.
    if d % 2 == 0:
        return math.pi ** (d // 2) / math.factorial(d // 2)
    return 2.0 ** ((d + 1) // 2) * math.pi ** ((d - 1) // 2) / math.prod(range(d, 0, -2))


def test_unit_ball_volume_bit_identical_where_factorials_fit():
    for d in range(1, 301):
        assert unit_ball_volume(d) == _factorial_unit_ball_volume(d)
    with pytest.raises(OverflowError):
        _factorial_unit_ball_volume(301)


@pytest.mark.parametrize("d", [301, 343, 344, 400])
def test_unit_ball_volume_at_high_d(d):
    # c_d = c_{d-2} * 2 pi / d, stepped up from the last d the factorials reach.
    start = 299 if d % 2 else 300
    expected = _factorial_unit_ball_volume(start)
    for j in range(start + 2, d + 1, 2):
        expected *= 2.0 * math.pi / j
    assert unit_ball_volume(d) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("d", [436, 1000, 10**6])
def test_unit_ball_volume_underflow_raises(d):
    assert unit_ball_volume(435) > sys.float_info.min
    with pytest.raises(ParameterError, match="underflows"):
        unit_ball_volume(d)


def test_knn_density_examples():
    assert knn_density(0.2, 1, 2, 1) == pytest.approx(1.25, abs=1e-14)
    assert knn_density(0.5, 1, 1, 1) == pytest.approx(1.0, abs=1e-14)
    # A degenerate distance is clamped.
    assert np.isfinite(knn_density(0.0, 1, 2, 1))
    with pytest.raises(ParameterError):
        knn_density(0.1, 3, 2, 1)


def test_knn_density_monotonicity_and_scaling():
    rho = np.linspace(0.05, 1.0, 30)
    for d in (1, 2, 5):
        vals = knn_density(rho, 2, 10, d)
        assert np.all(np.diff(vals) < 0)  # strictly decreasing in rho
        assert knn_density(0.3, 3, 10, d) > knn_density(0.3, 2, 10, d)
        ratio = knn_density(0.2, 2, 10, d) / knn_density(0.4, 2, 10, d)
        assert ratio == pytest.approx(2.0**d, rel=1e-12)


def block_table(idx, queries, k_max, block, return_indices=False):
    """``idx.kth_distance_table`` taking ``block`` queries per block (None: the default size)."""
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            m, d = idx.pointset.points.shape
            mp.setattr(neighbors, "SCREEN_BLOCK_BYTES", block * (4 * m + 8 * k_max * d))
        return idx.kth_distance_table(queries, k_max, return_indices=return_indices)


@pytest.mark.parametrize("leave_one_out", [False, True])
@pytest.mark.parametrize("k_max", [1, 6, 13, 59])
def test_kth_distance_table_rows_break_ties_by_row(leave_one_out, k_max):
    # Integer lattice points with repeats: many exact ties, also at the k_max
    # cut.  Leave-one-out rows are the member queries' tables one column
    # deeper; their rows are checked on that self-inclusive table.
    rng = np.random.default_rng(23)
    pts = rng.integers(0, 4, size=(60, 2)).astype(float)
    idx = NeighborIndex(pts)
    queries = pts if leave_one_out else rng.integers(0, 4, size=(25, 2)).astype(float)
    depth = k_max + leave_one_out
    dist, rows = block_table(idx, queries, depth, 7, return_indices=True)
    plain = block_table(idx, queries, depth, 7)
    assert np.array_equal(dist, plain)
    for i, q in enumerate(queries):
        d2 = ((pts - q) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(pts)), d2))
        assert np.array_equal(rows[i], order[:depth])
        assert np.array_equal(dist[i], np.sqrt(d2[order[:depth]]))
        if leave_one_out:
            own_out = order[order != i][:k_max]
            assert np.array_equal(dist[i, 1:], np.sqrt(d2[own_out]))


@pytest.mark.parametrize("return_indices", [False, True])
def test_kth_distance_table_rows_break_ties_at_the_cut(return_indices):
    # The first k - 1 distances are distinct and the k-th ties with 60 more
    # entries, so only the tie rule picks the k-th row.
    rng = np.random.default_rng(29)
    for k in range(1, 8):
        near = np.column_stack([0.1 * np.arange(1, k), np.zeros(k - 1)])
        ring = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        pts = np.vstack([near, ring[rng.integers(0, 4, size=60)]])[rng.permutation(k + 59)]
        table = NeighborIndex(pts).kth_distance_table(np.zeros((3, 2)), k,
                                                    return_indices=return_indices)
        d2 = (pts**2).sum(axis=1)
        order = np.lexsort((np.arange(len(pts)), d2))[:k]
        dist = table[0] if return_indices else table
        assert np.array_equal(dist, np.broadcast_to(np.sqrt(d2[order]), (3, k)))
        if return_indices:
            assert np.array_equal(table[1], np.broadcast_to(order, (3, k)))


def difference_form_table(pts, queries, k_max, leave_one_out=False):
    """Oracle: the full (queries, M, d) difference tensor, one exact sort per row.

    Squared distances are ``einsum`` over the difference tensor, the
    arithmetic the engine's refine step uses; each row is ordered by
    (squared distance, row) and cut at ``k_max``.
    """
    diff = queries[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    if leave_one_out:
        d2[np.arange(len(queries)), np.arange(len(queries))] = np.inf
    cols = np.broadcast_to(np.arange(len(pts)), d2.shape)
    order = np.lexsort((cols, d2), axis=1)[:, :k_max]
    return np.sqrt(np.take_along_axis(d2, order, axis=1)), order


def _engine_cases():
    rng = np.random.default_rng(41)
    uniform = rng.random((300, 7))
    offset = 1e6 + 1e-3 * rng.random((200, 3))
    base = rng.random((40, 2))
    dups = base[rng.integers(0, 40, size=150)]
    lattice = rng.integers(0, 4, size=(120, 3)).astype(float)
    line = rng.random((90, 1))
    cases = {
        # name: (points, outside queries, k_max values, block)
        "uniform": (uniform, rng.random((50, 7)), (1, 17, 299), 64),
        "offset_1e6": (offset, 1e6 + 1e-3 * rng.random((50, 3)), (1, 17, 199), 64),
        "duplicates": (dups, base[:30], (1, 17, 149), 64),
        "lattice": (lattice, rng.integers(0, 4, size=(40, 3)).astype(float), (1, 17, 119), 64),
        "block_not_dividing_n": (uniform[:101], rng.random((37, 7)), (5, 100), 13),
        "d1": (line, rng.random((33, 1)), (1, 17, 89), 256),
    }
    # A shell of radius 1 + 1e-9 U around the origin between an inner and an
    # outer cloud: k_max = 100 cuts through it, and its distances differ far
    # below float32's resolution.
    direction = rng.normal(size=(260, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = np.concatenate([0.5 * rng.random(30), 1 + 1e-9 * rng.random(200),
                             2 + rng.random(30)])
    shell = direction * radius[:, None]
    # Squared distances overflow float64, or fall into its subnormal range;
    # near 1e308 the coordinates' sum overflows too.
    huge = 1e160 * rng.random((50, 2))
    near_max = 1.6e308 * rng.random((50, 2))
    tiny = 1e-160 * rng.integers(0, 1000, size=(80, 2))
    subnormal = 5e-324 * rng.integers(0, 50, size=(40, 2))
    cases.update({
        "near_tie_shell": (shell, 1e-12 * rng.random((5, 3)), (29, 100, 229), None),
        "overflow_1e160": (huge, 1e160 * rng.random((20, 2)), (1, 3, 49), None),
        "overflow_1e308": (near_max, 1.6e308 * rng.random((20, 2)), (1, 3, 49), None),
        "underflow_1e-160": (tiny, 1e-160 * rng.integers(0, 1000, size=(20, 2)), (1, 9, 79),
                             None),
        "subnormal": (subnormal, 5e-324 * rng.integers(0, 50, size=(9, 2)), (1, 39), None),
        "d400": (rng.random((60, 400)), rng.random((10, 400)), (1, 17, 59), None),
    })
    # The reference's spread is 1e-22 of the outside queries', so its scaled
    # coordinates square into float32's subnormals; half the queries sit
    # inside it.
    speck = 1e-22 * rng.random((80, 3))
    cases["far_queries"] = (speck, np.vstack([speck[:10] + 1e-23, rng.random((10, 3))]),
                            (1, 20, 79), None)

    # A constant column sets the magnitude scale far above the other
    # column's spread: that column underflows when scaled to below 1, or its
    # squared differences underflow in the refine.
    def spread_column(constant, scale, n):
        return np.column_stack([np.full(n, constant), scale * rng.random(n)])

    cases["subnormal_when_scaled"] = (spread_column(2.0**1000, 2.0**-66, 80),
                                      spread_column(2.0**1000, 2.0**-66, 10), (1, 20, 79), None)
    cases["subnormal_in_refine"] = (spread_column(1.0, 2.0**-540, 80),
                                    spread_column(1.0, 2.0**-540, 10), (1, 20, 79), None)
    return cases


ENGINE_CASES = _engine_cases()


def _engine_mismatches(name):
    """(leave_one_out, k_max) pairs whose tables differ from the oracle's.

    Leave-one-out tables are the member queries' tables one column deeper:
    column 0 must be all 0, the rest must equal the leave-one-out oracle's
    distances, as must ``neighbor_tables``' x->x table, and the rows are
    checked on the whole self-inclusive table.
    """
    pts, outside, k_values, block = ENGINE_CASES[name]
    idx = NeighborIndex(pts)
    bad = []
    for leave_one_out, queries in ((False, outside), (True, pts)):
        for k_max in k_values:
            k_max = min(k_max, len(pts) - leave_one_out)
            depth = k_max + leave_one_out
            exp_d, exp_r = difference_form_table(pts, queries, depth)
            plain = block_table(idx, queries, depth, block)
            dist, rows = block_table(idx, queries, depth, block, return_indices=True)
            ok = (np.array_equal(plain, exp_d) and np.array_equal(dist, exp_d)
                  and np.array_equal(rows, exp_r))
            if leave_one_out:
                loo_d, _ = difference_form_table(pts, queries, k_max, leave_one_out=True)
                ok = (ok and not plain[:, 0].any() and np.array_equal(plain[:, 1:], loo_d)
                      and np.array_equal(dist[:, 1:], loo_d)
                      and np.array_equal(neighbor_tables(idx.pointset, idx.pointset, k_max)[1],
                                         loo_d))
            if not ok:
                bad.append((leave_one_out, k_max))
    return bad


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_table_bit_identical_to_difference_form(name):
    assert _engine_mismatches(name) == []


@pytest.mark.parametrize("name", ["uniform", "offset_1e6", "duplicates", "lattice", "d1"])
def test_one_row_tables_bit_identical_to_difference_form(name):
    # Each query alone, members and outside queries, at every depth up to M.
    pts, outside, _, _ = ENGINE_CASES[name]
    idx = NeighborIndex(pts)
    m = len(pts)
    queries = np.vstack([pts[:5], outside[:5]])
    exp_d, exp_r = difference_form_table(pts, queries, m)
    for i, q in enumerate(queries):
        for k in (1, 2, 17, m):
            dist, rows = idx.kth_distance_table(q[None], k, return_indices=True)
            assert np.array_equal(dist[0], exp_d[i, :k]) and np.array_equal(rows[0], exp_r[i, :k])


def test_leave_one_out_keeps_own_duplicate_at_zero():
    # Both copies head both rows, in row order; without column 0 each row
    # still holds one of them at distance 0, and no other row does.
    rng = np.random.default_rng(43)
    pts = rng.random((30, 3))
    pts[7] = pts[3]
    dist, rows = NeighborIndex(pts).kth_distance_table(pts, 4, return_indices=True)
    assert rows[3, :2].tolist() == [3, 7] and rows[7, :2].tolist() == [3, 7]
    assert not dist[:, 0].any()
    assert np.flatnonzero(dist[:, 1] == 0.0).tolist() == [3, 7]


def test_zero_slack_misses_lattice_ties(monkeypatch):
    # The screen's slack is what admits ties at the cut: without it the
    # rounding of the expanded form drops some tied rows on a lattice.
    monkeypatch.setattr(neighbors, "SCREEN_SLACK", 0.0)
    assert _engine_mismatches("lattice") != []


def test_float64_sized_slack_misses_near_tie_shell(monkeypatch):
    # The float32 screen needs the float32 error bound: at a float64-sized
    # slack it cannot tell the shell's distances apart.
    eps32, eps64 = np.finfo(np.float32).eps, np.finfo(np.float64).eps
    monkeypatch.setattr(neighbors, "SCREEN_SLACK", neighbors.SCREEN_SLACK * eps64 / eps32)
    assert _engine_mismatches("near_tie_shell") != []


def test_candidates_select_through_negative_screen_values():
    # Rounding can screen a zero distance below 0, and negative floats read
    # as integers in reverse order: the k-th smallest must still be covered.
    from divknn.neighbors import _candidates

    screen = np.array([[-3.0, -2.0, -1.0, 5.0, 6.0]], dtype=np.float32)
    cand, pad = _candidates(screen, 3, np.array([0.5]))
    assert pad is None and cand.tolist() == [[0, 1, 2]]


def take_along_refine(pts, queries, cand, pad, k):
    """Reference for an indexed refine: a stable sort per row, read by take_along_axis."""
    d2 = np.einsum("ijk,ijk->ij", pts[cand] - queries[:, None, :], pts[cand] - queries[:, None, :])
    d2[pad] = np.inf
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(d2, order, axis=1), np.take_along_axis(cand, order, axis=1)


def test_refine_with_rows_on_a_ragged_block():
    # Candidate rows of different lengths, padded as _candidates pads them,
    # over references with repeated points (ties within and beyond the k
    # smallest); and every reference in row order, as a broadcast row.
    from divknn.neighbors import _refine

    rng = np.random.default_rng(23)
    base = rng.integers(0, 4, size=(30, 2)).astype(np.float64)
    pts = np.vstack([base, base[:12], rng.random((18, 2))])
    queries = np.vstack([pts[:6], rng.integers(0, 4, size=(8, 2)) + 0.5, rng.random((6, 2))])
    counts = rng.integers(5, 25, size=len(queries))
    width = int(counts.max())
    cand = np.zeros((len(queries), width), dtype=np.int64)
    for i, c in enumerate(counts):
        cand[i, :c] = np.sort(rng.choice(len(pts), size=c, replace=False))
    pad = np.arange(width) >= counts[:, None]
    every = np.broadcast_to(np.arange(len(pts)), (len(queries), len(pts)))
    no_pad = np.zeros(every.shape, dtype=bool)
    for k in (1, 3, 5):
        got = _refine(pts, queries, cand, pad, k, True)
        want = take_along_refine(pts, queries, cand, pad, k)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        got = _refine(pts, queries, every, None, k, True)
        want = take_along_refine(pts, queries, every, no_pad, k)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # k equal to the width: no (k + 1)-th value to look for ties against.
    got = _refine(pts, queries, every, None, len(pts), True)
    want = take_along_refine(pts, queries, every, no_pad, len(pts))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("name", ["uniform", "lattice", "near_tie_shell", "d400"])
def test_table_independent_of_block_size(name, monkeypatch):
    pts, outside, k_values, _ = ENGINE_CASES[name]
    idx = NeighborIndex(pts)
    k_max = k_values[1]
    blocks = []
    candidates = neighbors._candidates

    def spy(screen, k, slack):
        blocks.append(len(screen))
        return candidates(screen, k, slack)

    monkeypatch.setattr(neighbors, "_candidates", spy)
    for leave_one_out, queries in ((False, outside), (True, pts)):
        depth = k_max + leave_one_out
        dist, rows = idx.kth_distance_table(queries, depth, return_indices=True)
        for block in (1, 7):
            blocks.clear()
            got = block_table(idx, queries, depth, block, return_indices=True)
            assert np.array_equal(got[0], dist) and np.array_equal(got[1], rows)
            # One screen per block of exactly ``block`` queries, bar the last.
            n = len(queries)
            assert blocks == [min(block, n - start) for start in range(0, n, block)]


@pytest.mark.parametrize("name", ["overflow_1e160", "overflow_1e308"])
def test_overflowing_distances_order_by_row_without_warning(name):
    pts = ENGINE_CASES[name][0]
    exp_d, exp_r = difference_form_table(pts, pts[:1], 3)
    assert exp_r.tolist() == [[0, 1, 2]] and exp_d[0, 0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist, rows = NeighborIndex(pts).kth_distance_table(pts[:1], 3, return_indices=True)
    assert np.array_equal(dist, exp_d) and np.array_equal(rows, exp_r)


def test_index_unaffected_by_writes_to_callers_array():
    a = np.array([[0.0], [0.9]])
    idx = NeighborIndex(a)
    dist, rows = idx.kth_distance_table([[0.1]], 1, return_indices=True)
    assert (dist[0, 0], rows[0, 0]) == (0.1, 0)
    a[0, 0] = 5.0
    dist, rows = idx.kth_distance_table([[0.1]], 1, return_indices=True)
    assert (dist[0, 0], rows[0, 0]) == (0.1, 0)
    assert not idx.pointset.points.flags.writeable


@pytest.mark.parametrize("queries", [
    np.zeros((4, 1)),  # wrong dimension: used to broadcast silently
    np.zeros((4, 5)),
    np.zeros(3),  # 1-D
    np.zeros((2, 3, 1)),
    np.array([[0.1, np.nan, 0.2]]),
    np.array([[0.1, np.inf, 0.2]]),
])
def test_kth_distance_table_rejects_bad_queries(queries):
    idx = NeighborIndex(np.random.default_rng(47).random((10, 3)))
    with pytest.raises(ParameterError, match="queries|finite"):
        idx.kth_distance_table(queries, 2)


@pytest.mark.parametrize("m, d, n_queries, leave_one_out", [
    (1600, 7, None, True),
    (5000, 1, 300, False),
    # One row of the product is past the bound, so rows are cut into columns.
    (9000, 30, 5, False),
])
def test_screen_products_stay_within_the_single_thread_bound(monkeypatch, m, d, n_queries,
                                                             leave_one_out):
    rng = np.random.default_rng(53)
    pts = rng.random((m, d))
    queries = pts if leave_one_out else rng.random((n_queries, d))
    sizes = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        sizes.append(a.shape[0] * b.shape[1] * a.shape[1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    depth = 40 + leave_one_out
    dist, rows = NeighborIndex(pts).kth_distance_table(queries, depth, return_indices=True)
    monkeypatch.undo()
    assert sizes and max(sizes) <= neighbors.SCREEN_PRODUCT_SIZE
    # Every entry of every screen is computed once.
    assert sum(sizes) == len(queries) * m * (d + 2)
    # The oracle's leading rows; for member queries also without column 0,
    # against the oracle that leaves out each query's own point.
    exp_d, exp_r = difference_form_table(pts, queries[:300], depth)
    assert np.array_equal(dist[:300], exp_d) and np.array_equal(rows[:300], exp_r)
    if leave_one_out:
        loo_d, _ = difference_form_table(pts, queries[:300], 40, leave_one_out=True)
        assert np.array_equal(dist[:300, 1:], loo_d)
