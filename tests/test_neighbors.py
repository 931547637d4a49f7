import math
import sys
import warnings

import numpy as np
import pytest

from divknn import (
    DegeneracyError,
    ParameterError,
    PointSet,
    build_index,
    knn_density,
    kth_nn_distance,
    unit_ball_volume,
)


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
    idx = build_index(np.array([[0.25]]))
    assert idx.size == 1
    assert idx.kth_nn_distance([0.25], 1) == 0.0


def test_duplicate_rows_build():
    idx = build_index(np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.2]]))
    assert idx.size == 3


def test_member_query_excludes_self():
    idx = build_index(np.array([[0.0], [0.5], [0.9]]))
    assert idx.kth_nn_distance([0.0], 1, exclude_self=True) == pytest.approx(0.5, abs=1e-15)


def test_self_distance_zero_without_exclusion():
    idx = build_index(np.array([[0.3, 0.7]]))
    assert idx.kth_nn_distance([0.3, 0.7], 1, exclude_self=False) == 0.0


def test_nonmember_query():
    idx = build_index(np.array([[0.2], [0.8]]))
    assert idx.kth_nn_distance([0.4], 2) == pytest.approx(0.4, abs=1e-15)


def test_k_out_of_range_message():
    idx = build_index(np.array([[0.2], [0.8]]))
    with pytest.raises(ParameterError, match="k=3.*M=2"):
        kth_nn_distance(idx, [0.4], 3)
    with pytest.raises(ParameterError, match="k=2.*M=1"):
        kth_nn_distance(idx, [0.2], 2, exclude_self=True)


@pytest.mark.parametrize("n,d,seed", [(50, 1, 0), (200, 2, 1), (500, 3, 2), (1000, 7, 3)])
def test_matches_brute_force(n, d, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    idx = build_index(pts)
    for _ in range(25):
        q = rng.random(d)
        k = int(rng.integers(1, min(n, 40) + 1))
        got_d, got_i = idx.kth_nn(q, k)
        exp_d, exp_i = brute_kth(pts, q, k)
        assert abs(got_d - exp_d) < 1e-12
        assert got_i == exp_i


def test_tie_break_ascending_row_index():
    # Three reference points at identical distance from the query.
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [5.0, 5.0]])
    idx = build_index(pts)
    assert idx.kth_nn([0.0, 0.0], 1)[1] == 0
    assert idx.kth_nn([0.0, 0.0], 2)[1] == 1
    assert idx.kth_nn([0.0, 0.0], 3)[1] == 2


def test_monotone_in_k():
    rng = np.random.default_rng(7)
    pts = rng.random((120, 3))
    idx = build_index(pts)
    q = rng.random(3)
    dists = [idx.kth_nn_distance(q, k) for k in range(1, 121)]
    assert all(a <= b + 1e-15 for a, b in zip(dists, dists[1:]))


def test_translation_invariance():
    rng = np.random.default_rng(11)
    pts = rng.random((90, 2))
    shift = np.array([13.5, -2.25])
    idx1 = build_index(pts)
    idx2 = build_index(pts + shift)
    q = rng.random(2)
    for k in (1, 5, 30):
        a = idx1.kth_nn_distance(q, k)
        b = idx2.kth_nn_distance(q + shift, k)
        assert abs(a - b) < 1e-12


def test_kth_distance_table_matches_single_queries():
    rng = np.random.default_rng(13)
    pts = rng.random((150, 2))
    queries = rng.random((20, 2))
    idx = build_index(pts)
    table = idx.kth_distance_table(queries, 10)
    for i, q in enumerate(queries):
        for k in (1, 4, 10):
            assert table[i, k - 1] == pytest.approx(idx.kth_nn_distance(q, k), abs=1e-12)


def test_kth_distance_table_leave_one_out():
    rng = np.random.default_rng(17)
    pts = rng.random((80, 3))
    idx = build_index(pts)
    table = idx.kth_distance_table(pts, 5, leave_one_out=True)
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
    with pytest.raises(DegeneracyError, match="degenerate"):
        knn_density(0.0, 1, 2, 1, mode="strict")
    # Robust mode clamps instead.
    assert np.isfinite(knn_density(0.0, 1, 2, 1, mode="robust"))
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


@pytest.mark.parametrize("leave_one_out", [False, True])
@pytest.mark.parametrize("k_max", [1, 6, 13, 59])
def test_kth_distance_table_rows_break_ties_by_row(leave_one_out, k_max):
    # Integer lattice points with repeats: many exact ties, also at the k_max cut.
    rng = np.random.default_rng(23)
    pts = rng.integers(0, 4, size=(60, 2)).astype(float)
    idx = build_index(pts)
    queries = pts if leave_one_out else rng.integers(0, 4, size=(25, 2)).astype(float)
    dist, rows = idx.kth_distance_table(queries, k_max, leave_one_out=leave_one_out,
                                        block=7, return_indices=True)
    plain = idx.kth_distance_table(queries, k_max, leave_one_out=leave_one_out, block=7)
    assert np.array_equal(dist, plain)
    for i, q in enumerate(queries):
        d2 = ((pts - q) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(pts)), d2))
        if leave_one_out:
            order = order[order != i]
        assert np.array_equal(rows[i], order[:k_max])
        assert np.array_equal(dist[i], np.sqrt(d2[order[:k_max]]))


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
    pts, outside, k_values, block = ENGINE_CASES[name]
    idx = build_index(pts)
    bad = []
    for leave_one_out, queries in ((False, outside), (True, pts)):
        for k_max in k_values:
            k_max = min(k_max, len(pts) - leave_one_out)
            exp_d, exp_r = difference_form_table(pts, queries, k_max, leave_one_out)
            plain = idx.kth_distance_table(queries, k_max, leave_one_out, block=block)
            dist, rows = idx.kth_distance_table(queries, k_max, leave_one_out, block=block,
                                                return_indices=True)
            if not (np.array_equal(plain, exp_d) and np.array_equal(dist, exp_d)
                    and np.array_equal(rows, exp_r)):
                bad.append((leave_one_out, k_max))
    return bad


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_table_bit_identical_to_difference_form(name):
    assert _engine_mismatches(name) == []


@pytest.mark.parametrize("name", ["uniform", "offset_1e6", "duplicates", "lattice", "d1"])
def test_kth_nn_bit_identical_to_difference_form(name):
    pts, outside, _, _ = ENGINE_CASES[name]
    idx = build_index(pts)
    m = len(pts)
    exp_d, exp_r = difference_form_table(pts, outside[:5], m)
    for i, q in enumerate(outside[:5]):
        for k in (1, 2, 17, m):
            assert idx.kth_nn(q, k) == (exp_d[i, k - 1], exp_r[i, k - 1])
    # Member queries with exclude_self drop the lowest-row zero-distance entry.
    exp_d, exp_r = difference_form_table(pts, pts[:5], m)
    for i in range(5):
        first_zero = np.flatnonzero(exp_d[i] == 0.0)[:1]
        row_d, row_r = np.delete(exp_d[i], first_zero), np.delete(exp_r[i], first_zero)
        for k in (1, 2, 17, m - 1):
            assert idx.kth_nn(pts[i], k, exclude_self=True) == (row_d[k - 1], row_r[k - 1])


def test_leave_one_out_keeps_own_duplicate_at_zero():
    rng = np.random.default_rng(43)
    pts = rng.random((30, 3))
    pts[7] = pts[3]
    dist, rows = build_index(pts).kth_distance_table(pts, 3, leave_one_out=True,
                                                     return_indices=True)
    assert (dist[3, 0], rows[3, 0]) == (0.0, 7)
    assert (dist[7, 0], rows[7, 0]) == (0.0, 3)
    assert np.flatnonzero(dist[:, 0] == 0.0).tolist() == [3, 7]


def test_zero_slack_misses_lattice_ties(monkeypatch):
    # The screen's slack is what admits ties at the cut: without it the
    # rounding of the expanded form drops some tied rows on a lattice.
    import divknn.neighbors as neighbors

    monkeypatch.setattr(neighbors, "SCREEN_SLACK", 0.0)
    assert _engine_mismatches("lattice") != []


def test_float64_sized_slack_misses_near_tie_shell(monkeypatch):
    # The float32 screen needs the float32 error bound: at a float64-sized
    # slack it cannot tell the shell's distances apart.
    import divknn.neighbors as neighbors

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


@pytest.mark.parametrize("name", ["uniform", "lattice", "near_tie_shell", "d400"])
def test_table_independent_of_block_size(name):
    pts, outside, k_values, _ = ENGINE_CASES[name]
    idx = build_index(pts)
    k_max = k_values[1]
    for leave_one_out, queries in ((False, outside), (True, pts)):
        dist, rows = idx.kth_distance_table(queries, k_max, leave_one_out, return_indices=True)
        for block in (1, 7):
            got = idx.kth_distance_table(queries, k_max, leave_one_out, block=block,
                                         return_indices=True)
            assert np.array_equal(got[0], dist) and np.array_equal(got[1], rows)


@pytest.mark.parametrize("name", ["overflow_1e160", "overflow_1e308"])
def test_overflowing_distances_order_by_row_without_warning(name):
    pts = ENGINE_CASES[name][0]
    exp_d, exp_r = difference_form_table(pts, pts[:1], 3)
    assert exp_r.tolist() == [[0, 1, 2]] and exp_d[0, 0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist, rows = build_index(pts).kth_distance_table(pts[:1], 3, return_indices=True)
    assert np.array_equal(dist, exp_d) and np.array_equal(rows, exp_r)


def test_index_unaffected_by_writes_to_callers_array():
    a = np.array([[0.0], [0.9]])
    idx = build_index(a)
    assert idx.kth_nn([0.1], 1) == (0.1, 0)
    a[0, 0] = 5.0
    assert idx.kth_nn([0.1], 1) == (0.1, 0)
    assert not idx.pointset.points.flags.writeable


@pytest.mark.parametrize("block", [0, -3])
def test_kth_distance_table_rejects_bad_block(block):
    idx = build_index(np.random.default_rng(47).random((10, 3)))
    with pytest.raises(ParameterError, match="block"):
        idx.kth_distance_table(idx.pointset.points, 2, block=block)


@pytest.mark.parametrize("queries", [
    np.zeros((4, 1)),  # wrong dimension: used to broadcast silently
    np.zeros((4, 5)),
    np.zeros(3),  # 1-D
    np.zeros((2, 3, 1)),
    np.array([[0.1, np.nan, 0.2]]),
    np.array([[0.1, np.inf, 0.2]]),
])
def test_kth_distance_table_rejects_bad_queries(queries):
    idx = build_index(np.random.default_rng(47).random((10, 3)))
    with pytest.raises(ParameterError, match="queries|finite"):
        idx.kth_distance_table(queries, 2)
