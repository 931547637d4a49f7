import numpy as np
import pytest

from divknn import (
    DegeneracyError,
    NeighborIndex,
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
