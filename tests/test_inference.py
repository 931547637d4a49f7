import math
import sys

import numpy as np
import pytest

from divknn import (
    DegeneracyError,
    EnsembleConfig,
    NeighborIndex,
    ParameterError,
    PointSet,
    TruncatedGaussianSpec,
    bootstrap_replicates,
    bootstrap_std,
    confidence_interval,
    ensemble_estimate,
    knn_density,
    make_functional,
    normal_cdf,
    normal_quantile,
    plugin_estimate,
    plugin_profile,
    sample_truncated_gaussian,
    solve_weights,
    two_sample_test,
)
from divknn import ensemble, inference
from divknn.synth import rng_stream

RENYI = make_functional("renyi_integral", alpha=0.5)


def small_setup(n=200, seed=0):
    f1 = TruncatedGaussianSpec(1, (0.7,), 0.1)
    f2 = TruncatedGaussianSpec(1, (0.3,), 0.1)
    y = sample_truncated_gaussian(f1, n, seed, stream=1)
    x = sample_truncated_gaussian(f2, n, seed, stream=2)
    config = EnsembleConfig(mode="odin1", l_values=tuple(np.linspace(0.5, 2.0, 6)),
                            d=1, n=n, solver="exact")
    return x, y, config


def test_normal_quantile_reference_values():
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.025) == pytest.approx(-1.959963984540054, abs=1e-12)
    # Lower tail.
    assert normal_quantile(1e-6) == pytest.approx(-4.753424308822899, abs=1e-9)
    # Upper tail (reference values: scipy.stats.norm.ppf).
    for p, z in ((1 - 1e-6, 4.753424308817087), (1 - 1e-9, 5.997807019601637),
                 (1 - 1e-12, 7.0344869100478356)):
        assert normal_quantile(p) == pytest.approx(z, abs=1e-13)
    with pytest.raises(ParameterError):
        normal_quantile(0.0)
    with pytest.raises(ParameterError):
        normal_quantile(1.0)


def test_quantile_inverts_cdf():
    for p in (1e-8, 1e-3, 0.1, 0.3, 0.5, 0.9, 0.999, 1 - 1e-8):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_normal_cdf_values():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-14)
    assert normal_cdf(-8.0) == pytest.approx(6.22096057427178e-16, rel=1e-10)


def test_ci_derived_example():
    # level=0.95, std=0.1, estimate=1.0 -> (0.804, 1.196) via z_{0.975}.
    z = normal_quantile(0.975)
    lo, hi = 1.0 - z * 0.1, 1.0 + z * 0.1
    assert lo == pytest.approx(0.80400360154599, abs=1e-10)
    assert hi == pytest.approx(1.19599639845401, abs=1e-10)


def test_bootstrap_reps_floor():
    x, y, config = small_setup()
    with pytest.raises(ParameterError):
        bootstrap_std(x, y, config, RENYI, reps=5)


def test_reps_floor_is_checked_before_any_table(monkeypatch):
    calls = []
    table = NeighborIndex.kth_distance_table

    def counting(self, *args, **kwargs):
        calls.append(len(args[0]))
        return table(self, *args, **kwargs)

    monkeypatch.setattr(NeighborIndex, "kth_distance_table", counting)
    x, y, config = small_setup()
    for run in (lambda: confidence_interval(x, y, config, RENYI, reps=9),
                lambda: two_sample_test(x, y, config, RENYI, null_value=1.0, reps=9),
                lambda: bootstrap_replicates(x, y, config, RENYI, reps=9, seed=0)):
        with pytest.raises(ParameterError, match="reps must be >= 10"):
            run()
    assert calls == []
    confidence_interval(x, y, config, RENYI, reps=10)
    assert calls == [x.n, x.n]


def test_bootstrap_deterministic():
    x, y, config = small_setup()
    a = bootstrap_replicates(x, y, config, RENYI, reps=12, seed=3)
    b = bootstrap_replicates(x, y, config, RENYI, reps=12, seed=3)
    assert np.array_equal(a, b)
    c = bootstrap_replicates(x, y, config, RENYI, reps=12, seed=4)
    assert not np.array_equal(a, c)


def test_bootstrap_prefix_stability():
    # Replicate streams are keyed by index, so the first reps of a longer run
    # match a shorter run exactly.
    x, y, config = small_setup()
    short = bootstrap_replicates(x, y, config, RENYI, reps=10, seed=1)
    long = bootstrap_replicates(x, y, config, RENYI, reps=15, seed=1)
    assert np.array_equal(short, long[:10])


def test_confidence_interval_fields_consistent():
    x, y, config = small_setup()
    r = confidence_interval(x, y, config, RENYI, level=0.95, reps=30, seed=2, null_value=1.0)
    z = normal_quantile(0.975)
    assert r.ci_low == pytest.approx(r.estimate - z * r.std_error, abs=1e-12)
    assert r.ci_high == pytest.approx(r.estimate + z * r.std_error, abs=1e-12)
    assert r.std_error > 0.0
    assert r.z_score == pytest.approx((r.estimate - 1.0) / r.std_error, abs=1e-12)
    assert r.p_value == pytest.approx(2.0 * (1.0 - normal_cdf(abs(r.z_score))), abs=1e-12)
    assert r.reject == (r.p_value < 0.05)
    assert r.bootstrap_reps == 30 and r.level == 0.95 and r.null_value == 1.0


def test_interval_widens_with_level():
    x, y, config = small_setup()
    widths = []
    for level in (0.8, 0.9, 0.99):
        r = confidence_interval(x, y, config, RENYI, level=level, reps=20, seed=2)
        widths.append(r.ci_high - r.ci_low)
    assert widths[0] < widths[1] < widths[2]


def test_two_sample_test_rejects_different_densities():
    # mu1=0.7 vs mu2=0.3 at n=400: the Renyi integral is far from 1.
    f1 = TruncatedGaussianSpec(1, (0.7,), 0.1)
    f2 = TruncatedGaussianSpec(1, (0.3,), 0.1)
    y = sample_truncated_gaussian(f1, 400, 11, stream=1)
    x = sample_truncated_gaussian(f2, 400, 11, stream=2)
    config = EnsembleConfig(mode="odin1", l_values=tuple(np.linspace(0.5, 2.0, 6)),
                            d=1, n=400, solver="exact")
    r = two_sample_test(x, y, config, RENYI, null_value=1.0, level=0.05, reps=40, seed=0)
    assert r.reject and r.p_value < 0.05


def test_two_sample_test_requires_constant_diagonal():
    x, y, config = small_setup()
    entropy = make_functional("shannon_entropy")
    with pytest.raises(ParameterError, match="diagonal"):
        two_sample_test(x, y, config, entropy, null_value=0.0)


def test_p_value_decreases_in_abs_z():
    x, y, config = small_setup()
    base = confidence_interval(x, y, config, RENYI, reps=20, seed=2)
    near = confidence_interval(x, y, config, RENYI, reps=20, seed=2,
                               null_value=base.estimate)
    far = confidence_interval(x, y, config, RENYI, reps=20, seed=2,
                              null_value=base.estimate + 10 * base.std_error)
    assert near.p_value == pytest.approx(1.0, abs=1e-12)
    assert far.p_value < near.p_value


def test_p_value_keeps_its_far_tail():
    # At |z| > 8.3, 2 (1 - Phi(|z|)) rounds to 0; erfc keeps the tail.
    x, y, config = small_setup()
    base = confidence_interval(x, y, config, RENYI, reps=20, seed=2)
    far = confidence_interval(x, y, config, RENYI, reps=20, seed=2,
                              null_value=base.estimate + 9.5 * base.std_error)
    assert far.z_score < -9
    assert far.p_value > 0.0
    assert far.p_value == math.erfc(abs(far.z_score) / math.sqrt(2.0))
    assert far.reject


def test_array_samples_equal_point_sets():
    # Every public entry point takes plain (N, d) arrays as it takes PointSets.
    x, y, config = small_setup(n=120)
    xa, ya = np.array(x.points), np.array(y.points)
    got, want = ensemble_estimate(xa, ya, config, RENYI), ensemble_estimate(x, y, config, RENYI)
    assert ((got.value, got.per_k, got.warnings, got.degeneracy_count)
            == (want.value, want.per_k, want.warnings, want.degeneracy_count))
    ks = ensemble.estimation_plan(config).ks
    for got, want in zip(plugin_profile(xa, ya, ks, RENYI), plugin_profile(x, y, ks, RENYI)):
        assert np.array_equal(got, want)
    assert plugin_estimate(xa, ya, 5, 7, RENYI) == plugin_estimate(x, y, 5, 7, RENYI)
    assert np.array_equal(bootstrap_replicates(xa, ya, config, RENYI, reps=10, seed=1),
                          bootstrap_replicates(x, y, config, RENYI, reps=10, seed=1))
    assert (bootstrap_std(xa, ya, config, RENYI, reps=10, seed=1)
            == bootstrap_std(x, y, config, RENYI, reps=10, seed=1))
    assert (confidence_interval(xa, ya, config, RENYI, reps=10, seed=1)
            == confidence_interval(x, y, config, RENYI, reps=10, seed=1))
    assert (two_sample_test(xa, ya, config, RENYI, null_value=1.0, reps=10, seed=1)
            == two_sample_test(x, y, config, RENYI, null_value=1.0, reps=10, seed=1))


# --- bootstrap replicates through resample multiplicities ---------------------


def explicit_replicates(x, y, config, spec, reps, seed):
    """The definition of a replicate: ensemble_estimate on the resampled points."""
    weights = solve_weights(config)
    values = np.empty(reps)
    for r in range(reps):
        ix = rng_stream(seed, inference._BOOT_STREAM_X + r).integers(0, x.n, size=x.n)
        iy = rng_stream(seed, inference._BOOT_STREAM_Y + r).integers(0, y.n, size=y.n)
        values[r] = ensemble_estimate(PointSet(x.points[ix]), PointSet(y.points[iy]), config,
                                      spec, weights=weights).value
    return values


def resample_setup(mode, d, n, seed=0, l_values=tuple(np.linspace(0.5, 2.0, 6)), k_min=3):
    f1 = TruncatedGaussianSpec(d, (0.7,), 0.1)
    f2 = TruncatedGaussianSpec(d, (0.3,), 0.1)
    y = sample_truncated_gaussian(f1, n, seed, stream=1)
    x = sample_truncated_gaussian(f2, n, seed, stream=2)
    return x, y, EnsembleConfig(mode, l_values, d, n, k_min=k_min)


@pytest.mark.parametrize("mode", ["odin1", "odin2"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", [12, 200])
def test_replicates_match_explicit_resamples(mode, d, n):
    x, y, config = resample_setup(mode, d, n, seed=n + d)
    fast = bootstrap_replicates(x, y, config, RENYI, reps=10, seed=5)
    slow = explicit_replicates(x, y, config, RENYI, reps=10, seed=5)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [1, 3])
def test_replicates_match_explicit_with_duplicate_points(d):
    # Exact duplicates within x, within y and across the two samples give
    # zero distances before any resampling; robust mode clamps them.
    x, y, _ = resample_setup("odin1", d, 120, seed=9)
    x = PointSet(np.vstack([x.points, x.points[:40], x.points[:10]]))
    y = PointSet(np.vstack([y.points, x.points[100:170:7], y.points[:20]]))
    config = EnsembleConfig("odin1", tuple(np.linspace(0.5, 2.0, 6)), d, x.n)
    fast = bootstrap_replicates(x, y, config, RENYI, reps=10, seed=2)
    slow = explicit_replicates(x, y, config, RENYI, reps=10, seed=2)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0)


def test_replicates_match_explicit_on_forced_fallback(monkeypatch):
    # Tables only k_max deep leave many resampled rows short, which must be
    # answered by the direct query.
    calls = []
    direct = inference._direct_rows

    def counting(*args):
        calls.append(len(args[1]))
        return direct(*args)

    monkeypatch.setattr(inference, "RESAMPLE_DEPTH", 1)
    monkeypatch.setattr(inference, "_direct_rows", counting)
    for mode, d in (("odin1", 1), ("odin2", 3)):
        x, y, config = resample_setup(mode, d, 200, seed=4)
        fast = bootstrap_replicates(x, y, config, RENYI, reps=10, seed=8)
        slow = explicit_replicates(x, y, config, RENYI, reps=10, seed=8)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0)
    assert len(calls) >= 20 and sum(calls) > 100


def distance_replicates(x, y, config, spec, reps, seed):
    """Replicates as distances read from full tables, each density by knn_density.

    Every row of a full table holds all of a resample's copies, so no row
    falls back to a direct query, and the lookup reads distances (each
    point's own entry is 0, and x->x is read one entry further for
    leave-one-out) which knn_density clamps and raises to the power d after
    the gather.
    """
    plan = ensemble.estimation_plan(config)
    ks = np.asarray(plan.ks)
    full_y = NeighborIndex(y).kth_distance_table(x.points, y.n, return_indices=True)
    full_x = NeighborIndex(x).kth_distance_table(x.points, x.n, return_indices=True)
    values = np.empty(reps)
    for r in range(reps):
        ix = rng_stream(seed, inference._BOOT_STREAM_X + r).integers(0, x.n, size=x.n)
        iy = rng_stream(seed, inference._BOOT_STREAM_Y + r).integers(0, y.n, size=y.n)
        m_x = np.bincount(ix, minlength=x.n)
        m_y = np.bincount(iy, minlength=y.n)
        support = np.flatnonzero(m_x)
        outer = m_x[support]
        rho1, short1 = inference._resampled_table(full_y[0], support, m_y[full_y[1][support]],
                                                  ks)
        rho2, short2 = inference._resampled_table(full_x[0], support, m_x[full_x[1][support]],
                                                  ks + 1)
        assert not short1.any() and not short2.any()
        f1 = np.clip(knn_density(rho1, ks[:, None], y.n, x.dim), 1e-12, 1e12)
        f2 = np.clip(knn_density(rho2, ks[:, None], x.n - 1, x.dim), 1e-12, 1e12)
        values[r] = plan.combine(plan.ks, spec.eval(f1, f2) @ outer / np.sum(outer))
    return values


@pytest.mark.parametrize("d", [1, 2, 3])
def test_denominator_replicates_equal_distance_replicates_to_the_bit(monkeypatch, d):
    # Duplicates within and across the samples, and ks from 1, so that a
    # point's own copies and clamps are read; then shallow tables, so that
    # many rows take the direct query.
    x, y, _ = resample_setup("odin1", d, 120, seed=9 + d)
    x = PointSet(np.vstack([x.points, x.points[:40], x.points[:10]]))
    y = PointSet(np.vstack([y.points, x.points[100:170:7], y.points[:20]]))
    config = EnsembleConfig("odin1", (0.1, 0.2, 0.5, 1.0, 1.5, 2.0), d, x.n, k_min=1,
                            solver="exact")
    calls = []
    direct = inference._direct_rows

    def counting(*args):
        calls.append(len(args[1]))
        return direct(*args)

    monkeypatch.setattr(inference, "_direct_rows", counting)
    want = distance_replicates(x, y, config, RENYI, reps=12, seed=4)
    assert np.array_equal(bootstrap_replicates(x, y, config, RENYI, reps=12, seed=4), want)
    assert ensemble.estimation_plan(config).ks[0] == 1
    monkeypatch.setattr(inference, "RESAMPLE_DEPTH", 1)
    assert np.array_equal(bootstrap_replicates(x, y, config, RENYI, reps=12, seed=4), want)
    assert sum(calls) > 50


def test_unreadable_distances_raise_only_where_a_replicate_reads_them():
    # Two clusters 1e160 apart: distances across them overflow to inf.  The
    # point estimate reads only within-cluster distances; a replicate raises
    # when it reads across, as knn_density raises on the distance.
    rng = np.random.default_rng(3)
    near, far = rng.random((40, 1)), 1e160 * (1.0 + 1e-10 * rng.random((40, 1)))
    x, y = PointSet(np.vstack([near, far])), PointSet(np.vstack([far, near]))
    config = EnsembleConfig("odin1", (1.0, 2.5, 4.0), 1, x.n, solver="exact")
    report = ensemble_estimate(x, y, config, RENYI)
    assert np.isfinite(report.value) and ensemble.estimation_plan(config).ks[-1] > 20
    with pytest.raises(ParameterError, match="rho must be finite"):
        explicit_replicates(x, y, config, RENYI, reps=10, seed=1)
    with pytest.raises(ParameterError, match="rho must be finite"):
        confidence_interval(x, y, config, RENYI, reps=10, seed=1)


def test_resampled_table_when_no_reference_is_drawn():
    # A leave-one-out query drawn twice whose every neighbor was left out:
    # its own entry heads the row, and its ks 1, 2 are read at 2, 3.
    table, short = inference._resampled_table(np.array([[0.0, 0.5, 0.7]]), np.array([0]),
                                              np.array([[2, 0, 0]]), [2, 3])
    assert table[0, 0] == 0.0 and short.tolist() == [True]


def repeat_table(dist, counts, k_max):
    """The definition of a resampled table: each row's list written out in full.

    Row i's resampled list is each entry of ``dist[i]`` repeated
    ``counts[i]`` times, and its table is the first ``k_max`` positions of
    that list.
    """
    flat = np.repeat(dist.ravel(), counts.ravel())
    if not flat.size:
        flat = np.zeros(1)
    total = counts.sum(axis=1)
    start = np.cumsum(total) - total
    j = np.arange(k_max)
    table = flat[np.clip(start[:, None] + j, 0, len(flat) - 1)]
    return table, total < k_max


def test_resampled_table_equals_the_written_out_lists():
    # Each case is read at every k up to k_max and at a few of them, from the
    # rows of a larger table that holds more columns than the counts cover.
    # Each row is headed by a zero-distance entry (a query's own) whose
    # count stands for its copies.
    rng = np.random.default_rng(17)
    cases = 0
    for depth, k_max in ((1, 1), (1, 3), (4, 2), (8, 4), (8, 8), (16, 8), (40, 20)):
        for dtype in (np.int32, np.int64):
            rows = 60
            dist = np.sort(rng.random((rows, depth)), axis=1)
            counts = rng.poisson(rng.choice([0.3, 1.0, 2.5]), size=(rows, depth)).astype(dtype)
            zeros = rng.integers(0, 3, size=rows).astype(dtype)
            counts[:5] = 0  # lists that hold only the head's copies
            zeros[5:10] = k_max + rng.integers(0, 3, size=5)  # the head alone fills the table
            # Lists that end exactly at k_max, and one position before it.
            for i, target in ((10, k_max), (11, k_max), (12, k_max - 1), (13, k_max - 1)):
                counts[i] = 0
                zeros[i] = target // 2
                np.add.at(counts[i], rng.integers(depth, size=target - target // 2), 1)
            dist = np.column_stack([np.zeros(rows), dist])
            counts = np.column_stack([zeros, counts])
            slow, slow_short = repeat_table(dist, counts.astype(np.int64), k_max)
            which = rng.permutation(rows + 7)[:rows]
            big = 2.0 + rng.random((rows + 7, depth + 3))
            big[which, :depth + 1] = dist
            some = np.unique(np.append(rng.integers(1, k_max + 1, size=3), k_max))
            for ks in (np.arange(1, k_max + 1), some):
                fast, fast_short = inference._resampled_table(big, which, counts, ks)
                assert fast.shape == (len(ks), rows)
                np.testing.assert_array_equal(fast_short, slow_short)
                assert not fast_short[10:12].any() and fast_short[12:14].all()
                np.testing.assert_array_equal(fast[:, ~fast_short],
                                              slow[~slow_short][:, ks - 1].T)
            cases += 1
    assert cases == 14


def test_indexed_rows_equal_the_lookup_on_whole_rows(monkeypatch):
    # Sparse multiplicities leave many rows short within the leading columns
    # (read again from the whole row) and some short on the whole row.
    lookup = inference._resampled_table
    calls = []

    def counting(dist, which, counts, ks):
        calls.append(len(counts))
        return lookup(dist, which, counts, ks)

    monkeypatch.setattr(inference, "_resampled_table", counting)
    rng = np.random.default_rng(5)
    n, k_max = 300, 40
    dist = np.sort(rng.random((n, 2 * k_max)), axis=1)
    rows = rng.integers(0, n, size=(n, 2 * k_max)).astype(np.int32)
    short_rows = rereads = 0
    for rate, ks in ((0.45, [1, 2, 5, 13, 27, 39, 40]), (0.7, range(1, k_max + 1)),
                     (1.0, [3, 40])):
        mult = rng.poisson(rate, size=n).astype(np.int32)
        support = np.flatnonzero(mult)
        calls.clear()
        ks = np.asarray(ks)
        fast, fast_short = inference._indexed_rows((dist, rows), mult, support, ks)
        rereads += len(calls) == 2 and calls[1] < calls[0]  # some rows, not all, read again
        slow, slow_short = lookup(dist, support, mult[rows[support]], ks)
        np.testing.assert_array_equal(fast_short, slow_short)
        np.testing.assert_array_equal(fast[:, ~fast_short], slow[:, ~slow_short])
        short_rows += slow_short.sum()
    assert short_rows > 0 and rereads > 0


def test_resampled_table_with_offsets_beyond_int32():
    # A head entry with more copies than int32 holds: the index arithmetic
    # switches to int64 and that row reads its head, none of it short.
    dist = np.array([[0.0, 0.1, 0.2], [0.0, 0.3, 0.4]])
    counts = np.array([[2**40, 1, 0], [0, 0, 2]])
    table, short = inference._resampled_table(dist, np.arange(2), counts, [1, 2])
    assert table.T.tolist() == [[0.0, 0.0], [0.4, 0.4]] and short.tolist() == [False, False]


def record_pool_sizes(monkeypatch):
    """Patch the replicate pool to record its worker count; returns the record."""
    sizes = []

    class Recording(inference.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(inference, "ThreadPoolExecutor", Recording)
    return sizes


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_replicates_do_not_depend_on_the_worker_count(monkeypatch, workers):
    # One setup per mode and dimension, and two whose shallow tables send
    # many rows to the direct query; each against its one-worker values, for
    # the replicates and for an interval, whose tables the pool builds.  A
    # short switch interval makes the workers interleave often.
    sizes = record_pool_sizes(monkeypatch)
    setups = [resample_setup(mode, d, 200, seed=d) + (inference.RESAMPLE_DEPTH,)
              for mode in ("odin1", "odin2") for d in (1, 3)]
    setups += [resample_setup(mode, d, 200, seed=4) + (1,)
               for mode, d in (("odin1", 1), ("odin2", 3))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for x, y, config, depth in setups:
            monkeypatch.setattr(inference, "RESAMPLE_DEPTH", depth)
            values, intervals = [], []
            for count in (1, workers):
                monkeypatch.setattr(inference, "_usable_cpus", lambda count=count: count)
                values.append(bootstrap_replicates(x, y, config, RENYI, reps=12, seed=3))
                intervals.append(confidence_interval(x, y, config, RENYI, reps=12, seed=3))
            assert np.array_equal(*values)
            assert intervals[0] == intervals[1]
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [1, 1, workers, workers] * len(setups)


def test_replicate_pool_is_sized_to_the_usable_cpus(monkeypatch):
    sizes = record_pool_sizes(monkeypatch)
    x, y, config = small_setup()
    for cpus in ({0, 1, 2}, set(range(64))):
        monkeypatch.setattr(inference.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        bootstrap_replicates(x, y, config, RENYI, reps=10, seed=1)
    # Without an affinity call, the CPU count.
    monkeypatch.delattr(inference.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(inference.os, "cpu_count", lambda: 2)
    bootstrap_replicates(x, y, config, RENYI, reps=10, seed=1)
    assert sizes == [3, 10, 2]


def strict_plugin_raises(x, y, ks):
    """Whether the strict plug-in raises at some k in ``ks``."""
    for k in ks:
        try:
            plugin_estimate(x, y, k, k, RENYI, mode="strict")
        except DegeneracyError:
            return True
    return False


@pytest.mark.parametrize("mode, d", [("odin1", 1), ("odin2", 3)])
def test_degeneracy_count_is_positive_exactly_when_strict_raises(mode, d):
    # Ensembles and intervals always clamp; their degeneracy_count stands in
    # for the strict plug-in's raise at one of the plan's ks.
    x0, y0, _ = resample_setup(mode, d, 150, seed=5)
    samples = [
        (x0, y0),  # no duplicates
        (PointSet(np.vstack([x0.points, x0.points[:20]])), y0),  # pairs within x
        (x0, PointSet(np.vstack([y0.points, x0.points[:5]]))),  # x points in y
        # One point 40 times: its distances are zero even at the large ks.
        (PointSet(np.vstack([x0.points, np.repeat(x0.points[:1], 40, axis=0)])), y0),
    ]
    outcomes = []
    for l_values, k_min in (((0.05, 0.1, 0.2, 0.3, 0.4, 0.5), 1),
                            (tuple(np.linspace(1.5, 3.0, 6)), 3)):
        for x, y in samples:
            config = EnsembleConfig(mode, l_values, d, x.n, k_min=k_min)
            raises = strict_plugin_raises(x, y, ensemble.estimation_plan(config).ks)
            report = ensemble_estimate(x, y, config, RENYI)
            interval = confidence_interval(x, y, config, RENYI, reps=10, seed=6)
            assert (report.degeneracy_count > 0) == raises
            assert (interval.degeneracy_count > 0) == raises
            outcomes.append(raises)
    assert any(outcomes) and not all(outcomes)


def test_interval_estimate_and_diagnostics_match_ensemble_estimate():
    x, y, config = small_setup()
    report = ensemble_estimate(x, y, config, RENYI)
    r = confidence_interval(x, y, config, RENYI, reps=10, seed=2)
    assert r.estimate == report.value
    assert r.degeneracy_count == report.degeneracy_count
    assert r.warnings == report.warnings
    assert r.std_error == float(np.std(bootstrap_replicates(x, y, config, RENYI, 10, 2), ddof=1))
    collide = EnsembleConfig("odin1", (0.5, 0.51, 1.0, 1.5, 2.0, 2.5), 1, x.n, solver="exact")
    t = two_sample_test(x, y, collide, RENYI, null_value=1.0, reps=10)
    assert any("k collision" in w for w in t.warnings)


def test_interval_builds_schedule_and_weights_once(monkeypatch):
    x, y, config = small_setup()
    calls = {}
    for name in ("k_schedule", "solve_weights"):
        real = getattr(ensemble, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        for module in (ensemble, inference):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    confidence_interval(x, y, config, RENYI, reps=10, seed=2)
    assert calls == {"k_schedule": 1, "solve_weights": 1}


def test_zero_variance_branches():
    # Forty copies of one point as both samples: every resample is the same
    # sample, so every replicate equals the estimate 1.0 and std_error is 0.
    pts = np.tile([0.3, 0.6], (40, 1))
    config = EnsembleConfig("odin1", (1.0,), 2, 40, k_min=1)
    at_null = confidence_interval(pts, pts, config, RENYI, reps=20, null_value=1.0)
    assert (at_null.estimate, at_null.std_error) == (1.0, 0.0)
    assert (at_null.z_score, at_null.p_value, at_null.reject) == (0.0, 1.0, False)
    off_null = confidence_interval(pts, pts, config, RENYI, reps=20, null_value=0.9)
    assert (off_null.z_score, off_null.p_value, off_null.reject) == (math.inf, 0.0, True)
    assert two_sample_test(pts, pts, config, RENYI, 1.0, reps=20).p_value == 1.0
    with pytest.raises(ParameterError, match="degenerate variance"):
        two_sample_test(pts, pts, config, RENYI, 0.9, reps=20)
