import warnings

import numpy as np
import pytest

from divknn import (
    ConfigurationError,
    EnsembleConfig,
    ExperimentConfig,
    NeighborIndex,
    ParameterError,
    PointSet,
    TruncatedGaussianSpec,
    bootstrap_replicates,
    confidence_interval,
    ensemble_estimate,
    knn_density,
    make_functional,
    mc_truth,
    plugin_estimate,
    plugin_profile,
    sample_truncated_gaussian,
    true_renyi_integral,
    unit_ball_volume,
)
from divknn.functionals import _denominator_profile, _log_denominators, neighbor_tables


def test_builtin_forms():
    # g reads log densities: g_log(log t1, log t2) = g(t1, t2).
    renyi = make_functional("renyi_integral", alpha=0.5)
    assert renyi.g_log(np.log(1.0), np.log(4.0)) == pytest.approx(0.5, abs=1e-15)
    kl = make_functional("kl")
    for t in (0.1, 1.0, 7.5):
        assert kl.g_log(np.log(t), np.log(t)) == pytest.approx(0.0, abs=1e-15)
    l2 = make_functional("l2")
    assert l2.g_log(np.log(4.0), np.log(2.0)) == pytest.approx(2.0, abs=1e-15)
    reverse_kl = make_functional("reverse_kl")
    assert reverse_kl.g_log(np.log(2.0), np.log(4.0)) == pytest.approx(np.log(2.0))
    assert make_functional("shannon_entropy").g_log(np.log(99.0), 1.0) == pytest.approx(-1.0)


def test_diagonal_identities():
    t = np.log([1e-6, 0.5, 1.0, 100.0])
    assert np.allclose(make_functional("renyi_integral", alpha=0.3).g_log(t, t), 1.0)
    assert np.allclose(make_functional("kl").g_log(t, t), 0.0)
    assert np.allclose(make_functional("l2").g_log(t, t), 0.0)


def test_bad_functional_parameters():
    with pytest.raises(ParameterError):
        make_functional("renyi_integral", alpha=1.0)
    with pytest.raises(ParameterError):
        make_functional("no_such_functional")
    with pytest.raises(ParameterError):
        make_functional("custom")  # missing g


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_alpha_rejected(alpha):
    with pytest.raises(ParameterError, match="finite"):
        make_functional("renyi_integral", alpha=alpha)
    spec = TruncatedGaussianSpec(2, (0.5,), 0.1)
    with pytest.raises(ParameterError, match="finite"):
        true_renyi_integral(spec, spec, alpha)


def test_plugin_hand_case():
    # d=1, k1=k2=1: both x-points have rho1=0.2 into y and rho2=0.2 in x\{self},
    # so f1=1.25, f2=2.5 and the Renyi-0.5 estimate is sqrt(0.5).
    y = PointSet(np.array([[0.2], [0.8]]))
    x = PointSet(np.array([[0.4], [0.6]]))
    r = plugin_estimate(x, y, 1, 1, make_functional("renyi_integral", alpha=0.5))
    assert r.value == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert (r.n1, r.n2, r.k1, r.k2) == (2, 2, 1, 1)


def test_constant_functional_returns_constant():
    rng = np.random.default_rng(0)
    x = PointSet(rng.random((40, 2)))
    y = PointSet(rng.random((30, 2)))
    stub = make_functional("custom", g=lambda t1, t2: np.full_like(np.asarray(t1), 1.0))
    assert plugin_estimate(x, y, 3, 3, stub).value == pytest.approx(1.0, abs=0)
    stub7 = make_functional("custom", g=lambda t1, t2: 7.0 * np.ones_like(np.asarray(t1)))
    assert plugin_estimate(x, y, 2, 5, stub7).value == pytest.approx(7.0, abs=0)


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    x = PointSet(rng.random((60, 3)))
    y = PointSet(rng.random((50, 3)))
    spec = make_functional("kl")
    base = plugin_estimate(x, y, 4, 4, spec).value
    xp = PointSet(x.points[rng.permutation(60)])
    yp = PointSet(y.points[rng.permutation(50)])
    assert plugin_estimate(xp, yp, 4, 4, spec).value == pytest.approx(base, abs=1e-12)


def test_entropy_grows_under_dilation():
    rng = np.random.default_rng(9)
    pts = rng.random((200, 2))
    spec = make_functional("shannon_entropy")
    y = PointSet(rng.random((50, 2)))
    small = plugin_estimate(PointSet(pts), y, 3, 3, spec).value
    big = plugin_estimate(PointSet(3.0 * pts), y, 3, 3, spec).value
    assert big > small


def test_kl_vs_reverse_kl_by_recomputation():
    # reverse_kl on (x from f2, y from f1) must equal averaging ln(f2/f1) at the
    # same density estimates that the kl path uses with its roles swapped in g.
    rng = np.random.default_rng(21)
    x = PointSet(rng.random((80, 2)))
    y = PointSet(rng.random((80, 2)))
    rev = plugin_estimate(x, y, 5, 5, make_functional("reverse_kl")).value
    manual = make_functional("custom", g=lambda t1, t2: np.log(t2) - np.log(t1))
    assert plugin_estimate(x, y, 5, 5, manual).value == pytest.approx(rev, abs=1e-12)


def test_dimension_and_range_errors():
    x = PointSet(np.zeros((5, 2)) + np.arange(10).reshape(5, 2))
    y = PointSet(np.ones((5, 3)))
    spec = make_functional("kl")
    with pytest.raises(ParameterError, match="dimension"):
        plugin_estimate(x, y, 1, 1, spec)
    y2 = PointSet(np.arange(8.0).reshape(4, 2))
    with pytest.raises(ParameterError, match="k1"):
        plugin_estimate(x, y2, 5, 1, spec)
    with pytest.raises(ParameterError, match="k2"):
        plugin_estimate(x, y2, 2, 5, spec)


def test_degeneracy_counted_for_duplicates():
    x = PointSet(np.array([[0.5], [0.5], [0.2], [0.9]]))
    y = PointSet(np.array([[0.1], [0.3]]))
    r = plugin_estimate(x, y, 1, 1, make_functional("kl"))
    assert r.degeneracy_count >= 2  # the duplicated pair collapses both ways


@pytest.mark.parametrize("d", [7, 20])
def test_density_ratio_estimates_do_not_depend_on_the_units(d):
    # Rescaling every coordinate by s multiplies every density by s^-d, so a
    # g of the density ratio gives the same estimate at every scale while no
    # distance is clamped; l2 and the entropy read the densities themselves.
    y = sample_truncated_gaussian(TruncatedGaussianSpec(d, (0.7,), 0.09), 1000, 1, stream=1)
    x = sample_truncated_gaussian(TruncatedGaussianSpec(d, (0.3,), 0.09), 1000, 1, stream=0)
    config = ExperimentConfig().ensemble_config("odin1", d, 1000)
    scales = (2.0**-10, 2.0**10, 1e-3, 1e3)
    for name in ("renyi_integral", "kl", "reverse_kl"):
        spec = make_functional(name)
        base = ensemble_estimate(x, y, config, spec)
        assert base.degeneracy_count == 0
        for s in scales:
            scaled = ensemble_estimate(PointSet(s * x.points), PointSet(s * y.points), config,
                                       spec)
            assert scaled.value == pytest.approx(base.value, rel=1e-12, abs=0)
    renyi = make_functional("renyi_integral")
    base = bootstrap_replicates(x, y, config, renyi, reps=20, seed=3)
    for s in scales:
        scaled = bootstrap_replicates(PointSet(s * x.points), PointSet(s * y.points), config,
                                      renyi, reps=20, seed=3)
        np.testing.assert_allclose(scaled, base, rtol=1e-11, atol=0)
    for name in ("l2", "shannon_entropy"):
        spec = make_functional(name)
        base = ensemble_estimate(x, y, config, spec).value
        scaled = ensemble_estimate(PointSet(2.0 * x.points), PointSet(2.0 * y.points), config,
                                   spec).value
        assert abs(scaled - base) > 1e-3 * abs(base)


def test_plugin_is_finite_in_high_dimension():
    # At d=400, rho^d overflows or underflows float64 for most distances; the
    # log densities do not.
    rng = np.random.default_rng(3)
    x = PointSet(rng.normal(0.0, 1.0, (200, 400)))
    y = PointSet(rng.normal(0.1, 1.0, (200, 400)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = plugin_estimate(x, y, 5, 5, make_functional("renyi_integral", alpha=0.5))
    assert np.isfinite(r.value) and r.value != 1.0
    assert r.degeneracy_count == 0


@pytest.mark.parametrize("rho, match", [
    (np.inf, "rho must be finite"),
    (np.nan, "rho must be finite"),
    (-5.0, "rho must be >= 0"),
    (-np.inf, "rho must be >= 0"),
], ids=["inf", "nan", "negative", "-inf"])
def test_knn_density_raises_on_a_distance_that_is_not_finite(rho, match):
    # A negative value is no distance, so it raises rather than being clamped like a duplicate.
    with pytest.raises(ParameterError, match=match):
        knn_density(rho, 1, 2, 1)
    with pytest.raises(ParameterError, match=match):
        knn_density(np.array([0.2, rho]), 1, 2, 1)


@pytest.mark.parametrize("rho", [
    [0.3, np.inf, 0.0, np.nan, 1e-13, 2.5],
    [1e200, np.inf, 1e-300],  # 1e200 is finite, and its power d would overflow
    [1.7e308, 1e308],  # every distance finite, and their sum overflows
    [[0.5, np.nan], [np.inf, 0.25]],
])
def test_log_denominators_are_finite_exactly_at_finite_distances(rho):
    rho = np.array(rho)
    finite = np.isfinite(rho)
    table = rho.copy()
    want = _log_denominators(rho[finite], 7, 2)
    # A new array, and a table converted in place.
    dens = [_log_denominators(rho, 7, 2), _log_denominators(table, 7, 2, out=table)]
    for den in dens:
        assert np.array_equal(np.isfinite(den), finite)
        assert den[finite].tobytes() == want.tobytes()


def integer_count_calls():
    """Calls that take a count, by name: (call of the count, a good count, its error type)."""
    rng = np.random.default_rng(5)
    x, y = PointSet(rng.random((30, 1))), PointSet(rng.random((30, 1)))
    renyi = make_functional("renyi_integral", alpha=0.5)
    config = EnsembleConfig("odin1", (0.5, 1.0, 2.0), 1, x.n, solver="exact")
    spec = TruncatedGaussianSpec(1, (0.5,), 0.1)
    return {
        "experiment_dims": (lambda v: ExperimentConfig(dims=(v,), n_grid=(100, 200)), 3,
                            ConfigurationError),
        "experiment_n_grid": (lambda v: ExperimentConfig(dims=(3,), n_grid=(v, 200)), 100,
                              ConfigurationError),
        "experiment_trials": (lambda v: ExperimentConfig(trials=v), 2, ConfigurationError),
        "experiment_threads": (lambda v: ExperimentConfig(threads=v), 1, ConfigurationError),
        "experiment_plugin_k": (lambda v: ExperimentConfig(plugin_k=v), 5, ConfigurationError),
        "experiment_seed": (lambda v: ExperimentConfig(seed=v), 1, ConfigurationError),
        "unit_ball_volume": (unit_ball_volume, 3, ParameterError),
        "knn_density_m": (lambda v: knn_density(0.2, 1, v, 1), 2, ParameterError),
        "knn_density_k": (lambda v: knn_density(0.2, v, 2, 1), 1, ParameterError),
        "knn_density_k_array": (lambda v: knn_density([0.2, 0.3], np.array([v, 1]), 2, 1), 1,
                                ParameterError),
        "plugin_estimate_k1": (lambda v: plugin_estimate(x, y, v, 2, renyi), 2, ParameterError),
        "plugin_estimate_k2": (lambda v: plugin_estimate(x, y, 2, v, renyi), 2, ParameterError),
        "plugin_profile": (lambda v: plugin_profile(x, y, [v], renyi), 2, ParameterError),
        "kth_distance_table": (lambda v: NeighborIndex(y).kth_distance_table(x.points, v), 2,
                               ParameterError),
        "interval_reps": (lambda v: confidence_interval(x, y, config, renyi, reps=v, seed=1), 10,
                          ParameterError),
        "interval_seed": (lambda v: confidence_interval(x, y, config, renyi, reps=10, seed=v), 1,
                          ParameterError),
        "gaussian_dim": (lambda v: TruncatedGaussianSpec(v, (0.5,), 0.1), 2, ParameterError),
        "gaussian_sample_n": (lambda v: sample_truncated_gaussian(spec, v, 0), 10,
                              ParameterError),
        "mc_truth_n_mc": (lambda v: mc_truth(spec, spec, renyi, v, 0), 10**4, ParameterError),
    }


@pytest.mark.parametrize("name", list(integer_count_calls()))
def test_counts_must_be_integers(name):
    # A NumPy int passes; the same count plus one half raises, not truncated.
    call, good, error = integer_count_calls()[name]
    call(np.int64(good))
    with pytest.raises(error, match="must be an integer"):
        call(good + 0.5)


def test_profile_matches_individual_estimates():
    rng = np.random.default_rng(33)
    x = PointSet(rng.random((70, 2)))
    y = PointSet(rng.random((60, 2)))
    spec = make_functional("renyi_integral", alpha=0.5)
    ks = [1, 3, 7, 20]
    values, _ = plugin_profile(x, y, ks, spec)
    for k, v in zip(ks, values):
        assert v == pytest.approx(plugin_estimate(x, y, k, k, spec).value, abs=1e-12)


def test_same_sample_renyi_near_one():
    # Drawing x and y as one sample from the same density: the Renyi integral
    # of a density against itself is 1.
    spec1 = TruncatedGaussianSpec(1, (0.5,), 0.1)
    pts = sample_truncated_gaussian(spec1, 5000, seed=42)
    k = int(np.floor(np.sqrt(5000)))
    r = plugin_estimate(pts, pts, k, k, make_functional("renyi_integral", alpha=0.5))
    assert abs(r.value - 1.0) < 0.05


def profile_columns(x, y, ks, spec, tables, weights):
    """``_denominator_profile`` (the bootstrap replicates' outer mean) on table columns ``ks``."""
    cols = np.asarray(ks) - 1
    rho1, rho2 = (np.ascontiguousarray(t[:, cols].T) for t in tables)
    return _denominator_profile(_log_denominators(rho1, y.n, x.dim),
                                _log_denominators(rho2, x.n - 1, x.dim), ks, spec, weights)


def test_profile_outer_weights_match_repeated_rows():
    # Weighting row i by m_i equals listing x_i m_i times: each copy has the
    # same neighbor tables, so one row per point stands for all its copies.
    rng = np.random.default_rng(31)
    y = PointSet(rng.random((60, 2)))
    base = rng.random((40, 2))
    m = rng.integers(0, 4, size=40)
    m[:3] = (5, 0, 3)
    xs = PointSet(np.repeat(base, m, axis=0))
    first = np.cumsum(m)[m > 0] - m[m > 0]
    renyi = make_functional("renyi_integral", alpha=0.5)
    ks = [1, 2, 4, 7]
    t1, t2 = neighbor_tables(xs, y, max(ks))
    values = profile_columns(xs, y, ks, renyi, (t1[first], t2[first]), m[m > 0])
    ref_values, ref_degs = plugin_profile(xs, y, ks, renyi)
    np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0)
    assert ref_degs[0] > 0


def per_k_profile(x, y, ks, spec, outer_weights=None):
    """Reference: one log density evaluation and mean per k."""
    t1, t2 = neighbor_tables(x, y, max(ks))
    w = np.ones(x.n, dtype=int) if outer_weights is None else outer_weights
    values, degs = [], []
    for k in ks:
        l1 = np.log(knn_density(t1[:, k - 1], k, y.n, x.dim))
        l2 = np.log(knn_density(t2[:, k - 1], k, x.n - 1, x.dim))
        values.append(np.dot(w, spec.g_log(l1, l2)) / np.sum(w))
        degs.append(int(w[t1[:, k - 1] <= 1e-12].sum() + w[t2[:, k - 1] <= 1e-12].sum()))
    return np.array(values), np.array(degs)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("name", ["renyi_integral", "kl", "l2"])
def test_vectorized_profile_matches_per_k_reference(name, weighted):
    # Unweighted through plugin_profile; weighted through the replicates'
    # outer mean, whose clamp counts nothing reads.
    rng = np.random.default_rng(37)
    base = rng.random((30, 3))
    x = PointSet(base[rng.integers(0, 30, size=80)])  # duplicates: clamped densities
    y = PointSet(np.vstack([base[:10], rng.random((50, 3))]))
    spec = make_functional(name)
    ks = [1, 2, 3, 5, 8, 13, 40]
    weights = rng.integers(1, 5, size=x.n) if weighted else None
    ref_values, ref_degs = per_k_profile(x, y, ks, spec, weights)
    if weighted:
        values = profile_columns(x, y, ks, spec, neighbor_tables(x, y, max(ks)), weights)
    else:
        values, degs = plugin_profile(x, y, ks, spec)
        assert np.array_equal(degs, ref_degs)
    np.testing.assert_allclose(values, ref_values, rtol=1e-14, atol=0)
    assert ref_degs[0] > 0
