import numpy as np
import pytest

from divknn import (
    ParameterError,
    PointSet,
    TruncatedGaussianSpec,
    knn_density,
    make_functional,
    plugin_estimate,
    plugin_profile,
    sample_truncated_gaussian,
)
from divknn.functionals import _denominator_profile, _density_denominators, neighbor_tables


def test_builtin_forms():
    renyi = make_functional("renyi_integral", alpha=0.5)
    assert renyi.eval(1.0, 4.0) == pytest.approx(0.5, abs=1e-15)
    kl = make_functional("kl")
    for t in (0.1, 1.0, 7.5):
        assert kl.eval(t, t) == pytest.approx(0.0, abs=1e-15)
    l2 = make_functional("l2")
    assert l2.eval(3.0, 1.0) == pytest.approx(4.0, abs=1e-15)
    assert make_functional("reverse_kl").eval(2.0, 4.0) == pytest.approx(np.log(2.0))
    assert make_functional("shannon_entropy").eval(99.0, np.e) == pytest.approx(-1.0)


def test_diagonal_identities():
    t = np.array([1e-6, 0.5, 1.0, 100.0])
    assert np.allclose(make_functional("renyi_integral", alpha=0.3).eval(t, t), 1.0)
    assert np.allclose(make_functional("kl").eval(t, t), 0.0)
    assert np.allclose(make_functional("l2").eval(t, t), 0.0)


def test_bad_functional_parameters():
    with pytest.raises(ParameterError):
        make_functional("renyi_integral", alpha=1.0)
    with pytest.raises(ParameterError):
        make_functional("no_such_functional")
    with pytest.raises(ParameterError):
        make_functional("custom")  # missing g


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
    r = plugin_estimate(x, y, 1, 1, make_functional("kl"), mode="robust")
    assert r.degeneracy_count >= 2  # the duplicated pair collapses both ways
    with pytest.raises(Exception, match="degenerate"):
        plugin_estimate(x, y, 1, 1, make_functional("kl"), mode="strict")


def test_strict_plugin_does_not_clip_densities():
    # Points 1e-6 apart in d=3 have densities near 1e18, above EVAL_CEIL, and
    # no distance near DEGENERATE_RHO: strict mode evaluates g on the densities
    # themselves, robust mode on the clipped ones.
    rng = np.random.default_rng(41)
    x = PointSet(1e-6 * rng.random((50, 3)))
    y = PointSet(1e-6 * rng.random((40, 3)))
    kl = make_functional("kl")
    t1, t2 = neighbor_tables(x, y, 5)
    f1, f2 = knn_density(t1[:, 2], 3, y.n, 3), knn_density(t2[:, 4], 5, x.n - 1, 3)
    assert min(f1.min(), f2.min()) > 1e12
    strict = plugin_estimate(x, y, 3, 5, kl, mode="strict")
    assert strict.value == float(np.mean(kl.eval(f1, f2))) != 0.0
    assert strict.degeneracy_count == 0
    assert plugin_estimate(x, y, 3, 5, kl).value == 0.0  # both densities clip to EVAL_CEIL


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
    return _denominator_profile(_density_denominators(rho1, y.n, x.dim),
                                _density_denominators(rho2, x.n - 1, x.dim), ks, spec, weights)


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
    """Reference: one density evaluation, clip and mean per k."""
    t1, t2 = neighbor_tables(x, y, max(ks))
    w = np.ones(x.n, dtype=int) if outer_weights is None else outer_weights
    values, degs = [], []
    for k in ks:
        f1 = np.clip(knn_density(t1[:, k - 1], k, y.n, x.dim), 1e-12, 1e12)
        f2 = np.clip(knn_density(t2[:, k - 1], k, x.n - 1, x.dim), 1e-12, 1e12)
        values.append(np.dot(w, spec.eval(f1, f2)) / np.sum(w))
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
