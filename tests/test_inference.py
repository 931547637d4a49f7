import numpy as np
import pytest

from divknn import (
    DegeneracyError,
    EnsembleConfig,
    ParameterError,
    PointSet,
    TruncatedGaussianSpec,
    bootstrap_replicates,
    bootstrap_std,
    confidence_interval,
    ensemble_estimate,
    make_functional,
    normal_cdf,
    normal_quantile,
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


# --- bootstrap replicates through resample multiplicities ---------------------


def explicit_replicates(x, y, config, spec, reps, seed, mode="robust"):
    """The definition of a replicate: ensemble_estimate on the resampled points."""
    weights = solve_weights(config)
    values = np.empty(reps)
    for r in range(reps):
        ix = rng_stream(seed, inference._BOOT_STREAM_X + r).integers(0, x.n, size=x.n)
        iy = rng_stream(seed, inference._BOOT_STREAM_Y + r).integers(0, y.n, size=y.n)
        values[r] = ensemble_estimate(PointSet(x.points[ix]), PointSet(y.points[iy]), config,
                                      spec, mode=mode, weights=weights).value
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


def test_resampled_table_when_no_reference_is_drawn():
    # A leave-one-out query drawn twice whose every neighbor was left out.
    table, short = inference._resampled_table(np.array([[0.5, 0.7]]), np.zeros((1, 2), int),
                                              np.array([1]), 2)
    assert table[0, 0] == 0.0 and short.tolist() == [True]


def test_strict_mode_raises_exactly_when_explicit_does():
    cases = [
        # k = 1 is zero for any point drawn twice: every replicate degenerates.
        resample_setup("odin1", 1, 200, l_values=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5), k_min=1),
        resample_setup("odin2", 3, 200, seed=1, l_values=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
                       k_min=1),
        # k >= 5 at N = 12 needs one point drawn six times.
        resample_setup("odin1", 1, 12, l_values=tuple(np.linspace(1.5, 3.0, 6))),
        resample_setup("odin1", 3, 12, seed=3, l_values=tuple(np.linspace(1.5, 3.0, 6))),
    ]
    outcomes = []
    for x, y, config in cases:
        results = []
        for fn in (bootstrap_replicates, explicit_replicates):
            try:
                results.append(fn(x, y, config, RENYI, reps=10, seed=6, mode="strict"))
            except DegeneracyError:
                results.append(None)
        fast, slow = results
        assert (fast is None) == (slow is None)
        if fast is not None:
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0)
        outcomes.append(fast is None)
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
