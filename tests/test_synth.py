import math
import warnings

import numpy as np
import pytest

from divknn import (
    ConfigurationError,
    FunctionalSpec,
    ParameterError,
    TruncatedGaussianSpec,
    make_functional,
    mc_truth,
    sample_truncated_gaussian,
    true_renyi_integral,
    true_value,
    truncated_gaussian_pdf,
)
from divknn.synth import _adaptive_gauss_legendre, _truncation_mass

PAPER_F1 = TruncatedGaussianSpec(1, (0.7,), 0.1)
PAPER_F2 = TruncatedGaussianSpec(1, (0.3,), 0.1)


def test_spec_validation():
    with pytest.raises(ParameterError):
        TruncatedGaussianSpec(2, (0.5, 0.5, 0.5), 0.1)
    with pytest.raises(ParameterError):
        TruncatedGaussianSpec(1, (0.5,), 0.0)
    spec = TruncatedGaussianSpec(3, (0.5,), 0.1)
    assert spec.mean == (0.5, 0.5, 0.5)  # scalar mean broadcasts


def test_samples_inside_cube():
    spec = TruncatedGaussianSpec(3, (0.7,), 0.1)
    pts = sample_truncated_gaussian(spec, 1000, seed=0)
    assert pts.n == 1000 and pts.dim == 3
    assert np.all(pts.points >= 0.0) and np.all(pts.points <= 1.0)


def test_sampler_deterministic_and_stream_separated():
    spec = TruncatedGaussianSpec(2, (0.3,), 0.1)
    a = sample_truncated_gaussian(spec, 500, seed=7, stream=1).points
    b = sample_truncated_gaussian(spec, 500, seed=7, stream=1).points
    c = sample_truncated_gaussian(spec, 500, seed=7, stream=2).points
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_symmetric_mean():
    spec = TruncatedGaussianSpec(1, (0.5,), 0.1)
    pts = sample_truncated_gaussian(spec, 10**6, seed=1)
    assert abs(pts.points.mean() - 0.5) < 0.01


def test_offcenter_mean_pulled_inward():
    pts = sample_truncated_gaussian(PAPER_F1, 10**6, seed=2)
    m = pts.points.mean()
    assert 0.5 < m < 0.7
    # Quadrature oracle for the truncated mean.
    pdf = lambda x: truncated_gaussian_pdf(PAPER_F1, x.reshape(-1, 1))
    truth = _adaptive_gauss_legendre(lambda x: x * pdf(x))
    assert abs(m - truth) < 0.01


def test_mean_too_far_outside_cube():
    with pytest.raises(ConfigurationError, match="acceptance"):
        sample_truncated_gaussian(TruncatedGaussianSpec(1, (50.0,), 0.01), 10, seed=0)


def test_pdf_normalizes():
    for spec in (PAPER_F1, PAPER_F2, TruncatedGaussianSpec(1, (0.5,), 0.02)):
        total = _adaptive_gauss_legendre(
            lambda x: truncated_gaussian_pdf(spec, x.reshape(-1, 1)))
        assert abs(total - 1.0) < 1e-10


def test_pdf_zero_outside_support():
    vals = truncated_gaussian_pdf(PAPER_F1, np.array([[-0.1], [0.5], [1.1]]))
    assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] > 0.0


def test_sampler_matches_density_chi_square():
    from scipy.stats import chi2

    spec = PAPER_F2
    pts = sample_truncated_gaussian(spec, 10**5, seed=3).points[:, 0]
    edges = np.linspace(0.0, 1.0, 21)
    observed, _ = np.histogram(pts, edges)
    centers_mass = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mass = _adaptive_gauss_legendre(
            lambda x: truncated_gaussian_pdf(spec, (lo + (hi - lo) * x).reshape(-1, 1)) * (hi - lo),
            tol=1e-12)
        centers_mass.append(mass)
    expected = np.array(centers_mass) * len(pts)
    stat = float(((observed - expected) ** 2 / expected).sum())
    p = 1.0 - chi2.cdf(stat, df=19)
    assert p > 0.001


def test_renyi_integral_identity_cases():
    assert true_renyi_integral(PAPER_F1, PAPER_F1, 0.5) == pytest.approx(1.0, abs=1e-10)
    assert true_renyi_integral(PAPER_F2, PAPER_F2, 0.37) == pytest.approx(1.0, abs=1e-10)


def test_renyi_integral_d_power_property():
    v1 = true_renyi_integral(PAPER_F1, PAPER_F2, 0.5)
    f1_7 = TruncatedGaussianSpec(7, (0.7,), 0.1)
    f2_7 = TruncatedGaussianSpec(7, (0.3,), 0.1)
    assert true_renyi_integral(f1_7, f2_7, 0.5) == pytest.approx(v1**7, abs=1e-9)
    assert 0.0 < v1 < 1.0


def test_renyi_integral_alpha_symmetry():
    a = true_renyi_integral(PAPER_F1, PAPER_F2, 0.3)
    b = true_renyi_integral(PAPER_F2, PAPER_F1, 0.7)
    assert a == pytest.approx(b, abs=1e-9)


def test_mc_truth_same_density():
    renyi = make_functional("renyi_integral", alpha=0.5)
    r = mc_truth(PAPER_F1, PAPER_F1, renyi, 10**4, seed=0)
    assert r.value == pytest.approx(1.0, abs=1e-12)  # integrand identically 1
    kl = make_functional("kl")
    r = mc_truth(PAPER_F2, PAPER_F2, kl, 10**4, seed=0)
    assert abs(r.value) <= max(3 * r.std_error, 1e-12)


def test_mc_truth_agrees_with_quadrature():
    renyi = make_functional("renyi_integral", alpha=0.5)
    quad = true_renyi_integral(PAPER_F1, PAPER_F2, 0.5)
    mc = mc_truth(PAPER_F1, PAPER_F2, renyi, 10**6, seed=5)
    assert abs(mc.value - quad) < max(4 * mc.std_error, 2e-3)


def test_mc_truth_requires_enough_samples():
    with pytest.raises(ParameterError):
        mc_truth(PAPER_F1, PAPER_F2, make_functional("kl"), 100, seed=0)


BUILTINS = ("renyi_integral", "kl", "reverse_kl", "l2", "shannon_entropy")


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", BUILTINS)
def test_true_value_agrees_with_monte_carlo(name, d):
    # The bench's densities: means 0.7 and 0.3, variance 0.1.
    f1, f2 = TruncatedGaussianSpec(d, (0.7,), 0.1), TruncatedGaussianSpec(d, (0.3,), 0.1)
    functional = make_functional(name)
    mc = mc_truth(f1, f2, functional, 2 * 10**5, seed=17)
    assert abs(true_value(f1, f2, functional) - mc.value) <= 4 * mc.std_error


@pytest.mark.parametrize("spec", [PAPER_F1, TruncatedGaussianSpec(3, (0.2, 0.5, 0.9), 0.05)])
def test_true_value_of_identical_densities(spec):
    assert true_value(spec, spec, make_functional("renyi_integral", alpha=0.37)) == pytest.approx(
        1.0, abs=1e-10)
    for name in ("kl", "reverse_kl", "l2"):
        assert true_value(spec, spec, make_functional(name)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("name", ["kl", "reverse_kl", "shannon_entropy"])
def test_additive_truths_are_sums_over_coordinates(name):
    f1_7 = TruncatedGaussianSpec(7, (0.7,), 0.1)
    f2_7 = TruncatedGaussianSpec(7, (0.3,), 0.1)
    functional = make_functional(name)
    one = true_value(PAPER_F1, PAPER_F2, functional)
    assert true_value(f1_7, f2_7, functional) == pytest.approx(7 * one, rel=1e-12, abs=0)


def test_true_value_with_underflowing_densities():
    # Variance 1e-4: both 1-d pdfs underflow to 0 over most of [0, 1], yet their
    # logs stay finite.  For equal variances KL = |mu1 - mu2|^2 / (2 variance) in the
    # limit of no truncation, which these means are 30 sigma inside.
    f1, f2 = TruncatedGaussianSpec(1, (0.4,), 1e-4), TruncatedGaussianSpec(1, (0.6,), 1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert true_value(f1, f2, make_functional("kl")) == pytest.approx(200.0, rel=1e-9)
        assert true_value(f1, f2, make_functional("reverse_kl")) == pytest.approx(200.0, rel=1e-9)


def test_true_value_rejects_what_it_cannot_integrate():
    with pytest.raises(ParameterError, match="custom"):
        true_value(PAPER_F1, PAPER_F2, make_functional("custom", g=lambda t1, t2: t1))
    with pytest.raises(ParameterError):
        true_value(PAPER_F1, PAPER_F2, FunctionalSpec("tsallis"))
    with pytest.raises(ParameterError, match="dimension"):
        true_value(PAPER_F1, TruncatedGaussianSpec(2, (0.3,), 0.1), make_functional("kl"))


def test_truncation_mass_sane():
    assert _truncation_mass(0.5, math.sqrt(0.1)) == pytest.approx(0.886, abs=1e-3)
    assert 0.0 < _truncation_mass(0.7, math.sqrt(0.1)) < 1.0
