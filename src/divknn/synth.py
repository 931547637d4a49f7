"""Synthetic truncated-Gaussian data and independent ground-truth oracles.

Densities are isotropic Gaussians restricted to the unit cube [0,1]^d.
Because the covariance is sigma^2 * I and the support is axis-aligned, the
coordinates are independent 1-d truncated normals, which makes both the
sampler (per-coordinate rejection) and the truth oracle exact:
:func:`true_value` gives every built-in functional as a product or a sum of
1-d quadratures (:func:`true_renyi_integral` is its Renyi case).
:func:`mc_truth` is the independent Monte Carlo check the tests hold it to.

All randomness flows through numpy's Philox counter-based generator; a
(seed, stream) pair fully determines every draw, independent of execution
order elsewhere.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, as_index
from .neighbors import PointSet

_MIN_ACCEPT = 1e-6


def rng_stream(seed, stream=0):
    """Philox generator keyed by (seed, stream); documented, reproducible."""
    key = ((int(stream) & 0xFFFFFFFFFFFFFFFF) << 64) | (int(seed) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TruncatedGaussianSpec:
    dim: int
    mean: tuple
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "dim", as_index("dim", self.dim))
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        if mean.size == 1:
            mean = np.full(self.dim, float(mean[0]))
        if mean.size != self.dim:
            raise ParameterError("mean has %d entries for dim=%d" % (mean.size, self.dim))
        if not np.all(np.isfinite(mean)):
            raise ParameterError("mean must be finite")
        if not (self.variance > 0):
            raise ParameterError("variance must be > 0")
        object.__setattr__(self, "mean", tuple(float(m) for m in mean))

    @property
    def sigma(self):
        return math.sqrt(self.variance)


def normal_cdf(z):
    """Standard normal CDF via erfc (accurate to ~1e-16)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _truncation_mass(mu, sigma):
    """Probability mass of N(mu, sigma^2) inside [0, 1]."""
    return normal_cdf((1.0 - mu) / sigma) - normal_cdf((0.0 - mu) / sigma)


def sample_truncated_gaussian(spec, n, seed, stream=0):
    """n i.i.d. draws via per-coordinate rejection against [0, 1]."""
    n = as_index("n", n)
    if n < 1:
        raise ParameterError("n must be >= 1")
    sigma = spec.sigma
    for mu in spec.mean:
        if _truncation_mass(mu, sigma) < _MIN_ACCEPT:
            raise ConfigurationError(
                "acceptance probability below %g for coordinate mean %g" % (_MIN_ACCEPT, mu)
            )
    rng = rng_stream(seed, stream)
    out = np.empty((n, spec.dim))
    for j, mu in enumerate(spec.mean):
        accept_p = _truncation_mass(mu, sigma)
        col = np.empty(0)
        while col.size < n:
            batch = max(int((n - col.size) / accept_p * 1.1) + 16, 64)
            draws = mu + sigma * rng.standard_normal(batch)
            col = np.concatenate([col, draws[(draws >= 0.0) & (draws <= 1.0)]])
        out[:, j] = col[:n]
    return PointSet(out)


def truncated_gaussian_pdf(spec, points):
    """Exact density values of the truncated Gaussian at the given points."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != spec.dim:
        raise ParameterError("points have dim %d, spec has dim %d" % (pts.shape[1], spec.dim))
    sigma = spec.sigma
    log_pdf = np.zeros(pts.shape[0])
    for j, mu in enumerate(spec.mean):
        z = (pts[:, j] - mu) / sigma
        mass = _truncation_mass(mu, sigma)
        log_pdf += -0.5 * z * z - math.log(sigma * math.sqrt(2.0 * math.pi)) - math.log(mass)
    inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
    return np.where(inside, np.exp(log_pdf), 0.0)


def _adaptive_gauss_legendre(f, tol=1e-10, max_panels=2**20, order=16):
    """Panel-doubling composite Gauss-Legendre quadrature on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (nodes + 1.0)  # map to [0, 1]
    weights = 0.5 * weights

    def composite(panels):
        width = 1.0 / panels
        starts = np.arange(panels) * width
        x = (starts[:, None] + width * nodes[None, :]).ravel()
        w = np.tile(width * weights, panels)
        return float(np.dot(w, f(x)))

    prev = composite(1)
    panels = 2
    while panels <= max_panels:
        cur = composite(panels)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
        panels *= 2
    raise ConfigurationError("quadrature failed to reach tol=%g within %d panels" % (tol, max_panels))


def _coordinate_pdf(mu, sigma, x):
    """The pdf and the log pdf at ``x`` of one coordinate's truncated normal on [0, 1]."""
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi) * _truncation_mass(mu, sigma))
    z = (x - mu) / sigma
    q = -0.5 * z * z
    return norm * np.exp(q), math.log(norm) + q


def _coordinate_integrals(spec1, spec2, integrand):
    """Per coordinate, the quadrature over [0, 1] of integrand(p1, l1, p2, l2).

    p and l are the pdf and the log pdf of the coordinate's 1-d truncated
    normals under f1 and f2 (:func:`_coordinate_pdf`); coordinates with the
    same pair of means share one quadrature.
    """
    if spec1.dim != spec2.dim:
        raise ParameterError("specs must share the dimension")
    cache = {}
    for mu1, mu2 in zip(spec1.mean, spec2.mean):
        if (mu1, mu2) not in cache:
            cache[mu1, mu2] = _adaptive_gauss_legendre(lambda x: integrand(
                *_coordinate_pdf(mu1, spec1.sigma, x), *_coordinate_pdf(mu2, spec2.sigma, x)))
    return [cache[key] for key in zip(spec1.mean, spec2.mean)]


def true_renyi_integral(spec1, spec2, alpha):
    """Quadrature oracle for the Renyi-alpha integral of f1 against f2.

    Exploits the per-coordinate product structure: the d-dimensional
    integral of f1^alpha * f2^(1-alpha) is the product of 1-d factors.
    """
    if alpha in (0.0, 1.0) or not math.isfinite(alpha):
        raise ParameterError("alpha must be finite and not 0 or 1")
    return math.prod(_coordinate_integrals(
        spec1, spec2, lambda p1, l1, p2, l2: p1 ** alpha * p2 ** (1.0 - alpha)))


# Per-coordinate integrands of the functionals whose value is a sum over coordinates.
_ADDITIVE_INTEGRANDS = {
    "kl": lambda p1, l1, p2, l2: p1 * (l1 - l2),
    "reverse_kl": lambda p1, l1, p2, l2: p2 * (l2 - l1),
    "shannon_entropy": lambda p1, l1, p2, l2: -p2 * l2,
}


def true_value(spec1, spec2, functional):
    """Exact integral of g(f1, f2) * f2 over [0, 1]^d for a built-in functional.

    The coordinates are independent, so each value combines 1-d quadratures
    (:func:`_coordinate_integrals`): the Renyi-alpha integral is the product
    of the coordinates' integrals of p1^alpha p2^(1-alpha)
    (:func:`true_renyi_integral`); l2, the integral of (f1 - f2)^2, is
    prod I(p1^2) - 2 prod I(p1 p2) + prod I(p2^2); kl, reverse_kl and
    shannon_entropy are sums of the coordinates' 1-d values.  ``functional``
    is a ``FunctionalSpec``; custom, or any other name, raises
    ParameterError.
    """
    name = functional.name
    if name == "renyi_integral":
        return true_renyi_integral(spec1, spec2, functional.params["alpha"])
    if name == "l2":  # prod I(p1^2) - 2 prod I(p1 p2) + prod I(p2^2)
        a, b, c = (math.prod(_coordinate_integrals(spec1, spec2, lambda p1, l1, p2, l2, e=e:
                                                   p1 ** (2 - e) * p2 ** e)) for e in (0, 1, 2))
        return a - 2.0 * b + c
    if name not in _ADDITIVE_INTEGRANDS:
        raise ParameterError("no exact value for functional %r" % name)
    return sum(_coordinate_integrals(spec1, spec2, _ADDITIVE_INTEGRANDS[name]))


@dataclass(frozen=True)
class MCTruth:
    value: float
    std_error: float
    n_mc: int


def mc_truth(spec1, spec2, functional, n_mc, seed, stream=0):
    """Monte Carlo oracle: mean of g(f1, f2) over draws from f2.

    Densities are evaluated in closed form, so this is an independent check
    on both the quadrature oracle and the k-NN estimators.  The draws come in
    chunks of 10^6; chunk c is drawn from stream ``stream + (c << 32)``, so
    callers that key ``stream`` by a small index (a dimension) never share a
    chunk.
    """
    n_mc = as_index("n_mc", n_mc)
    if n_mc < 10**4:
        raise ParameterError("n_mc must be >= 1e4")
    if spec1.dim != spec2.dim:
        raise ParameterError("specs must share the dimension")
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 10**6
    offset = 0
    while done < n_mc:
        m = min(chunk, n_mc - done)
        pts = sample_truncated_gaussian(spec2, m, seed, stream=stream + (offset << 32))
        f1 = truncated_gaussian_pdf(spec1, pts.points)
        f2 = truncated_gaussian_pdf(spec2, pts.points)
        vals = np.asarray(functional.g_log(np.log(f1), np.log(f2)), dtype=np.float64)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
        offset += 1
    mean = total / n_mc
    var = max(total_sq / n_mc - mean * mean, 0.0)
    return MCTruth(mean, math.sqrt(var / n_mc), n_mc)
