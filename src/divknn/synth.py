"""Synthetic truncated-Gaussian data and independent ground-truth oracles.

Densities are isotropic Gaussians restricted to the unit cube [0,1]^d.
Because the covariance is sigma^2 * I and the support is axis-aligned, the
coordinates are independent 1-d truncated normals, which makes both the
sampler (per-coordinate rejection) and the Renyi-integral oracle
(per-coordinate quadrature, multiplied across coordinates) exact.

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


def _coordinate_pdf(mu, sigma):
    mass = _truncation_mass(mu, sigma)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi) * mass)

    def pdf(x):
        z = (x - mu) / sigma
        return norm * np.exp(-0.5 * z * z)

    return pdf


def true_renyi_integral(spec1, spec2, alpha):
    """Quadrature oracle for the Renyi-alpha integral of f1 against f2.

    Exploits the per-coordinate product structure: the d-dimensional
    integral of f1^alpha * f2^(1-alpha) is the product of 1-d factors.
    """
    if spec1.dim != spec2.dim:
        raise ParameterError("specs must share the dimension")
    if alpha in (0.0, 1.0) or not math.isfinite(alpha):
        raise ParameterError("alpha must be finite and not 0 or 1")
    total = 1.0
    cache = {}
    for mu1, mu2 in zip(spec1.mean, spec2.mean):
        key = (mu1, mu2)
        if key not in cache:
            p1 = _coordinate_pdf(mu1, spec1.sigma)
            p2 = _coordinate_pdf(mu2, spec2.sigma)
            cache[key] = _adaptive_gauss_legendre(
                lambda x: p1(x) ** alpha * p2(x) ** (1.0 - alpha)
            )
        total *= cache[key]
    return total


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
