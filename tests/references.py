"""Per-leaf risk formulas written from their definitions, independent of the
package's risk kernel, for tests to compare the kernel against."""

import numpy as np
from scipy.integrate import quad


def entropic_reference(xs, beta):
    """beta * log mean(exp(-x/beta)), shifted by the largest exponent."""
    e = -np.asarray(xs, dtype=np.float64) / beta
    top = e.max()
    return float(beta * (top + np.log(np.mean(np.exp(e - top)))))


def es_reference(xs, alpha):
    """Mean of the worst alpha-fraction: the floor(alpha*n) smallest samples
    in full, the next one by the fractional part of alpha*n."""
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    t = alpha * xs.size
    k = int(np.floor(t))
    tail = xs[:k].sum() + (t - k) * xs[k] if k < xs.size else xs.sum()
    return float(-tail / t)


def spectral_reference(xs, density):
    """-sum_k x_(k) * (the density's mass on ((k-1)/n, k/n]), each mass a
    quadrature of the linearly interpolated grid function."""
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    n = xs.size
    grid, values = density.grid, density.values
    masses = []
    for k in range(1, n + 1):
        lo, hi = (k - 1) / n, k / n
        inside = grid[(grid > lo) & (grid < hi)]
        mass, _ = quad(lambda u: np.interp(u, grid, values), lo, hi,
                       points=inside if inside.size else None, epsabs=1e-14, epsrel=1e-13, limit=200)
        masses.append(mass)
    return float(-(xs @ np.array(masses)))
