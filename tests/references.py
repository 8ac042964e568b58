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


def knots_reference(samples, segments):
    """The oracle's knot grid from numpy's own quantiles: the linear sample
    quantiles at 0, 1/segments, ..., 1 with 0.0 inserted, duplicates merged."""
    qs = np.quantile(np.asarray(samples, dtype=np.float64), np.linspace(0.0, 1.0, segments + 1))
    return np.unique(np.concatenate([qs, [0.0]]))


def overlap_reference(sorted_samples, knots):
    """Signed overlap of [0, x_i] with each slope segment by broadcasting:
    the segment clipped to the interval between 0 and x, times the sign of x;
    the first and last segments reach to -inf and +inf."""
    xs = np.asarray(sorted_samples, dtype=np.float64)
    a = np.array(knots[:-1], dtype=np.float64)
    b = np.array(knots[1:], dtype=np.float64)
    a[0] = -np.inf
    b[-1] = np.inf
    lo = np.minimum(xs, 0.0)[:, None]
    hi = np.maximum(xs, 0.0)[:, None]
    ov = np.minimum(hi, b[None, :])
    ov -= np.maximum(lo, a[None, :])
    np.maximum(ov, 0.0, out=ov)
    ov *= np.sign(xs)[:, None]
    return ov


def log_segment_sums_reference(d, bounds, slopes, beta):
    """log sum_i exp(-slope * d_i / beta) over each segment's samples
    d[bounds[s]:bounds[s+1]], one segment at a time, shifted by the
    segment's first offset; -inf for an empty segment."""
    out = np.full((bounds.size - 1, slopes.size), -np.inf)
    for s in range(bounds.size - 1):
        ds = d[bounds[s] : bounds[s + 1]]
        if ds.size:
            e = np.exp(np.outer(slopes, ds[0] - ds) / beta)
            out[s] = np.log(e.sum(axis=1)) - slopes * (ds[0] / beta)
    return out
