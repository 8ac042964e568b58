"""Distribution-level reference values and optimal-allocation descriptors.

For the measure pairs whose pooled risk has a closed form, these helpers
evaluate the combined measure against the continuous distribution by
tanh-sinh quadrature, whose work is bounded (it returns a finite value or
raises ValueError), giving sample-free anchors for validating trained and
brute-force solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import Entropic, ExpectedShortfall, RiskMeasure
from .sampling import Distribution, _density, quantile, support

__all__ = [
    "ProportionalAllocation",
    "CornerAllocation",
    "TailCutFamily",
    "AllocationDescriptor",
    "analytic_infconv",
    "analytic_allocation",
    "entropic_risk",
    "expected_shortfall_risk",
    "fit_tail_cut",
]

# Tanh-sinh nodes at |t| <= 6 come within about 1e-275 times the length of
# either end, so the cut tails hold no mass a float64 sum could carry.
_TANH_SINH_TMAX = 6
_TANH_SINH_LEVELS = 11
_QUAD_RTOL = 1e-12


def _quad(f, lo: float, hi: float) -> float:
    """Integral of a vectorized f(x, x - lo, hi - x) over [lo, hi] by the
    tanh-sinh rule.

    Each node is an exact offset d from the nearer end, and f receives it
    beside x, which may round it away, so boundary layers and endpoint
    singularities keep their digits.  The step halves from 1/2
    until two estimates agree within ``_QUAD_RTOL`` of the integral of |f|,
    or raises ValueError at 2**-11.
    """
    estimate = np.nan
    for level in range(1, _TANH_SINH_LEVELS + 1):
        t = np.linspace(-_TANH_SINH_TMAX, _TANH_SINH_TMAX, _TANH_SINH_TMAX * 2 ** (level + 1) + 1)
        # d = (hi - lo) / (1 + exp(pi sinh|t|)); |dd/dt| = pi cosh(t) d (hi - lo - d) / (hi - lo)
        offset = (hi - lo) / (1.0 + np.exp(np.pi * np.sinh(np.abs(t))))
        weight = np.pi * 0.5**level / (hi - lo) * np.cosh(t) * offset * (hi - lo - offset)
        from_lo = np.where(t < 0.0, offset, hi - lo - offset)
        from_hi = np.where(t < 0.0, hi - lo - offset, offset)
        terms = f(np.where(t < 0.0, lo + offset, hi - offset), from_lo, from_hi) * weight
        previous, estimate = estimate, terms.sum()
        if abs(estimate - previous) <= _QUAD_RTOL * np.abs(terms).sum():
            return float(estimate)
    raise ValueError(f"quadrature did not converge by step 2**-{_TANH_SINH_LEVELS}")


def entropic_risk(dist: Distribution, beta: float) -> float:
    """beta * log E[exp(-X/beta)] by quadrature against the density.

    The integrand exp((lo - x)/beta) * pdf(x) stays below the density, so it
    cannot overflow; raises ValueError where the quadrature fails.
    """
    beta = Entropic(beta).beta
    lo, hi = support(dist)
    integral = _quad(
        lambda x, from_lo, from_hi: np.exp((lo - x) / beta) * _density(dist, x, from_lo, from_hi),
        lo, hi,
    )
    if not integral > 0.0:
        raise ValueError(f"beta {beta!r} is too small to integrate over [{lo!r}, {hi!r}]")
    return -lo + beta * float(np.log(integral))


def expected_shortfall_risk(dist: Distribution, alpha: float) -> float:
    """(1/alpha) * integral of -quantile over (0, alpha) by quadrature."""
    alpha = ExpectedShortfall(alpha).alpha
    return _quad(lambda u, *_: -quantile(dist, u), 0.0, alpha) / alpha


def analytic_infconv(
    spec1: RiskMeasure, spec2: RiskMeasure, dist: Distribution
) -> float | None:
    """Pooled-risk value when a closed form is known, else None.

    Two entropic measures pool into an entropic measure with the summed
    tolerance; two expected shortfalls pool into the one with the larger
    level.  Other pairs have no closed form here.
    """
    if isinstance(spec1, Entropic) and isinstance(spec2, Entropic):
        return entropic_risk(dist, spec1.beta + spec2.beta)
    if isinstance(spec1, ExpectedShortfall) and isinstance(spec2, ExpectedShortfall):
        return expected_shortfall_risk(dist, max(spec1.alpha, spec2.alpha))
    return None


@dataclass(frozen=True)
class ProportionalAllocation:
    """First agent takes ``first_share * x``; the rest goes to the second."""

    first_share: float

    def first(self, xs: np.ndarray) -> np.ndarray:
        return self.first_share * np.asarray(xs, dtype=np.float64)

    def second(self, xs: np.ndarray) -> np.ndarray:
        return (1.0 - self.first_share) * np.asarray(xs, dtype=np.float64)


@dataclass(frozen=True)
class CornerAllocation:
    """One agent absorbs the whole position, the other takes zero."""

    first_takes_all: bool

    def first(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        return xs if self.first_takes_all else np.zeros_like(xs)

    def second(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        return np.zeros_like(xs) if self.first_takes_all else xs


@dataclass(frozen=True)
class TailCutFamily:
    """Shape family min(x - k, 0) for the shortfall agent, k free.

    The tail-averaging agent takes every loss below some threshold k while the
    exponential-utility agent keeps max(x, k); the threshold itself is not
    pinned down here.  The shares are optimal only up to a cash constant:
    min(x - k, 0) + c with max(x, k) - c pools to the same risk for every c.  ``member(k)`` is the representative with c = 0, whose shortfall
    share is zero above k.  ``es_first`` says which slot holds the shortfall
    agent.
    """

    es_first: bool

    def member(self, k: float):
        def tail(xs: np.ndarray) -> np.ndarray:
            return np.minimum(np.asarray(xs, dtype=np.float64) - k, 0.0)

        def rest(xs: np.ndarray) -> np.ndarray:
            return np.maximum(np.asarray(xs, dtype=np.float64), k)

        return (tail, rest) if self.es_first else (rest, tail)


AllocationDescriptor = ProportionalAllocation | CornerAllocation | TailCutFamily


def analytic_allocation(
    spec1: RiskMeasure, spec2: RiskMeasure
) -> AllocationDescriptor | None:
    """Optimal-allocation descriptor for the closed-form pairs, else None."""
    if isinstance(spec1, Entropic) and isinstance(spec2, Entropic):
        return ProportionalAllocation(first_share=spec1.beta / (spec1.beta + spec2.beta))
    if isinstance(spec1, ExpectedShortfall) and isinstance(spec2, ExpectedShortfall):
        return CornerAllocation(first_takes_all=spec1.alpha >= spec2.alpha)
    if isinstance(spec1, ExpectedShortfall) and isinstance(spec2, Entropic):
        return TailCutFamily(es_first=True)
    if isinstance(spec1, Entropic) and isinstance(spec2, ExpectedShortfall):
        return TailCutFamily(es_first=False)
    return None


def fit_tail_cut(xs: np.ndarray, values: np.ndarray) -> float:
    """Least-squares threshold k for values ~ min(xs - k, 0) + c.

    The cash constant c is profiled out: for each k the best c is the mean
    residual, so a shifted share does not bias the threshold.  Read c off as
    ``mean(values - min(xs - k, 0))`` at the returned k.  Thresholds outside
    the sample range are not identified (the shape there is affine).  Coarse
    grid search over the sample range followed by a bounded scalar
    minimization over the best bracket.
    """
    xs = np.asarray(xs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)

    def sse(k: float) -> float:
        resid = values - np.minimum(xs - k, 0.0)
        resid -= resid.mean()
        return float(resid @ resid)

    grid = np.linspace(xs.min() - 0.5, xs.max() + 0.5, 501)
    best = int(np.argmin([sse(k) for k in grid]))
    bracket = (grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)])
    # imported here: scipy.optimize would add about 0.2 s to ``import infconv``
    from scipy.optimize import minimize_scalar

    return float(minimize_scalar(sse, bounds=bracket, method="bounded", options={"xatol": 1e-12}).x)
