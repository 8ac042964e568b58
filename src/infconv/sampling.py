"""Seeded sampling from the model distributions and Wasserstein distances.

Determinism contract: every draw is a pure function of (distribution, n,
RngSeed).  Streams come from a counter-based Philox generator keyed by the
128-bit pair (seed, stream), so ensemble members and data sets get
independent, reproducible sources from one experiment seed.

Distributions are written like ``uniform(-1, 1)``, in the risk specs' grammar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .measures import EmpiricalMeasure, _bind, _call, _expression

__all__ = [
    "RngSeed",
    "make_generator",
    "Uniform",
    "TruncNormal",
    "NegBeta",
    "Distribution",
    "support",
    "quantile",
    "pdf",
    "draw",
    "stratified_sample",
    "wasserstein_p",
    "parse_distribution",
    "render_distribution",
]

_U64 = 2**64
# Smallest interval mass a TruncNormal may hold.  Past it the mass nears
# float64's smallest normal number and densities lose their digits: the
# interval (37.5, 38.5) sd above the mean has a density 1.7% off.
_MIN_TRUNCNORM_MASS = 1e-300
# Largest NegBeta shape.  Far above it betaincinv returns NaN quantiles, e.g.
# for (2, 1e155) and (1e16, 1e20); on a log grid of shapes from 5e-324 to
# 1e12 every quantile was finite.  A shape of 1e8 already leaves the law a
# standard deviation below 5e-5.
_MAX_NEGBETA_SHAPE = 1e8
# NegBeta shapes refused at the bottom of the normal range.  On a log grid
# down to 5e-324, betaincinv returned NaN quantiles only for pairs whose larger
# shape is below 4.3e-305 and whose smaller one lies in [7.4e-309, 4.3e-308],
# e.g. (3.56e-307, 2.2250738585072014e-308).
_NEGBETA_SHAPE_GAP = (5e-309, 1e-300)


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream) pair; both are unsigned 64-bit integers."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream", self.stream)):
            if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < _U64:
                raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream", int(self.stream))


def make_generator(rng: RngSeed) -> np.random.Generator:
    """Philox generator keyed by (seed, stream)."""
    key = np.array([rng.seed, rng.stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Uniform:
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo!r}, {self.hi!r}]")
        # quantiles and the density are formed from hi - lo
        if not np.isfinite(float(self.hi) - float(self.lo)):
            raise ValueError(f"interval [{self.lo!r}, {self.hi!r}] is too wide for float64")


@dataclass(frozen=True)
class TruncNormal:
    """Normal(mean, sd) conditioned on [lo, hi], sampled by inverse CDF."""

    mean: float = 0.0
    sd: float = 1.0
    lo: float = -3.0
    hi: float = 3.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mean) and np.isfinite(self.sd) and self.sd > 0):
            raise ValueError("sd must be finite and positive")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo!r}, {self.hi!r}]")
        a, b, _ = _truncnorm_tail_bounds(self)
        if not b - a >= _MIN_TRUNCNORM_MASS:
            raise ValueError(f"interval mass {b - a:.3g} is too small for float64")


@dataclass(frozen=True)
class NegBeta:
    """The law of -B with B ~ Beta(a, b); support [-1, 0]."""

    a: float = 2.0
    b: float = 5.0

    def __post_init__(self) -> None:
        lo, hi = _NEGBETA_SHAPE_GAP
        if not all(0 < s <= _MAX_NEGBETA_SHAPE and not lo <= s < hi for s in (self.a, self.b)):
            raise ValueError(
                f"beta shape parameters must lie in (0, {lo:g}) or [{hi:g}, {_MAX_NEGBETA_SHAPE:g}]"
            )


Distribution = Uniform | TruncNormal | NegBeta


def support(dist: Distribution) -> tuple[float, float]:
    if isinstance(dist, (Uniform, TruncNormal)):
        return float(dist.lo), float(dist.hi)
    if isinstance(dist, NegBeta):
        return -1.0, 0.0
    raise ValueError(f"not a distribution spec: {dist!r}")


def _truncnorm_tail_bounds(dist: TruncNormal) -> tuple[float, float, bool]:
    """Standard-normal CDF bounds a < b of the interval, and whether mirrored.

    An interval above the mean is mirrored below it, a, b = ndtr(-z_hi),
    ndtr(-z_lo): lower-tail masses keep their relative precision, while
    ndtr(z_lo) and ndtr(z_hi) both round to 1.0 once z_lo passes about 8.3.
    """
    z_lo = (dist.lo - dist.mean) / dist.sd
    z_hi = (dist.hi - dist.mean) / dist.sd
    if dist.lo > dist.mean:
        return float(special.ndtr(-z_hi)), float(special.ndtr(-z_lo)), True
    return float(special.ndtr(z_lo)), float(special.ndtr(z_hi)), False


def quantile(dist: Distribution, u: np.ndarray | float) -> np.ndarray:
    """Inverse cumulative distribution function, vectorized over u in [0, 1]."""
    u = np.asarray(u, dtype=np.float64)
    if np.any((u < 0.0) | (u > 1.0)):
        raise ValueError("quantile levels must lie in [0, 1]")
    if isinstance(dist, Uniform):
        return dist.lo + u * (dist.hi - dist.lo)
    if isinstance(dist, TruncNormal):
        a, b, mirrored = _truncnorm_tail_bounds(dist)
        if mirrored:
            # a + (1 - u)(b - a) is the upper-tail mass above x; anchored
            # at a, it keeps its relative precision as u approaches 1.
            x = dist.mean - dist.sd * special.ndtri(a + (1.0 - u) * (b - a))
        else:
            x = dist.mean + dist.sd * special.ndtri(a + u * (b - a))
        return np.clip(x, dist.lo, dist.hi)
    if isinstance(dist, NegBeta):
        return -special.betaincinv(dist.a, dist.b, 1.0 - u)
    raise ValueError(f"not a distribution spec: {dist!r}")


def pdf(dist: Distribution, x: np.ndarray | float) -> np.ndarray:
    """Density, vectorized; zero outside the support."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi = support(dist)
    return _density(dist, x, x - lo, hi - x)


def _density(dist: Distribution, x: np.ndarray, from_lo: np.ndarray, from_hi: np.ndarray) -> np.ndarray:
    """pdf at x, given x - lo and hi - x, which may carry digits that x has
    lost next to an end of the support."""
    inside = (from_lo >= 0.0) & (from_hi >= 0.0)
    if isinstance(dist, Uniform):
        return np.where(inside, 1.0 / (dist.hi - dist.lo), 0.0)
    if isinstance(dist, TruncNormal):
        a, b, _ = _truncnorm_tail_bounds(dist)
        z = (x - dist.mean) / dist.sd
        dens = np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * dist.sd * (b - a))
        return np.where(inside, dens, 0.0)
    if isinstance(dist, NegBeta):
        # B = -x = hi - x and 1 - B = x + 1 = x - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = (
                np.maximum(from_hi, 0.0) ** (dist.a - 1.0)
                * np.maximum(from_lo, 0.0) ** (dist.b - 1.0)
                / special.beta(dist.a, dist.b)
            )
        return np.where(inside, np.nan_to_num(dens, nan=0.0, posinf=0.0), 0.0)
    raise ValueError(f"not a distribution spec: {dist!r}")


def draw(dist: Distribution, n: int, rng: RngSeed) -> np.ndarray:
    """n i.i.d. draws by inverse CDF; bit-identical for identical (dist, n, rng)."""
    if n < 1:
        raise ValueError("need n >= 1 draws")
    return quantile(dist, make_generator(rng).uniform(size=n))


def stratified_sample(dist: Distribution, n: int) -> np.ndarray:
    """Deterministic quantile-midpoint sample: F^{-1}((i-1/2)/n), i=1..n.

    Approximates the law with Wasserstein-1 error at most range/n, which makes
    it a noise-free evaluation measure for risk functionals.
    """
    if n < 1:
        raise ValueError("need n >= 1 points")
    return quantile(dist, (np.arange(n) + 0.5) / n)


def wasserstein_p(a: EmpiricalMeasure, b: EmpiricalMeasure, p: float) -> float:
    """Order-p Wasserstein distance between two empirical measures.

    Equal sizes reduce to the mean p-th power of order-statistic gaps; unequal
    sizes integrate |F_a^{-1} - F_b^{-1}|^p over the merged quantile grid.
    """
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError("order p must satisfy p >= 1")
    if a.size == b.size:
        xa, xb, mass = a.samples, b.samples, None
    else:
        edges = np.unique(
            np.concatenate(
                [np.arange(1, a.size) / a.size, np.arange(1, b.size) / b.size, [0.0, 1.0]]
            )
        )
        mid = 0.5 * (edges[1:] + edges[:-1])
        ia = np.clip(np.ceil(a.size * mid).astype(np.int64) - 1, 0, a.size - 1)
        ib = np.clip(np.ceil(b.size * mid).astype(np.int64) - 1, 0, b.size - 1)
        xa, xb, mass = a.samples[ia], b.samples[ib], np.diff(edges)
    # a gap past the largest float, between samples of opposite signs, is
    # taken between the halved samples, and the distance doubled at the end
    with np.errstate(over="ignore"):
        gaps = np.abs(xa - xb)
    scale = 1.0
    if np.isinf(gaps).any():
        gaps, scale = np.abs(0.5 * xa - 0.5 * xb), 2.0
    # powers of the gaps relative to the largest one, so that gaps past
    # 1e154 do not overflow at p = 2 before the root brings them back
    top = float(gaps.max())
    if top == 0.0:
        return 0.0
    powers = (gaps / top) ** p
    distance = scale * (top * float((powers.mean() if mass is None else powers @ mass) ** (1.0 / p)))
    if distance == np.inf:
        raise ValueError("the Wasserstein distance exceeds the float64 range")
    return distance


# ---------------------------------------------------------------------------
# Textual form
# ---------------------------------------------------------------------------

_DISTRIBUTIONS = {"uniform": Uniform, "truncnormal": TruncNormal, "negbeta": NegBeta}


def parse_distribution(text: str) -> Distribution:
    """Parse ``uniform(-1,1)``, ``truncnormal(0,1,-3,3)`` or ``negbeta(2,5)``;
    each field is given once, by position or by keyword (``uniform(lo=-1, hi=1)``)."""
    call = _call(_expression(text), _DISTRIBUTIONS)
    return _bind(call, _DISTRIBUTIONS[call.func.id])


def render_distribution(dist: Distribution) -> str:
    if isinstance(dist, Uniform):
        return f"uniform({dist.lo!r},{dist.hi!r})"
    if isinstance(dist, TruncNormal):
        return f"truncnormal({dist.mean!r},{dist.sd!r},{dist.lo!r},{dist.hi!r})"
    if isinstance(dist, NegBeta):
        return f"negbeta({dist.a!r},{dist.b!r})"
    raise ValueError(f"not a distribution spec: {dist!r}")
