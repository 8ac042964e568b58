"""Brute-force reference solver for the optimal risk-sharing objective.

Candidate allocations are piecewise-linear functions anchored at zero with
segment slopes in [0, 1] on a fixed knot grid.  The solver enumerates every
slope vector on a discrete level grid, evaluates the pooled objective exactly
on the empirical sample, and returns the best candidate.  A strict-improvement
coordinate descent can then polish the slopes off the level grid.

Monotonicity does the heavy lifting: every candidate and its complement are
non-decreasing maps of a sorted sample, so transformed samples stay sorted and
a whole chunk of candidates is one call of the risk kernel
(``measures.sorted_risk``) on the columns of one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure, RiskMeasure, sorted_risk

__all__ = [
    "BudgetError",
    "GridAllocation",
    "OracleResult",
    "build_knots",
    "overlap_matrix",
    "oracle_objective",
    "brute_force_infconv",
    "coordinate_descent_refine",
]

_DEFAULT_BUDGET = 10_000_000
_CHUNK = 4096


class BudgetError(RuntimeError):
    """Enumeration would exceed the allowed number of candidate evaluations."""


@dataclass(frozen=True, eq=False)
class GridAllocation:
    """Piecewise-linear map through zero with clamped slopes.

    ``knots`` is a strictly increasing grid containing 0.0 exactly;
    ``slopes[j]`` applies between knots j and j+1 and lies in [0, 1].  Beyond
    the grid the first and last slopes extend linearly.  With a single knot
    one global slope is used everywhere.
    """

    knots: np.ndarray
    slopes: np.ndarray

    def __post_init__(self) -> None:
        knots = np.asarray(self.knots, dtype=np.float64)
        slopes = np.asarray(self.slopes, dtype=np.float64)
        if knots.ndim != 1 or knots.size == 0:
            raise ValueError("knots must be a non-empty 1-d array")
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots must be finite")
        if np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must be strictly increasing")
        if not np.any(knots == 0.0):
            raise ValueError("knots must contain 0.0 exactly")
        expected = knots.size - 1 if knots.size > 1 else 1
        if slopes.shape != (expected,):
            raise ValueError(f"need {expected} slopes for {knots.size} knots")
        if not np.all(np.isfinite(slopes)):
            raise ValueError("slopes must be finite")
        if np.any(slopes < 0.0) or np.any(slopes > 1.0):
            raise ValueError("slopes must lie in [0, 1]")
        knots.setflags(write=False)
        slopes.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "slopes", slopes)

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        if self.knots.size == 1:
            return self.slopes[0] * xs
        values = np.empty_like(self.knots)
        values[0] = 0.0
        np.cumsum(self.slopes * np.diff(self.knots), out=values[1:])
        values -= values[np.flatnonzero(self.knots == 0.0)[0]]
        out = np.interp(xs, self.knots, values)
        below = xs < self.knots[0]
        above = xs > self.knots[-1]
        out = np.where(below, values[0] + self.slopes[0] * (xs - self.knots[0]), out)
        out = np.where(above, values[-1] + self.slopes[-1] * (xs - self.knots[-1]), out)
        return out

    def complement(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        return xs - self(xs)


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Best candidate found: objective value, slope vector, bookkeeping."""

    value: float
    slopes: np.ndarray
    knots: np.ndarray
    evaluations: int
    levels: int

    @property
    def allocation(self) -> GridAllocation:
        return GridAllocation(knots=self.knots, slopes=self.slopes)


def build_knots(samples: np.ndarray | EmpiricalMeasure, segments: int) -> np.ndarray:
    """Sample-quantile knot grid with 0.0 inserted.

    The requested segment count is an upper bound; duplicate quantiles of a
    discrete sample collapse (a constant sample yields at most two knots).
    """
    if isinstance(samples, EmpiricalMeasure):
        samples = samples.samples
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("need a non-empty 1-d sample")
    if segments < 1:
        raise ValueError("segments must be positive")
    qs = np.quantile(samples, np.linspace(0.0, 1.0, segments + 1))
    return np.unique(np.concatenate([qs, [0.0]]))


def overlap_matrix(sorted_samples: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Signed overlap of [0, x_i] with each slope segment.

    Row i dotted with a slope vector gives the candidate value at sample i.
    The first and last segments absorb the linear extension beyond the grid.
    """
    knots = np.asarray(knots, dtype=np.float64)
    if knots.size < 2:
        raise ValueError("need at least two knots")
    xs = np.asarray(sorted_samples, dtype=np.float64)
    a = knots[:-1].copy()
    b = knots[1:].copy()
    a[0] = -np.inf
    b[-1] = np.inf
    lo = np.minimum(xs, 0.0)[:, None]
    hi = np.maximum(xs, 0.0)[:, None]
    ov = np.clip(np.minimum(hi, b[None, :]) - np.maximum(lo, a[None, :]), 0.0, None)
    return np.sign(xs)[:, None] * ov


def _objective_batch(
    spec1: RiskMeasure, spec2: RiskMeasure, m: EmpiricalMeasure, c: np.ndarray, thetas: np.ndarray
) -> np.ndarray:
    v1 = c @ thetas.T
    v2 = m.samples[:, None] - v1
    return sorted_risk(spec1, v1) + sorted_risk(spec2, v2)


def oracle_objective(
    spec1: RiskMeasure,
    spec2: RiskMeasure,
    m: EmpiricalMeasure,
    knots: np.ndarray,
    slopes: np.ndarray,
) -> float:
    """Pooled objective of one piecewise-linear candidate on the sample."""
    c = overlap_matrix(m.samples, knots)
    theta = np.asarray(slopes, dtype=np.float64)[None, :]
    return float(_objective_batch(spec1, spec2, m, c, theta)[0])


def brute_force_infconv(
    spec1: RiskMeasure,
    spec2: RiskMeasure,
    m: EmpiricalMeasure,
    segments: int = 6,
    levels: int = 5,
    knots: np.ndarray | None = None,
    budget: int = _DEFAULT_BUDGET,
) -> OracleResult:
    """Enumerate slope vectors on a level grid and keep the best candidate.

    Each segment slope ranges over {0, 1/levels, ..., 1}, i.e. levels+1 grid
    values; the candidate count (levels+1)**segments must stay within
    ``budget``.  Candidates are visited in lexicographic slope order and ties
    keep the first (lexicographically smallest) vector.  Pass explicit
    ``knots`` to pin the candidate family, e.g. to compare two samples over
    the same family.
    """
    if levels < 1:
        raise ValueError("need at least one slope step")
    if knots is None:
        knots = build_knots(m.samples, segments)
    else:
        knots = np.asarray(knots, dtype=np.float64)
    if knots.size < 2:
        raise ValueError("need at least two distinct knots")
    n_seg = knots.size - 1
    total = (levels + 1) ** n_seg
    if total > budget:
        raise BudgetError(
            f"(levels+1)**segments = {levels + 1}**{n_seg} = {total} exceeds the "
            f"budget of {budget}; use coordinate_descent_refine from a coarse start"
        )

    c = overlap_matrix(m.samples, knots)
    grid = np.linspace(0.0, 1.0, levels + 1)
    shape = (levels + 1,) * n_seg
    best_value = np.inf
    best_theta: np.ndarray | None = None
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total))
        digits = np.stack(np.unravel_index(flat, shape), axis=1)
        thetas = grid[digits]
        values = _objective_batch(spec1, spec2, m, c, thetas)
        k = int(np.argmin(values))
        if values[k] < best_value:
            best_value = float(values[k])
            best_theta = thetas[k]
    assert best_theta is not None

    return OracleResult(
        value=best_value,
        slopes=np.asarray(best_theta, dtype=np.float64),
        knots=knots,
        evaluations=total,
        levels=levels,
    )


def coordinate_descent_refine(
    spec1: RiskMeasure,
    spec2: RiskMeasure,
    m: EmpiricalMeasure,
    start: GridAllocation,
    levels: int = 8,
    sweeps: int = 50,
) -> OracleResult:
    """Cyclic single-coordinate minimization over the discrete slope levels.

    Each move re-optimizes one segment slope over {0, 1/levels, ..., 1} with
    the others held fixed, accepting only strict improvements (ties keep the
    incumbent, so a grid-search argmin is a fixed point).  Stops early once a
    full sweep changes nothing.
    """
    if levels < 1:
        raise ValueError("need at least one slope step")
    if sweeps < 1:
        raise ValueError("need at least one sweep")
    knots = start.knots
    if knots.size < 2:
        raise ValueError("need at least two distinct knots")
    theta = start.slopes.copy()
    c = overlap_matrix(m.samples, knots)
    grid = np.linspace(0.0, 1.0, levels + 1)

    current = float(_objective_batch(spec1, spec2, m, c, theta[None, :])[0])
    evaluations = 1
    for _ in range(sweeps):
        changed = False
        for j in range(theta.size):
            trials = np.tile(theta, (grid.size, 1))
            trials[:, j] = grid
            values = _objective_batch(spec1, spec2, m, c, trials)
            evaluations += grid.size
            k = int(np.argmin(values))
            if values[k] < current:
                theta = trials[k]
                current = float(values[k])
                changed = True
        if not changed:
            break
    return OracleResult(
        value=current, slopes=theta, knots=knots, evaluations=evaluations, levels=levels
    )
