"""Brute-force reference solver for the optimal risk-sharing objective.

Candidate allocations are piecewise-linear functions anchored at zero with
segment slopes in [0, 1] on a fixed knot grid.  The solver enumerates every
slope vector on a discrete level grid, evaluates the pooled objective exactly
on the empirical sample, and returns the best candidate.  A strict-improvement
coordinate descent can then polish the slopes off the level grid.

Monotonicity does the heavy lifting: every candidate and its complement are
non-decreasing maps of a sorted sample, so each measure weighs the sample in
its own order, and on segment s a candidate is its knot value plus its slope
times the offset from the knot.  The risk kernel's compiled form
(``measures._compile``) splits each measure into order weights, whose pooled
term is linear in the slopes, and entropic leaves, whose log-mean-exp is a
sum over segments of per-segment sums tabulated once per slope value.

Candidates are scored as Cartesian products of per-segment choices: each
per-segment table is indexed once by its segment's choices and broadcast
along that segment's axis, so one call scores a whole block of trailing
segments under a fixed prefix from small arrays.  No solve gathers per
candidate or builds a samples-by-candidates matrix, and every value is
summed in one fixed order, so it has the same bits however candidates are
grouped into calls.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure, RiskMeasure, _compile

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

_BUDGET = 10_000_000
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
        # copies, so freezing them below leaves the caller's arrays writable
        knots = np.array(self.knots, dtype=np.float64)
        slopes = np.array(self.slopes, dtype=np.float64)
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


def _log_segment_sums(d: np.ndarray, bounds: np.ndarray, slopes: np.ndarray, beta: float) -> np.ndarray:
    """(segments, slopes) table of log sum_i exp(-slope * d_i / beta) over
    each segment's samples.

    Segment s holds d[bounds[s]:bounds[s+1]], ascending.  Shifting by its
    first (smallest) offset keeps every exponent at or below zero, so small
    beta and negative offsets stay finite; an empty segment gives -inf.
    """
    out = np.full((bounds.size - 1, slopes.size), -np.inf)
    for s in range(bounds.size - 1):
        ds = d[bounds[s] : bounds[s + 1]]
        if ds.size:
            e = np.exp(np.outer(slopes, ds[0] - ds) / beta)
            out[s] = np.log(e.sum(axis=1)) - slopes * (ds[0] / beta)
    return out


class _Scorer:
    """Pooled objective of products of per-segment digits into ``slope_values``.

    On the sample a candidate is Y_i = V_s + theta_s * d_i, where s is the
    segment of sample i, d_i its offset from the segment's left knot k_s and
    V_s the candidate's value at k_s; the complement is
    (k_s - V_s) + (1 - theta_s) * d_i.  The linear leaves are linear in
    theta, so both agents' order weights fold into one gain per segment.
    An entropic leaf's log-mean-exp splits into one log-sum per segment,
    tabulated once for every slope value.  A call indexes each segment's
    tables (theta * gain, theta * width, theta * left knot, log-sums) once
    by its choices and combines them by broadcasting, segment 0 first, so a
    candidate's value does not depend on which product it was scored in.
    """

    def __init__(self, spec1: RiskMeasure, spec2: RiskMeasure, m: EmpiricalMeasure,
                 knots: np.ndarray, slope_values: np.ndarray):
        xs = m.samples
        n = xs.size
        self.left = knots[:-1]
        # the segment holding 0, where the candidate's value is theta * x
        self.zero = int(np.clip(np.searchsorted(knots, 0.0, side="right") - 1, 0, self.left.size - 1))
        bounds = np.searchsorted(xs, self.left)
        bounds[0] = 0
        bounds = np.append(bounds, n)
        d = xs - np.repeat(self.left, np.diff(bounds))

        lin1, ent1 = _compile(spec1, n)
        lin2, ent2 = _compile(spec2, n)
        c = overlap_matrix(xs, knots)
        self.offset = 0.0
        gain = np.zeros(self.left.size)
        if lin1 is not None:
            gain -= lin1 @ c
        if lin2 is not None:
            self.offset = -float(lin2 @ xs)
            gain += lin2 @ c
        # (segments, slopes) tables of theta * gain, theta * width, theta * left knot
        self.gains = slope_values * gain[:, None]
        self.steps = slope_values * np.diff(knots)[:, None]
        self.lefts = slope_values * self.left[:, None]
        self.entropic1 = [
            (w, beta, _log_segment_sums(d, bounds, slope_values, beta)) for w, beta in ent1
        ]
        self.entropic2 = [
            (w, beta, _log_segment_sums(d, bounds, 1.0 - slope_values, beta)) for w, beta in ent2
        ]
        self.log_n = np.log(n)

    def __call__(self, choices: list) -> np.ndarray:
        """Objective of every candidate in the product of ``choices``, where
        ``choices[s]`` lists segment s's digits into ``slope_values``; flat,
        in lexicographic order (the last segment varies fastest)."""
        n_seg = len(choices)

        def pick(table: np.ndarray, s: int):
            # row s at segment s's choices, along axis s; one choice is a scalar
            row = table[s, choices[s]]
            return row[0] if row.size == 1 else row.reshape((-1,) + (1,) * (n_seg - 1 - s))

        total = self.offset + functools.reduce(np.add, (pick(self.gains, s) for s in range(n_seg)))
        if self.entropic1 or self.entropic2:
            # values at the left knots, overlap_matrix(knots[:-1], knots) @ thetas,
            # summed outward from the segment holding 0
            z = self.zero
            up = itertools.accumulate(pick(self.steps, s) for s in range(z, n_seg - 1))
            down = itertools.accumulate(pick(self.steps, s) for s in range(z - 1, -1, -1))
            vz = pick(self.lefts, z)
            v1 = [vz - run for run in reversed(list(down))] + [vz] + [vz + run for run in up]
            v2 = [left - v for left, v in zip(self.left, v1)]
            for v, entropic in ((v1, self.entropic1), (v2, self.entropic2)):
                for w, beta, log_sums in entropic:
                    a = [pick(log_sums, s) - v[s] / beta for s in range(n_seg)]
                    top = functools.reduce(np.maximum, a)
                    sums = functools.reduce(np.add, (np.exp(x - top) for x in a))
                    total = total + w * beta * (top + np.log(sums) - self.log_n)
        return np.broadcast_to(total, [len(c) for c in choices]).reshape(-1)


def oracle_objective(
    spec1: RiskMeasure,
    spec2: RiskMeasure,
    m: EmpiricalMeasure,
    knots: np.ndarray,
    slopes: np.ndarray,
) -> float:
    """Pooled objective of one piecewise-linear candidate on the sample."""
    if np.size(knots) < 2:
        raise ValueError("need at least two knots")
    candidate = GridAllocation(knots=knots, slopes=slopes)
    score = _Scorer(spec1, spec2, m, candidate.knots, candidate.slopes)
    return float(score([[s] for s in range(candidate.slopes.size)])[0])


def brute_force_infconv(
    spec1: RiskMeasure,
    spec2: RiskMeasure,
    m: EmpiricalMeasure,
    segments: int = 6,
    levels: int = 5,
    knots: np.ndarray | None = None,
) -> OracleResult:
    """Enumerate slope vectors on a level grid and keep the best candidate.

    Each segment slope ranges over {0, 1/levels, ..., 1}, i.e. levels+1 grid
    values; the candidate count (levels+1)**segments must stay within
    10,000,000, else BudgetError.  Candidates are visited in lexicographic
    slope order and exact ties keep the last (lexicographically largest)
    vector, so a segment that neither measure weighs stays with the first
    agent.  Pass explicit
    ``knots`` to pin the candidate family, e.g. to compare two samples over
    the same family.
    """
    if levels < 1:
        raise ValueError("need at least one slope step")
    if knots is None:
        knots = build_knots(m.samples, segments)
    if np.size(knots) < 2:
        raise ValueError("need at least two distinct knots")
    # checked by GridAllocation's rules; any valid slope vector will do
    knots = GridAllocation(knots=knots, slopes=np.zeros(np.size(knots) - 1)).knots
    n_seg = knots.size - 1
    total = (levels + 1) ** n_seg
    if total > _BUDGET:
        raise BudgetError(
            f"(levels+1)**segments = {levels + 1}**{n_seg} = {total} exceeds the "
            f"budget of {_BUDGET}; use coordinate_descent_refine from a coarse start"
        )

    grid = np.linspace(0.0, 1.0, levels + 1)
    score = _Scorer(spec1, spec2, m, knots, grid)
    # one block per call: every combination of the fewest trailing segments
    # that make _CHUNK candidates, under each leading prefix in turn
    tail = next((t for t in range(1, n_seg) if grid.size**t >= _CHUNK), n_seg)
    digits = np.arange(grid.size)
    best_value = np.inf
    best_digits: tuple | None = None
    for head in itertools.product(range(grid.size), repeat=n_seg - tail):
        values = score([[d] for d in head] + [digits] * tail)
        k = values.size - 1 - int(np.argmin(values[::-1]))
        if values[k] <= best_value:
            best_value = float(values[k])
            best_digits = head + np.unravel_index(k, (grid.size,) * tail)
    assert best_digits is not None

    return OracleResult(
        value=best_value,
        slopes=grid[list(best_digits)],
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
    # digits 0..levels pick the level grid, levels+1+j the start's slope j
    grid = np.linspace(0.0, 1.0, levels + 1)
    slope_values = np.concatenate([grid, start.slopes])
    score = _Scorer(spec1, spec2, m, knots, slope_values)
    digits = list(range(grid.size, grid.size + start.slopes.size))

    current = float(score([[d] for d in digits])[0])
    evaluations = 1
    for _ in range(sweeps):
        changed = False
        for j in range(len(digits)):
            trials = [[d] for d in digits]
            trials[j] = np.arange(grid.size)
            trial_values = score(trials)
            evaluations += grid.size
            k = int(np.argmin(trial_values))
            if trial_values[k] < current:
                digits[j] = k
                current = float(trial_values[k])
                changed = True
        if not changed:
            break
    return OracleResult(
        value=current, slopes=slope_values[digits], knots=knots, evaluations=evaluations, levels=levels
    )
