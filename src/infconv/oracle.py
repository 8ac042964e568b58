"""Brute-force reference solver for the optimal risk-sharing objective.

Candidate allocations are piecewise-linear functions anchored at zero with
segment slopes in [0, 1] on a fixed knot grid.  The solver finds the best
slope vector on a discrete level grid, with the pooled objective evaluated
exactly on the empirical sample.  A strict-improvement coordinate descent can
then polish the slopes off the level grid.

Monotonicity does the heavy lifting: every candidate and its complement are
non-decreasing maps of a sorted sample, so each measure weighs the sample in
its own order, and on segment s a candidate is its knot value plus its slope
times the offset from the knot.  The risk kernel's compiled form
(``measures._compile``) splits each measure into order weights, whose pooled
term is linear in the slopes, and entropic leaves, whose log-mean-exp is a
sum over segments of per-segment sums tabulated once per slope value.  The
samples-by-segments overlap table and the per-segment gains exist only for
pairs with a linear leaf, the offsets and log-sums only for pairs with an
entropic one.

Every table is read off the sorted sample.  The knots are numpy's linear
quantiles, taken at their indices; each overlap column is filled from the
slices of samples inside and beyond its segment; each log-sum sums its
segment's contiguous slice of one exp per slope value over all samples.
They have the bits of the generic numpy passes they replace.

Without entropic leaves a candidate's value is a sum of one term per
segment, so the solver picks the best slope segment by segment and
enumerates nothing.  With them, candidates are scored as Cartesian products
of per-segment choices: each per-segment table is indexed once by its
segment's choices and broadcast along that segment's axis, so one call
scores a whole block of segments under fixed digits for the others from
small arrays, and each entropic leaf's log-sum is split at the segment
holding 0 into two one-sided sums, each kept while its digits repeat.  No solve
gathers per candidate or builds a samples-by-candidates matrix, and every
value is summed in one fixed order, so it has the same bits however
candidates are grouped into calls.  So the value a solve reports is the
search's own minimum: the winner's score, bit for bit, without scoring it
again.
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
# Full passes coordinate_descent_refine may make before it stops unconverged.
_SWEEPS = 50


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
        if not np.isfinite(knots).all():
            raise ValueError("knots must be finite")
        if (knots[1:] <= knots[:-1]).any():
            raise ValueError("knots must be strictly increasing")
        if not (knots == 0.0).any():
            raise ValueError("knots must contain 0.0 exactly")
        expected = knots.size - 1 if knots.size > 1 else 1
        if slopes.shape != (expected,):
            raise ValueError(f"need {expected} slopes for {knots.size} knots")
        if not np.isfinite(slopes).all():
            raise ValueError("slopes must be finite")
        if (slopes < 0.0).any() or (slopes > 1.0).any():
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
    The quantiles are ``np.quantile``'s linear ones, bit for bit, read off
    the sorted sample: a measure's as it is, a raw array's sorted once.
    """
    if isinstance(samples, EmpiricalMeasure):
        xs = samples.samples
    else:
        xs = np.asarray(samples, dtype=np.float64)
        if xs.ndim != 1 or xs.size == 0:
            raise ValueError("need a non-empty 1-d sample")
        xs = np.sort(xs, kind="stable")
    if segments < 1:
        raise ValueError("segments must be positive")
    # np.linspace(0, 1, segments + 1) scaled to virtual indices; from the
    # last index on, numpy interpolates the last sample with itself
    last = xs.size - 1
    virtual = last * (np.arange(segments + 1.0) * (1.0 / segments))
    virtual[-1] = last
    lower = virtual.astype(np.intp)
    lower[virtual >= last] = -1
    upper = np.where(lower < 0, -1, lower + 1)
    gamma = virtual - lower
    a, b = xs[lower], xs[upper]
    diff = b - a
    qs = a + diff * gamma
    # numpy's lerp from the right end for the upper half of an interval
    np.subtract(b, diff * (1.0 - gamma), out=qs, where=gamma >= 0.5)
    if np.isnan(xs[-1]):  # sorted last; numpy makes every quantile NaN
        qs.fill(np.nan)
    return np.unique(np.append(qs, 0.0))


def overlap_matrix(sorted_samples: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Signed overlap of [0, x_i] with each slope segment.

    Row i dotted with a slope vector gives the candidate value at sample i.
    The first and last segments absorb the linear extension beyond the grid.
    Each column is filled from slices of the sorted sample: x minus the
    segment's end nearer 0 where x lies inside it, its signed width where x
    lies beyond it, and zero elsewhere.
    """
    knots = np.asarray(knots, dtype=np.float64)
    if knots.size < 2:
        raise ValueError("need at least two knots")
    xs = np.asarray(sorted_samples, dtype=np.float64)
    a = knots[:-1].copy()
    b = knots[1:].copy()
    a[0] = -np.inf
    b[-1] = np.inf
    # each segment's part above 0, (up, b], and below 0, [a, down)
    up = np.maximum(a, 0.0)
    down = np.minimum(b, 0.0)
    ov = np.zeros((xs.size, a.size))
    ov[: xs.searchsorted(0.0)] = -0.0  # a negative sample's zeros carry its sign
    inside_up = xs.searchsorted(up, side="right")
    beyond_up = xs.searchsorted(b)
    beyond_down = xs.searchsorted(a, side="right")
    inside_down = xs.searchsorted(down)
    for s in range(a.size):
        if up[s] < b[s]:
            ov[inside_up[s] : beyond_up[s], s] = xs[inside_up[s] : beyond_up[s]] - up[s]
            ov[beyond_up[s] :, s] = b[s] - up[s]
        if a[s] < down[s]:
            ov[: beyond_down[s], s] = a[s] - down[s]
            ov[beyond_down[s] : inside_down[s], s] = xs[beyond_down[s] : inside_down[s]] - down[s]
    return ov


def _log_segment_sums(d: np.ndarray, bounds: np.ndarray, slopes: np.ndarray, beta: float) -> np.ndarray:
    """(segments, slopes) table of log sum_i exp(-slope * d_i / beta) over
    each segment's samples.

    Segment s holds d[bounds[s]:bounds[s+1]], ascending.  Shifting by its
    first (smallest) offset keeps every exponent at or below zero, so small
    beta and negative offsets stay finite; an empty segment gives -inf.  One
    exp per slope covers every sample, and each segment sums its own
    contiguous slice of the result.
    """
    out = np.full((bounds.size - 1, slopes.size), -np.inf)
    counts = np.diff(bounds)
    held = np.flatnonzero(counts)
    first = d[bounds[held]]
    e = np.outer(slopes, np.repeat(first, counts[held]) - d)
    e /= beta
    np.exp(e, out=e)
    sums = np.empty((held.size, slopes.size))
    for row, s in zip(sums, held):
        e[:, bounds[s] : bounds[s + 1]].sum(axis=1, out=row)
    np.log(sums, out=sums)
    sums -= slopes * (first / beta)[:, None]
    out[held] = sums
    return out


def _log_sum_exp(terms: list, shape: tuple) -> np.ndarray:
    """log sum exp of broadcast ``terms`` in a new array of ``shape``:
    each is shifted by their elementwise maximum, summed in list order."""
    top = np.empty(shape)
    top[...] = terms[0]
    for x in terms[1:]:
        np.maximum(top, x, out=top)
    sums = np.subtract(terms[0], top)
    np.exp(sums, out=sums)
    tmp = np.empty(shape)
    for x in terms[1:]:
        np.subtract(x, top, out=tmp)
        np.exp(tmp, out=tmp)
        sums += tmp
    np.log(sums, out=sums)
    sums += top
    return sums


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

    V_s is summed outward from the segment z that holds 0, so an entropic
    leaf's log-sum over the segments at and above z depends on the digits
    z..n-1 only, and over those below z on the digits 0..z only.  Each such
    side is a log-sum-exp on its own small broadcast shape over the segments
    that hold a sample; the last table of every leaf and side is kept and
    reused while that side's digits repeat, and the two sides meet per
    candidate as max + log1p(exp(min - max)).
    """

    def __init__(self, spec1: RiskMeasure, spec2: RiskMeasure, m: EmpiricalMeasure,
                 knots: np.ndarray, slope_values: np.ndarray):
        xs = m.samples
        n = xs.size
        self.left = knots[:-1]
        # the segment holding 0, where the candidate's value is theta * x
        self.zero = z = min(max(int(knots.searchsorted(0.0, side="right")) - 1, 0), self.left.size - 1)

        lin1, ent1 = _compile(spec1, n)
        lin2, ent2 = _compile(spec2, n)
        self.offset = 0.0
        # (segments, slopes) tables of theta * gain, theta * width, theta * left
        # knot; without linear leaves every gain is 0 and there is no table
        self.gains = None
        if lin1 is not None or lin2 is not None:
            c = overlap_matrix(xs, knots)
            gain = np.zeros(self.left.size)
            if lin1 is not None:
                gain -= lin1 @ c
            if lin2 is not None:
                self.offset = -float(lin2 @ xs)
                gain += lin2 @ c
            self.gains = slope_values * gain[:, None]
        self.steps = slope_values * np.diff(knots)[:, None]
        self.lefts = slope_values * self.left[:, None]
        self.entropic1: list = []
        self.entropic2: list = []
        self.sides: list = []
        if not (ent1 or ent2):
            return
        bounds = np.searchsorted(xs, self.left)
        bounds[0] = 0
        bounds = np.append(bounds, n)
        d = xs - np.repeat(self.left, np.diff(bounds))
        self.entropic1 = [(w, beta, _log_segment_sums(d, bounds, slope_values, beta)) for w, beta in ent1]
        self.entropic2 = [(w, beta, _log_segment_sums(d, bounds, 1.0 - slope_values, beta)) for w, beta in ent2]
        self.log_n = np.log(n)
        # (name, segments that hold a sample, digits its log-sums depend on)
        held = np.flatnonzero(np.diff(bounds)).tolist()
        up, down = [s for s in held if s >= z], [s for s in held if s < z]
        sides = (("up", up, slice(z, None)), ("down", down, slice(0, z + 1)))
        self.sides = [side for side in sides if side[1]]
        self._tables: dict = {}  # (agent, leaf, side name) -> (its digits, its last table)
        self._scratch = (np.empty(0), np.empty(0))

    def __call__(self, choices: list) -> np.ndarray:
        """Objective of every candidate in the product of ``choices``, where
        ``choices[s]`` lists segment s's digits into ``slope_values``; flat,
        in lexicographic order (the last segment varies fastest)."""
        n_seg = len(choices)
        shape = tuple(len(c) for c in choices)

        def pick(table: np.ndarray, s: int):
            # row s at segment s's choices, along axis s; one choice is a scalar
            row = table[s, choices[s]]
            return row[0] if row.size == 1 else row.reshape((-1,) + (1,) * (n_seg - 1 - s))

        if self.gains is not None:
            total = self.offset + functools.reduce(np.add, (pick(self.gains, s) for s in range(n_seg)))
            if not (self.entropic1 or self.entropic2):
                return np.broadcast_to(total, shape).reshape(-1)
            # a fresh array of the product's shape, the leaves are added into it
            total = np.reshape(total, shape)
        else:
            # 0.0 + x is x, so the leaves alone give a total's bits
            total = np.zeros(shape)

        def knot_values(segs: list) -> list:
            # values at the left knots of segs, overlap_matrix(knots[:-1], knots)
            # @ thetas, summed outward from the segment holding 0
            z = self.zero
            v = {z: pick(self.lefts, z)}
            above = range(z + 1, segs[-1] + 1)
            for s, run in zip(above, itertools.accumulate(pick(self.steps, s - 1) for s in above)):
                v[s] = v[z] + run
            below = range(z - 1, segs[0] - 1, -1)
            for s, run in zip(below, itertools.accumulate(pick(self.steps, s) for s in below)):
                v[s] = v[z] - run
            return [v[s] for s in segs]

        keys = {name: tuple(tuple(c.tolist() if isinstance(c, np.ndarray) else c) for c in choices[digits])
                for name, _, digits in self.sides}
        values: dict = {}
        if self._scratch[0].shape != shape:
            self._scratch = (np.empty(shape), np.empty(shape))
        top, low = self._scratch
        for agent, entropic in enumerate((self.entropic1, self.entropic2)):
            for leaf, (w, beta, log_sums) in enumerate(entropic):
                tables = []
                for name, segs, digits in self.sides:
                    key, table = self._tables.get((agent, leaf, name), (None, None))
                    if key != keys[name]:
                        if name not in values:
                            values[name] = knot_values(segs)
                        v = values[name]
                        if agent:
                            v = [self.left[s] - vs for s, vs in zip(segs, v)]
                        side_shape = tuple(k if s in range(n_seg)[digits] else 1 for s, k in enumerate(shape))
                        table = _log_sum_exp([pick(log_sums, s) - vs / beta for s, vs in zip(segs, v)], side_shape)
                        self._tables[agent, leaf, name] = (keys[name], table)
                    tables.append(table)
                # the leaf's log-sum, combined in the full-size buffers; the
                # cached tables are only read
                if len(tables) == 2:
                    np.maximum(*tables, out=top)
                    np.minimum(*tables, out=low)
                    low -= top
                    np.exp(low, out=low)
                    np.log1p(low, out=low)
                    top += low
                    top -= self.log_n
                else:
                    np.subtract(tables[0], self.log_n, out=top)
                top *= w * beta
                total += top
        return total.reshape(-1)


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
    """Best slope vector on a level grid: the candidate that enumerating
    every vector would keep.

    Each segment slope ranges over {0, 1/levels, ..., 1}, i.e. levels+1 grid
    values; the candidate count (levels+1)**segments must stay within
    10,000,000, else BudgetError, and ``evaluations`` reports it.  The
    result is the lowest value over all candidates, and exact ties keep the
    lexicographically largest vector, so a segment that neither measure
    weighs stays with the first agent.  Pairs without entropic leaves are
    solved segment by segment, others by scoring every candidate.  Pass
    explicit ``knots`` to pin the candidate family, e.g. to compare two
    samples over the same family.
    """
    if levels < 1:
        raise ValueError("need at least one slope step")
    if knots is None:
        knots = build_knots(m, segments)
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
    if score.entropic1 or score.entropic2:
        value, best = _last_minimum_by_blocks(score)
    else:
        value, best = _last_minimum_by_segments(score)
    return OracleResult(
        value=float(value),
        slopes=grid[best],
        knots=knots,
        evaluations=total,
        levels=levels,
    )


def _last_minimum_by_blocks(score: _Scorer) -> tuple:
    """Smallest value and the digits of the lexicographically last candidate
    that has it, scored block by block: every combination of the fewest
    trailing segments that make _CHUNK candidates, under each leading prefix
    in turn.  A candidate's bits do not depend on its block, so the value is
    the one the winner scores alone.
    """
    n_seg, size = score.steps.shape
    tail = next((t for t in range(1, n_seg) if size**t >= _CHUNK), n_seg)
    digits = np.arange(size)
    best_value = np.inf
    best: list = []
    for head in itertools.product(range(size), repeat=n_seg - tail):
        values = score([[d] for d in head] + [digits] * tail)
        # the last minimum of the block is its largest minimizing candidate,
        # and later prefixes are larger, so ties go to the later block
        k = values.size - 1 - int(np.argmin(values[::-1]))
        if values[k] <= best_value:
            best_value = values[k]
            best = list(head) + [int(d) for d in np.unravel_index(k, (size,) * tail)]
    return best_value, best


def _last_minimum_by_segments(score: _Scorer) -> tuple:
    """Smallest value and the digits of the lexicographically last candidate
    that has it, for a scorer without entropic leaves, without enumerating
    candidates.

    A value is offset + (gains[0, d0] + ... + gains[n-1, d(n-1)]), the sum
    taken left to right, and rounded addition is monotone: the per-segment
    minima reach the smallest rounded value, and the smallest value
    reachable after fixing digits 0..s is the one completed by the later
    minima.  So the last minimizer takes, segment by segment, the largest
    digit whose completion still reaches the smallest value; ``completed``
    sums in the scorer's order, so that value is the winner's score.
    """
    rows = score.gains.tolist()
    lows = score.gains.min(axis=1).tolist()

    def completed(partial: float, s: int) -> float:
        for low in lows[s + 1 :]:
            partial += low
        return score.offset + partial

    best_value = completed(lows[0], 0)
    best: list = []
    partial = None
    for s, row in enumerate(rows):
        trial = row if partial is None else [partial + gain for gain in row]
        d = next(d for d in reversed(range(len(row))) if completed(trial[d], s) == best_value)
        best.append(d)
        partial = trial[d]
    return best_value, best


def coordinate_descent_refine(
    spec1: RiskMeasure,
    spec2: RiskMeasure,
    m: EmpiricalMeasure,
    start: GridAllocation,
    levels: int = 8,
) -> OracleResult:
    """Cyclic single-coordinate minimization over the discrete slope levels.

    Each move re-optimizes one segment slope over {0, 1/levels, ..., 1} with
    the others held fixed, accepting only strict improvements (ties keep the
    incumbent, so a grid-search argmin is a fixed point).  Stops after 50
    sweeps, or earlier once a full sweep changes nothing.
    """
    if levels < 1:
        raise ValueError("need at least one slope step")
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
    for _ in range(_SWEEPS):
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
