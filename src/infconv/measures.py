"""Law-invariant convex risk measures evaluated on finite samples.

A sample vector is interpreted as an equally weighted empirical distribution of
a profit-and-loss position (negative values are losses).  Every measure here is
cash additive, monotone and convex; values depend on the sorted sample only.

All evaluation runs through one kernel.  ``leaves`` flattens a spec into
weighted entropic, shortfall and spectral leaves; a compile step, cached per
spec and sample size, sums the order-statistic weights of the linear leaves;
``sorted_risk`` then values (and differentiates) an ascending sample, or each
column of a matrix of them, as that weighting plus one log-mean-exp per
entropic leaf.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Entropic",
    "ExpectedShortfall",
    "Distortion",
    "Spectral",
    "Combination",
    "RiskMeasure",
    "EmpiricalMeasure",
    "empirical",
    "es_spectral_density",
    "eval_entropic",
    "eval_var",
    "eval_es",
    "eval_distortion",
    "eval_spectral",
    "evaluate",
    "eval_with_grad",
    "leaves",
    "sorted_risk",
    "sorted_tail_weights",
    "spectral_order_weights",
    "parse_risk_spec",
    "render_risk_spec",
]

# Tolerances used by constructor validation.
_WEIGHT_TOL = 1e-12
_DENSITY_TOL = 1e-9
_MAX_NESTING = 4

# Absolute slack when locating quantile indices, so that alpha*N lands on the
# mathematically correct integer even when IEEE rounding pushes the product a
# few ulp past it (e.g. 0.07 * 100 == 7.000000000000001).
_INDEX_NUDGE = 1e-9


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def _check_level(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    return value


@dataclass(frozen=True)
class Entropic:
    """Exponential-utility risk measure with risk tolerance ``beta``."""

    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _check_positive("beta", self.beta))


@dataclass(frozen=True)
class ExpectedShortfall:
    """Average of the worst ``alpha`` fraction of outcomes."""

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_level("alpha", self.alpha))


@dataclass(frozen=True)
class Distortion:
    """Convex combination of expected-shortfall measures.

    ``components`` is a tuple of ``(weight, alpha)`` pairs; weights are
    positive and sum to one within 1e-12.
    """

    components: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        comps = tuple((float(w), _check_level("alpha", a)) for w, a in self.components)
        if not comps:
            raise ValueError("distortion needs at least one component")
        for w, _ in comps:
            _check_positive("weight", w)
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"distortion weights must sum to 1, got {total!r}")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True, eq=False)
class Spectral:
    """Risk measure defined by a non-increasing density on the unit interval.

    The density is a grid function: ``grid`` spans [0, 1] with at least two
    strictly increasing points, ``values`` are the non-negative densities at
    those points, linearly interpolated in between.  The trapezoid integral
    must equal one within 1e-9.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("spectral density grid needs at least 2 points")
        if values.shape != grid.shape:
            raise ValueError("spectral grid and values must have equal length")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("spectral density must be finite")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("spectral density grid must span [0, 1]")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("spectral density grid must be strictly increasing")
        if np.any(values < 0.0):
            raise ValueError("spectral density must be non-negative")
        if np.any(np.diff(values) > 0.0):
            raise ValueError("spectral density must be non-increasing")
        total = float((0.5 * (values[1:] + values[:-1]) * np.diff(grid)).sum())
        if abs(total - 1.0) > _DENSITY_TOL:
            raise ValueError(f"spectral density must integrate to 1, got {total!r}")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Combination:
    """Weighted mixture of arbitrary risk measures (nesting depth <= 4)."""

    terms: tuple[tuple[float, "RiskMeasure"], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(w), s) for w, s in self.terms)
        if not terms:
            raise ValueError("combination needs at least one term")
        for w, spec in terms:
            _check_positive("weight", w)
            if not isinstance(spec, (Entropic, ExpectedShortfall, Distortion, Spectral, Combination)):
                raise ValueError(f"not a risk measure spec: {spec!r}")
        total = sum(w for w, _ in terms)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"combination weights must sum to 1, got {total!r}")
        object.__setattr__(self, "terms", terms)
        if _nesting_depth(self) > _MAX_NESTING:
            raise ValueError(f"combination nesting depth exceeds {_MAX_NESTING}")


RiskMeasure = Entropic | ExpectedShortfall | Distortion | Spectral | Combination


def _nesting_depth(spec: RiskMeasure) -> int:
    if isinstance(spec, Combination):
        return 1 + max(_nesting_depth(s) for _, s in spec.terms)
    return 1


def es_spectral_density(alpha: float, num_points: int = 201) -> Spectral:
    """Spectral density ``u -> (1/alpha) * 1{u <= alpha}`` as a grid function.

    The downward jump at ``alpha`` is encoded by two grid points 1e-12 apart,
    which keeps the trapezoid integral within 1e-9 of one and makes the
    spectral evaluation agree with eval_es to the same precision.
    """
    alpha = _check_level("alpha", alpha)
    base = np.linspace(0.0, 1.0, max(int(num_points), 101))
    jump_hi = min(alpha + 1e-12, 1.0)
    grid = np.unique(np.concatenate([base, [alpha, jump_hi]]))
    values = np.where(grid <= alpha, 1.0 / alpha, 0.0)
    return Spectral(grid=grid, values=values)


# ---------------------------------------------------------------------------
# Empirical measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Equally weighted sample, stored sorted ascending.

    ``original_order[k]`` is the index the k-th smallest sample had in the
    input vector, so gradients can be reported in input order.
    """

    samples: np.ndarray
    original_order: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        order = np.asarray(self.original_order, dtype=np.int64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("empirical measure needs a non-empty 1-d sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if np.any(np.diff(samples) < 0.0):
            raise ValueError("samples must be sorted ascending")
        if order.shape != samples.shape:
            raise ValueError("original_order must match the sample length")
        seen = np.zeros(samples.size, dtype=bool)
        if order.min() < 0 or order.max() >= samples.size:
            raise ValueError("original_order is not a permutation")
        seen[order] = True
        if not seen.all():
            raise ValueError("original_order is not a permutation")
        samples.setflags(write=False)
        order.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "original_order", order)

    @property
    def size(self) -> int:
        return int(self.samples.size)


def empirical(values: np.ndarray) -> EmpiricalMeasure:
    """Sort a raw sample vector into an EmpiricalMeasure (stable on ties)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need a non-empty 1-d sample vector")
    if not np.all(np.isfinite(values)):
        raise ValueError("samples must be finite")
    order = np.argsort(values, kind="stable")
    return EmpiricalMeasure(samples=values[order], original_order=order)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _ceil_index(u: float, n: int) -> int:
    """1-based order-statistic index ceil(n*u), robust to float roundoff."""
    k = int(np.ceil(n * float(u) - _INDEX_NUDGE))
    return min(max(k, 1), n)


def _tail_split(alpha: float, n: int) -> tuple[int, float]:
    """Split alpha*n into (full_count, fractional_weight) for tail averages."""
    t = float(alpha) * n
    full = int(np.floor(t + _INDEX_NUDGE))
    frac = max(t - full, 0.0)
    return min(full, n), frac


def eval_entropic(m: EmpiricalMeasure, beta: float) -> float:
    """beta * log mean(exp(-x/beta)), stabilized by a max shift."""
    beta = _check_positive("beta", beta)
    t = -m.samples / beta
    shift = float(t[0])  # samples sorted ascending, so t[0] is the max
    total = float(np.exp(t - shift).sum())
    return beta * (shift + np.log(total) - np.log(m.size))

def eval_var(m: EmpiricalMeasure, u: float) -> float:
    """Left-continuous empirical value-at-risk -x_(ceil(N*u)) at level u."""
    u = _check_level("u", u)
    return float(-m.samples[_ceil_index(u, m.size) - 1])


def sorted_tail_weights(alpha: float, n: int) -> np.ndarray:
    """Weights w with eval_es == -(w @ sorted_samples); w sums to one."""
    alpha = _check_level("alpha", alpha)
    full, frac = _tail_split(alpha, n)
    w = np.zeros(n)
    t = alpha * n
    w[:full] = 1.0 / t
    if frac > 0.0 and full < n:
        w[full] = frac / t
    return w


def eval_es(m: EmpiricalMeasure, alpha: float) -> float:
    """Expected shortfall: mean of the worst alpha-fraction of the sample.

    The empirical tail average weighs the ceil(alpha*N)-th order statistic by
    the fractional part of alpha*N, so the value is continuous in alpha.
    """
    return float(-(sorted_tail_weights(alpha, m.size) @ m.samples))


def eval_distortion(m: EmpiricalMeasure, components: tuple[tuple[float, float], ...]) -> float:
    """Weighted sum of expected shortfalls."""
    return float(sum(w * eval_es(m, a) for w, a in components))


def spectral_order_weights(density: Spectral, n: int) -> np.ndarray:
    """Quadrature weight of each order statistic under a spectral density.

    The empirical quantile is constant on each ((k-1)/N, k/N], so the grid is
    refined by those jump points and the trapezoid rule is applied piecewise;
    weight k collects the density mass of its interval.
    """
    jumps = np.arange(1, n) / n
    edges = np.unique(np.concatenate([density.grid, jumps]))
    h = np.interp(edges, density.grid, density.values)
    seg = 0.5 * (h[1:] + h[:-1]) * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    idx = np.clip(np.ceil(n * mid).astype(np.int64) - 1, 0, n - 1)
    w = np.zeros(n)
    np.add.at(w, idx, seg)
    return w


def eval_spectral(m: EmpiricalMeasure, density: Spectral) -> float:
    """Integral of the empirical value-at-risk against the density."""
    if not isinstance(density, Spectral):
        raise ValueError("density must be a Spectral spec")
    return float(-(spectral_order_weights(density, m.size) @ m.samples))


# ---------------------------------------------------------------------------
# The risk kernel
# ---------------------------------------------------------------------------

Leaf = Entropic | ExpectedShortfall | Spectral

# Distinct (spec, sample size) pairs whose compiled weights are kept.
_COMPILE_CACHE = 64


def leaves(spec: RiskMeasure) -> tuple[tuple[float, Leaf], ...]:
    """Flatten a spec into weighted Entropic, ExpectedShortfall and Spectral
    leaves: combinations multiply their weights through, distortions split
    into their shortfall components.  The spec's value is the weighted sum of
    its leaves' values."""
    if isinstance(spec, (Entropic, ExpectedShortfall, Spectral)):
        return ((1.0, spec),)
    if isinstance(spec, Distortion):
        return tuple((w, ExpectedShortfall(a)) for w, a in spec.components)
    if isinstance(spec, Combination):
        return tuple((w * lw, leaf) for w, term in spec.terms for lw, leaf in leaves(term))
    raise ValueError(f"not a risk measure spec: {spec!r}")


@functools.lru_cache(maxsize=_COMPILE_CACHE)
def _compile(spec: RiskMeasure, n: int) -> tuple[np.ndarray | None, tuple[tuple[float, float], ...]]:
    """Summed order weights of the linear leaves (read-only, None when there
    are none) and the (weight, beta) pairs of the entropic leaves."""
    linear = None
    entropic = []
    for w, leaf in leaves(spec):
        if isinstance(leaf, Entropic):
            entropic.append((w, leaf.beta))
            continue
        if linear is None:
            linear = np.zeros(n)
        if isinstance(leaf, ExpectedShortfall):
            linear += w * sorted_tail_weights(leaf.alpha, n)
        else:
            linear += w * spectral_order_weights(leaf, n)
    if linear is not None:
        linear.setflags(write=False)
    return linear, tuple(entropic)


def sorted_risk(spec: RiskMeasure, xs: np.ndarray, grad: bool = False):
    """Risk of an ascending sample vector, or of each ascending column of an
    (n, k) matrix.

    The value is the order-statistic weighting of the linear leaves plus a
    max-shifted log-mean-exp per entropic leaf.  With ``grad=True`` the
    gradient with respect to the sorted values (same shape as ``xs``) is
    returned too.  ``xs`` is trusted to be finite and sorted along axis 0.
    """
    n = xs.shape[0]
    linear, entropic = _compile(spec, n)
    value = 0.0 if linear is None else -(linear @ xs)
    if grad:
        g = np.zeros(xs.shape)
        if linear is not None:
            g -= linear.reshape((n,) + (1,) * (xs.ndim - 1))
    for w, beta in entropic:
        e = xs / -beta
        shift = e[0].copy()  # ascending, so row 0 carries the largest exponent
        e -= shift
        np.exp(e, out=e)
        total = e.sum(axis=0)
        value = value + w * (beta * (shift + np.log(total) - np.log(n)))
        if grad:
            g -= w * (e / total)
    return (value, g) if grad else value


def evaluate(spec: RiskMeasure, m: EmpiricalMeasure) -> float:
    """Evaluate any risk measure spec on an empirical measure."""
    return float(sorted_risk(spec, m.samples))


def eval_with_grad(spec: RiskMeasure, m: EmpiricalMeasure) -> tuple[float, np.ndarray]:
    """Value plus gradient with respect to the samples, in input order.

    The gradient entries sum to -1 (cash additivity).  Ties between equal
    samples are resolved by the stable sort recorded in the measure.
    """
    value, grad_sorted = sorted_risk(spec, m.samples, grad=True)
    grad = np.empty(m.size)
    grad[m.original_order] = grad_sorted
    return float(value), grad


# ---------------------------------------------------------------------------
# Textual form
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<sym>[()*+=,-]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot tokenize risk spec at {text[pos:]!r}")
        pos = match.end()
        for kind in ("num", "name", "sym"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value.lower() if kind == "name" else value))
                break
    tokens.append(("end", ""))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> str:
        tok_kind, tok_value = self.next()
        if tok_kind != kind or (value is not None and tok_value != value):
            want = value if value is not None else kind
            raise ValueError(f"expected {want!r}, got {tok_value!r} in risk spec")
        return tok_value


def _parse_number(ts: _TokenStream) -> float:
    sign = 1.0
    kind, value = ts.peek()
    while kind == "sym" and value in "+-":
        ts.next()
        if value == "-":
            sign = -sign
        kind, value = ts.peek()
    kind, value = ts.next()
    if kind != "num":
        raise ValueError(f"expected a number, got {value!r} in risk spec")
    return sign * float(value)


def _parse_scalar_arg(ts: _TokenStream, keyword: str) -> float:
    # accepts either "name(0.8)" or "name(keyword=0.8)"
    kind, value = ts.peek()
    if kind == "name":
        ts.next()
        if value != keyword:
            raise ValueError(f"unknown argument {value!r}, expected {keyword!r}")
        ts.expect("sym", "=")
    return _parse_number(ts)


def _parse_weighted_terms(ts: _TokenStream) -> list[tuple[float, RiskMeasure]]:
    out: list[tuple[float, RiskMeasure]] = []
    while True:
        weight = _parse_number(ts)
        ts.expect("sym", "*")
        out.append((weight, _parse_spec(ts)))
        kind, value = ts.peek()
        if kind != "sym" or value != "+":
            return out
        ts.next()


def _parse_spec(ts: _TokenStream) -> RiskMeasure:
    kind, name = ts.next()
    if kind != "name":
        raise ValueError(f"expected a risk measure name, got {name!r}")
    ts.expect("sym", "(")
    if name == "entropic":
        spec: RiskMeasure = Entropic(beta=_parse_scalar_arg(ts, "beta"))
    elif name == "es":
        spec = ExpectedShortfall(alpha=_parse_scalar_arg(ts, "alpha"))
    elif name == "distortion":
        comps = []
        for weight, inner in _parse_weighted_terms(ts):
            if not isinstance(inner, ExpectedShortfall):
                raise ValueError("distortion components must be es(...) terms")
            comps.append((weight, inner.alpha))
        spec = Distortion(components=tuple(comps))
    elif name == "mix":
        spec = Combination(terms=tuple(_parse_weighted_terms(ts)))
    else:
        raise ValueError(f"unknown risk measure {name!r}")
    ts.expect("sym", ")")
    return spec


def parse_risk_spec(text: str) -> RiskMeasure:
    """Parse the canonical textual form, e.g. ``entropic(beta=2.0)``,
    ``es(alpha=0.8)``, ``distortion(0.5*es(0.8)+0.5*es(0.7))``,
    ``mix(0.99*es(0.8)+0.01*entropic(1.0))``.  Case-insensitive and
    whitespace-tolerant."""
    ts = _TokenStream(_tokenize(text))
    spec = _parse_spec(ts)
    ts.expect("end")
    return spec


def render_risk_spec(spec: RiskMeasure) -> str:
    """Canonical textual form; parse(render(spec)) reproduces spec exactly."""
    if isinstance(spec, Entropic):
        return f"entropic(beta={spec.beta!r})"
    if isinstance(spec, ExpectedShortfall):
        return f"es(alpha={spec.alpha!r})"
    if isinstance(spec, Distortion):
        body = "+".join(f"{w!r}*es({a!r})" for w, a in spec.components)
        return f"distortion({body})"
    if isinstance(spec, Combination):
        body = "+".join(f"{w!r}*{render_risk_spec(s)}" for w, s in spec.terms)
        return f"mix({body})"
    raise ValueError(f"no textual form for {type(spec).__name__} specs")
