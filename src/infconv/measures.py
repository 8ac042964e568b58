"""Law-invariant convex risk measures evaluated on finite samples.

A sample vector is interpreted as an equally weighted empirical distribution of
a profit-and-loss position (negative values are losses).  Every measure here is
cash additive, monotone and convex; values depend on the sorted sample only.

All evaluation runs through one kernel.  ``leaves`` flattens a spec into
weighted entropic, shortfall and spectral leaves; a compile step, cached per
spec and sample size, sums the order-statistic weights of the linear leaves,
each read off the leaf's piecewise-linear rank density; ``sorted_risk`` then
values (and differentiates) an ascending sample vector as that weighting
plus one log-mean-exp per entropic leaf.

``parse_risk_spec`` reads text such as ``mix(0.5*es(0.8)+0.5*entropic(2.0))``
by walking Python's expression tree without evaluating it; distributions in
``sampling`` are read by the same walk.
"""

from __future__ import annotations

import ast
import functools
import reprlib
from dataclasses import dataclass, fields

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
    "eval_var",
    "evaluate",
    "eval_with_grad",
    "leaves",
    "sorted_risk",
    "parse_risk_spec",
    "render_risk_spec",
]

# Tolerances used by constructor validation.
_WEIGHT_TOL = 1e-12
_DENSITY_TOL = 1e-9
_MAX_NESTING = 4

# Absolute slack when eval_var locates its quantile index, so that u*N lands
# on the mathematically correct integer even when IEEE rounding pushes the
# product a few ulp past it (e.g. 0.07 * 100 == 7.000000000000001).
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
    increasing points, ``values`` are the non-negative densities at those
    points, linearly interpolated in between.  A grid point may appear twice
    in a row, holding the density just left and just right of a downward
    jump; no point appears three times.  The trapezoid integral must equal
    one within 1e-9.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        # copies, so freezing them below leaves the caller's arrays writable
        grid = np.array(self.grid, dtype=np.float64)
        values = np.array(self.values, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("spectral density grid needs at least 2 points")
        if values.shape != grid.shape:
            raise ValueError("spectral grid and values must have equal length")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("spectral density must be finite")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("spectral density grid must span [0, 1]")
        steps = np.diff(grid)
        if np.any(steps < 0.0) or np.any((steps[1:] == 0.0) & (steps[:-1] == 0.0)):
            raise ValueError("spectral density grid must increase, each point at most twice")
        if np.any(values < 0.0):
            raise ValueError("spectral density must be non-negative")
        if np.any(np.diff(values) > 0.0):
            raise ValueError("spectral density must be non-increasing")
        # densities above half the largest float overflow to inf here (or to
        # nan at a jump), which the check below rejects
        with np.errstate(over="ignore", invalid="ignore"):
            total = float((0.5 * (values[1:] + values[:-1]) * steps).sum())
        if not abs(total - 1.0) <= _DENSITY_TOL:
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


def es_spectral_density(alpha: float) -> Spectral:
    """Spectral density ``u -> (1/alpha) * 1{u <= alpha}``, the step density
    of expected shortfall at level ``alpha``, with its jump at ``alpha`` as a
    repeated grid point.  It evaluates as ``ExpectedShortfall(alpha)`` does."""
    alpha = _check_level("alpha", alpha)
    return Spectral(grid=[0.0, alpha, alpha, 1.0], values=[1.0 / alpha, 1.0 / alpha, 0.0, 0.0])


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
        # copies, so freezing them below leaves the caller's arrays writable
        samples = np.array(self.samples, dtype=np.float64)
        order = np.array(self.original_order, dtype=np.int64)
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

    @classmethod
    def _adopt(cls, samples: np.ndarray, order: np.ndarray) -> "EmpiricalMeasure":
        """A measure over sorted float64 samples and their int64 order that no
        one else holds: frozen in place, neither copied nor checked again."""
        measure = object.__new__(cls)
        for name, arr in (("samples", samples), ("original_order", order)):
            arr.setflags(write=False)
            object.__setattr__(measure, name, arr)
        return measure


def empirical(values: np.ndarray) -> EmpiricalMeasure:
    """Sort a raw sample vector into an EmpiricalMeasure (stable on ties)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need a non-empty 1-d sample vector")
    if not np.all(np.isfinite(values)):
        raise ValueError("samples must be finite")
    order = np.argsort(values, kind="stable")
    # both arrays are new here, so the constructor's defensive copies would
    # only double the memory (3.2 MB at 200,001 evaluation points)
    return EmpiricalMeasure._adopt(values[order], order.astype(np.int64, copy=False))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _ceil_index(u: float, n: int) -> int:
    """eval_var's 1-based order-statistic index ceil(n*u), robust to roundoff."""
    k = int(np.ceil(n * float(u) - _INDEX_NUDGE))
    return min(max(k, 1), n)


def eval_var(m: EmpiricalMeasure, u: float) -> float:
    """Left-continuous empirical value-at-risk -x_(ceil(N*u)) at level u."""
    u = _check_level("u", u)
    return float(-m.samples[_ceil_index(u, m.size) - 1])


# ---------------------------------------------------------------------------
# The risk kernel
# ---------------------------------------------------------------------------

Leaf = Entropic | ExpectedShortfall | Spectral

# Distinct (spec, sample size) pairs whose compiled weights are kept.
_COMPILE_CACHE = 64

# Sample range over beta below which an entropic leaf is valued as
# beta * log1p(mean(expm1(e))).  The plain beta * log(mean(exp(e))) cancels
# there: against 60-digit references its worst error grew from 1e-13 of the
# sample's largest |x| at 1e-2 to 1.4e-12 at 1e-3 and 8.5e-10 at 1e-6, and
# from about 1e-16 on it returns -min(x); the log1p form stayed within
# 4.1e-16.  Above the cut the log form, and its bits, are kept.
_NARROW_ENTROPIC = 1e-2


def _density_pieces(leaf: Leaf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A linear leaf's rank density as breakpoints 0 = t_0 < ... < t_m = 1
    and its values at each piece's left and right end; it is linear in
    between.  Entropic leaves have no such density."""
    if isinstance(leaf, ExpectedShortfall):
        # 1/alpha overflows below float64's smallest normal number; a sample
        # of fewer than 1e307 points puts all of such a level's weight on its
        # worst rank, as it does at that number
        alpha = max(leaf.alpha, np.finfo(np.float64).tiny)
        height = np.array([1.0 / alpha, 0.0])
        return np.array([0.0, alpha, 1.0]), height, height
    if isinstance(leaf, Spectral):
        # a repeated grid point is a jump: its zero-width piece is dropped
        keep = np.diff(leaf.grid) > 0.0
        return np.unique(leaf.grid), leaf.values[:-1][keep], leaf.values[1:][keep]
    raise ValueError(f"no rank-weighting density: the spec has a leaf of type {type(leaf).__name__}")


def _order_weights(leaf: Leaf, n: int) -> np.ndarray:
    """Weight of each order statistic under a linear leaf: the density's mass
    on ((k-1)/n, k/n], where the empirical quantile is constant, taken as
    differences of the density's exact integral g at k/n."""
    t, left, right = _density_pieces(leaf)
    width = np.diff(t)
    # g at the breakpoints: the cumulative trapezoid
    below = np.concatenate([[0.0], np.cumsum(0.5 * (left + right) * width)])
    k = np.arange(n + 1.0)
    j = np.minimum(np.searchsorted(t, k / n, side="right") - 1, width.size - 1)
    # plus the partial trapezoid over the s ranks from the piece's left end to
    # k; counted in ranks, g on a flat piece is rounded once
    s = k - n * t[j]
    slope = 0.5 * (right - left) / (n * n * width)
    g = below[j] + s * (left[j] / n + slope[j] * s)
    return np.diff(g)


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
        linear += w * _order_weights(leaf, n)
    if linear is not None:
        linear.setflags(write=False)
    return linear, tuple(entropic)


def sorted_risk(spec: RiskMeasure, xs: np.ndarray, grad: bool = False):
    """Risk of an ascending sample vector.

    The value is the order-statistic weighting of the linear leaves plus a
    max-shifted log-mean-exp per entropic leaf.  With ``grad=True`` the
    gradient with respect to the sorted values is returned too.  ``xs`` is
    trusted to be finite and sorted ascending.
    """
    n = xs.size
    linear, entropic = _compile(spec, n)
    value = 0.0 if linear is None else -(linear @ xs)
    if grad:
        # 0.0 - w keeps a +0.0 weight +0.0, as zeros minus it did
        g = np.zeros(n) if linear is None else np.subtract(0.0, linear)
    for w, beta in entropic:
        # xs ascends, so xs[0] gives the largest exponent, 0; an exponent
        # that overflows to -inf is exact, as its term is 0
        with np.errstate(over="ignore"):
            e = (xs[0] - xs) / beta
        # e[-1] is -range/beta; on a narrow range the mean of exp(e) lies
        # next to 1 and its log cancels, so the value comes from the mean
        # excess; the gradient's weights are accurate either way
        narrow = beta * np.log1p(np.expm1(e).mean()) if e[-1] > -_NARROW_ENTROPIC else None
        np.exp(e, out=e)
        total = e.sum()
        spread = beta * (np.log(total) - np.log(n)) if narrow is None else narrow
        value = value + w * (spread - xs[0])
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


def _expression(text: str) -> ast.expr:
    """The syntax tree of ``text``, lowercased and stripped.  Python's parser
    only builds the tree; nothing in it is evaluated."""
    try:
        return ast.parse(text.strip().lower(), mode="eval").body
    except SyntaxError as exc:
        bad = (exc.text or "")[(exc.offset or 1) - 1 :].strip()
        raise ValueError(f"{exc.msg} at {reprlib.repr(bad)}") from exc
    except (ValueError, RecursionError) as exc:  # null bytes; chains past the recursion limit
        raise ValueError(f"cannot parse {reprlib.repr(text)}: {exc}") from exc


def _number(node: ast.expr) -> float:
    """An int or float literal under any number of unary signs."""
    sign = 1.0
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        if isinstance(node.op, ast.USub):
            sign = -sign
        node = node.operand
    if not (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
        raise ValueError(f"expected a number, got {reprlib.repr(ast.unparse(node))}")
    try:
        return sign * float(node.value)
    except OverflowError as exc:
        raise ValueError(f"number out of range: {exc}") from exc


def _call(node: ast.expr, names) -> ast.Call:
    """A call on one of ``names``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names):
        raise ValueError(f"expected one of {', '.join(names)}, got {reprlib.repr(ast.unparse(node))}")
    return node


def _bind(call: ast.Call, cls):
    """``cls`` built from a call's number arguments: each of its dataclass
    fields given once, by position or by keyword."""
    names = [f.name for f in fields(cls)]
    if len(call.args) > len(names):
        raise ValueError(f"{call.func.id}() takes {len(names)} arguments, got {len(call.args)}")
    values = dict(zip(names, map(_number, call.args)))
    for kw in call.keywords:
        if kw.arg not in names or kw.arg in values:
            raise ValueError(f"unexpected argument {kw.arg!r} to {call.func.id}()")
        values[kw.arg] = _number(kw.value)
    if len(values) < len(names):
        raise ValueError(f"{call.func.id}() needs {', '.join(names)}")
    return cls(**values)


def _weighted_terms(node: ast.expr) -> list[tuple[float, RiskMeasure]]:
    """The (weight, spec) terms of a ``w*spec + w*spec + ...`` chain, in order."""
    chain = []
    while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        chain.append(node.right)
        node = node.left
    chain.append(node)
    terms = []
    for term in reversed(chain):
        if not (isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult)):
            raise ValueError(f"expected a weighted term w*spec, got {reprlib.repr(ast.unparse(term))}")
        terms.append((_number(term.left), _spec(term.right)))
    return terms


_LEAF_NAMES = {"entropic": Entropic, "es": ExpectedShortfall}


def _spec(node: ast.expr) -> RiskMeasure:
    call = _call(node, (*_LEAF_NAMES, "distortion", "mix"))
    name = call.func.id
    if name in _LEAF_NAMES:
        return _bind(call, _LEAF_NAMES[name])
    if len(call.args) != 1 or call.keywords:
        raise ValueError(f"{name}() takes one w*spec + w*spec + ... chain")
    terms = _weighted_terms(call.args[0])
    if name == "mix":
        return Combination(terms=tuple(terms))
    if not all(isinstance(inner, ExpectedShortfall) for _, inner in terms):
        raise ValueError("distortion components must be es(...) terms")
    return Distortion(components=tuple((w, inner.alpha) for w, inner in terms))


def parse_risk_spec(text: str) -> RiskMeasure:
    """Parse the canonical textual form, e.g. ``entropic(beta=2.0)``,
    ``es(alpha=0.8)``, ``distortion(0.5*es(0.8)+0.5*es(0.7))``,
    ``mix(0.99*es(0.8)+0.01*entropic(1.0))``.  Case-insensitive and
    whitespace-tolerant; read as a Python expression whose tree may hold
    only calls on these names, number literals and ``w*spec`` sums."""
    return _spec(_expression(text))


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
