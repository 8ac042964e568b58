"""Learning optimal risk-sharing allocations with small networks.

Two networks are trained jointly on an empirical sample: one proposes the
share of the pooled position kept by the first agent, the other the share
kept by the second.  The batch loss symmetrizes the pooled risk over both
consistent ways of completing each proposal, which keeps the pair honest
without a hard constraint; reported allocations are re-symmetrized so the
two shares add up to the input exactly.
"""

from __future__ import annotations

import threading
from collections.abc import Generator
from dataclasses import dataclass, replace

import numpy as np

from .measures import (
    EmpiricalMeasure,
    ExpectedShortfall,
    RiskMeasure,
    Spectral,
    empirical,
    evaluate,
    leaves,
    sorted_risk,
)
from . import net
from .net import ACTIVATIONS, Mlp, forward, init_mlp, value_and_grad
from .optim import OptimizerError, init_adam, init_plateau, adam_step, plateau_step
from .oracle import brute_force_infconv, build_knots
from .sampling import RngSeed, make_generator, wasserstein_p

__all__ = [
    "TrainConfig",
    "TrainingError",
    "EnsembleError",
    "MemberResult",
    "EnsembleAllocation",
    "LossHistory",
    "TrainResult",
    "batch_loss_and_cotangents",
    "train_member",
    "train_ensemble",
    "pair_loss",
    "allocation_loss",
    "metric_d",
    "metric_d_mu",
    "l2_error",
    "distortion_density_norm",
    "StabilityReport",
    "spectral_stability_check",
]

# The allocation metric compares maps on growing centered windows; terms decay
# geometrically so truncating after _METRIC_TERMS windows changes the value by
# less than 2**-_METRIC_TERMS (~2.4e-4).
_METRIC_TERMS = 12
_METRIC_POINTS_PER_UNIT = 512
# Absolute tolerance of the stability inequality, for rounding in both solves.
_STABILITY_SLACK = 1e-9

@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one ensemble training run.

    ``hidden_widths`` lists the hidden layer sizes; input and output are
    always scalar.  Learning-rate decay is driven by the mean batch loss of
    each epoch through a reduce-on-plateau rule.
    """

    n_samples: int = 20_000
    batch_size: int = 1_000
    epochs: int = 150
    learning_rate: float = 1e-4
    ensemble_size: int = 3
    hidden_widths: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    base_seed: int = 0
    patience: int = 10
    threshold: float = 1e-6
    factor: float = 0.1
    min_lr: float = 0.0

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("need at least two training samples")
        if not 1 <= self.batch_size <= self.n_samples:
            raise ValueError("batch size must lie in [1, n_samples]")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.ensemble_size < 1:
            raise ValueError("need at least one ensemble member")
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        init_plateau(self.patience, self.threshold, self.factor, self.min_lr)
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))

    @property
    def widths(self) -> tuple[int, ...]:
        return (1, *self.hidden_widths, 1)


class TrainingError(RuntimeError):
    """Raised when a member run produces non-finite values.

    Carries the member index, the epoch and batch where training broke down,
    and the mean losses of the completed epochs.
    """

    def __init__(self, message: str, member: int, epoch: int, batch: int, history: np.ndarray):
        super().__init__(message)
        self.member = member
        self.epoch = epoch
        self.batch = batch
        self.history = history


class EnsembleError(RuntimeError):
    """Raised when one or more ensemble members fail to train."""

    def __init__(self, message: str, failures: list[TrainingError]):
        super().__init__(message)
        self.failures = failures


def batch_loss_and_cotangents(
    spec1: RiskMeasure,
    spec2: RiskMeasure,
    xs: np.ndarray,
    first_values: np.ndarray,
    second_values: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Symmetrized pooled risk of two share proposals on one batch.

    Averages the two consistent completions (first proposal with its
    complement, complement of the second with the second) and returns the
    loss gradient with respect to each proposal's batch values.
    """
    xs, first_values, second_values = (
        np.asarray(v, dtype=np.float64) for v in (xs, first_values, second_values)
    )
    if xs.ndim != 1 or xs.size == 0 or not xs.shape == first_values.shape == second_values.shape:
        raise ValueError("batch and share values must be non-empty 1-d vectors of one length")
    if not all(np.all(np.isfinite(v)) for v in (xs, first_values, second_values)):
        raise ValueError("batch and share values must be finite")
    r1, g1 = _risk_with_grad(spec1, first_values)
    r2, g2 = _risk_with_grad(spec2, second_values)
    r3, g3 = _risk_with_grad(spec1, xs - second_values)
    r4, g4 = _risk_with_grad(spec2, xs - first_values)
    loss = 0.5 * (r1 + r2 + r3 + r4)
    cot1 = 0.5 * (g1 - g4)
    cot2 = 0.5 * (g2 - g3)
    return loss, cot1, cot2


def _risk_with_grad(spec: RiskMeasure, values: np.ndarray) -> tuple[float, np.ndarray]:
    """Risk of an unsorted vector and its gradient in input order."""
    order = np.argsort(values, kind="stable")
    value, grad_sorted = sorted_risk(spec, values[order], grad=True)
    grad = np.empty(values.size)
    grad[order] = grad_sorted
    return float(value), grad


@dataclass(frozen=True, eq=False)
class MemberResult:
    """Trained network pair of one ensemble member plus its epoch history."""

    phi1: Mlp
    phi2: Mlp
    losses: np.ndarray  # mean batch loss per epoch
    lrs: np.ndarray  # learning rate in effect during each epoch

    def first(self, xs: np.ndarray) -> np.ndarray:
        """Feasible first share: average of proposal and complement proposal."""
        xs = np.asarray(xs, dtype=np.float64)
        return 0.5 * (forward(self.phi1, xs) + xs - forward(self.phi2, xs))

    def second(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        return xs - self.first(xs)


def train_member(
    samples: np.ndarray,
    spec1: RiskMeasure,
    spec2: RiskMeasure,
    config: TrainConfig,
    member: int = 0,
) -> MemberResult:
    """Train one network pair on a fixed sample.

    Randomness is split by stream: member k initializes its networks from
    streams 4k+1 and 4k+2 and shuffles batches from stream 4k+3, so members
    are independent while the data sample (stream 0) is shared.  Each drawn
    batch is sorted ascending before the networks see it: the loss and its
    gradient do not depend on row order, and sorted rows keep the risk
    kernel's argsorts near linear; only the order in which the pullback sums
    rows, and so the last digits, depend on it.  Training
    holds BLAS at one thread, as train_ensemble does (net._one_blas_thread),
    so the bytes are the same as those of the ensemble's member.
    """
    epochs = _member_epochs(samples, spec1, spec2, config, member)
    with net._one_blas_thread:
        while True:
            try:
                next(epochs)
            except StopIteration as done:
                return done.value


def _member_epochs(
    samples: np.ndarray,
    spec1: RiskMeasure,
    spec2: RiskMeasure,
    config: TrainConfig,
    member: int,
) -> Generator[None, None, MemberResult]:
    """train_member as a generator that yields between epochs and returns
    the MemberResult, so that a scheduler can interleave members epoch by
    epoch.  A waiting member holds its parameters and optimizer state, but
    not the activations of its last batch."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size != config.n_samples:
        raise ValueError("sample vector does not match config.n_samples")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    if member < 0:
        raise ValueError("member index must be non-negative")

    phi1 = init_mlp(config.widths, config.activation, RngSeed(config.base_seed, 4 * member + 1))
    phi2 = init_mlp(config.widths, config.activation, RngSeed(config.base_seed, 4 * member + 2))
    shuffler = make_generator(RngSeed(config.base_seed, 4 * member + 3))
    adam1 = init_adam(phi1.params, config.learning_rate)
    adam2 = init_adam(phi2.params, config.learning_rate)
    plateau = init_plateau(config.patience, config.threshold, config.factor, config.min_lr)

    lr = config.learning_rate
    losses = np.empty(config.epochs)
    lrs = np.empty(config.epochs)

    for epoch in range(config.epochs):
        if epoch:
            yield
        order = shuffler.permutation(config.n_samples)
        batch_losses = []
        try:
            for batch, start in enumerate(range(0, config.n_samples, config.batch_size)):
                # the loss ignores row order; sorted rows come out of the networks
                # in a few monotone runs, which keeps the risk kernel's argsorts cheap
                xb = np.sort(samples[order[start : start + config.batch_size]])
                v1, pull1 = value_and_grad(phi1, xb)
                v2, pull2 = value_and_grad(phi2, xb)
                # raises ValueError on non-finite network outputs
                loss, cot1, cot2 = batch_loss_and_cotangents(spec1, spec2, xb, v1, v2)
                if not np.isfinite(loss):
                    raise ValueError("non-finite loss")
                batch_losses.append(loss)
                phi1.params, adam1 = adam_step(adam1, phi1.params, pull1(cot1))
                phi2.params, adam2 = adam_step(adam2, phi2.params, pull2(cot2))
            epoch_loss = float(np.mean(batch_losses))
            new_lr, plateau = plateau_step(plateau, epoch_loss, lr)
        except (ValueError, OptimizerError) as exc:
            raise TrainingError(
                f"member {member}: {exc} at epoch {epoch}, batch {batch}",
                member, epoch, batch, losses[:epoch].copy(),
            ) from exc
        # a waiting member must not keep these: the pullbacks hold every activation of the batch
        del order, xb, v1, v2, pull1, pull2, cot1, cot2
        losses[epoch] = epoch_loss
        lrs[epoch] = lr
        if new_lr != lr:
            lr = new_lr
            adam1 = replace(adam1, lr=lr)
            adam2 = replace(adam2, lr=lr)

    return MemberResult(phi1=phi1, phi2=phi2, losses=losses, lrs=lrs)


@dataclass(frozen=True, eq=False)
class EnsembleAllocation:
    """Pointwise average of the feasible member allocations.

    The first share is the mean of the members' symmetrized first shares and
    the second share is its exact complement, so feasibility is preserved.
    """

    members: tuple[MemberResult, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        object.__setattr__(self, "members", tuple(self.members))

    def first(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        return np.mean([m.first(xs) for m in self.members], axis=0)

    def second(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        return xs - self.first(xs)


@dataclass(frozen=True, eq=False)
class LossHistory:
    """Per-epoch loss and learning-rate trajectories of all members."""

    member_losses: np.ndarray  # (members, epochs)
    member_lrs: np.ndarray  # (members, epochs)

    @property
    def epochs(self) -> int:
        return int(self.member_losses.shape[1])

    @property
    def mean_loss(self) -> np.ndarray:
        return self.member_losses.mean(axis=0)

    @property
    def std_loss(self) -> np.ndarray:
        return self.member_losses.std(axis=0)

    @property
    def mean_lr(self) -> np.ndarray:
        return self.member_lrs.mean(axis=0)


@dataclass(frozen=True, eq=False)
class TrainResult:
    allocation: EnsembleAllocation
    history: LossHistory


def train_ensemble(
    samples: np.ndarray,
    spec1: RiskMeasure,
    spec2: RiskMeasure,
    config: TrainConfig,
) -> TrainResult:
    """Train config.ensemble_size independent members and average them.

    All members see the same sample; failures are collected and reported
    together, in member order, so one diverging member does not hide another.

    Members train on net._workers(ensemble_size, batch_size * max(hidden
    widths)) threads, the calling thread and daemon helpers: concurrently,
    on min(ensemble_size, usable CPUs), from a batch of 2**15 rows times
    width on.  Training holds numpy's BLAS at one thread, at any worker
    count, and restores the caller's count on return; the count is
    process-wide, so other threads' BLAS calls run on one thread meanwhile.
    Worker j starts member j; then each worker, after each epoch, puts its
    member back and takes the waiting member with the fewest epochs run (the
    lowest index on a tie), so while epochs take about equally long no member
    falls more than one epoch behind another.  A member's epochs still run
    one at a time and in order, it depends only on its own streams, and
    every numpy call gives the same bits in any thread, so the result is
    byte-identical to training the members one after another, on any host
    with the same numpy build.  A TrainingError ends only its member.  Any other
    error is re-raised here, the lowest member's first; members above it
    stop training, members below it go on, since they might fail first.  An
    interrupted caller leaves each helper to finish at most its current
    epoch.
    """
    size = config.ensemble_size
    workers = net._workers(size, config.batch_size * max(config.hidden_widths))
    runs = [_member_epochs(samples, spec1, spec2, config, k) for k in range(size)]
    outcomes: list = [None] * size
    waiting = {k: 0 for k in range(workers, size)}  # waiting member: epochs it has run
    lock = threading.Lock()
    cutoff = size  # only members below it start another epoch

    def work(k: int, ran: int = 0) -> None:
        nonlocal cutoff
        while k < cutoff:
            try:
                next(runs[k])
            except StopIteration as done:
                outcomes[k] = done.value
            except Exception as exc:  # collected, and sorted out in member order below
                outcomes[k] = exc
                if not isinstance(exc, TrainingError):
                    with lock:  # members above it cannot change which error is raised
                        cutoff = min(cutoff, k)
            with lock:
                if outcomes[k] is None:
                    waiting[k] = ran + 1
                ready = [(epochs, j) for j, epochs in waiting.items() if j < cutoff]
                if not ready:
                    return
                ran, k = min(ready)  # fewest epochs run, then lowest index
                del waiting[k]

    try:
        net._in_threads(work, workers, "infconv-member")
    finally:
        with lock:  # an interrupted caller leaves helpers to finish one epoch, not all
            cutoff = 0
    for outcome in outcomes:
        if isinstance(outcome, Exception) and not isinstance(outcome, TrainingError):
            raise outcome
    failures = [o for o in outcomes if isinstance(o, TrainingError)]
    if failures:
        which = ", ".join(str(f.member) for f in failures)
        raise EnsembleError(f"ensemble members {which} failed to train", failures)
    members = tuple(outcomes)
    history = LossHistory(
        member_losses=np.stack([m.losses for m in members]),
        member_lrs=np.stack([m.lrs for m in members]),
    )
    return TrainResult(allocation=EnsembleAllocation(members=members), history=history)


# ---------------------------------------------------------------------------
# Allocation quality
# ---------------------------------------------------------------------------


def pair_loss(
    spec1: RiskMeasure, spec2: RiskMeasure, xs: np.ndarray, first_values: np.ndarray
) -> float:
    """Pooled risk of the feasible pair (first, xs - first) on a sample."""
    xs = np.asarray(xs, dtype=np.float64)
    first_values = np.asarray(first_values, dtype=np.float64)
    if first_values.shape != xs.shape:
        raise ValueError("first share values must match the sample shape")
    return evaluate(spec1, empirical(first_values)) + evaluate(spec2, empirical(xs - first_values))


def _first_map(allocation):
    """Accept an allocation object (anything with .first) or a plain callable."""
    return allocation.first if hasattr(allocation, "first") else allocation


def allocation_loss(spec1: RiskMeasure, spec2: RiskMeasure, xs: np.ndarray, allocation) -> float:
    """Pooled risk of an allocation's feasible pair on a sample."""
    xs = np.asarray(xs, dtype=np.float64)
    return pair_loss(spec1, spec2, xs, np.asarray(_first_map(allocation)(xs), dtype=np.float64))


def metric_d(f, g, terms: int = _METRIC_TERMS) -> float:
    """Bounded metric on allocation maps: geometrically weighted window sups.

    Term h weighs min(1, sup over [-h, h] of |f - g|) by 2**-h and the series
    is truncated after ``terms`` windows, cutting off a tail of at most
    2**-terms.  Sups are approximated on a uniform grid.
    """
    grid = np.linspace(-terms, terms, 2 * terms * _METRIC_POINTS_PER_UNIT + 1)
    return metric_d_mu(f, g, grid, terms)


def metric_d_mu(f, g, m: EmpiricalMeasure, terms: int = _METRIC_TERMS) -> float:
    """Sample-supported variant of metric_d: window sups over sample points.

    Windows containing no sample contribute zero, so this never exceeds
    metric_d on the same maps (up to grid resolution).
    """
    if terms < 1:
        raise ValueError("need at least one window term")
    f = _first_map(f)
    g = _first_map(g)
    xs = m.samples if isinstance(m, EmpiricalMeasure) else np.asarray(m, dtype=np.float64)
    diff = np.abs(np.asarray(f(xs), dtype=np.float64) - np.asarray(g(xs), dtype=np.float64))
    total = 0.0
    for h in range(1, terms + 1):
        inside = diff[np.abs(xs) <= h]
        if inside.size:
            total += 0.5**h * min(1.0, float(inside.max()))
    return total


def l2_error(approx, exact, xs: np.ndarray) -> float:
    """Mean squared difference of two first-share maps over a sample."""
    f = _first_map(approx)
    g = _first_map(exact)
    xs = np.asarray(xs, dtype=np.float64)
    diff = np.asarray(f(xs), dtype=np.float64) - np.asarray(g(xs), dtype=np.float64)
    return float(np.mean(diff * diff))


# ---------------------------------------------------------------------------
# Stability of the pooled risk under sample perturbations
# ---------------------------------------------------------------------------


def distortion_density_norm(spec: RiskMeasure, q: float) -> float:
    """L^q norm over [0, 1] of the measure's rank-weighting density.

    The density is the weighted sum of the leaves' densities: 1/alpha on
    (0, alpha] for a shortfall leaf, the interpolated grid for a spectral
    leaf.  Between the merged breakpoints of all leaves it is linear, so the
    norm is exact.  Raises for measures without such a density, i.e. any
    spec with an entropic leaf.
    """
    if q < 1.0:
        raise ValueError("q must be at least 1")
    terms = leaves(spec)
    for _, leaf in terms:
        if not isinstance(leaf, (ExpectedShortfall, Spectral)):
            name = type(leaf).__name__
            raise ValueError(f"no rank-weighting density: the spec has a leaf of type {name}")
    edges = np.unique(np.concatenate([[0.0, 1.0]] + [
        [leaf.alpha] if isinstance(leaf, ExpectedShortfall) else leaf.grid for _, leaf in terms
    ]))
    # density values at the left (a) and right (b) end of each segment
    a = np.zeros(edges.size - 1)
    b = np.zeros(edges.size - 1)
    for w, leaf in terms:
        if isinstance(leaf, ExpectedShortfall):
            step = np.where(leaf.alpha >= edges[1:], w / leaf.alpha, 0.0)
            a += step
            b += step
        else:
            a += w * np.interp(edges[:-1], leaf.grid, leaf.values)
            b += w * np.interp(edges[1:], leaf.grid, leaf.values)
    if np.isinf(q):
        return float(max(a.max(), b.max()))
    flat = np.isclose(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        seg = (b ** (q + 1.0) - a ** (q + 1.0)) / ((q + 1.0) * (b - a))
    seg = np.where(flat, a**q, seg)
    return float((seg @ np.diff(edges)) ** (1.0 / q))


@dataclass(frozen=True)
class StabilityReport:
    """Pooled-risk gap between two samples against its theoretical bound."""

    value_a: float
    value_b: float
    lhs: float
    rhs: float
    wasserstein: float
    norm1: float
    norm2: float
    holds: bool


def spectral_stability_check(
    spec1: RiskMeasure,
    spec2: RiskMeasure,
    ma: EmpiricalMeasure,
    mb: EmpiricalMeasure,
    p: float = 2.0,
    segments: int = 6,
    levels: int = 4,
) -> StabilityReport:
    """Check |pooled(A) - pooled(B)| against the transport-cost bound.

    Both pooled risks are minimized over the same piecewise-linear candidate
    family (knots from the merged sample), so the gap is controlled by the
    sum of the measures' density norms times the order-p transport distance
    between the samples.  Only measures with a rank-weighting density
    qualify.
    """
    if p < 1.0:
        raise ValueError("p must be at least 1")
    if not isinstance(ma, EmpiricalMeasure):
        ma = empirical(np.asarray(ma, dtype=np.float64))
    if not isinstance(mb, EmpiricalMeasure):
        mb = empirical(np.asarray(mb, dtype=np.float64))
    q = np.inf if p == 1.0 else p / (p - 1.0)
    norm1 = distortion_density_norm(spec1, q)
    norm2 = distortion_density_norm(spec2, q)
    knots = build_knots(np.concatenate([ma.samples, mb.samples]), segments)
    res_a = brute_force_infconv(spec1, spec2, ma, levels=levels, knots=knots)
    res_b = brute_force_infconv(spec1, spec2, mb, levels=levels, knots=knots)
    lhs = abs(res_a.value - res_b.value)
    dist = wasserstein_p(ma, mb, p)
    rhs = (norm1 + norm2) * dist
    return StabilityReport(
        value_a=res_a.value,
        value_b=res_b.value,
        lhs=lhs,
        rhs=rhs,
        wasserstein=dist,
        norm1=norm1,
        norm2=norm2,
        holds=bool(lhs <= rhs + _STABILITY_SLACK),
    )
