"""Adam with bias correction and a reduce-on-plateau learning-rate rule."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "OptimizerError",
    "AdamState",
    "init_adam",
    "adam_step",
    "PlateauState",
    "init_plateau",
    "plateau_step",
]


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class OptimizerError(RuntimeError):
    """Raised on invalid gradients; the optimizer state is left unchanged."""


@dataclass
class AdamState:
    """First/second moment vectors plus the step counter and current rate."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float


def init_adam(params: np.ndarray, lr: float) -> AdamState:
    if not np.isfinite(lr) or lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr!r}")
    params = np.asarray(params, dtype=np.float64)
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), t=0, lr=float(lr))


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray
) -> tuple[np.ndarray, AdamState]:
    """One update p <- p - lr * m_hat / (sqrt(v_hat) + eps) of a parameter vector.

    Returns a fresh parameter vector and a fresh state; raises OptimizerError
    on non-finite or mis-shaped gradients without touching the state.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if not params.shape == grads.shape == state.m.shape:
        raise OptimizerError(
            f"gradient shape {grads.shape} and parameter shape {params.shape} "
            f"do not match the state's {state.m.shape}"
        )
    if not np.isfinite(grads).all():
        raise OptimizerError("non-finite gradient")

    t = state.t + 1
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    m = _BETA1 * state.m + (1.0 - _BETA1) * grads
    v = _BETA2 * state.v + (1.0 - _BETA2) * grads * grads
    new_params = params - state.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
    return new_params, AdamState(m=m, v=v, t=t, lr=state.lr)


@dataclass
class PlateauState:
    """Tracks the best epoch loss and how long it has not improved."""

    patience: int
    threshold: float = 1e-6
    factor: float = 0.1
    min_lr: float = 0.0
    best: float = np.inf
    bad_epochs: int = 0


def init_plateau(
    patience: int, threshold: float = 1e-6, factor: float = 0.1, min_lr: float = 0.0
) -> PlateauState:
    if patience < 0:
        raise ValueError("patience must be non-negative")
    if not 0.0 < factor < 1.0:
        raise ValueError("factor must lie in (0, 1)")
    if threshold < 0.0 or not np.isfinite(threshold):
        raise ValueError("threshold must be non-negative and finite")
    if min_lr < 0.0:
        raise ValueError("min_lr must be non-negative")
    return PlateauState(
        patience=int(patience), threshold=float(threshold), factor=float(factor),
        min_lr=float(min_lr),
    )


def plateau_step(state: PlateauState, epoch_loss: float, lr: float) -> tuple[float, PlateauState]:
    """Reduce lr by `factor` once the loss has not improved (by more than the
    absolute threshold) for more than `patience` consecutive epochs."""
    if not np.isfinite(epoch_loss):
        raise OptimizerError("non-finite epoch loss")
    if epoch_loss < state.best - state.threshold:
        return lr, replace(state, best=float(epoch_loss), bad_epochs=0)
    bad = state.bad_epochs + 1
    if bad > state.patience:
        return max(lr * state.factor, state.min_lr), replace(state, bad_epochs=0)
    return lr, replace(state, bad_epochs=bad)
