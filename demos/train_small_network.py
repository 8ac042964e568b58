"""Train a small ensemble to split one risk between two agents.

The trainer learns a map f with f and Id-f both non-decreasing and
1-Lipschitz; agent one carries f(X), agent two carries X - f(X).  The loss
is the pooled capital requirement, estimated per batch.  This script runs a
deliberately tiny configuration and inspects what training produced.
"""

import numpy as np

from infconv import (
    Entropic,
    RngSeed,
    TrainConfig,
    Uniform,
    analytic_infconv,
    draw,
    empirical,
    evaluate,
    pair_loss,
    train_ensemble,
)

rho1, rho2 = Entropic(2.0), Entropic(3.0)
dist = Uniform(-1.0, 1.0)

cfg = TrainConfig(
    n_samples=2_000,
    batch_size=200,
    epochs=25,
    learning_rate=1e-3,
    ensemble_size=3,
    hidden_widths=(16, 16),
    activation="relu",
    base_seed=11,
)
xs = draw(dist, cfg.n_samples, RngSeed(cfg.base_seed, 0))
result = train_ensemble(xs, rho1, rho2, cfg)

# ---------------------------------------------------------------------------
# Loss history: mean and spread over the three members, epoch by epoch.
# ---------------------------------------------------------------------------
history = result.history
print("epoch   mean loss   member spread        lr")
for epoch in range(0, cfg.epochs, 4):
    print(f"  {epoch:3d}   {history.mean_loss[epoch]: .6f}   "
          f"{history.std_loss[epoch]:.2e}   {history.mean_lr[epoch]:.1e}")

# pooled entropic agents behave like one entropic agent with summed
# parameters, which gives the exact optimum on any sample
in_sample = evaluate(Entropic(5.0), empirical(xs))
target = analytic_infconv(rho1, rho2, dist)
final = pair_loss(rho1, rho2, xs, result.allocation.first(xs))
print(f"\nfinal training loss  {final:.6f}")
print(f"optimum on the same sample {in_sample:.6f} (2000 points carry noise)")
print(f"population optimum   {target:.6f}")

# ---------------------------------------------------------------------------
# The learned split is feasible by construction: the two legs add up to the
# position exactly, at every point.
# ---------------------------------------------------------------------------
grid = np.linspace(-1.0, 1.0, 9)
first = result.allocation.first(grid)
second = result.allocation.second(grid)
print(f"\nmax |f(x) + (x - f(x)) - x| on a grid: {np.abs(first + second - grid).max():.2e}")

with np.printoptions(precision=3, suppress=True):
    print(f"x        {grid}")
    print(f"agent 1  {first}")
    print(f"agent 2  {second}")

# ---------------------------------------------------------------------------
# Moving cash between the agents does not change the pooled loss: the
# objective only pins the split up to a constant transfer.
# ---------------------------------------------------------------------------
base = pair_loss(rho1, rho2, xs, result.allocation.first(xs))
moved = pair_loss(rho1, rho2, xs, result.allocation.first(xs) + 0.1)
print(f"\npooled loss unchanged under a 0.1 cash transfer: {abs(base - moved):.2e}")

# the optimal split here is proportional: agent one takes a 0.4 share
slope = (result.allocation.first(np.array([0.5])) -
         result.allocation.first(np.array([-0.5])))[0]
print(f"trained central slope {slope:.3f} (proportional optimum gives 0.4)")
