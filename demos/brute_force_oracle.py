"""Reference answers without neural networks: exhaustive grid search.

Candidate splits are piecewise-linear maps on sample-quantile knots, slopes
between 0 and 1, anchored at zero.  Enumerating every slope vector on a
discrete grid gives a certified minimum to compare trained models against;
coordinate descent polishes a start when enumeration is too expensive.
"""

import numpy as np

from infconv import (
    Entropic,
    ExpectedShortfall,
    GridAllocation,
    RngSeed,
    Uniform,
    brute_force_infconv,
    coordinate_descent_refine,
    draw,
    empirical,
    evaluate,
)

xs = draw(Uniform(-1.0, 1.0), 200, RngSeed(0, 0))
m = empirical(xs)

# ---------------------------------------------------------------------------
# Two expected-shortfall agents: the milder tail average should absorb the
# whole position, so the best grid map is the identity (slopes all one).
# ---------------------------------------------------------------------------
es_best = brute_force_infconv(ExpectedShortfall(0.8), ExpectedShortfall(0.7), m,
                              segments=6, levels=4)
print(f"es pair: {es_best.evaluations} candidates evaluated")
print(f"  argmin slopes {es_best.slopes}")
print(f"  minimum {es_best.value:.6f} = risk of keeping everything "
      f"{evaluate(ExpectedShortfall(0.8), m):.6f}")

# ---------------------------------------------------------------------------
# Two entropic agents: the known optimum is the proportional split with
# slope 2/(2+3) = 0.4 everywhere; the grid argmin hugs it.
# ---------------------------------------------------------------------------
e1, e2 = Entropic(2.0), Entropic(3.0)
ent_best = brute_force_infconv(e1, e2, m, segments=6, levels=4)
with np.printoptions(precision=2):
    print(f"\nentropic pair: argmin slopes {ent_best.slopes} "
          f"(mean {ent_best.slopes.mean():.3f}, proportional share 0.4)")
print(f"  grid minimum        {ent_best.value:.6f}")
print(f"  unrestricted bound  {evaluate(Entropic(5.0), m):.6f}  (pooled optimum on this sample)")

# ---------------------------------------------------------------------------
# Coordinate descent: start from a rough guess, never increase the
# objective, and land near the certified minimum at matched resolution.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(100)
start = GridAllocation(ent_best.knots, rng.integers(0, 5, size=ent_best.slopes.size) / 4.0)
refined = coordinate_descent_refine(e1, e2, m, start, levels=4)
gap = (refined.value - ent_best.value) / abs(ent_best.value)
print(f"\ncoordinate descent from a random start: {refined.evaluations} evaluations,"
      f" final within {gap:.2%} of the certified minimum")

# a finer slope grid can only improve on the coarse minimum
finer = coordinate_descent_refine(e1, e2, m, ent_best.allocation, levels=16)
print(f"refining the argmin on a 16-level grid: {ent_best.value:.6f} "
      f"-> {finer.value:.6f}")
