"""Grid oracle: knot building, candidate evaluation, enumeration, refinement."""

import itertools
import tracemalloc

import numpy as np
import pytest

from infconv import (
    Entropic,
    ExpectedShortfall,
    RngSeed,
    Uniform,
    draw,
    empirical,
    eval_entropic,
    eval_es,
)
from infconv.oracle import (
    BudgetError,
    GridAllocation,
    OracleResult,
    brute_force_infconv,
    build_knots,
    coordinate_descent_refine,
    oracle_objective,
    overlap_matrix,
)
from infconv.sharing import pair_loss


def _sample(n=200, seed=0):
    return draw(Uniform(-1.0, 1.0), n, RngSeed(seed, 0))


# ---------------------------------------------------------------- allocations


def test_grid_allocation_hand_values():
    f = GridAllocation(np.array([-1.0, 0.0, 1.0]), np.array([0.5, 1.0]))
    xs = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    want = np.array([-1.5, -0.5, -0.25, 0.0, 0.5, 1.0, 2.0])
    assert np.allclose(f(xs), want, rtol=0.0, atol=1e-15)


def test_grid_allocation_single_knot_is_global_line():
    f = GridAllocation(np.array([0.0]), np.array([0.3]))
    xs = np.array([-2.0, -0.1, 0.0, 0.7, 5.0])
    assert np.allclose(f(xs), 0.3 * xs, rtol=0.0, atol=1e-15)


def test_grid_allocation_validation():
    with pytest.raises(ValueError):
        GridAllocation(np.array([-1.0, 1.0]), np.array([0.5]))  # no zero knot
    with pytest.raises(ValueError):
        GridAllocation(np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        GridAllocation(np.array([1.0, 0.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        GridAllocation(np.array([0.0, 1.0]), np.array([-0.1]))
    with pytest.raises(ValueError):
        GridAllocation(np.array([0.0, 1.0]), np.array([1.1]))
    with pytest.raises(ValueError):
        GridAllocation(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        GridAllocation(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        GridAllocation(np.array([0.0, np.nan]), np.array([0.5]))


def test_grid_allocation_both_shares_monotone_lipschitz():
    rng = np.random.default_rng(5)
    for _ in range(20):
        knots = build_knots(np.sort(rng.uniform(-2.0, 2.0, size=40)), 5)
        f = GridAllocation(knots, rng.uniform(0.0, 1.0, size=knots.size - 1))
        xs = np.linspace(-4.0, 4.0, 801)
        dx = xs[1] - xs[0]
        for ys in (f(xs), f.complement(xs)):
            steps = np.diff(ys)
            assert np.all(steps >= -1e-12)
            assert np.all(steps <= dx + 1e-12)
        assert f(np.array([0.0]))[0] == 0.0
        assert f.complement(np.array([0.0]))[0] == 0.0


# ---------------------------------------------------------------------- knots


def test_build_knots_quantile_grid_plus_zero():
    xs = _sample()
    knots = build_knots(xs, 4)
    assert knots.size == 6  # 5 quantile knots plus the inserted 0
    assert np.all(np.diff(knots) > 0.0)
    assert 0.0 in knots
    assert knots[0] == xs.min()
    assert knots[-1] == xs.max()


def test_build_knots_accepts_measure_and_single_segment():
    m = empirical(_sample())
    knots = build_knots(m, 1)
    assert knots.size == 3  # min, 0, max
    assert np.array_equal(knots, np.array([m.samples.min(), 0.0, m.samples.max()]))


def test_build_knots_constant_sample_degenerates():
    knots = build_knots(np.full(17, 2.5), 6)
    assert np.array_equal(knots, np.array([0.0, 2.5]))
    f = GridAllocation(knots, np.array([0.4]))
    xs = np.array([-1.0, 0.0, 2.5, 4.0])
    assert np.allclose(f(xs), 0.4 * xs, rtol=0.0, atol=1e-15)


def test_build_knots_validation():
    with pytest.raises(ValueError):
        build_knots(np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        build_knots(np.array([]), 3)


# ------------------------------------------------------------------- overlaps


def test_overlap_matrix_reproduces_allocation_values():
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(-3.0, 3.0, size=60))  # spills past the knot grid
    knots = build_knots(xs[10:50], 5)
    c = overlap_matrix(xs, knots)
    assert c.shape == (60, knots.size - 1)
    for _ in range(10):
        theta = rng.uniform(0.0, 1.0, size=knots.size - 1)
        f = GridAllocation(knots, theta)
        assert np.allclose(c @ theta, f(xs), rtol=0.0, atol=1e-12)


def test_oracle_objective_matches_pair_loss():
    rng = np.random.default_rng(13)
    m = empirical(_sample(seed=2))
    knots = build_knots(m, 5)
    pairs = [
        (Entropic(2.0), Entropic(3.0)),
        (ExpectedShortfall(0.8), ExpectedShortfall(0.7)),
        (ExpectedShortfall(0.9), Entropic(0.5)),
    ]
    for spec1, spec2 in pairs:
        for _ in range(5):
            theta = rng.uniform(0.0, 1.0, size=knots.size - 1)
            f = GridAllocation(knots, theta)
            via_oracle = oracle_objective(spec1, spec2, m, knots, theta)
            via_sharing = pair_loss(spec1, spec2, m.samples, f(m.samples))
            assert abs(via_oracle - via_sharing) <= 1e-10


# ---------------------------------------------------------------- brute force


def test_brute_force_matches_naive_enumeration():
    m = empirical(draw(Uniform(-1.0, 1.0), 12, RngSeed(3, 0)))
    spec1, spec2 = Entropic(1.5), ExpectedShortfall(0.6)
    levels = 3
    knots = build_knots(m, 2)
    grid = np.linspace(0.0, 1.0, levels + 1)

    best_value = np.inf
    best_theta = None
    for combo in itertools.product(grid, repeat=knots.size - 1):
        theta = np.array(combo)
        value = pair_loss(spec1, spec2, m.samples, GridAllocation(knots, theta)(m.samples))
        if value < best_value:
            best_value = value
            best_theta = theta

    got = brute_force_infconv(spec1, spec2, m, segments=2, levels=levels)
    assert np.array_equal(got.slopes, best_theta)
    assert abs(got.value - best_value) <= 1e-12
    assert got.evaluations == (levels + 1) ** (knots.size - 1)


def test_brute_force_es_pair_keeps_everything_with_first_agent():
    # pooled risk is minimized by handing the whole position to the milder
    # tail average, so the best grid map is the identity on every segment
    m = empirical(_sample())
    for segments in (4, 6):
        got = brute_force_infconv(
            ExpectedShortfall(0.8), ExpectedShortfall(0.7), m, segments=segments, levels=4
        )
        assert np.all(got.slopes == 1.0)
        assert abs(got.value - eval_es(m, 0.8)) <= 1e-12


def test_brute_force_entropic_pair_slopes_near_proportional_share():
    m = empirical(_sample())
    got = brute_force_infconv(Entropic(2.0), Entropic(3.0), m, segments=6, levels=4)
    assert abs(got.slopes.mean() - 0.4) <= 1.0 / got.levels


def test_brute_force_entropic_sandwich():
    m = empirical(_sample())
    got = brute_force_infconv(Entropic(2.0), Entropic(3.0), m, segments=4, levels=5)
    # grid minimum cannot beat the unrestricted pooled optimum on the sample
    assert got.value >= eval_entropic(m, 5.0) - 1e-12
    # 0.4 sits on the level grid, so the proportional line is one candidate
    upper = oracle_objective(
        Entropic(2.0), Entropic(3.0), m, got.knots, np.full(got.knots.size - 1, 0.4)
    )
    assert got.value <= upper + 1e-12


def test_brute_force_symmetric_pair_splits_in_half():
    m = empirical(_sample())
    got = brute_force_infconv(Entropic(2.0), Entropic(2.0), m, segments=6, levels=4)
    assert np.all(np.abs(got.slopes - 0.5) <= 1.0 / got.levels + 1e-15)


def test_brute_force_minimum_improves_with_resolution():
    m = empirical(_sample(seed=4))
    values = [
        brute_force_infconv(Entropic(2.0), Entropic(3.0), m, segments=4, levels=lv).value
        for lv in (2, 4, 8)
    ]
    assert values[1] <= values[0] + 1e-12
    assert values[2] <= values[1] + 1e-12


def test_brute_force_result_is_self_consistent():
    m = empirical(_sample(seed=5))
    got = brute_force_infconv(ExpectedShortfall(0.9), Entropic(0.5), m, segments=4, levels=3)
    replay = oracle_objective(ExpectedShortfall(0.9), Entropic(0.5), m, got.knots, got.slopes)
    assert abs(got.value - replay) <= 1e-12
    assert got.evaluations == (got.levels + 1) ** (got.knots.size - 1)
    f = got.allocation
    assert isinstance(f, GridAllocation)
    assert np.array_equal(f.knots, got.knots)
    assert np.array_equal(f.slopes, got.slopes)


def test_brute_force_respects_explicit_knots():
    m = empirical(_sample(seed=6))
    knots = np.array([-1.0, -0.25, 0.0, 0.5, 1.0])
    got = brute_force_infconv(Entropic(2.0), Entropic(3.0), m, levels=2, knots=knots)
    assert np.array_equal(got.knots, knots)
    assert got.evaluations == 3 ** (knots.size - 1)


def test_brute_force_memory_does_not_grow_with_samples_times_chunk():
    # scoring a chunk through (samples, chunk) matrices peaks at about 188 MiB here
    m = empirical(draw(Uniform(-1.0, 1.0), 2000, RngSeed(1, 0)))
    tracemalloc.start()
    try:
        got = brute_force_infconv(Entropic(2.0), Entropic(3.0), m, segments=6, levels=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.evaluations == 5**7
    assert peak < 16 * 2**20


def test_brute_force_budget_error_suggests_refinement():
    m = empirical(_sample())
    with pytest.raises(BudgetError) as err:
        brute_force_infconv(Entropic(2.0), Entropic(3.0), m, segments=30, levels=4)
    msg = str(err.value)
    assert "budget" in msg
    assert "coordinate_descent_refine" in msg


def test_brute_force_validation():
    m = empirical(_sample())
    with pytest.raises(ValueError):
        brute_force_infconv(Entropic(2.0), Entropic(3.0), m, segments=4, levels=0)
    with pytest.raises(ValueError):
        brute_force_infconv(Entropic(2.0), Entropic(3.0), m, knots=np.array([0.0]))


# ---------------------------------------------------------- coordinate descent


def test_coordinate_descent_fixed_at_grid_minimum():
    m = empirical(_sample())
    spec1, spec2 = Entropic(2.0), Entropic(3.0)
    best = brute_force_infconv(spec1, spec2, m, segments=6, levels=4)
    refined = coordinate_descent_refine(spec1, spec2, m, best.allocation, levels=4)
    assert np.array_equal(refined.slopes, best.slopes)
    assert refined.value == best.value


def test_coordinate_descent_never_above_start():
    m = empirical(_sample())
    spec1, spec2 = Entropic(2.0), Entropic(3.0)
    best = brute_force_infconv(spec1, spec2, m, segments=6, levels=4)
    rng = np.random.default_rng(21)
    for _ in range(5):
        theta = rng.integers(0, 5, size=best.slopes.size) / 4.0
        start = GridAllocation(best.knots, theta)
        start_value = oracle_objective(spec1, spec2, m, best.knots, theta)
        refined = coordinate_descent_refine(spec1, spec2, m, start, levels=4)
        assert refined.value <= start_value + 1e-12
        assert refined.value >= best.value - 1e-12  # global grid minimum is a floor


def test_coordinate_descent_random_start_near_brute_minimum():
    m = empirical(_sample())
    spec1, spec2 = Entropic(2.0), Entropic(3.0)
    best = brute_force_infconv(spec1, spec2, m, segments=6, levels=4)
    rng = np.random.default_rng(100)
    start = GridAllocation(best.knots, rng.integers(0, 5, size=best.slopes.size) / 4.0)
    refined = coordinate_descent_refine(spec1, spec2, m, start, levels=4)
    assert abs(refined.value - best.value) <= 0.01 * abs(best.value)


def test_coordinate_descent_can_leave_the_coarse_grid():
    m = empirical(_sample())
    spec1, spec2 = Entropic(2.0), Entropic(3.0)
    coarse = brute_force_infconv(spec1, spec2, m, segments=6, levels=4)
    refined = coordinate_descent_refine(spec1, spec2, m, coarse.allocation, levels=16)
    assert refined.value <= coarse.value + 1e-12


def test_coordinate_descent_validation():
    m = empirical(_sample())
    start = GridAllocation(np.array([-1.0, 0.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        coordinate_descent_refine(Entropic(2.0), Entropic(3.0), m, start, levels=0)
    with pytest.raises(ValueError):
        coordinate_descent_refine(Entropic(2.0), Entropic(3.0), m, start, sweeps=0)
