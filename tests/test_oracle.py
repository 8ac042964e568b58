"""Grid oracle: knot building, candidate evaluation, enumeration, refinement."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import infconv
from infconv import (
    Entropic,
    ExpectedShortfall,
    RngSeed,
    Uniform,
    draw,
    empirical,
    evaluate,
    parse_risk_spec,
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
from references import entropic_reference, es_reference


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
        assert abs(got.value - es_reference(m.samples, 0.8)) <= 1e-12


def test_brute_force_entropic_pair_slopes_near_proportional_share():
    m = empirical(_sample())
    got = brute_force_infconv(Entropic(2.0), Entropic(3.0), m, segments=6, levels=4)
    assert abs(got.slopes.mean() - 0.4) <= 1.0 / got.levels


def test_brute_force_entropic_sandwich():
    m = empirical(_sample())
    got = brute_force_infconv(Entropic(2.0), Entropic(3.0), m, segments=4, levels=5)
    # grid minimum cannot beat the unrestricted pooled optimum on the sample
    assert got.value >= entropic_reference(m.samples, 5.0) - 1e-12
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
    for levels in (4, 8):
        tracemalloc.start()
        try:
            got = brute_force_infconv(Entropic(2.0), Entropic(3.0), m, segments=6, levels=levels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.evaluations == (levels + 1) ** 7
        assert peak < 16 * 2**20


_PAIRS = {
    "lin": ("distortion(0.5*es(0.8)+0.5*es(0.7))", "es(0.9)"),
    "ent": ("entropic(2)", "entropic(3)"),
    "mix": ("mix(0.5*es(0.8)+0.5*entropic(1.0))", "entropic(0.5)"),
    # linear, with a winner that splits the segments between the agents (at 6 x 4)
    "cross": ("es(0.9)", "distortion(0.5*es(0.5)+0.5*es(0.99))"),
}
_PIN_KNOTS = np.array([-1.0, -0.6, -0.25, 0.0, 0.1, 0.5, 1.0])
_PIN_CASES = {
    "lin_6x4": ("lin", (-1.0, 1.0), dict(segments=6, levels=4)),
    "ent_6x4": ("ent", (-1.0, 1.0), dict(segments=6, levels=4)),
    "lin_6x8": ("lin", (-1.0, 1.0), dict(segments=6, levels=8)),
    "ent_6x8": ("ent", (-1.0, 1.0), dict(segments=6, levels=8)),
    # 0 is the first knot, then the last
    "mix_positive": ("mix", (0.1, 1.0), dict(segments=6, levels=4)),
    "mix_negative": ("mix", (-1.0, -0.1), dict(segments=6, levels=4)),
    "mix_6x4": ("mix", (-1.0, 1.0), dict(segments=6, levels=4)),
    "mix_knots": ("mix", (-1.0, 1.0), dict(levels=3, knots=_PIN_KNOTS)),
    "ent_one_segment": ("ent", (-1.0, 1.0), dict(levels=8, knots=np.array([0.0, 1.0]))),
}
# float.hex of (value, slopes, evaluations); a change to how candidates are
# scored must leave every bit, tie choice and count as it is.  The entropic
# scoring order changed once, when each leaf's log-sum was split at the
# segment holding 0 into two one-sided sums; the values that moved were
# re-pinned then, and no slope or count moved
_BRUTE_PINS = {
    "lin_6x4": (
        "0x1.cee14bd68770dp-4",
        [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        ],
        78125,
    ),
    "ent_6x4": (
        "0x1.71946f6aaba00p-5",
        [
            "0x1.0000000000000p-1", "0x1.0000000000000p-2", "0x1.0000000000000p-1", "0x0.0p+0",
            "0x1.0000000000000p-1", "0x1.0000000000000p-2", "0x1.0000000000000p-1",
        ],
        78125,
    ),
    "lin_6x8": (
        "0x1.cee14bd68770dp-4",
        [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        ],
        4782969,
    ),
    "ent_6x8": (
        "0x1.711f431f54600p-5",
        [
            "0x1.8000000000000p-2", "0x1.8000000000000p-2", "0x1.0000000000000p-1", "0x0.0p+0",
            "0x1.8000000000000p-2", "0x1.8000000000000p-2", "0x1.8000000000000p-2",
        ],
        4782969,
    ),
    "mix_positive": (
        "-0x1.0373636f03f54p-1",
        [
            "0x1.0000000000000p+0", "0x1.8000000000000p-1", "0x1.8000000000000p-1", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2", "0x0.0p+0", "0x0.0p+0",
        ],
        78125,
    ),
    "mix_negative": (
        "0x1.2fbfcfc42f3dfp-1",
        [
            "0x1.8000000000000p-1", "0x1.8000000000000p-1", "0x1.0000000000000p+0", "0x1.0000000000000p-2",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        ],
        78125,
    ),
    "mix_6x4": (
        "0x1.219dae31a0d78p-3",
        [
            "0x1.8000000000000p-1", "0x1.8000000000000p-1", "0x1.8000000000000p-1", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
        ],
        78125,
    ),
    "mix_knots": (
        "0x1.2322899a149a8p-3",
        [
            "0x1.5555555555555p-1", "0x1.0000000000000p+0", "0x1.5555555555555p-1", "0x1.5555555555555p-1",
            "0x1.5555555555555p-1", "0x0.0p+0",
        ],
        4096,
    ),
    "ent_one_segment": (
        "0x1.71a00ea4c4100p-5",
        [
            "0x1.8000000000000p-2",
        ],
        9,
    ),
}
_REFINE_PINS = {
    "refine_lin": (
        "0x1.cee14bd68770dp-4",
        [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0",
        ],
        109,
    ),
    "refine_ent": (
        "0x1.715e8eb7f3b00p-5",
        [
            "0x1.0000000000000p-1", "0x1.8000000000000p-2", "0x1.8000000000000p-2", "0x1.0000000000000p-3",
            "0x1.0000000000000p-1", "0x1.8000000000000p-2",
        ],
        217,
    ),
    "refine_mix": (
        "0x1.2227ee0833fd1p-3",
        [
            "0x1.8000000000000p-1", "0x1.8000000000000p-1", "0x1.0000000000000p+0", "0x1.c000000000000p-1",
            "0x1.0000000000000p-1", "0x0.0p+0",
        ],
        325,
    ),
}
_OBJECTIVE_PINS = {
    "objective_lin": ["0x1.72b375363618bp-3", "0x1.c0a7214d1f31bp-3", "0x1.7b14052dfe178p-3"],
    "objective_ent": ["0x1.7a025714d1600p-5", "0x1.7bbf7b51ad180p-5", "0x1.8db2887de8780p-5"],
    "objective_mix": ["0x1.5f38b6f5b8e37p-3", "0x1.39a22f2b6387ap-3", "0x1.5af993f66b222p-3"],
}


def _pair(name):
    return tuple(parse_risk_spec(text) for text in _PAIRS[name])


def _pinned(result):
    return result.value.hex(), [float(s).hex() for s in result.slopes], result.evaluations


@pytest.mark.parametrize("case", sorted(_PIN_CASES))
def test_brute_force_bits_are_pinned(case):
    pair, (lo, hi), kwargs = _PIN_CASES[case]
    m = empirical(draw(Uniform(lo, hi), 2000, RngSeed(1, 0)))
    got = brute_force_infconv(*_pair(pair), m, **kwargs)
    assert _pinned(got) == _BRUTE_PINS[case]


def test_refine_and_objective_bits_are_pinned():
    m = empirical(draw(Uniform(-1.0, 1.0), 2000, RngSeed(1, 0)))
    rng = np.random.default_rng(7)
    for pair in ("lin", "ent", "mix"):
        start = GridAllocation(_PIN_KNOTS, rng.uniform(size=_PIN_KNOTS.size - 1))
        refined = coordinate_descent_refine(*_pair(pair), m, start, levels=8)
        assert _pinned(refined) == _REFINE_PINS[f"refine_{pair}"]
        slopes = rng.uniform(size=(3, _PIN_KNOTS.size - 1))
        values = [oracle_objective(*_pair(pair), m, _PIN_KNOTS, row).hex() for row in slopes]
        assert values == _OBJECTIVE_PINS[f"objective_{pair}"]


@pytest.mark.parametrize("segments, levels", [(6, 4), (4, 8), (3, 2)])
@pytest.mark.parametrize("pair, lo, hi", [
    ("lin", -1.0, 1.0), ("cross", -1.0, 1.0), ("ent", -1.0, 1.0), ("mix", -1.0, 1.0),
    ("mix", 0.1, 1.0), ("ent", -1.0, -0.1),
])
def test_brute_force_value_is_the_winners_own_score(pair, lo, hi, segments, levels):
    # the value comes from the search, not from scoring the winner again; it
    # must be the winner's score bit for bit, one-sided samples included
    m = empirical(draw(Uniform(lo, hi), 2000, RngSeed(1, 0)))
    got = brute_force_infconv(*_pair(pair), m, segments=segments, levels=levels)
    assert got.value == oracle_objective(*_pair(pair), m, got.knots, got.slopes)


def test_linear_tables_are_built_only_for_linear_leaves(monkeypatch):
    def no_overlap(*args):
        raise AssertionError("overlap_matrix called")

    monkeypatch.setattr(infconv.oracle, "overlap_matrix", no_overlap)
    m = empirical(draw(Uniform(-1.0, 1.0), 2000, RngSeed(1, 0)))
    got = brute_force_infconv(*_pair("ent"), m, segments=6, levels=4)
    assert _pinned(got) == _BRUTE_PINS["ent_6x4"]
    # the draws test_refine_and_objective_bits_are_pinned makes up to its "ent" objectives
    rng = np.random.default_rng(7)
    rng.uniform(size=(1 + 3 + 1) * (_PIN_KNOTS.size - 1))
    slopes = rng.uniform(size=(3, _PIN_KNOTS.size - 1))
    values = [oracle_objective(*_pair("ent"), m, _PIN_KNOTS, row).hex() for row in slopes]
    assert values == _OBJECTIVE_PINS["objective_ent"]
    for pair in ("lin", "mix"):
        with pytest.raises(AssertionError, match="overlap_matrix called"):
            brute_force_infconv(*_pair(pair), m, segments=6, levels=4)
        with pytest.raises(AssertionError, match="overlap_matrix called"):
            oracle_objective(*_pair(pair), m, _PIN_KNOTS, np.full(_PIN_KNOTS.size - 1, 0.5))


@pytest.mark.parametrize("segments, levels", [(14, 1), (7, 4)])
def test_brute_force_exact_ties_keep_the_last_candidate_across_blocks(segments, levels):
    # es(0.5) against itself: the two gains cancel to 0.0, so every candidate
    # ties exactly and the lexicographically last one, all slopes 1, must win
    m = empirical(draw(Uniform(-1.0, 1.0), 2000, RngSeed(1, 0)))
    es = ExpectedShortfall(0.5)
    got = brute_force_infconv(es, es, m, segments=segments, levels=levels)
    assert got.evaluations == (levels + 1) ** (segments + 1)
    assert np.all(got.slopes == 1.0)
    assert got.value == evaluate(es, m)


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


@pytest.mark.parametrize(
    "knots, slopes, why",
    [
        ([-1.0, 0.0, 1.0], [2.0, -1.0], "slopes must lie in"),
        ([0.5, 0.0, 1.0], [0.5, 0.5], "strictly increasing"),
        ([0.0, np.nan, 1.0], [0.5, 0.5], "finite"),
        ([0.25, 0.5, 1.0], [0.5, 0.5], "contain 0.0"),
    ],
)
def test_oracle_inputs_are_checked_like_grid_allocation(knots, slopes, why):
    m = empirical(np.linspace(-1.0, 1.0, 201))
    spec1, spec2 = ExpectedShortfall(0.5), ExpectedShortfall(0.3)
    knots, slopes = np.array(knots), np.array(slopes)
    with pytest.raises(ValueError, match=why):
        GridAllocation(knots, slopes)
    with pytest.raises(ValueError, match=why):
        oracle_objective(spec1, spec2, m, knots, slopes)
    if why != "slopes must lie in":
        with pytest.raises(ValueError, match=why):
            brute_force_infconv(spec1, spec2, m, levels=2, knots=knots)


def test_oracle_leaves_the_callers_arrays_writable():
    m = empirical(_sample())
    knots, slopes = np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.75])
    oracle_objective(Entropic(2.0), Entropic(3.0), m, knots, slopes)
    brute_force_infconv(Entropic(2.0), Entropic(3.0), m, levels=2, knots=knots)
    assert knots.flags.writeable and slopes.flags.writeable


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


# ---------------------------------------------------------------------- demo


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_warnings(demo):
    # every demo, so that an API change cannot silently break one
    src = str(Path(infconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if demo.stem == "brute_force_oracle":
        assert "es pair: 78125 candidates evaluated" in done.stdout
