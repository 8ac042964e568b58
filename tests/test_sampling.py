"""Distributions, seeded draws, stratified grids, and Wasserstein distances."""

import itertools
import warnings

import numpy as np
import pytest
from scipy.stats import truncnorm

from infconv import (
    NegBeta,
    RngSeed,
    TruncNormal,
    Uniform,
    draw,
    empirical,
    make_generator,
    parse_distribution,
    pdf,
    quantile,
    render_distribution,
    stratified_sample,
    support,
    wasserstein_p,
)

# Frozen outputs of the counter-based generator keyed by (seed, stream).
# Any change to the keying layout or bit stream shows up here.
GOLDEN_42_0 = [0.8201981478608876, 0.18924562408645496, 0.8676608148821462, 0.3945814702827203]
GOLDEN_42_1 = [0.443746921343274, 0.8163920951010332, 0.5090261862073765, 0.3876186430208992]


def test_generator_golden_values():
    g0 = make_generator(RngSeed(42, 0))
    g1 = make_generator(RngSeed(42, 1))
    assert np.allclose(g0.uniform(size=4), GOLDEN_42_0, rtol=0, atol=1e-15)
    assert np.allclose(g1.uniform(size=4), GOLDEN_42_1, rtol=0, atol=1e-15)


def test_draw_is_reproducible_and_stream_separated():
    dist = Uniform(-1.0, 1.0)
    a = draw(dist, 1000, RngSeed(7, 0))
    b = draw(dist, 1000, RngSeed(7, 0))
    c = draw(dist, 1000, RngSeed(7, 1))
    d = draw(dist, 1000, RngSeed(8, 0))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_seed_validation():
    with pytest.raises(ValueError):
        RngSeed(-1, 0)
    with pytest.raises(ValueError):
        RngSeed(0, -2)
    with pytest.raises(ValueError):
        RngSeed(2**64, 0)


def test_uniform_draw_statistics():
    xs = draw(Uniform(-1.0, 1.0), 20000, RngSeed(3, 0))
    assert np.all(xs >= -1.0) and np.all(xs <= 1.0)
    # std error of the mean is 1/sqrt(3*20000) ~ 0.004
    assert abs(xs.mean()) < 0.015
    assert abs(xs.var() - 1.0 / 3.0) < 0.01


def test_truncnormal_draw_statistics():
    dist = TruncNormal(0.0, 1.0, -3.0, 3.0)
    xs = draw(dist, 20000, RngSeed(3, 0))
    assert np.all(xs >= -3.0) and np.all(xs <= 3.0)
    assert abs(xs.mean()) < 0.03
    # nearly standard normal, variance slightly below 1 from the cut tails
    assert abs(xs.var() - 0.973) < 0.02


def test_negbeta_draw_statistics():
    xs = draw(NegBeta(2.0, 5.0), 20000, RngSeed(3, 0))
    assert np.all(xs <= 0.0) and np.all(xs >= -1.0)
    assert abs(xs.mean() + 2.0 / 7.0) < 0.01


@pytest.mark.parametrize("a, b", [(2.0, 1e155), (50.0, 1e155), (1e16, 1e20), (1e8 * (1 + 2**-52), 1.0)])
def test_negbeta_rejects_shapes_without_finite_quantiles(a, b):
    # the first three draw NaN through betaincinv
    with pytest.raises(ValueError, match="beta shape parameters"):
        NegBeta(a, b)


@pytest.mark.parametrize("a, b", itertools.product([5e-324, 1.0, 1e8], repeat=2))
def test_negbeta_at_the_shape_bounds_draws_inside_the_support(a, b):
    xs = draw(NegBeta(a, b), 1000, RngSeed(3, 0))
    assert np.all(np.isfinite(xs) & (xs >= -1.0) & (xs <= 0.0))


@pytest.mark.parametrize("lo, hi", [(-10.0, -9.0), (9.0, 10.0)])
def test_far_tail_truncnormal_draws(lo, hi):
    # the interval holds about 1e-19 of the normal's mass: drawn by inverse
    # CDF, not by rejecting normals
    xs = draw(TruncNormal(0.0, 1.0, lo, hi), 200_000, RngSeed(3, 0))
    assert np.all(xs >= lo) and np.all(xs <= hi)
    assert abs(xs.mean() - truncnorm.mean(lo, hi)) < 1e-3


@pytest.mark.parametrize("lo, hi", [(37.5, 38.5), (40.0, 41.0), (-41.0, -40.0)])
def test_truncnormal_rejects_intervals_float64_cannot_carry(lo, hi):
    with pytest.raises(ValueError, match="too small for float64") as info:
        TruncNormal(0.0, 1.0, lo, hi)
    assert len(str(info.value)) < 80


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1e308, 8e307)])
def test_uniform_rejects_intervals_wider_than_float64(lo, hi):
    # hi - lo overflows, so every quantile and draw would be inf
    with pytest.raises(ValueError, match="too wide for float64"):
        Uniform(lo, hi)
    # just inside float64's range the interval is kept and sampled
    xs = stratified_sample(Uniform(lo, 7e307), 1001)
    assert np.all(np.isfinite(xs) & (xs >= lo) & (xs <= 7e307))


def test_support_bounds():
    assert support(Uniform(-1.0, 1.0)) == (-1.0, 1.0)
    assert support(TruncNormal(0.0, 1.0, -3.0, 3.0)) == (-3.0, 3.0)
    assert support(NegBeta(2.0, 5.0)) == (-1.0, 0.0)


def test_quantile_uniform_is_affine():
    dist = Uniform(-1.0, 1.0)
    us = np.linspace(1e-6, 1 - 1e-6, 101)
    assert np.allclose(quantile(dist, us), -1.0 + 2.0 * us, atol=1e-12)


def test_quantile_symmetry_and_monotonicity():
    rng = np.random.default_rng(5)
    dists = [Uniform(-2.0, 3.0), TruncNormal(0.0, 1.0, -3.0, 3.0), NegBeta(2.0, 5.0)]
    for dist in dists:
        us = np.sort(rng.uniform(1e-4, 1 - 1e-4, size=200))
        qs = quantile(dist, us)
        assert np.all(np.diff(qs) >= 0.0)
    assert abs(quantile(TruncNormal(0.0, 1.0, -3.0, 3.0), np.array([0.5]))[0]) < 1e-12


def test_pdf_integrates_to_one():
    for dist in (Uniform(-1.0, 1.0), TruncNormal(0.0, 1.0, -3.0, 3.0), NegBeta(2.0, 5.0)):
        lo, hi = support(dist)
        grid = np.linspace(lo, hi, 200001)
        total = np.trapezoid(pdf(dist, grid), grid)
        assert abs(total - 1.0) < 1e-5


def test_pdf_matches_quantile_inverse():
    # dF^{-1}/du = 1 / f(F^{-1}(u)) wherever the density is positive
    dist = TruncNormal(0.0, 1.0, -3.0, 3.0)
    us = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    dq = (quantile(dist, us + h) - quantile(dist, us - h)) / (2 * h)
    assert np.allclose(dq, 1.0 / pdf(dist, quantile(dist, us)), rtol=1e-4)


@pytest.mark.parametrize("lo, hi", [(9.0, 10.0), (30.0, 31.0), (36.0, 37.0)])
def test_far_upper_tail_truncnormal_matches_scipy(lo, hi):
    # ndtr(lo) and ndtr(hi) both round to 1.0 here: the interval's mass and
    # quantiles must come from the mirrored lower tail
    dist = TruncNormal(0.0, 1.0, lo, hi)
    us = np.linspace(0.0005, 0.9995, 1000)
    qs = quantile(dist, us)
    assert np.allclose(qs, truncnorm.ppf(us, lo, hi), rtol=0.0, atol=1e-13)
    assert np.all(np.diff(qs) > 0.0)
    assert np.allclose(quantile(dist, np.array([0.0, 1.0])), [lo, hi], rtol=0.0, atol=1e-12)
    xs = np.linspace(lo, hi, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dens = pdf(dist, xs)
    assert np.allclose(dens, truncnorm.pdf(xs, lo, hi), rtol=1e-12, atol=0.0)


def test_stratified_sample_shape():
    dist = Uniform(-1.0, 1.0)
    xs = stratified_sample(dist, 101)
    assert xs.shape == (101,)
    assert np.all(np.diff(xs) > 0.0)
    # midpoint rule: the grid is quantile((i + 0.5) / n)
    assert np.allclose(xs, quantile(dist, (np.arange(101) + 0.5) / 101), atol=1e-12)


def test_stratified_sample_converges():
    dist = TruncNormal(0.0, 1.0, -3.0, 3.0)
    fine = empirical(stratified_sample(dist, 40001))
    coarse = empirical(stratified_sample(dist, 101))
    d = wasserstein_p(coarse, fine, 1.0)
    assert d < 0.02


def test_wasserstein_hand_values():
    a = empirical(np.array([0.0, 1.0]))
    b = empirical(np.array([0.5, 1.5]))
    assert abs(wasserstein_p(a, b, 1.0) - 0.5) < 1e-12
    assert abs(wasserstein_p(a, b, 2.0) - 0.5) < 1e-12
    # unequal sizes go through the quantile coupling
    c = empirical(np.array([0.5]))
    assert abs(wasserstein_p(a, c, 1.0) - 0.5) < 1e-12


def test_wasserstein_takes_powers_without_overflow():
    # gaps near 1e160 used to overflow in gaps**p and give inf with a warning
    a = empirical(np.array([0.0, 1e160]))
    b = empirical(np.array([1e160, 3e160]))
    c = empirical(np.array([1e160]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wasserstein_p(a, b, 2.0) == 1.5811388300841895e160
        assert wasserstein_p(a, b, 1.0) == 1.5e160
        # unequal sizes: the gap 1e160 on half the quantiles, 0 on the rest
        assert abs(wasserstein_p(a, c, 2.0) - 1e160 / np.sqrt(2.0)) <= 1e-15 * 1e160
        assert abs(wasserstein_p(a, c, 3.5) - 1e160 * 0.5 ** (1 / 3.5)) <= 1e-15 * 1e160
        assert wasserstein_p(b, b, 2.0) == 0.0


def test_wasserstein_properties():
    rng = np.random.default_rng(9)
    for _ in range(100):
        xs = rng.normal(size=int(rng.integers(2, 60)))
        ys = rng.normal(size=int(rng.integers(2, 60)))
        a, b = empirical(xs), empirical(ys)
        p = float(rng.uniform(1.0, 3.0))
        dab = wasserstein_p(a, b, p)
        assert dab >= 0.0
        assert abs(dab - wasserstein_p(b, a, p)) < 1e-12
        assert wasserstein_p(a, a, p) < 1e-12
        # p-norms of the coupling are ordered in p
        assert dab >= wasserstein_p(a, b, 1.0) - 1e-12


def test_wasserstein_shift():
    rng = np.random.default_rng(15)
    for _ in range(50):
        xs = rng.normal(size=int(rng.integers(2, 50)))
        c = float(rng.uniform(-3.0, 3.0))
        d = wasserstein_p(empirical(xs), empirical(xs + c), 2.0)
        assert abs(d - abs(c)) < 1e-9


def test_distribution_parse_render_round_trip():
    dists = [
        Uniform(-1.0, 1.0),
        Uniform(0.25, 2.5),
        TruncNormal(0.0, 1.0, -3.0, 3.0),
        TruncNormal(0.5, 2.0, -1.0, 4.0),
        NegBeta(2.0, 5.0),
        NegBeta(1.5, 3.25),
    ]
    for dist in dists:
        assert parse_distribution(render_distribution(dist)) == dist


def test_distribution_parse_flexible_and_invalid():
    assert parse_distribution("Uniform(-1, 1)") == Uniform(-1.0, 1.0)
    assert parse_distribution("truncnormal( 0 , 1 , -3 , 3 )") == TruncNormal(0.0, 1.0, -3.0, 3.0)
    assert parse_distribution("negbeta(2, 5)") == NegBeta(2.0, 5.0)
    for text in ("uniform(1, -1)", "normal(0, 1)", "uniform(0)", "negbeta(-2, 5)", ""):
        with pytest.raises(ValueError):
            parse_distribution(text)


def test_distribution_arguments_follow_the_dataclass_fields():
    assert parse_distribution("uniform(lo=-1, hi=1)") == Uniform(-1.0, 1.0)
    assert parse_distribution("truncnormal(0, 1, hi=3, lo=-3)") == TruncNormal(0.0, 1.0, -3.0, 3.0)
    assert parse_distribution("negbeta(2, 5,)") == NegBeta(2.0, 5.0)
    for text in ("uniform(,-1,,1)", "uniform(-1, lo=1)", "uniform(-1, 1, 2)", "negbeta(a=2, c=5)"):
        with pytest.raises(ValueError):
            parse_distribution(text)
