"""Quadrature references and closed-form pooled risk values."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from infconv import (
    CornerAllocation,
    Entropic,
    ExpectedShortfall,
    Distortion,
    NegBeta,
    ProportionalAllocation,
    TailCutFamily,
    TruncNormal,
    Uniform,
    analytic_allocation,
    analytic_infconv,
    entropic_risk,
    expected_shortfall_risk,
    fit_tail_cut,
)

U = Uniform(-1.0, 1.0)
TN = TruncNormal(0.0, 1.0, -3.0, 3.0)
NB = NegBeta(2.0, 5.0)

# frozen independently computed reference values
ENTR5_U = 0.0332890014261354
ENTR2_U = 0.08264970922583631
ENTR5_TN = 0.09727955638217564
ENTR5_NB = 0.2882814750661862
ES08_U = 0.2
ES08_TN = 0.3461978674687355
ES08_NB = 0.3350591822185115


def test_entropic_risk_reference_values():
    assert abs(entropic_risk(U, 5.0) - ENTR5_U) < 1e-8
    assert abs(entropic_risk(U, 2.0) - ENTR2_U) < 1e-8
    assert abs(entropic_risk(TN, 5.0) - ENTR5_TN) < 1e-8
    assert abs(entropic_risk(NB, 5.0) - ENTR5_NB) < 1e-8


def test_entropic_risk_uniform_closed_form():
    # beta * log of the moment generating function of -X
    for beta in (0.5, 1.0, 2.0, 5.0, 10.0):
        closed = beta * np.log(np.sinh(1.0 / beta) * beta)
        assert abs(entropic_risk(U, beta) - closed) < 1e-8


def test_entropic_risk_approaches_negative_mean():
    # large beta: the certainty equivalent tends to E[-X]
    assert abs(entropic_risk(U, 1e3)) < 1e-3
    assert abs(entropic_risk(NB, 1e3) - 2.0 / 7.0) < 1e-3


@given(
    lo=st.floats(-10.0, 10.0),
    width=st.floats(0.1, 10.0),
    position=st.floats(0.0, 1.0),
)
def test_entropic_risk_matches_uniform_closed_form(lo, width, position):
    # beta spans [1e-4 * width, 1e3] on a log scale.  The error is taken
    # relative to the larger of the value and the width, because the value
    # crosses zero and beta * log amplifies rounding by beta there.
    hi = lo + width
    beta = float(np.exp(np.log(1e-4 * width) + position * np.log(1e3 / (1e-4 * width))))
    closed = -lo + beta * np.log(beta * (-np.expm1(-(hi - lo) / beta)) / (hi - lo))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = entropic_risk(Uniform(lo, hi), beta)
    assert abs(got - closed) <= 1e-11 * max(abs(closed), hi - lo)


@given(lo=st.floats(-10.0, 10.0), width=st.floats(0.1, 10.0), alpha=st.floats(0.001, 0.999))
def test_expected_shortfall_matches_uniform_closed_form(lo, width, alpha):
    hi = lo + width
    assert abs(expected_shortfall_risk(Uniform(lo, hi), alpha) + (lo + alpha * (hi - lo) / 2)) <= 1e-12


@pytest.mark.parametrize("dist", [NB, NegBeta(0.5, 5.0), NegBeta(0.5, 0.7), NegBeta(2.0, 0.7)])
@pytest.mark.parametrize("beta", [5.0, 0.05, 0.005])
def test_entropic_risk_matches_negbeta_closed_form(dist, beta):
    # E[exp(B/beta)] for B ~ Beta(a, b) is the confluent hypergeometric
    # 1F1(a; a + b; 1/beta); NegBeta(0.5, 5) has an infinite density at 0,
    # and b = 0.7 one at -1, where x = -1 + d keeps d only to about 1e-16
    closed = beta * np.log(special.hyp1f1(dist.a, dist.a + dist.b, 1.0 / beta))
    assert abs(entropic_risk(dist, beta) - closed) <= 1e-12


def test_entropic_risk_small_beta_is_finite():
    # the exponential boundary layer at the lower support end is 1000 and 1200
    # times narrower than the support
    assert np.isfinite(entropic_risk(U, 0.002))
    assert np.isfinite(entropic_risk(TN, 0.005))


def test_quadrature_past_its_reach_raises():
    # boundary layers thinner than every node's offset from the end
    with pytest.raises(ValueError):
        entropic_risk(U, 1e-290)
    with pytest.raises(ValueError, match="too small"):
        entropic_risk(Uniform(0.0, 1.0), 1e-300)


def test_expected_shortfall_reference_values():
    assert abs(expected_shortfall_risk(U, 0.8) - ES08_U) < 1e-9
    assert abs(expected_shortfall_risk(TN, 0.8) - ES08_TN) < 1e-9
    assert abs(expected_shortfall_risk(NB, 0.8) - ES08_NB) < 1e-9


def test_expected_shortfall_uniform_closed_form():
    # uniform(-1,1): ES_alpha = 1 - alpha
    for alpha in (0.1, 0.25, 0.5, 0.8, 0.99):
        assert abs(expected_shortfall_risk(U, alpha) - (1.0 - alpha)) < 1e-9


def test_entropic_pair_pools_to_summed_beta():
    got = analytic_infconv(Entropic(2.0), Entropic(3.0), U)
    assert got is not None
    assert abs(got - ENTR5_U) < 1e-8
    got = analytic_infconv(Entropic(2.0), Entropic(3.0), TN)
    assert abs(got - ENTR5_TN) < 1e-8


def test_es_pair_pools_to_larger_level():
    got = analytic_infconv(ExpectedShortfall(0.8), ExpectedShortfall(0.7), U)
    assert got is not None
    assert abs(got - ES08_U) < 1e-9
    # order does not matter
    rev = analytic_infconv(ExpectedShortfall(0.7), ExpectedShortfall(0.8), U)
    assert abs(rev - got) < 1e-12


def test_mixed_pairs_have_no_closed_form():
    assert analytic_infconv(ExpectedShortfall(0.9), Entropic(0.3), U) is None
    assert analytic_infconv(Distortion(((1.0, 0.5),)), Entropic(1.0), U) is None


def test_entropic_allocation_is_proportional():
    desc = analytic_allocation(Entropic(2.0), Entropic(3.0))
    assert isinstance(desc, ProportionalAllocation)
    assert abs(desc.first_share - 0.4) < 1e-12
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(desc.first(xs) + desc.second(xs), xs, atol=1e-15)
    assert np.allclose(desc.first(xs), 0.4 * xs, atol=1e-15)


def test_es_allocation_is_a_corner():
    desc = analytic_allocation(ExpectedShortfall(0.8), ExpectedShortfall(0.7))
    assert isinstance(desc, CornerAllocation)
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(desc.first(xs), xs, atol=1e-15)
    assert np.allclose(desc.second(xs), 0.0, atol=1e-15)
    rev = analytic_allocation(ExpectedShortfall(0.7), ExpectedShortfall(0.8))
    assert np.allclose(rev.first(xs), 0.0, atol=1e-15)
    assert np.allclose(rev.second(xs), xs, atol=1e-15)


def test_mixed_allocation_is_a_tail_cut_family():
    desc = analytic_allocation(ExpectedShortfall(0.9), Entropic(0.3))
    assert isinstance(desc, TailCutFamily)
    xs = np.linspace(-2.0, 2.0, 41)
    for k in (-0.5, 0.0, 0.7):
        first, second = desc.member(k)
        assert np.allclose(first(xs) + second(xs), xs, atol=1e-15)
        # the tail holder takes losses below the cut, slope in {0, 1}
        assert np.allclose(first(xs), np.minimum(xs - k, 0.0), atol=1e-15)
    flipped = analytic_allocation(Entropic(0.3), ExpectedShortfall(0.9))
    first, second = flipped.member(0.2)
    assert np.allclose(second(xs), np.minimum(xs - 0.2, 0.0), atol=1e-15)


def test_allocation_none_for_unstructured_pairs():
    assert analytic_allocation(Distortion(((1.0, 0.5),)), Distortion(((1.0, 0.6),))) is None


def test_fit_tail_cut_recovers_cut():
    xs = np.linspace(-1.0, 1.0, 2001)
    for k0 in (-0.6, -0.1, 0.0, 0.3, 0.85):
        values = np.minimum(xs - k0, 0.0)
        assert abs(fit_tail_cut(xs, values) - k0) < 1e-6


def test_fit_tail_cut_tolerates_noise():
    rng = np.random.default_rng(71)
    xs = np.linspace(-1.0, 1.0, 2001)
    for k0 in (-0.4, 0.2, 0.6):
        values = np.minimum(xs - k0, 0.0) + rng.normal(0.0, 0.01, size=xs.shape)
        assert abs(fit_tail_cut(xs, values) - k0) < 0.05


def test_fit_tail_cut_profiles_out_cash_constant():
    # the optimal share is a tail cut only up to a cash constant; the
    # constant must not leak into the threshold
    xs = np.linspace(-1.0, 1.0, 2001)
    for k0, c0 in ((-0.6, 0.3), (0.3, -1.2), (0.85, 2.0)):
        values = np.minimum(xs - k0, 0.0) + c0
        k = fit_tail_cut(xs, values)
        assert abs(k - k0) < 1e-6
        assert abs(np.mean(values - np.minimum(xs - k, 0.0)) - c0) < 1e-6
