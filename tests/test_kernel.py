"""The compiled risk kernel: cached weights, the batch-loss entry checks and
the short error for specs without a textual form."""

import numpy as np
import pytest

from infconv import (
    Combination,
    Entropic,
    ExpectedShortfall,
    batch_loss_and_cotangents,
    es_spectral_density,
    render_risk_spec,
)
from infconv.measures import _compile, _order_weights, sorted_risk


def test_compile_caches_read_only_order_weights():
    spec = Combination(((0.25, Entropic(2.0)), (0.75, ExpectedShortfall(0.9))))
    linear, entropic = _compile(spec, 50)
    assert _compile(spec, 50) is _compile(spec, 50)
    assert not linear.flags.writeable
    assert np.array_equal(linear, 0.75 * _order_weights(ExpectedShortfall(0.9), 50))
    assert entropic == ((0.25, 2.0),)
    assert _compile(Entropic(1.0), 50) == (None, ((1.0, 1.0),))


def test_sorted_risk_returns_the_gradient_only_when_asked():
    xs = np.linspace(-1.0, 1.0, 11)
    value = sorted_risk(ExpectedShortfall(0.5), xs)
    assert np.ndim(value) == 0
    value2, grad = sorted_risk(ExpectedShortfall(0.5), xs, grad=True)
    assert value2 == value
    assert np.array_equal(grad, -_order_weights(ExpectedShortfall(0.5), 11))


def test_batch_loss_checks_its_inputs_once():
    xs = np.linspace(-1.0, 1.0, 8)
    spec = Entropic(1.0)
    with pytest.raises(ValueError, match="one length"):
        batch_loss_and_cotangents(spec, spec, xs, xs[:-1], xs)
    with pytest.raises(ValueError, match="one length"):
        batch_loss_and_cotangents(spec, spec, np.empty(0), np.empty(0), np.empty(0))
    bad = xs.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        batch_loss_and_cotangents(spec, spec, xs, xs, bad)


def test_render_names_the_type_of_a_spec_without_textual_form():
    with pytest.raises(ValueError) as info:
        render_risk_spec(es_spectral_density(0.8))
    assert str(info.value) == "no textual form for Spectral specs"


def test_entropic_leaves_are_overflow_guarded():
    # a raw exp() would overflow long before exp(1e7)
    xs = np.array([-1e6, 0.0, 1.0, 2.0])
    spec = Combination(((0.5, Entropic(0.1)), (0.5, ExpectedShortfall(0.5))))
    expected = 0.5 * (1e6 + 0.1 * np.log(1.0 / 4.0)) + 0.5 * 1e6 / 2.0
    value, grad = sorted_risk(spec, xs, grad=True)
    assert np.all(np.isfinite(grad))
    assert np.allclose(value, expected, rtol=0.0, atol=1e-6)
