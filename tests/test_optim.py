"""Adam updates and learning-rate plateau scheduling."""

from dataclasses import replace

import numpy as np
import pytest

from infconv import (
    OptimizerError,
    adam_step,
    init_adam,
    init_plateau,
    plateau_step,
)


def test_first_step_matches_hand_calculation():
    params = np.array([1.0])
    grads = np.array([1.0])
    state = init_adam(params, lr=0.1)
    new_params, new_state = adam_step(state, params, grads)
    # bias-corrected first and second moments both equal the gradient terms
    m_hat = (0.1 * 1.0) / (1.0 - 0.9)
    v_hat = (0.001 * 1.0) / (1.0 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert abs(new_params[0] - expected) < 1e-12
    assert abs((new_params[0] - 1.0) + 0.1) < 1e-8
    assert new_state.t == 1
    # the input arrays are left untouched
    assert params[0] == 1.0
    assert state.t == 0


def test_step_direction_flips_with_gradient():
    params = np.array([0.5, -0.25])
    state = init_adam(params, lr=0.01)
    up, _ = adam_step(state, params, np.array([1.0, 2.0]))
    dn, _ = adam_step(state, params, np.array([-1.0, -2.0]))
    assert np.allclose(up - params, -(dn - params), atol=1e-12)


def test_quadratic_convergence():
    # minimize p^2 by following its gradient
    params = np.array([1.0])
    state = init_adam(params, lr=1e-2)
    for _ in range(10000):
        grads = 2.0 * params
        params, state = adam_step(state, params, grads)
    assert abs(params[0]) <= 1e-3


def test_multi_tensor_layout():
    # a step on concatenated tensors equals separate steps on each tensor
    rng = np.random.default_rng(3)
    params = [rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=(1, 4))]
    grads = [rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=(1, 4))]
    flat_p = np.concatenate([p.ravel() for p in params])
    flat_g = np.concatenate([g.ravel() for g in grads])
    state = init_adam(flat_p, lr=0.05)
    out, new_state = adam_step(state, flat_p, flat_g)
    assert out.shape == flat_p.shape
    assert new_state.t == 1
    pieces = [adam_step(init_adam(p.ravel(), lr=0.05), p.ravel(), g.ravel())[0]
              for p, g in zip(params, grads)]
    assert np.array_equal(out, np.concatenate(pieces))
    # every coordinate moves by at most lr (plus epsilon slack) on step one
    assert np.all(np.abs(out - flat_p) <= 0.05 + 1e-9)


def test_adam_step_validation():
    params = np.array([1.0])
    state = init_adam(params, lr=0.1)
    with pytest.raises(OptimizerError):
        adam_step(state, params, np.array([1.0, 2.0]))
    with pytest.raises(OptimizerError):
        adam_step(state, params, np.array([np.nan]))
    with pytest.raises(OptimizerError):
        adam_step(state, params, np.array([]))
    with pytest.raises(OptimizerError):
        adam_step(state, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    # failed steps leave the state untouched
    assert state.t == 0
    with pytest.raises(ValueError):
        init_adam(params, lr=0.0)
    with pytest.raises(ValueError):
        init_adam(params, lr=-1.0)


def test_plateau_keeps_lr_while_improving():
    state = init_plateau(patience=2)
    lr = 0.1
    for loss in (1.0, 0.9, 0.8, 0.7):
        lr, state = plateau_step(state, loss, lr)
        assert lr == 0.1
    assert state.best == 0.7
    assert state.bad_epochs == 0


def test_plateau_drops_lr_after_patience():
    state = init_plateau(patience=3, factor=0.1)
    lr = 0.1
    lrs = []
    for _ in range(6):
        lr, state = plateau_step(state, 1.0, lr)
        lrs.append(lr)
    # first epoch sets the best; three tolerated bad epochs; drop on the next
    assert lrs == [0.1, 0.1, 0.1, 0.1, 0.1 * 0.1, 0.1 * 0.1]
    assert state.bad_epochs == 1


def test_plateau_threshold_is_absolute():
    state = init_plateau(patience=0, threshold=1e-6)
    lr, state = plateau_step(state, 1.0, 0.1)
    assert lr == 0.1
    # an improvement below the threshold still counts as a bad epoch
    lr, state = plateau_step(state, 1.0 - 1e-7, lr)
    assert lr == 0.1 * 0.1
    # an improvement above the threshold resets the counter
    state = init_plateau(patience=0, threshold=1e-6)
    _, state = plateau_step(state, 1.0, 0.1)
    lr, state = plateau_step(state, 1.0 - 1e-5, 0.1)
    assert lr == 0.1
    assert state.bad_epochs == 0


def test_plateau_respects_min_lr():
    state = init_plateau(patience=0, factor=0.1, min_lr=1e-3)
    lr = 0.1
    for _ in range(20):
        lr, state = plateau_step(state, 1.0, lr)
    assert lr == 1e-3


def test_plateau_lr_never_increases():
    rng = np.random.default_rng(77)
    state = init_plateau(patience=1, factor=0.5)
    lr = 1.0
    prev = lr
    for _ in range(200):
        lr, state = plateau_step(state, float(rng.uniform(0.0, 1.0)), lr)
        assert lr <= prev + 1e-300
        assert lr >= 0.0
        prev = lr


def test_plateau_validation():
    with pytest.raises(ValueError):
        init_plateau(patience=-1)
    with pytest.raises(ValueError):
        init_plateau(patience=1, factor=1.5)
    with pytest.raises(ValueError):
        init_plateau(patience=1, threshold=-1.0)


def test_adam_over_a_concatenation_gives_the_bits_of_two_steps():
    # training runs one state over both networks' parameters back to back
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=7), rng.normal(size=5)
    state_a, state_b = init_adam(a, 1e-2), init_adam(b, 1e-2)
    both, state = np.concatenate([a, b]), init_adam(np.concatenate([a, b]), 1e-2)
    for step in range(30):
        ga = rng.normal(size=a.size) * 10.0 ** rng.integers(-8, 9, size=a.size)
        gb = rng.normal(size=b.size) * 10.0 ** rng.integers(-8, 9, size=b.size)
        gb[step % b.size] = 0.0
        if step == 15:  # a plateau cut, applied to every state
            state_a, state_b, state = (replace(s, lr=s.lr * 0.1) for s in (state_a, state_b, state))
        a, state_a = adam_step(state_a, a, ga)
        b, state_b = adam_step(state_b, b, gb)
        both, state = adam_step(state, both, np.concatenate([ga, gb]))
        assert both.tobytes() == np.concatenate([a, b]).tobytes()
        assert state.m.tobytes() == np.concatenate([state_a.m, state_b.m]).tobytes()
        assert state.v.tobytes() == np.concatenate([state_a.v, state_b.v]).tobytes()
