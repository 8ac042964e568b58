"""Feed-forward nets: shapes, forwards, hand-written gradients, serialization."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from infconv import net as net_module
from infconv import (
    ACTIVATIONS,
    Mlp,
    RngSeed,
    forward,
    init_mlp,
    mlp_from_json,
    mlp_to_json,
    value_and_grad,
)


def make_net(widths, activation, seed=0, stream=1):
    return init_mlp(widths, activation, RngSeed(seed, stream))


def test_param_count():
    net = make_net((1, 100, 100, 100, 1), "relu")
    # 1*100+100 + 100*100+100 + 100*100+100 + 100*1+1
    assert net.params.size == 20501
    assert make_net((1, 1), "linear").params.size == 2
    assert make_net((1, 64, 64, 1), "tanh").params.size == 4353


def test_init_ranges():
    net = make_net((1, 64, 64, 1), "relu", seed=5)
    for w, fan_in in zip(net.weights, (1, 64, 64)):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.all(np.abs(w) <= bound)
        assert np.std(w) > 0.1 * bound
    for b in net.biases:
        assert np.all(b == 0.0)


def test_init_is_seed_deterministic():
    a = make_net((1, 32, 1), "tanh", seed=3, stream=9)
    b = make_net((1, 32, 1), "tanh", seed=3, stream=9)
    c = make_net((1, 32, 1), "tanh", seed=3, stream=10)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert not all(np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_net((1,), "relu")
    with pytest.raises(ValueError):
        make_net((2, 4, 1), "relu")
    with pytest.raises(ValueError):
        make_net((1, 4, 3), "relu")
    with pytest.raises(ValueError):
        make_net((1, 4, 1), "sigmoid")
    net = make_net((1, 4, 1), "relu")
    with pytest.raises(ValueError):
        Mlp(widths=(1, 4, 1), activation="relu", params=net.params[:-1])


def test_single_affine_map_forward_backward():
    net = make_net((1, 1), "linear")
    w = float(net.weights[0][0, 0])
    xs = np.array([3.0])
    assert np.allclose(forward(net, xs), w * 3.0, atol=1e-15)
    values, pullback = value_and_grad(net, xs)
    assert np.array_equal(values, forward(net, xs))
    g = pullback(np.array([1.0]))
    # d(wx+b)/dw = x, d/db = 1, laid out as (W0, b0)
    assert g.shape == (2,)
    assert abs(g[0] - 3.0) < 1e-15
    assert abs(g[1] - 1.0) < 1e-15


def test_linear_activation_network_is_affine():
    net = make_net((1, 8, 8, 1), "linear", seed=2)
    xs = np.linspace(-2.0, 2.0, 9)
    ys = forward(net, xs)
    second = np.diff(ys, n=2)
    assert np.all(np.abs(second) < 1e-12)
    # zero biases at init make the map exactly homogeneous
    assert abs(forward(net, np.array([0.0]))[0]) < 1e-15


def test_forward_batch_matches_single():
    rng = np.random.default_rng(21)
    for activation in ACTIVATIONS:
        net = make_net((1, 16, 16, 1), activation, seed=4)
        xs = rng.uniform(-2.0, 2.0, size=40)
        batch = forward(net, xs)
        single = np.array([forward(net, xs[i : i + 1])[0] for i in range(xs.size)])
        assert np.allclose(batch, single, atol=1e-12)


def test_forward_memory_does_not_grow_with_width_times_batch():
    # a pass that holds whole-batch (200001, 100) activations peaks at about 610 MB
    net = make_net((1, 100, 100, 100, 1), "relu", seed=4)
    xs = np.linspace(-1.0, 1.0, 200_001)
    tracemalloc.start()
    try:
        out = forward(net, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == xs.shape
    assert peak < 16 * 2**20


def test_blas_is_looked_up_on_first_use_not_at_import():
    src = str(Path(net_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import infconv; print(infconv.net._openblas.cache_info().misses)"],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def _forced_workers(monkeypatch, workers):
    # usable CPUs = workers; width 64 clears the work threshold
    if net_module._openblas() is None:
        pytest.skip("numpy's BLAS cannot be pinned, so passes stay on one thread")
    monkeypatch.setattr(net_module, "_usable_cpus", lambda: workers)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_threaded_forward_equals_serial_bit_for_bit(monkeypatch, activation):
    net = make_net((1, 64, 64, 1), activation, seed=6)
    rng = np.random.default_rng(6)
    for size in (1, 1023, 1024, 1025, 2049, 200_001):
        xs = rng.uniform(-3.0, 3.0, size=size)
        _forced_workers(monkeypatch, 1)
        serial = forward(net, xs)
        for workers in (2, 3, 4):
            _forced_workers(monkeypatch, workers)
            assert forward(net, xs).tobytes() == serial.tobytes()


def test_forward_splits_blocks_over_threads(monkeypatch):
    # 2049 rows are 3 blocks: 3 threads take one each, 4 threads still only 3
    seen = set()
    original = net_module._activate

    def recording(z, activation):
        seen.add(threading.current_thread().name)
        return original(z, activation)

    monkeypatch.setattr(net_module, "_activate", recording)
    net = make_net((1, 64, 1), "tanh")
    for workers, threads in ((1, 1), (3, 3), (4, 3)):
        _forced_workers(monkeypatch, workers)
        seen.clear()
        forward(net, np.zeros(2049))
        assert len(seen) == threads
    _forced_workers(monkeypatch, 2)
    seen.clear()
    forward(make_net((1, 31, 1), "tanh"), np.zeros(2049))  # 1024 * 31 is below the threshold
    assert len(seen) == 1


def test_forward_helper_errors_reach_the_caller(monkeypatch):
    _forced_workers(monkeypatch, 2)
    # the second block overflows, in the helper, under the caller's errstate
    net = Mlp((1, 64, 1), "linear", np.full(64 * 2 + 65, 4.0))
    xs = np.concatenate([np.zeros(1024), np.full(1024, 1e308)])
    with np.errstate(over="raise"):
        forward(net, xs[:1024])
        with pytest.raises(FloatingPointError):
            forward(net, xs)


def test_forward_rejects_bad_batches():
    net = make_net((1, 4, 1), "relu")
    with pytest.raises(ValueError):
        forward(net, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        forward(net, np.array([1.0, np.nan]))


def _finite_difference_grads(net, xs, upstream, h=1e-7):
    params = net.params
    fd = np.zeros_like(params)
    for j in range(params.size):
        bump = np.zeros_like(params)
        bump[j] = h
        net.params = params + bump
        f_up = float(upstream @ forward(net, xs))
        net.params = params - bump
        f_dn = float(upstream @ forward(net, xs))
        fd[j] = (f_up - f_dn) / (2 * h)
    net.params = params
    return fd


def _relu_safe_inputs(net, rng, n):
    # points are independent, so reject per input until each one keeps every
    # pre-activation away from the kink
    out = []
    tries = 0
    while len(out) < n:
        tries += 1
        assert tries < 10000, "could not find kink-free inputs"
        x = rng.uniform(-2.0, 2.0)
        a = np.array([[x]])
        ok = True
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            z = a @ w.T + b
            if np.any(np.abs(z) < 1e-3):
                ok = False
                break
            a = np.maximum(z, 0.0)
        if ok:
            out.append(x)
    return np.array(out)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(33)
    for activation in ACTIVATIONS:
        for seed in range(3):
            net = make_net((1, 6, 5, 1), activation, seed=seed, stream=2)
            if activation == "relu":
                xs = _relu_safe_inputs(net, rng, 7)
            else:
                xs = rng.uniform(-2.0, 2.0, size=7)
            upstream = rng.normal(size=7)
            got = value_and_grad(net, xs)[1](upstream)
            fd = _finite_difference_grads(net, xs, upstream)
            assert np.allclose(got, fd, rtol=1e-5, atol=1e-7)


def test_backward_linear_in_upstream():
    rng = np.random.default_rng(39)
    net = make_net((1, 12, 1), "tanh", seed=6)
    xs = rng.uniform(-2.0, 2.0, size=20)
    u1 = rng.normal(size=20)
    u2 = rng.normal(size=20)
    _, pullback = value_and_grad(net, xs)
    assert np.allclose(pullback(u1) + pullback(u2), pullback(u1 + u2), atol=1e-12)


def test_relu_derivative_at_kink_is_zero():
    # (W0, b0, W1, b1) = (1, 0, 1, 0)
    net = Mlp(widths=(1, 1, 1), activation="relu", params=np.array([1.0, 0.0, 1.0, 0.0]))
    g = value_and_grad(net, np.array([0.0]))[1](np.array([1.0]))
    # pre-activation is exactly 0; the derivative there is pinned to 0
    assert g[0] == 0.0
    assert g[1] == 0.0
    # the output-layer bias still sees the upstream signal
    assert g[3] == 1.0


def test_flat_params_layout_and_views():
    net = make_net((1, 10, 10, 1), "relu", seed=8)
    # W0 (10x1), b0, W1 (10x10, row-major), b1, W2 (1x10), b2
    bounds = np.cumsum([0, 10, 10, 100, 10, 10, 1])
    pieces = [p for pair in zip(net.weights, net.biases) for p in pair]
    for piece, lo, hi in zip(pieces, bounds[:-1], bounds[1:]):
        assert np.shares_memory(piece, net.params)
        assert np.array_equal(piece.ravel(), net.params[lo:hi])
    net.params = 2.0 * net.params  # an update replaces the vector; the views follow it
    assert np.array_equal(net.weights[1].ravel(), net.params[20:120])
    with pytest.raises(ValueError):
        Mlp(widths=net.widths, activation=net.activation, params=net.params[:-1])


def test_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(51)
    for activation in ACTIVATIONS:
        net = make_net((1, 32, 32, 1), activation, seed=9)
        clone = mlp_from_json(mlp_to_json(net))
        assert clone.widths == net.widths
        assert clone.activation == net.activation
        assert np.array_equal(net.params, clone.params)
        xs = rng.uniform(-3.0, 3.0, size=17)
        assert np.array_equal(forward(net, xs), forward(clone, xs))
