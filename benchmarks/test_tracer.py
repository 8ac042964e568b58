"""Tests of the benchmark's tracer: python3 -m pytest benchmarks -q"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import infconv  # noqa: E402
from infconv import cli, net, oracle, sharing  # noqa: E402
from tracer import LAYERS, Tracer, cross_module_functions  # noqa: E402


def _snapshot():
    return {name: dict(vars(sys.modules[f"infconv.{name}"])) for name in LAYERS}


def _assert_unchanged(before):
    for name, attrs in before.items():
        now = vars(sys.modules[f"infconv.{name}"])
        assert now.keys() == attrs.keys(), name
        changed = [key for key, value in attrs.items() if now[key] is not value]
        assert not changed, f"infconv.{name} still patched: {changed}"


def _tiny_training(api):
    samples = np.linspace(-1.0, 1.0, 40)
    config = infconv.TrainConfig(
        n_samples=40, batch_size=20, epochs=2, ensemble_size=1, hidden_widths=(3,)
    )
    return api(sharing.train_ensemble)(samples, infconv.Entropic(2.0), infconv.Entropic(3.0), config)


def test_untraced_run_installs_no_wrapper():
    before = _snapshot()
    tracer = Tracer()
    assert tracer.api(sharing.train_ensemble) is sharing.train_ensemble
    _tiny_training(tracer.api)
    _assert_unchanged(before)
    assert tracer.spans == [] and tracer.counts == {}


def test_traced_run_restores_every_patched_attribute():
    before = _snapshot()
    tracer = Tracer()
    with tracer:
        assert sharing.forward is not net.forward
        assert cli.train_ensemble is not sharing.train_ensemble
        assert oracle.sorted_tail_weights is not infconv.measures.sorted_tail_weights
        _tiny_training(tracer.api)
    _assert_unchanged(before)
    table = tracer.by_function()
    assert table["sharing.train_ensemble"]["calls"] == 1
    assert table["sharing.batch_loss_and_cotangents"]["calls"] == 4
    assert table["net.forward"]["calls"] == 8
    assert tracer.counts["sharing.steps"] == 4
    # the benchmark's own call is the root; each training step hangs below it
    root = next(s for s in tracer.spans if s.name == "sharing.train_ensemble")
    assert root.parent == 0
    assert all(s.parent for s in tracer.spans if s is not root)


def test_traced_run_restores_attributes_when_the_job_raises():
    before = _snapshot()
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            tracer.api(sharing.pair_loss)(
                infconv.Entropic(1.0), infconv.Entropic(1.0), np.zeros(3), np.zeros(2)
            )
    _assert_unchanged(before)
    assert tracer.by_function()["sharing.pair_loss"]["errors"] == 1


def test_missing_and_added_names_are_tolerated(monkeypatch):
    monkeypatch.delattr(sharing, "backward")

    def value_and_grad(mlp, xs):
        return net.forward(mlp, xs)

    value_and_grad.__module__ = "infconv.net"
    monkeypatch.setattr(sharing, "value_and_grad", value_and_grad, raising=False)
    assert cross_module_functions(sharing)["value_and_grad"] == "net.value_and_grad"

    mlp = net.init_mlp((1, 4, 1), "relu", infconv.RngSeed(0, 1))
    with Tracer() as tracer:
        sharing.value_and_grad(mlp, np.zeros(5))
    assert sharing.value_and_grad is value_and_grad
    table = tracer.by_function()
    assert table["net.backward"]["calls"] == 0
    assert table["net.value_and_grad"]["calls"] == 1
    assert tracer.counts["net.madds"] == 3 * 5 * (4 + 4)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer:
        tracer.api(sharing.pair_loss)(
            infconv.Entropic(1.0), infconv.Entropic(2.0), np.arange(5.0), np.ones(5)
        )
    root, *children = tracer.spans
    assert root.name == "sharing.pair_loss"
    assert sorted(c.name for c in children) == ["measures.empirical"] * 2 + ["measures.evaluate"] * 2
    assert all(c.parent == root.ident for c in children)
    own = tracer.self_times()
    covered = sum(c.end - c.start for c in children)
    assert own[root.ident] == pytest.approx(root.end - root.start - covered)
