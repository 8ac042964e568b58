"""Training loop, symmetrized loss, allocation metrics, stability check."""

import os
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

import infconv
from infconv import (
    Combination,
    Distortion,
    EnsembleError,
    Entropic,
    ExpectedShortfall,
    ProportionalAllocation,
    RngSeed,
    Spectral,
    TrainConfig,
    TrainingError,
    Uniform,
    analytic_infconv,
    batch_loss_and_cotangents,
    distortion_density_norm,
    draw,
    empirical,
    es_spectral_density,
    evaluate,
    forward,
    init_mlp,
    l2_error,
    make_generator,
    metric_d,
    metric_d_mu,
    pair_loss,
    sharing,
    spectral_stability_check,
    train_ensemble,
    train_member,
)
from infconv import net
from infconv.sharing import LossHistory

U = Uniform(-1.0, 1.0)

TINY = TrainConfig(
    n_samples=2000,
    batch_size=200,
    epochs=12,
    learning_rate=1e-3,
    ensemble_size=3,
    hidden_widths=(16, 16),
    activation="relu",
    base_seed=11,
)


def tiny_samples(config=TINY, seed=None):
    rng = RngSeed(config.base_seed if seed is None else seed, 0)
    return draw(U, config.n_samples, rng)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_train_config_validation():
    assert TrainConfig().widths == (1, 64, 64, 1)
    assert TrainConfig(epochs=0).epochs == 0
    with pytest.raises(ValueError):
        TrainConfig(n_samples=1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(n_samples=100, batch_size=101)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(ensemble_size=0)
    with pytest.raises(ValueError):
        TrainConfig(hidden_widths=())
    with pytest.raises(ValueError):
        TrainConfig(activation="selu")


# ---------------------------------------------------------------------------
# batch loss
# ---------------------------------------------------------------------------


def test_batch_loss_zero_proposals():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1.0, 1.0, size=300)
    zeros = np.zeros_like(xs)
    spec1, spec2 = Entropic(2.0), ExpectedShortfall(0.8)
    loss, _, _ = batch_loss_and_cotangents(spec1, spec2, xs, zeros, zeros)
    m = empirical(xs)
    want = 0.5 * (evaluate(spec1, m) + evaluate(spec2, m))
    assert abs(loss - want) < 1e-12


def test_batch_loss_constant_batch_identity_split():
    c = 0.7
    xs = np.full(50, c)
    spec = ExpectedShortfall(0.6)
    # first net proposes the whole position, second proposes nothing
    loss, _, _ = batch_loss_and_cotangents(spec, spec, xs, xs.copy(), np.zeros(50))
    assert abs(loss - (-c)) < 1e-12


def test_batch_loss_swap_symmetry():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=200)
    a = np.tanh(xs)
    b = 0.3 * xs
    s1, s2 = Entropic(1.5), ExpectedShortfall(0.7)
    l1, _, _ = batch_loss_and_cotangents(s1, s2, xs, a, b)
    l2, _, _ = batch_loss_and_cotangents(s2, s1, xs, b, a)
    assert abs(l1 - l2) < 1e-12


def test_batch_loss_cotangents_match_finite_differences():
    rng = np.random.default_rng(7)
    xs = np.sort(rng.normal(size=40)) * 2.0
    a = 0.4 * xs + 0.05 * np.tanh(xs)
    b = 0.2 * xs
    s1, s2 = Entropic(1.0), Entropic(3.0)
    _, cot1, cot2 = batch_loss_and_cotangents(s1, s2, xs, a, b)
    h = 1e-6
    for i in range(0, 40, 7):
        up = a.copy()
        dn = a.copy()
        up[i] += h
        dn[i] -= h
        lu, _, _ = batch_loss_and_cotangents(s1, s2, xs, up, b)
        ld, _, _ = batch_loss_and_cotangents(s1, s2, xs, dn, b)
        assert abs(cot1[i] - (lu - ld) / (2 * h)) < 1e-5
        up = b.copy()
        dn = b.copy()
        up[i] += h
        dn[i] -= h
        lu, _, _ = batch_loss_and_cotangents(s1, s2, xs, a, up)
        ld, _, _ = batch_loss_and_cotangents(s1, s2, xs, a, dn)
        assert abs(cot2[i] - (lu - ld) / (2 * h)) < 1e-5


def test_batch_loss_is_flat_along_cash_shifts():
    # shifting a proposal by a constant moves one leg's risk up and the
    # other's down by the same amount, so the cotangents sum to zero
    rng = np.random.default_rng(9)
    xs = rng.normal(size=100)
    a = 0.3 * xs
    b = 0.6 * xs
    _, cot1, cot2 = batch_loss_and_cotangents(Entropic(2.0), ExpectedShortfall(0.8), xs, a, b)
    assert abs(cot1.sum()) < 1e-9
    assert abs(cot2.sum()) < 1e-9


def test_rebalancing_invariance():
    rng = np.random.default_rng(13)
    for _ in range(50):
        xs = rng.normal(size=150)
        f1 = 0.5 * xs + 0.1 * np.tanh(xs)
        c = float(rng.uniform(-2.0, 2.0))
        s1, s2 = Entropic(2.0), Distortion(((0.5, 0.8), (0.5, 0.6)))
        base = pair_loss(s1, s2, xs, f1)
        shifted = pair_loss(s1, s2, xs, f1 + c)
        assert abs(base - shifted) < 1e-9


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_initialized_pair():
    cfg = TrainConfig(
        n_samples=100, batch_size=50, epochs=0, hidden_widths=(8,), activation="tanh", base_seed=4
    )
    xs = draw(U, 100, RngSeed(4, 0))
    member = train_member(xs, Entropic(1.0), Entropic(2.0), cfg, member=0)
    assert member.losses.shape == (0,)
    assert member.lrs.shape == (0,)
    phi1 = init_mlp(cfg.widths, "tanh", RngSeed(4, 1))
    phi2 = init_mlp(cfg.widths, "tanh", RngSeed(4, 2))
    grid = np.linspace(-1.0, 1.0, 21)
    want = 0.5 * (forward(phi1, grid) + grid - forward(phi2, grid))
    assert np.allclose(member.first(grid), want, atol=1e-15)


def test_training_is_deterministic():
    xs = tiny_samples()
    cfg = TrainConfig(
        n_samples=2000, batch_size=500, epochs=3, hidden_widths=(8,), activation="relu", base_seed=11
    )
    a = train_member(xs, Entropic(2.0), Entropic(3.0), cfg, member=0)
    b = train_member(xs, Entropic(2.0), Entropic(3.0), cfg, member=0)
    assert np.array_equal(a.phi1.params, b.phi1.params)
    assert np.array_equal(a.losses, b.losses)
    c = train_member(xs, Entropic(2.0), Entropic(3.0), cfg, member=1)
    assert not np.array_equal(a.losses, c.losses)


def test_training_sees_each_drawn_batch_sorted(monkeypatch):
    # stream 4k+3's permutation picks each batch's rows, and the networks see
    # them in ascending order; 1000 rows in batches of 300 end in a batch of 100
    cfg = TrainConfig(n_samples=1000, batch_size=300, epochs=2, hidden_widths=(8,), base_seed=6)
    xs = draw(U, cfg.n_samples, RngSeed(cfg.base_seed, 0))
    seen = []
    real = net._Stack.forward

    def recording(stack, batch):
        seen.append(np.array(batch))
        return real(stack, batch)

    monkeypatch.setattr(net._Stack, "forward", recording)
    member = 2
    train_member(xs, Entropic(2.0), Entropic(3.0), cfg, member=member)

    shuffler = make_generator(RngSeed(cfg.base_seed, 4 * member + 3))
    want = []
    for _ in range(cfg.epochs):
        perm = shuffler.permutation(cfg.n_samples)
        for start in range(0, cfg.n_samples, cfg.batch_size):
            batch = np.sort(xs[perm[start : start + cfg.batch_size]])
            want.append(batch)  # one stacked pass for both networks
    assert [b.size for b in want] == [300, 300, 300, 100] * cfg.epochs
    assert len(seen) == len(want)
    for got, expected in zip(seen, want):
        assert np.all(np.diff(got) >= 0.0)
        assert got.tobytes() == expected.tobytes()


def test_training_requires_matching_sample_size():
    cfg = TrainConfig(n_samples=2000, batch_size=500, epochs=1, hidden_widths=(8,))
    with pytest.raises(ValueError):
        train_member(np.zeros(100), Entropic(1.0), Entropic(2.0), cfg)


def test_exact_feasibility():
    xs = tiny_samples()
    member = train_member(xs, Entropic(2.0), Entropic(3.0), TINY, member=0)
    grid = np.linspace(-3.0, 3.0, 101)
    assert np.max(np.abs(member.first(grid) + member.second(grid) - grid)) <= 1e-12


def test_monotone_learning_smoke():
    xs = tiny_samples()
    member = train_member(xs, Entropic(2.0), Entropic(3.0), TINY, member=0)
    assert member.losses[-1] <= member.losses[0]


def test_loss_lower_bound():
    # no allocation can beat the pooled infimum by more than sampling error
    xs = tiny_samples()
    spec1, spec2 = Entropic(2.0), Entropic(3.0)
    member = train_member(xs, spec1, spec2, TINY, member=0)
    final = pair_loss(spec1, spec2, xs, member.first(xs))
    analytic = analytic_infconv(spec1, spec2, U)
    rng = np.random.default_rng(17)
    boot = []
    for _ in range(200):
        idx = rng.integers(0, xs.size, size=xs.size)
        boot.append(pair_loss(spec1, spec2, xs[idx], member.first(xs[idx])))
    se = float(np.std(boot))
    assert final >= analytic - 3.0 * se


def test_ensemble_not_worse_than_mean_member():
    xs = tiny_samples()
    spec1, spec2 = Entropic(2.0), ExpectedShortfall(0.8)
    result = train_ensemble(xs, spec1, spec2, TINY)
    ens_loss = pair_loss(spec1, spec2, xs, result.allocation.first(xs))
    member_losses = [
        pair_loss(spec1, spec2, xs, member.first(xs)) for member in result.allocation.members
    ]
    assert ens_loss <= float(np.mean(member_losses)) + 1e-9


def test_single_member_ensemble_is_the_member():
    xs = tiny_samples()
    cfg = TrainConfig(
        n_samples=2000, batch_size=500, epochs=2, ensemble_size=1, hidden_widths=(8,), base_seed=11
    )
    result = train_ensemble(xs, Entropic(2.0), Entropic(3.0), cfg)
    member = result.allocation.members[0]
    grid = np.linspace(-1.0, 1.0, 41)
    assert np.allclose(result.allocation.first(grid), member.first(grid), atol=1e-15)


def test_history_shapes_and_statistics():
    xs = tiny_samples()
    result = train_ensemble(xs, Entropic(2.0), Entropic(3.0), TINY)
    hist = result.history
    assert hist.member_losses.shape == (TINY.ensemble_size, TINY.epochs)
    assert hist.epochs == TINY.epochs
    assert np.all(hist.std_loss >= 0.0)
    # identical member rows degenerate to zero spread
    row = hist.member_losses[0]
    flat = LossHistory(
        member_losses=np.stack([row, row, row]), member_lrs=hist.member_lrs[:1].repeat(3, axis=0)
    )
    assert np.allclose(flat.std_loss, 0.0, atol=1e-15)
    assert np.allclose(flat.mean_loss, row, atol=1e-15)


def test_divergent_training_raises_with_context():
    cfg = TrainConfig(
        n_samples=200,
        batch_size=100,
        epochs=3,
        learning_rate=1e300,
        hidden_widths=(8,),
        activation="relu",
        base_seed=2,
    )
    xs = draw(U, 200, RngSeed(2, 0))
    with pytest.raises(TrainingError) as info:
        train_member(xs, Entropic(1.0), Entropic(2.0), cfg, member=5)
    assert info.value.member == 5
    assert info.value.epoch >= 0
    assert info.value.history.shape[0] <= cfg.epochs


def test_divergent_ensemble_lists_members():
    cfg = TrainConfig(
        n_samples=200,
        batch_size=100,
        epochs=2,
        learning_rate=1e300,
        ensemble_size=2,
        hidden_widths=(8,),
        base_seed=2,
    )
    xs = draw(U, 200, RngSeed(2, 0))
    with pytest.raises(EnsembleError) as info:
        train_ensemble(xs, Entropic(1.0), Entropic(2.0), cfg)
    assert len(info.value.failures) == 2
    assert "member" in str(info.value)


def test_epoch_mean_overflow_ends_the_member(monkeypatch):
    # finite batch losses whose epoch mean overflows to inf
    loss_and_cotangents = sharing.batch_loss_and_cotangents

    def huge(*args):
        _, cot1, cot2 = loss_and_cotangents(*args)
        return 1e308, cot1, cot2

    monkeypatch.setattr(sharing, "batch_loss_and_cotangents", huge)
    cfg = replace(TINY, epochs=2, ensemble_size=2)
    with pytest.raises(TrainingError) as info:
        train_member(tiny_samples(cfg), Entropic(2.0), Entropic(3.0), cfg, member=1)
    assert (info.value.member, info.value.epoch, info.value.batch) == (1, 0, 9)
    assert "non-finite epoch loss" in str(info.value)
    with pytest.raises(EnsembleError) as info:
        train_ensemble(tiny_samples(cfg), Entropic(2.0), Entropic(3.0), cfg)
    assert [f.member for f in info.value.failures] == [0, 1]


def test_each_step_calls_the_batch_loss_through_the_module_once(monkeypatch):
    # the benchmark's tracer counts training steps at this module attribute
    calls = []
    loss_and_cotangents = sharing.batch_loss_and_cotangents

    def counting(*args):
        calls.append(None)
        return loss_and_cotangents(*args)

    monkeypatch.setattr(sharing, "batch_loss_and_cotangents", counting)
    cfg = replace(TINY, n_samples=1000, batch_size=300, epochs=3)  # 3 full batches and one of 100
    train_member(tiny_samples(cfg), Entropic(2.0), Entropic(3.0), cfg, member=1)
    assert len(calls) == cfg.epochs * 4
    calls.clear()
    train_ensemble(tiny_samples(cfg), Entropic(2.0), Entropic(3.0), cfg)
    assert len(calls) == cfg.ensemble_size * cfg.epochs * 4


def _arrays_within(obj, depth=4):
    """Every ndarray reachable from obj through containers, object attributes
    and array bases, to the given depth."""
    if isinstance(obj, np.ndarray):
        found = [obj]
        if obj.base is not None and depth:
            found += _arrays_within(obj.base, depth - 1)
        return found
    if not depth or isinstance(obj, (type, type(np), str, bytes)) or callable(obj):
        return []
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple, set)):
        items = list(obj)
    elif hasattr(obj, "__dict__"):
        items = list(vars(obj).values())
    else:
        return []
    return [a for item in items for a in _arrays_within(item, depth - 1)]


def test_a_waiting_member_holds_no_pass_buffer():
    # a pass buffer has two or more dimensions and one entry per batch row on
    # its last axis; 1000 samples in batches of 300 end in a batch of 100
    cfg = replace(TINY, n_samples=1000, batch_size=300, epochs=3)
    epochs = sharing._member_epochs(tiny_samples(cfg), Entropic(2.0), Entropic(3.0), cfg, 0)
    for _ in range(cfg.epochs - 1):
        next(epochs)
        held = _arrays_within(epochs.gi_frame.f_locals)
        assert held, "the walk reaches the member's arrays"
        assert not [a.shape for a in held if a.ndim >= 2 and a.shape[-1] in (300, 100)]
    with pytest.raises(StopIteration):
        next(epochs)


def test_non_finite_network_output_names_member_epoch_and_batch(monkeypatch):
    real = net._Stack.forward
    passes = []

    def inf_at_epoch_1_batch_3(stack, xs):
        values = real(stack, xs)
        passes.append(None)
        if len(passes) == 10 + 3 + 1:  # one pass a step, ten batches an epoch
            values = np.full_like(values, np.inf)
        return values

    monkeypatch.setattr(net._Stack, "forward", inf_at_epoch_1_batch_3)
    with pytest.raises(TrainingError) as info:
        train_member(tiny_samples(), Entropic(2.0), Entropic(3.0), TINY, member=2)
    assert (info.value.member, info.value.epoch, info.value.batch) == (2, 1, 3)
    assert str(info.value) == "member 2: batch and share values must be finite at epoch 1, batch 3"
    assert info.value.history.shape == (1,) and np.isfinite(info.value.history[0])


# ---------------------------------------------------------------------------
# concurrent members
# ---------------------------------------------------------------------------

# batch_size * max(hidden_widths) = 64,000, at or above the threshold from
# which members train on concurrent threads.
WIDE = TrainConfig(
    n_samples=2000,
    batch_size=1000,
    epochs=2,
    learning_rate=1e-3,
    ensemble_size=3,
    hidden_widths=(64, 64),
    base_seed=4,
)
# In a fresh interpreter that counts 2 CPUs: prints the digest of every member
# of WIDE's ensemble and of its first share on 200,001 points, then the same
# digests with the members trained and evaluated on one thread (1 CPU).
_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from infconv import Entropic, RngSeed, TrainConfig, Uniform, draw, net, train_ensemble, train_member
from infconv.sharing import EnsembleAllocation
cfg = TrainConfig(**{config!r})
xs = draw(Uniform(-1.0, 1.0), cfg.n_samples, RngSeed(cfg.base_seed, 0))
grid = np.linspace(-1.0, 1.0, 200_001)
def digest(*parts):
    print(hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest())
net._usable_cpus = lambda: 2
members = train_ensemble(xs, Entropic(2.0), Entropic(3.0), cfg).allocation.members
firsts = [EnsembleAllocation(members).first(grid)]
net._usable_cpus = lambda: 1
serial = [train_member(xs, Entropic(2.0), Entropic(3.0), cfg, member=k) for k in range(len(members))]
firsts.append(EnsembleAllocation(tuple(serial)).first(grid))
for ms, first in ((members, firsts[0]), (serial, firsts[1])):
    for m in ms:
        digest(m.phi1.params, m.phi2.params, m.losses, m.lrs)
    digest(first)
"""


def _workers(monkeypatch, cpus):
    if net._openblas() is None:
        pytest.skip("numpy's BLAS cannot be pinned, so members train on one thread")
    monkeypatch.setattr(net, "_usable_cpus", lambda: cpus)


def _assert_members_match_serial(cfg):
    xs = tiny_samples(cfg)
    result = train_ensemble(xs, Entropic(2.0), Entropic(3.0), cfg)
    assert len(result.allocation.members) == cfg.ensemble_size
    for k, got in enumerate(result.allocation.members):
        want = train_member(xs, Entropic(2.0), Entropic(3.0), cfg, member=k)
        for a, b in ((got.phi1.params, want.phi1.params), (got.phi2.params, want.phi2.params),
                     (got.losses, want.losses), (got.lrs, want.lrs)):
            assert a.tobytes() == b.tobytes()
        assert result.history.member_losses[k].tobytes() == want.losses.tobytes()


@pytest.mark.parametrize("size, hidden", [(3, (64, 64)), (5, (64, 64)), (3, (100, 100, 100))])
def test_concurrent_members_match_serial_bytes(monkeypatch, size, hidden):
    cfg = replace(WIDE, ensemble_size=size, hidden_widths=hidden)
    assert cfg.batch_size * max(cfg.hidden_widths) >= net._PARALLEL_MIN_WORK
    _workers(monkeypatch, cpus=2)
    _assert_members_match_serial(cfg)


def test_more_threads_than_cores_with_fast_switching(monkeypatch):
    # four workers for five members, switching threads every microsecond
    _workers(monkeypatch, cpus=4)
    blas_threads = net._openblas()[0]()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_members_match_serial(replace(WIDE, ensemble_size=5, epochs=1))
    finally:
        sys.setswitchinterval(interval)
    assert net._openblas()[0]() == blas_threads  # the last of the pin's users restored it


def _hooked_epochs(monkeypatch, before_epoch):
    """Route train_ensemble's per-epoch hook through before_epoch(member),
    called in the training thread before each of the member's epochs."""
    original = sharing._member_epochs

    def hooked(*args):
        member = args[-1]
        epochs = original(*args)
        while True:
            before_epoch(member)
            try:
                next(epochs)
            except StopIteration as done:
                return done.value
            yield

    monkeypatch.setattr(sharing, "_member_epochs", hooked)


class _EpochClock:
    """Virtual time for hooked epochs, so that the order in which epochs end
    does not depend on how busy the host is.

    An epoch of length L that starts at virtual time t ends at t + L.  A
    worker's run(L) returns once every worker still training waits in its
    hook and its epoch is the earliest of theirs to end; epochs that end
    together return together.  A worker whose training is done leaves, so
    the others do not wait for it.
    """

    def __init__(self, monkeypatch):
        self._cond = threading.Condition()
        self._now = 0
        self._workers = 0
        self._ends = {}  # thread waiting in its hook -> its epoch's end
        real = net._in_threads

        def counted(work, workers, name):
            if name != "infconv-member":  # the members' pool, not a forward pass
                return real(work, workers, name)
            self._workers = workers

            def work_then_leave(j):
                try:
                    work(j)
                finally:
                    with self._cond:
                        self._workers -= 1
                        self._advance()

            return real(work_then_leave, workers, name)

        monkeypatch.setattr(net, "_in_threads", counted)

    def run(self, length):
        me = threading.current_thread()
        with self._cond:
            self._ends[me] = self._now + length
            self._advance()
            if not self._cond.wait_for(lambda: me not in self._ends, timeout=60.0):
                raise AssertionError("a hooked epoch never became the earliest to end")

    def _advance(self):
        if self._ends and len(self._ends) == self._workers:
            self._now = min(self._ends.values())
            for thread in [thread for thread, end in self._ends.items() if end == self._now]:
                del self._ends[thread]
            self._cond.notify_all()


def _epochs_by_thread(monkeypatch, cfg):
    """Train cfg's ensemble and return each epoch's (member, thread), in the
    order the epochs started."""
    trained = []
    lock = threading.Lock()
    clock = _EpochClock(monkeypatch)

    def recording(member):
        with lock:
            trained.append((member, threading.current_thread()))
        clock.run(1)  # epochs of one length end together

    _hooked_epochs(monkeypatch, recording)
    train_ensemble(tiny_samples(cfg), Entropic(2.0), Entropic(3.0), cfg)
    assert sorted(member for member, _ in trained) == sorted(list(range(cfg.ensemble_size)) * cfg.epochs)
    return trained


# one batch per epoch, so that an epoch takes little real time
SHORT_EPOCHS = replace(WIDE, n_samples=1000, epochs=4)


@pytest.mark.parametrize("workers", [2, 3])
def test_worker_j_starts_member_j_then_takes_waiting_members(monkeypatch, workers):
    _workers(monkeypatch, cpus=workers)
    trained = _epochs_by_thread(monkeypatch, replace(SHORT_EPOCHS, ensemble_size=workers + 1))
    members_of = {}
    for member, thread in trained:
        members_of.setdefault(thread, set()).add(member)
    assert len(members_of) == workers and threading.main_thread() in members_of
    for k in range(workers):
        first = next(thread for member, thread in trained if member == k)
        assert (first is threading.main_thread()) == (k == 0)
    assert all(len(members) > 1 for members in members_of.values())


def test_three_members_share_two_workers_epoch_by_epoch(monkeypatch):
    _workers(monkeypatch, cpus=2)
    trained = _epochs_by_thread(monkeypatch, SHORT_EPOCHS)
    main = [member for member, thread in trained if thread is threading.main_thread()]
    helper = [member for member, thread in trained if thread is not threading.main_thread()]
    assert len(set(main)) > 1 and len(set(helper)) > 1
    assert abs(len(main) - len(helper)) <= 1


def test_members_stay_within_one_epoch_of_each_other(monkeypatch):
    # member 0's first epoch runs long and member 1's second short, so the
    # workers' epoch ends change order; a worker that then took the member
    # that had waited longest would start member 1's third epoch while
    # member 2 had started one
    lengths = {(0, 0): 13, (1, 1): 5}
    started = [0, 0, 0]
    spreads = []
    lock = threading.Lock()
    clock = _EpochClock(monkeypatch)

    def timed(member):
        with lock:
            length = lengths.get((member, started[member]), 10)
            started[member] += 1
            spreads.append(max(started) - min(started))
        clock.run(length)

    _workers(monkeypatch, cpus=2)
    _hooked_epochs(monkeypatch, timed)
    train_ensemble(tiny_samples(SHORT_EPOCHS), Entropic(2.0), Entropic(3.0), SHORT_EPOCHS)
    assert started == [SHORT_EPOCHS.epochs] * 3
    assert max(spreads) <= 1


def test_narrow_configs_train_in_the_calling_thread(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    _workers(monkeypatch, cpus=2)
    monkeypatch.setattr(net.threading, "Thread", no_threads)
    for cfg in (TINY, replace(TINY, batch_size=1000, hidden_widths=(8, 8))):
        assert cfg.batch_size * max(cfg.hidden_widths) < net._PARALLEL_MIN_WORK
        train_ensemble(tiny_samples(cfg), Entropic(2.0), Entropic(3.0), replace(cfg, epochs=1))


def test_without_a_pinnable_blas_nothing_is_pinned_and_work_stays_serial(monkeypatch):
    # numpy linked to another BLAS, or without numpy._core
    real = net._openblas()
    counts = []

    def no_threads(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(net, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(net, "_openblas", lambda: None)
    monkeypatch.setattr(net.threading, "Thread", no_threads)
    _hooked_epochs(monkeypatch, lambda member: counts.append(real and real[0]()))
    assert net._workers(3, 2**20) == 1
    cfg = replace(WIDE, epochs=1)
    result = train_ensemble(tiny_samples(cfg), Entropic(2.0), Entropic(3.0), cfg)
    result.allocation.first(np.zeros(3 * 1024))
    assert len(counts) == 3 and len(set(counts)) == 1
    assert counts[0] == (real and real[0]())  # the count training found, not a pin


def test_training_pins_blas_to_one_thread_and_restores_the_callers_count(monkeypatch):
    _workers(monkeypatch, cpus=2)
    get, set_ = net._openblas()
    readings = []
    callers, met = {threading.main_thread()}, set()
    overlapping = threading.Barrier(2, timeout=30)

    def recording(member):
        readings.append(get())
        if member == 1 and failing:
            raise ValueError("member 1 is broken")
        me = threading.current_thread()
        if me in callers and me not in met:  # each caller's first epoch waits for the other's
            met.add(me)
            overlapping.wait()

    _hooked_epochs(monkeypatch, recording)
    activate = net._activate

    def recording_activate(z, activation):
        readings.append(get())
        return activate(z, activation)

    monkeypatch.setattr(net, "_activate", recording_activate)
    cfg = replace(WIDE, epochs=1)
    xs = tiny_samples(cfg)
    initial = get()
    set_(2)
    caller = get()  # the count to restore, 2 unless the host caps it at 1
    try:
        failing = False
        met.update(callers)  # no waiting while one call runs alone
        train_ensemble(xs, Entropic(2.0), Entropic(3.0), cfg)
        assert get() == caller
        member = train_member(xs, Entropic(2.0), Entropic(3.0), cfg)
        assert get() == caller
        forward(member.phi1, np.zeros(3 * 1024))
        assert get() == caller
        with pytest.raises(EnsembleError):
            train_ensemble(xs, Entropic(1.0), Entropic(2.0), replace(cfg, learning_rate=1e300))
        assert get() == caller
        failing = True
        with pytest.raises(ValueError, match="member 1 is broken"):
            train_ensemble(xs, Entropic(2.0), Entropic(3.0), cfg)
        assert get() == caller

        # two calls overlap; the one that ends first must leave the other pinned
        failing = False
        met.clear()
        other = threading.Thread(
            target=train_ensemble, args=(xs, Entropic(2.0), Entropic(3.0), replace(cfg, epochs=3)),
        )
        callers.add(other)
        other.start()
        train_ensemble(xs, Entropic(2.0), Entropic(3.0), cfg)
        other.join(timeout=60)
        assert not other.is_alive() and met == callers
        assert get() == caller
    finally:
        set_(initial)
    assert len(readings) > 0 and set(readings) == {1}


def test_concurrent_divergence_lists_members_in_order(monkeypatch):
    _workers(monkeypatch, cpus=2)
    cfg = replace(WIDE, learning_rate=1e300, ensemble_size=5)
    with pytest.raises(EnsembleError) as info:
        train_ensemble(tiny_samples(cfg), Entropic(1.0), Entropic(2.0), cfg)
    assert [f.member for f in info.value.failures] == list(range(5))
    assert all(isinstance(f, TrainingError) for f in info.value.failures)
    assert "members 0, 1, 2, 3, 4 failed" in str(info.value)


def test_helper_errors_reach_the_caller(monkeypatch):
    raised_in = []

    def failing(member):
        if member == 1:
            raised_in.append(threading.current_thread())
            raise ValueError("member 1 is broken")

    _workers(monkeypatch, cpus=2)
    _hooked_epochs(monkeypatch, failing)
    cfg = replace(WIDE, epochs=1)
    with pytest.raises(ValueError, match="member 1 is broken"):
        train_ensemble(tiny_samples(cfg), Entropic(2.0), Entropic(3.0), cfg)
    assert raised_in[0] is not threading.main_thread()


def test_helpers_inherit_the_callers_errstate(monkeypatch):
    seen = {}

    def recording(member):
        seen.setdefault(member, set()).add((threading.current_thread().name, np.geterr()["over"]))

    _workers(monkeypatch, cpus=2)
    _hooked_epochs(monkeypatch, recording)
    cfg = replace(WIDE, epochs=1)
    with np.errstate(over="raise"):
        train_ensemble(tiny_samples(cfg), Entropic(2.0), Entropic(3.0), cfg)
    assert sorted(seen) == [0, 1, 2]
    assert {over for epochs in seen.values() for _, over in epochs} == {"raise"}
    assert ("infconv-member-1", "raise") in seen[1]


def test_an_interrupt_in_the_caller_is_not_held_up(monkeypatch):
    entered, release = threading.Event(), threading.Event()
    started = []

    def blocking(member):
        started.append(member)
        if member == 0:
            entered.wait(timeout=30)
            raise KeyboardInterrupt
        entered.set()
        release.wait(timeout=30)  # the helper's epoch of member 1 runs until released

    _workers(monkeypatch, cpus=2)
    _hooked_epochs(monkeypatch, blocking)
    cfg = replace(WIDE, ensemble_size=4)
    with pytest.raises(KeyboardInterrupt):
        train_ensemble(tiny_samples(cfg), Entropic(2.0), Entropic(3.0), cfg)
    helper = next(t for t in threading.enumerate() if t.name == "infconv-member-1")
    assert helper.daemon and helper.is_alive()
    release.set()
    helper.join(timeout=30)
    assert not helper.is_alive()
    assert sorted(started) == [0, 1]  # after the interrupt the helper starts no other epoch


def test_concurrent_members_match_serial_bytes_with_two_blas_threads():
    # neither concurrency nor the BLAS variables may change the bits
    src = str(Path(infconv.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    config = {f.name: getattr(WIDE, f.name) for f in fields(WIDE)}
    runs = []
    for threads in (None, "1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT.format(config=config)],
            capture_output=True, text=True, timeout=120, check=False,
            env=env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads),
        )
        assert done.returncode == 0, done.stderr
        digests = done.stdout.split()
        assert len(digests) == 2 * (WIDE.ensemble_size + 1)
        assert digests[: WIDE.ensemble_size + 1] == digests[WIDE.ensemble_size + 1 :]
        runs.append(digests)
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metric_d_examples():
    f = lambda x: 0.3 * x
    assert metric_d(f, f) == 0.0
    g = lambda x: 0.3 * x + 5.0
    assert abs(metric_d(f, g) - (1.0 - 2.0**-12)) < 1e-12
    h = lambda x: np.tanh(x)
    assert abs(metric_d(f, h) - metric_d(h, f)) < 1e-15


def test_metric_d_small_difference_scales():
    f = lambda x: x
    g = lambda x: x + 0.25
    # every window sees sup 0.25 < 1, no clipping
    assert abs(metric_d(f, g) - 0.25 * (1.0 - 2.0**-12)) < 1e-12


def test_metric_d_mu_examples():
    f = lambda x: np.zeros_like(x)
    g = lambda x: np.full_like(x, 2.0)
    m = empirical(np.array([0.5]))
    assert abs(metric_d_mu(f, g, m) - (1.0 - 2.0**-12)) < 1e-12
    # no sample point inside [-2, 2]: the first two windows contribute nothing
    m_far = empirical(np.array([2.5]))
    want = sum(2.0**-h for h in range(3, 13))
    assert abs(metric_d_mu(f, g, m_far) - want) < 1e-12


def test_metric_d_mu_bounded_by_metric_d():
    rng = np.random.default_rng(19)
    for _ in range(30):
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(-0.5, 0.5))
        f = lambda x, a=a: a * x
        g = lambda x, b=b: np.tanh(b * x)
        m = empirical(rng.normal(size=40) * 3.0)
        assert metric_d_mu(f, g, m) <= metric_d(f, g) + 1e-12


def test_l2_error_examples():
    xs = np.linspace(-1.0, 1.0, 501)
    exact = ProportionalAllocation(0.4)
    assert l2_error(exact.first, exact, xs) == 0.0
    approx = lambda x: 0.4 * x + 0.01
    assert abs(l2_error(approx, exact, xs) - 1e-4) < 1e-15


# ---------------------------------------------------------------------------
# spectral norms and the stability inequality
# ---------------------------------------------------------------------------


def test_density_norm_closed_forms():
    # ES density is 1/alpha on (0, alpha]: q-norm alpha^(1/q - 1)
    assert abs(distortion_density_norm(ExpectedShortfall(0.25), 2.0) - 2.0) < 1e-12
    assert abs(distortion_density_norm(ExpectedShortfall(0.25), np.inf) - 4.0) < 1e-12
    spec = Distortion(((0.5, 0.8), (0.5, 0.5)))
    want = np.sqrt(1.625**2 * 0.5 + 0.625**2 * 0.3)
    assert abs(distortion_density_norm(spec, 2.0) - want) < 1e-12
    mix = Combination(((0.5, ExpectedShortfall(0.8)), (0.5, ExpectedShortfall(0.5))))
    assert abs(distortion_density_norm(mix, 2.0) - want) < 1e-12
    sp = es_spectral_density(0.36)
    assert abs(distortion_density_norm(sp, 2.0) - 0.36 ** (1 / 2 - 1)) < 1e-6
    with pytest.raises(ValueError):
        distortion_density_norm(Entropic(1.0), 2.0)


def test_density_norm_mixes_spectral_and_shortfall_leaves():
    mixed = Combination(((0.5, es_spectral_density(0.8)), (0.5, ExpectedShortfall(0.7))))
    steps = Distortion(((0.5, 0.8), (0.5, 0.7)))
    for q in (2.0, np.inf):
        assert abs(distortion_density_norm(mixed, q) - distortion_density_norm(steps, q)) < 1e-6
    with pytest.raises(ValueError, match="Entropic") as info:
        distortion_density_norm(Combination(((0.5, mixed), (0.5, Entropic(1.0)))), 2.0)
    assert len(str(info.value)) < 80


@pytest.mark.parametrize("q", [1.0, 2.0, 3.5])
def test_density_norm_is_exact_on_nearly_flat_and_zero_ended_pieces(q):
    # a density falling linearly from 1 + h to 1 - h, whose piece formula
    # cancels as h shrinks, and one falling to 0, against 50-digit quadrature
    densities = [(1.0 + m * 10.0**-e, 1.0 - m * 10.0**-e) for e in range(1, 13) for m in (1.0, 3.0)]
    densities.append((2.0, 0.0))
    with mpmath.workdps(50):
        for top, bottom in densities:
            a, b = mpmath.mpf(top), mpmath.mpf(bottom)
            want = mpmath.quad(lambda u: (a + (b - a) * u) ** q, [0, 1]) ** (1 / mpmath.mpf(q))
            got = distortion_density_norm(Spectral(np.array([0.0, 1.0]), np.array([top, bottom])), q)
            assert abs(got - want) <= 1e-14 * want, (top, bottom)


def test_stability_check_equal_samples():
    xs = draw(U, 200, RngSeed(5, 0))
    report = spectral_stability_check(
        ExpectedShortfall(0.8), ExpectedShortfall(0.7), empirical(xs), empirical(xs)
    )
    assert report.lhs == 0.0
    assert report.wasserstein == 0.0
    assert report.holds


def test_stability_check_disjoint_seeds():
    a = empirical(draw(U, 200, RngSeed(5, 0)))
    b = empirical(draw(U, 200, RngSeed(6, 0)))
    report = spectral_stability_check(ExpectedShortfall(0.8), ExpectedShortfall(0.7), a, b, p=2.0)
    assert report.holds
    assert report.lhs <= report.rhs
    assert report.wasserstein > 0.0
    assert report.norm1 > 0.0 and report.norm2 > 0.0


def test_stability_check_scales_homogeneously():
    a = draw(U, 150, RngSeed(7, 0))
    b = draw(U, 150, RngSeed(8, 0))
    spec1, spec2 = ExpectedShortfall(0.8), Distortion(((0.6, 0.9), (0.4, 0.5)))
    base = spectral_stability_check(spec1, spec2, empirical(a), empirical(b), p=2.0)
    lam = 3.0
    scaled = spectral_stability_check(spec1, spec2, empirical(lam * a), empirical(lam * b), p=2.0)
    assert abs(scaled.lhs - lam * base.lhs) < 1e-9 * max(1.0, lam * abs(base.lhs))
    assert abs(scaled.rhs - lam * base.rhs) < 1e-9 * max(1.0, lam * base.rhs)


def test_stability_check_rejects_entropic():
    a = empirical(draw(U, 50, RngSeed(9, 0)))
    with pytest.raises(ValueError):
        spectral_stability_check(Entropic(1.0), ExpectedShortfall(0.8), a, a)


def test_stability_check_randomized_pairs():
    rng = np.random.default_rng(23)
    for trial in range(10):
        a = empirical(draw(U, 120, RngSeed(100 + trial, 0)))
        b = empirical(draw(U, 120, RngSeed(200 + trial, 0)))
        spec1 = ExpectedShortfall(float(rng.uniform(0.3, 0.95)))
        spec2 = Distortion(((1.0, float(rng.uniform(0.3, 0.95))),))
        report = spectral_stability_check(spec1, spec2, a, b, p=2.0)
        assert report.holds
