"""Property tests over random nested risk specs and networks (hypothesis).

Specs nest up to the depth cap of 4 and include spectral densities.  The
reference for every evaluation is the per-family evaluators
(``eval_entropic``, ``eval_es``, ``eval_spectral``) applied to a flattening
written here, independent of the package's own walk over spec types.
Networks have random widths, activations and parameters.  Experiment
configs set a random subset of the training keys under either profile.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, reject
from hypothesis import strategies as st
from scipy.stats import truncnorm

from infconv import (
    ACTIVATIONS,
    Combination,
    Distortion,
    Entropic,
    ExpectedShortfall,
    NegBeta,
    RngSeed,
    Spectral,
    TruncNormal,
    Uniform,
    batch_loss_and_cotangents,
    empirical,
    es_spectral_density,
    eval_entropic,
    eval_es,
    eval_spectral,
    eval_with_grad,
    evaluate,
    forward,
    init_mlp,
    mlp_from_json,
    mlp_to_json,
    param_count,
    parse_distribution,
    parse_risk_spec,
    render_distribution,
    render_risk_spec,
    draw,
    quantile,
    stratified_sample,
    support,
    value_and_grad,
)
from infconv.cli import parse_experiment, render_experiment
from infconv.measures import leaves, sorted_risk
from infconv.oracle import GridAllocation, brute_force_infconv, build_knots, oracle_objective

MAX_DEPTH = 4

levels = st.floats(0.05, 0.95)
tolerances = st.floats(0.3, 5.0)
raw_weights = st.floats(0.1, 1.0)


def _normalized(ws):
    total = sum(ws)
    return [w / total for w in ws]


@st.composite
def spectral_densities(draw):
    if draw(st.booleans()):
        return es_spectral_density(draw(levels))
    inner = sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=5))))
    grid = np.array([0.0, *inner, 1.0])
    drops = draw(st.lists(st.floats(0.0, 2.0), min_size=grid.size - 1, max_size=grid.size - 1))
    floor = draw(st.floats(0.05, 2.0))
    values = floor + np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]])
    total = float((0.5 * (values[1:] + values[:-1]) * np.diff(grid)).sum())
    return Spectral(grid=grid, values=values / total)


@st.composite
def specs(draw, spectral=True, depth=1, betas=tolerances, kind=None):
    """A random spec; ``kind`` fixes the top level's kind."""
    kinds = ["entropic", "es", "distortion"] + (["spectral"] if spectral else [])
    if depth < MAX_DEPTH:
        kinds.append("mix")
    kind = kind or draw(st.sampled_from(kinds))
    if kind == "entropic":
        return Entropic(draw(betas))
    if kind == "es":
        return ExpectedShortfall(draw(levels))
    if kind == "distortion":
        ws = _normalized(draw(st.lists(raw_weights, min_size=1, max_size=3)))
        return Distortion(tuple((w, draw(levels)) for w in ws))
    if kind == "spectral":
        return draw(spectral_densities())
    ws = _normalized(draw(st.lists(raw_weights, min_size=1, max_size=3)))
    return Combination(tuple((w, draw(specs(spectral, depth + 1, betas))) for w in ws))


samples = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40).map(np.array)


@st.composite
def spaced_samples(draw, gap=1e-3):
    """Distinct values at least ``gap`` apart, in random order."""
    steps = draw(st.lists(st.floats(gap, 0.5), min_size=2, max_size=25))
    xs = np.cumsum(steps) - 0.5 * sum(steps)
    return xs[draw(st.permutations(range(xs.size)))]


def reference_leaves(spec, weight=1.0):
    """(weight, leaf) pairs of a spec, with distortions split into shortfalls."""
    if isinstance(spec, Combination):
        for w, term in spec.terms:
            yield from reference_leaves(term, weight * w)
    elif isinstance(spec, Distortion):
        for w, alpha in spec.components:
            yield weight * w, ExpectedShortfall(alpha)
    else:
        yield weight, spec


def leaf_value(m, leaf):
    if isinstance(leaf, Entropic):
        return eval_entropic(m, leaf.beta)
    if isinstance(leaf, ExpectedShortfall):
        return eval_es(m, leaf.alpha)
    return eval_spectral(m, leaf)


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


@given(specs(), samples)
def test_evaluate_is_leaf_weighted_sum(spec, xs):
    m = empirical(xs)
    want = sum(w * leaf_value(m, leaf) for w, leaf in reference_leaves(spec))
    assert _close(evaluate(spec, m), want, 1e-12)


@given(specs(), spaced_samples())
def test_gradient_sums_to_minus_one_and_matches_central_differences(spec, xs):
    value, grad = eval_with_grad(spec, empirical(xs))
    assert _close(value, evaluate(spec, empirical(xs)), 1e-12)
    # spectral densities integrate to one within the 1e-9 the constructor allows
    assert abs(grad.sum() + 1.0) < 1e-9
    h = 1e-6  # far below the 1e-3 gap, so no perturbation reorders the sample
    for i in range(xs.size):
        up, down = xs.copy(), xs.copy()
        up[i] += h
        down[i] -= h
        fd = (evaluate(spec, empirical(up)) - evaluate(spec, empirical(down))) / (2.0 * h)
        assert abs(fd - grad[i]) < 1e-6


@given(specs(), specs(), samples, st.integers(1, 6), st.data())
def test_oracle_objective_matches_evaluate_on_candidate_and_complement(spec1, spec2, xs, segments, data):
    m = empirical(xs)
    knots = build_knots(m, segments)
    assume(knots.size >= 2)
    slopes = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=knots.size - 1, max_size=knots.size - 1)))
    candidate = GridAllocation(knots=knots, slopes=slopes)
    want = evaluate(spec1, empirical(candidate(m.samples))) + evaluate(
        spec2, empirical(candidate.complement(m.samples))
    )
    assert _close(oracle_objective(spec1, spec2, m, knots, slopes), want, 1e-9)


small_betas = st.floats(0.01, 5.0)
inner_knots = st.lists(st.floats(-3.0, 3.0).filter(lambda k: k != 0.0), min_size=1, max_size=3)


@given(
    specs(betas=small_betas),
    specs(betas=small_betas),
    st.one_of(samples, st.lists(st.floats(0.01, 5.0), min_size=1, max_size=40).map(np.array)),
    inner_knots,
    st.integers(1, 3),
)
def test_brute_force_matches_naive_enumeration_of_sorted_risk(spec1, spec2, xs, inner, levels):
    # knots inside [-3, 3] leave samples beyond the outer knots, and an
    # all-positive sample leaves every segment left of 0 empty
    m = empirical(xs)
    knots = np.unique(np.array([0.0, *inner]))
    grid = np.linspace(0.0, 1.0, levels + 1)
    combos = [np.array(c) for c in itertools.product(grid, repeat=knots.size - 1)]
    naive = []
    for slopes in combos:
        candidate = GridAllocation(knots=knots, slopes=slopes)
        naive.append(
            sorted_risk(spec1, np.sort(candidate(m.samples)))
            + sorted_risk(spec2, np.sort(candidate.complement(m.samples)))
        )
    order = np.argsort(naive, kind="stable")
    best = naive[order[0]]

    got = brute_force_infconv(spec1, spec2, m, levels=levels, knots=knots)
    assert _close(got.value, best, 1e-12)
    if len(order) > 1 and naive[order[1]] - best > 1e-12 * max(1.0, abs(best)):
        assert np.array_equal(got.slopes, combos[order[0]])


@st.composite
def distinct_batches(draw):
    """(xs, v1, v2) of one length whose four loss vectors v1, v2, xs - v2 and
    xs - v1 each hold distinct values, so that no tie orders the weights."""
    n = draw(st.integers(1, 30))
    vector = st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n, unique=True).map(np.array)
    xs, v1, v2 = draw(vector), draw(vector), draw(vector)
    assume(all(np.unique(v).size == n for v in (xs - v1, xs - v2)))
    return xs, v1, v2


@pytest.mark.parametrize("kind", ["entropic", "es", "distortion", "spectral", "mix"])
@given(data=st.data())
def test_batch_loss_ignores_row_order(kind, data):
    # training feeds sorted batches; the loss must not see the difference
    spec1, spec2 = data.draw(specs(kind=kind)), data.draw(specs(kind=kind))
    xs, v1, v2 = data.draw(distinct_batches())
    perm = np.array(data.draw(st.permutations(range(xs.size))))
    loss, cot1, cot2 = batch_loss_and_cotangents(spec1, spec2, xs, v1, v2)
    p_loss, p_cot1, p_cot2 = batch_loss_and_cotangents(spec1, spec2, xs[perm], v1[perm], v2[perm])
    assert p_loss.hex() == loss.hex()
    assert p_cot1.tobytes() == cot1[perm].tobytes()
    assert p_cot2.tobytes() == cot2[perm].tobytes()


@given(specs(), samples, st.floats(-5.0, 5.0))
def test_cash_additivity(spec, xs, c):
    lhs = evaluate(spec, empirical(xs + c))
    rhs = evaluate(spec, empirical(xs)) - c
    assert _close(lhs, rhs, 1e-9)


@given(specs(spectral=False))
def test_parse_render_round_trip(spec):
    assert parse_risk_spec(render_risk_spec(spec)) == spec


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def distributions(draw):
    kind = draw(st.sampled_from(["uniform", "truncnormal", "negbeta"]))
    if kind == "negbeta":
        # any positive shapes; those the constructor rejects are skipped
        try:
            return NegBeta(draw(positive), draw(positive))
        except ValueError:
            reject()
    if kind == "truncnormal":
        # at most 5 sd from the mean, so the interval's mass stays far above
        # what TruncNormal rejects
        mean, sd = draw(st.floats(-1e6, 1e6)), draw(st.floats(1e-3, 1e3))
        lo = mean - sd * draw(st.floats(0.0, 5.0))
        hi = mean + sd * draw(st.floats(0.01, 5.0))
        return TruncNormal(mean, sd, lo, hi)
    lo, hi = draw(finite), draw(finite)
    assume(lo < hi)
    return Uniform(lo, hi)


@given(distributions())
def test_distribution_render_parses_back(dist):
    assert parse_distribution(render_distribution(dist)) == dist


seeds = st.integers(0, 2**64 - 1)


@given(distributions(), seeds, seeds)
def test_draws_lie_inside_the_support(dist, seed, stream):
    lo, hi = support(dist)
    xs = draw(dist, 1000, RngSeed(seed, stream))
    assert np.all((xs >= lo) & (xs <= hi))  # false for NaN


@given(distributions(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=50))
def test_quantile_is_monotone(dist, us):
    qs = quantile(dist, np.sort(us))
    assert np.all(np.diff(qs) >= 0.0)


@given(distributions(), st.integers(1, 5000))
def test_stratified_sample_is_the_quantile_at_stratum_midpoints(dist, n):
    want = quantile(dist, (np.arange(n) + 0.5) / n)
    assert stratified_sample(dist, n).tobytes() == want.tobytes()


@given(st.floats(5.0, 36.0), st.floats(0.05, 2.0), st.booleans())
def test_far_tail_truncnormal_quantiles_match_scipy(start, width, upper):
    # intervals 5 to 38 sd from the mean, in either tail
    lo, hi = (start, start + width) if upper else (-start - width, -start)
    us = np.linspace(0.001, 0.999, 101)
    got = quantile(TruncNormal(0.0, 1.0, lo, hi), us)
    assert np.allclose(got, truncnorm.ppf(us, lo, hi), rtol=0.0, atol=1e-12 * width)


@given(specs())
def test_leaves_flatten_like_the_reference(spec):
    got = leaves(spec)
    want = list(reference_leaves(spec))
    assert len(got) == len(want)
    for (w, leaf), (w_ref, leaf_ref) in zip(got, want):
        assert abs(w - w_ref) < 1e-15
        assert leaf == leaf_ref  # spectral leaves compare by identity
    assert abs(sum(w for w, _ in got) - 1.0) < 1e-12


@st.composite
def networks(draw):
    hidden = draw(st.lists(st.integers(1, 12), max_size=3))
    seed = draw(st.integers(0, 2**16))
    net = init_mlp((1, *hidden, 1), draw(st.sampled_from(ACTIVATIONS)), RngSeed(seed, 1))
    # jitter every parameter, so biases are non-zero too
    net.params = net.params + np.random.default_rng(seed).normal(scale=0.5, size=net.params.size)
    return net


batches = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30).map(np.array)


@given(networks(), batches)
def test_value_and_grad_values_are_forward_bit_for_bit(net, xs):
    values, _ = value_and_grad(net, xs)
    assert values.tobytes() == forward(net, xs).tobytes()


@given(networks(), batches, st.floats(-2.0, 2.0), st.data())
def test_pullback_is_flat_and_linear_in_upstream(net, xs, c, data):
    upstream = st.lists(st.floats(-2.0, 2.0), min_size=xs.size, max_size=xs.size).map(np.array)
    u1, u2 = data.draw(upstream), data.draw(upstream)
    _, pullback = value_and_grad(net, xs)
    g1, g2 = pullback(u1), pullback(u2)
    assert g1.shape == (param_count(net),)
    scale = max(1.0, np.abs(g1).max(), np.abs(g2).max())
    assert np.allclose(pullback(c * u1 + u2), c * g1 + g2, rtol=0.0, atol=1e-12 * scale)


def reference_json(net):
    """The network JSON format: per-layer row-major weights and biases, sorted keys."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(net.widths[:-1], net.widths[1:]):
        weights.append(net.params[start : start + fan_in * fan_out].tolist())
        start += fan_in * fan_out
        biases.append(net.params[start : start + fan_out].tolist())
        start += fan_out
    payload = {"widths": list(net.widths), "activation": net.activation,
               "weights": weights, "biases": biases}
    return json.dumps(payload, sort_keys=True)


@given(networks())
def test_json_round_trip_keeps_params_and_format(net):
    text = mlp_to_json(net)
    assert text == reference_json(net)
    clone = mlp_from_json(text)
    assert clone.params.tobytes() == net.params.tobytes()
    assert (clone.widths, clone.activation) == (net.widths, net.activation)


@given(networks(), st.integers(1, 3), st.integers(0, 1023), st.integers(0, 2**16))
def test_forward_is_blocked_in_aligned_1024_row_slices(net, k, r, seed):
    xs = np.random.default_rng(seed).uniform(-3.0, 3.0, size=k * 1024 + r)
    out = forward(net, xs)
    sliced = np.concatenate([forward(net, xs[i : i + 1024]) for i in range(0, xs.size, 1024)])
    assert out.tobytes() == sliced.tobytes()
    assert forward(net, xs).tobytes() == out.tobytes()
    values, _ = value_and_grad(net, xs)
    assert np.allclose(out, values, rtol=1e-12, atol=1e-12)


CONFIG_PAIRS = (
    ("entropic(beta=2.0)", "entropic(beta=3.0)"),
    ("es(alpha=0.9)", "entropic(beta=0.3)"),
    ("distortion(0.5*es(0.8)+0.5*es(0.7))", "es(alpha=0.9)"),
)
TRAIN_VALUES = {
    "epochs": st.integers(0, 10**4),
    "learning_rate": st.floats(1e-12, 10.0),
    "ensemble_size": st.integers(1, 10),
    "hidden_widths": st.lists(st.integers(1, 512), min_size=1, max_size=4).map(tuple),
    "activation": st.sampled_from(ACTIVATIONS),
    "patience": st.integers(0, 10**4),
    "threshold": st.floats(0.0, 1.0),
    "factor": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "min_lr": st.floats(0.0, 1e-3),
}


@st.composite
def train_settings(draw):
    """A random subset of the training keys with valid values."""
    chosen = {}
    if draw(st.booleans()):  # TrainConfig needs batch_size <= n_samples
        chosen["n_samples"] = draw(st.integers(2, 10**6))
        chosen["batch_size"] = draw(st.integers(1, chosen["n_samples"]))
    for key, values in TRAIN_VALUES.items():
        if draw(st.booleans()):
            chosen[key] = draw(values)
    return chosen


def _config_value(value) -> str:
    """Config text for a value: widths with spaces, activations upper-cased."""
    if isinstance(value, tuple):
        return ", ".join(str(w) for w in value)
    return value.upper() if isinstance(value, str) else repr(value)


@given(st.sampled_from(["desk", "paper"]), st.sampled_from(CONFIG_PAIRS), train_settings(),
       st.none() | st.integers(0, 2**64 - 1))
def test_experiment_render_is_a_parse_fixed_point(profile, pair, settings, seed):
    lines = ["name = prop", "distribution = uniform(-1.0, 1.0)",
             f"rho1 = {pair[0]}", f"rho2 = {pair[1]}", f"profile = {profile}"]
    if seed is not None:
        lines.append(f"seed = {seed}")
    lines += [f"{key} = {_config_value(value)}" for key, value in settings.items()]
    spec = parse_experiment("\n".join(lines))
    for key, value in settings.items():
        assert getattr(spec.train, key) == value
    text = render_experiment(spec)
    assert parse_experiment(text) == spec
    assert render_experiment(parse_experiment(text)) == text
