"""Property tests over random nested risk specs and networks (hypothesis).

Specs nest up to the depth cap of 4 and include spectral densities.  The
reference for every evaluation is the per-leaf formulas of ``references``
applied to a flattening written here, independent of the package's own walk
over spec types and of its risk kernel.
Networks have random widths, activations and parameters.  Experiment
configs set a random subset of the training keys under either profile.
"""

import itertools
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject
from hypothesis import strategies as st
from scipy.stats import truncnorm

from infconv import net as net_module
from infconv import (
    ACTIVATIONS,
    Combination,
    Distortion,
    Entropic,
    ExpectedShortfall,
    Mlp,
    NegBeta,
    RngSeed,
    Spectral,
    TruncNormal,
    Uniform,
    batch_loss_and_cotangents,
    distortion_density_norm,
    empirical,
    es_spectral_density,
    eval_with_grad,
    evaluate,
    forward,
    init_mlp,
    mlp_from_json,
    mlp_to_json,
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
from infconv import oracle
from infconv.measures import _compile, _order_weights, leaves, sorted_risk
from infconv.oracle import GridAllocation, _Scorer, brute_force_infconv, build_knots, oracle_objective
from references import (
    entropic_reference,
    es_reference,
    knots_reference,
    log_segment_sums_reference,
    overlap_reference,
    spectral_reference,
)

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
def specs(draw, spectral=True, depth=1, betas=tolerances, kind=None, entropic=True):
    """A random spec; ``kind`` fixes the top level's kind, and
    ``entropic=False`` leaves out entropic leaves at every depth."""
    kinds = (["entropic"] if entropic else []) + ["es", "distortion"] + (["spectral"] if spectral else [])
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
    return Combination(tuple((w, draw(specs(spectral, depth + 1, betas, entropic=entropic))) for w in ws))


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


def leaf_value(xs, leaf):
    if isinstance(leaf, Entropic):
        return entropic_reference(xs, leaf.beta)
    if isinstance(leaf, ExpectedShortfall):
        return es_reference(xs, leaf.alpha)
    return spectral_reference(xs, leaf)


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


@given(specs(), samples)
def test_evaluate_is_leaf_weighted_sum(spec, xs):
    want = sum(w * leaf_value(xs, leaf) for w, leaf in reference_leaves(spec))
    assert _close(evaluate(spec, empirical(xs)), want, 1e-12)


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
def oracle_samples(draw):
    """1-59 samples, two-sided, all positive or all negative, and rounded to
    a random number of decimals in half the cases, so that candidates tie."""
    side = draw(st.sampled_from([(-5.0, 5.0), (0.01, 5.0), (-5.0, -0.01)]))
    xs = np.array(draw(st.lists(st.floats(*side), min_size=1, max_size=59)))
    if draw(st.booleans()):
        xs = np.round(xs, draw(st.integers(0, 2)))
        assume(np.all(xs != 0.0) or side == (-5.0, 5.0))
    return xs


@st.composite
def oracle_knots(draw, m):
    """Quantile knots of 1-5 segments, or 0 and 1-4 explicit knots in
    [-3, 3], which may put 0 first, last or inside and leave segments empty."""
    if draw(st.booleans()):
        # at most 5 quantile knots, and 0
        knots = build_knots(m, draw(st.integers(1, 4)))
    else:
        knots = np.unique(np.array([0.0, *draw(st.lists(st.floats(-3.0, 3.0).filter(bool), min_size=1, max_size=4))]))
    assume(knots.size >= 2)
    return knots


def _last_minimum_of_product(spec1, spec2, m, knots, levels):
    """Value and digits of the lexicographically last minimum, every candidate
    scored in one call."""
    grid = np.linspace(0.0, 1.0, levels + 1)
    n_seg = knots.size - 1
    values = _Scorer(spec1, spec2, m, knots, grid)([np.arange(grid.size)] * n_seg)
    k = values.size - 1 - int(np.argmin(values[::-1]))
    return values[k], grid[list(np.unravel_index(k, (grid.size,) * n_seg))]


@given(data=st.data())
def test_linear_pairs_solved_segment_by_segment_equal_enumeration(data):
    spec1, spec2 = (data.draw(specs(entropic=False)) for _ in range(2))
    m = empirical(data.draw(oracle_samples()))
    knots = data.draw(oracle_knots(m))
    levels = data.draw(st.integers(1, 4))
    value, slopes = _last_minimum_of_product(spec1, spec2, m, knots, levels)
    got = brute_force_infconv(spec1, spec2, m, levels=levels, knots=knots)
    assert got.value.hex() == value.hex()
    assert got.slopes.tobytes() == slopes.tobytes()
    assert got.evaluations == (levels + 1) ** (knots.size - 1)


@given(data=st.data())
def test_entropic_pairs_scored_by_sides_keep_the_scorers_guarantees(data):
    spec1 = data.draw(specs(betas=small_betas, kind=data.draw(st.sampled_from(["entropic", "mix"]))))
    spec2 = data.draw(specs(betas=small_betas))
    assume(_compile(spec1, 1)[1] or _compile(spec2, 1)[1])
    if data.draw(st.booleans()):
        spec1, spec2 = spec2, spec1
    m = empirical(data.draw(oracle_samples()))
    knots = data.draw(oracle_knots(m))
    levels = data.draw(st.integers(1, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, slopes = _last_minimum_of_product(spec1, spec2, m, knots, levels)
        # blocks of a few candidates each, so each side's cached table is
        # reused across blocks, and refreshed when its digits change
        with mock.patch.object(oracle, "_CHUNK", data.draw(st.integers(1, 30))):
            got = brute_force_infconv(spec1, spec2, m, levels=levels, knots=knots)
        replay = oracle_objective(spec1, spec2, m, knots, got.slopes)
    assert got.value.hex() == value.hex()
    assert got.slopes.tobytes() == slopes.tobytes()
    assert replay.hex() == got.value.hex()
    candidate = GridAllocation(knots=knots, slopes=got.slopes)
    want = sorted_risk(spec1, np.sort(candidate(m.samples))) + sorted_risk(
        spec2, np.sort(candidate.complement(m.samples))
    )
    assert _close(got.value, want, 1e-12)


@st.composite
def table_inputs(draw):
    """A sorted sample from oracle_samples (one-sided, repeated values) and
    knots from it, explicit ones past its range or between its values, or
    another sample's quantile knots."""
    m = empirical(draw(oracle_samples()))
    if draw(st.booleans()):
        knots = draw(oracle_knots(m))
    else:
        knots = build_knots(draw(oracle_samples()), draw(st.integers(1, 6)))
        assume(knots.size >= 2)
    return m.samples, knots


@given(oracle_samples(), st.integers(1, 12))
@example(np.array([-0.0, 0.0, 1.0]), 5)
@example(np.array([2.5] * 17), 6)
def test_knots_read_off_the_sorted_sample_are_numpys_quantiles(xs, segments):
    want = knots_reference(xs, segments)
    got = (build_knots(xs, segments), build_knots(empirical(xs), segments))
    signs = np.signbit(xs[xs == 0.0])
    if signs.any() and not signs.all():
        # 0.0 and -0.0 compare equal, and numpy's partition may leave either
        # where the sort puts the other: a zero knot's sign is not compared
        got, want = tuple(k + 0.0 for k in got), want + 0.0
    assert got[0].tobytes() == want.tobytes()
    assert got[1].tobytes() == want.tobytes()


@given(table_inputs())
@example((np.array([0.0]), np.array([0.0, 1.0, 2.0])))
def test_overlap_filled_by_slices_is_the_broadcast_overlap(inputs):
    xs, knots = inputs
    got = oracle.overlap_matrix(xs, knots)
    want = overlap_reference(xs, knots)
    assert got.tobytes() == want.tobytes()  # equal values and signs of zero
    # order weights' products with it, as _Scorer takes them, keep their bits
    weights = np.random.default_rng(xs.size).uniform(size=xs.size)
    assert (weights @ got).tobytes() == (weights @ want).tobytes()


@given(table_inputs(), st.integers(1, 8), st.floats(0.01, 50.0))
@example((np.array([0.0]), np.array([0.0, 1.0, 2.0])), 2, 1.0)
def test_log_segment_sums_over_slices_equal_the_per_segment_loop(inputs, levels, beta):
    # the offsets and segment bounds _Scorer passes: every sample below the
    # second knot counts in the first segment
    xs, knots = inputs
    bounds = np.append(np.searchsorted(xs, knots[:-1]), xs.size)
    bounds[0] = 0
    d = xs - np.repeat(knots[:-1], np.diff(bounds))
    grid = np.linspace(0.0, 1.0, levels + 1)
    for slopes in (grid, 1.0 - grid):
        got = oracle._log_segment_sums(d, bounds, slopes, beta)
        want = log_segment_sums_reference(d, bounds, slopes, beta)
        assert got.tobytes() == want.tobytes()


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
def distribution_calls(draw):
    """A distribution class and arguments that its constructor may refuse:
    NegBeta takes any positive shapes and Uniform any finite lo < hi."""
    kind = draw(st.sampled_from(["uniform", "truncnormal", "negbeta"]))
    if kind == "negbeta":
        return NegBeta, (draw(positive), draw(positive))
    if kind == "truncnormal":
        # at most 5 sd from the mean, so the interval's mass stays far above
        # what TruncNormal rejects
        mean, sd = draw(st.floats(-1e6, 1e6)), draw(st.floats(1e-3, 1e3))
        lo = mean - sd * draw(st.floats(0.0, 5.0))
        hi = mean + sd * draw(st.floats(0.01, 5.0))
        return TruncNormal, (mean, sd, lo, hi)
    lo, hi = draw(finite), draw(finite)
    assume(lo < hi)
    return Uniform, (lo, hi)


def construct(call):
    """The distribution a (class, arguments) call builds; a call that the
    constructor refuses is skipped."""
    kind, args = call
    try:
        return kind(*args)
    except ValueError:
        reject()


def distributions():
    return distribution_calls().map(construct)


@given(distributions())
def test_distribution_render_parses_back(dist):
    assert parse_distribution(render_distribution(dist)) == dist


seeds = st.integers(0, 2**64 - 1)


@given(distribution_calls(), seeds, seeds)
@example((Uniform, (-1e308, 1e308)), 0, 0)  # hi - lo overflows: refused, not drawn as inf
@example((NegBeta, (3.556101372430057e-307, 2.2250738585072014e-308)), 0, 0)  # NaN quantiles: refused
def test_draws_lie_inside_the_support(call, seed, stream):
    dist = construct(call)
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


@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.integers(1, 5000))
@example(0.07, 100)  # 0.07 * 100 == 7.000000000000001
@example(0.5, 1)
@example(5e-324, 3)  # 1/alpha overflows
def test_es_order_weights_match_the_tail_average(alpha, n):
    # 1/(alpha*n) on the first floor(alpha*n) ranks, the fractional rest over
    # alpha*n on the next rank, 0 after it
    w = _order_weights(ExpectedShortfall(alpha), n)
    t = alpha * n
    full = int(np.floor(t))
    want = np.zeros(n)
    want[:full] = 1.0 / t
    if full < n:
        want[full] = (t - full) / t
    assert np.all(np.abs(w - want) <= 1e-12 * want.max())
    assert np.all(w >= -1e-15)
    assert abs(w.sum() - 1.0) <= 1e-12


def exact_order_weights(density, n):
    """The density's mass on each ((k-1)/n, k/n]: midpoint rules are exact on
    the grid refined by the k/n, as the density is linear between its points,
    and they never read the density at a jump."""
    edges = np.union1d(density.grid, np.arange(1, n) / n)
    mid = 0.5 * (edges[1:] + edges[:-1])
    mass = np.interp(mid, density.grid, density.values) * np.diff(edges)
    rank = np.clip(np.ceil(n * mid).astype(np.int64) - 1, 0, n - 1)
    return np.bincount(rank, weights=mass, minlength=n)


@given(spectral_densities(), st.integers(1, 5000))
def test_spectral_order_weights_integrate_the_density_exactly(density, n):
    # the weights sum to one; a rank given the wrong interval's mass would be
    # off by about 1/n
    assert np.all(np.abs(_order_weights(density, n) - exact_order_weights(density, n)) <= 1e-12)


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
    assert g1.shape == (net.params.size,)
    scale = max(1.0, np.abs(g1).max(), np.abs(g2).max())
    assert np.allclose(pullback(c * u1 + u2), c * g1 + g2, rtol=0.0, atol=1e-12 * scale)


@given(
    st.lists(st.integers(1, 71), min_size=1, max_size=3),
    st.sampled_from(ACTIVATIONS),
    st.integers(1, 1500),
    st.data(),
)
# one-wide layers: one-column products forward, one-row products backward
@example([1, 1], "relu", 7, None)
def test_a_stack_of_two_networks_gives_the_bits_of_two_passes(hidden, activation, rows, data):
    widths = (1, *hidden, 1)
    size = net_module._size(widths)
    rng = np.random.default_rng(rows if data is None else data.draw(st.integers(0, 2**16)))
    params = rng.normal(size=2 * size)
    stack = net_module._Stack(params, 2, widths, activation, rows)
    # a full batch, then a short last one in the same buffers
    short = max(1, rows // 3) if data is None else data.draw(st.integers(1, rows))
    for n in (rows, short):
        xs = np.sort(rng.uniform(-3.0, 3.0, size=n))
        xs[rng.random(n) < 0.1] = 0.0
        upstream = rng.normal(size=(2, n))
        upstream[:, rng.random(n) < 0.1] = 0.0
        values = stack.forward(xs).copy()
        grad = stack.pullback(upstream).copy()
        for j in range(2):
            net = Mlp(widths, activation, params[j * size : (j + 1) * size].copy())
            want, pullback = value_and_grad(net, xs)
            assert values[j].tobytes() == want.tobytes()
            assert grad[j * size : (j + 1) * size].tobytes() == pullback(upstream[j]).tobytes()


def reference_stack_pass(params, k, widths, activation, xs, upstream):
    """Values (k, n) and flat gradients of k networks, one at a time and
    layer by layer: a matrix product, then + b, then the activation."""
    activate, derivative = {
        "linear": (lambda z: z, lambda a: 1.0),
        "relu": (lambda z: np.maximum(z, 0.0), lambda a: a > 0.0),
        "tanh": (np.tanh, lambda a: 1.0 - a * a),
    }[activation]
    values, grads = [], []
    for j, flat in enumerate(params.reshape(k, -1)):
        layers = net_module._layers(flat, widths)
        acts = [xs[None, :]]
        for i, (w, b) in enumerate(layers):
            z = w @ acts[-1] + b[:, None]
            acts.append(activate(z) if i < len(layers) - 1 else z)
        delta, grad = upstream[j][None, :], []
        for i in range(len(layers) - 1, -1, -1):
            grad[:0] = [(delta @ acts[i].T).ravel(), delta.sum(axis=1)]
            if i:
                delta = (layers[i][0].T @ delta) * derivative(acts[i])
        values.append(acts[-1][0])
        grads.append(np.concatenate(grad))
    return np.array(values), np.concatenate(grads)


BATCH_LENGTHS = (1, 7, 999, 1000, 1024, 1025)


def stack_batches(stack, k, lengths, rng):
    """Run a forward and a pullback per batch length through one stack and
    yield (xs, upstream, values, grad) copies."""
    for n in lengths:
        xs = rng.uniform(-3.0, 3.0, size=n)
        xs[rng.random(n) < 0.1] = 0.0
        upstream = rng.normal(size=(k, n))
        values = stack.forward(xs).copy()
        yield xs, upstream, values, stack.pullback(upstream).copy()


@given(
    st.lists(st.integers(1, 24), max_size=3),
    st.sampled_from(ACTIVATIONS),
    st.sampled_from([1, 2]),
    st.permutations(BATCH_LENGTHS),
    st.integers(0, 2**16),
)
def test_stacked_pass_matches_a_layer_by_layer_reference(hidden, activation, k, lengths, seed):
    # every batch length through one stack, in a random order, so shorter
    # batches follow longer ones and the ones rows move
    widths = (1, *hidden, 1)
    rng = np.random.default_rng(seed)
    params = rng.normal(size=k * net_module._size(widths))
    stack = net_module._Stack(params, k, widths, activation, max(BATCH_LENGTHS))
    for xs, upstream, values, grad in stack_batches(stack, k, lengths, rng):
        want_values, want_grad = reference_stack_pass(params, k, widths, activation, xs, upstream)
        scale = max(1.0, np.abs(want_values).max())
        assert np.allclose(values, want_values, rtol=1e-12, atol=1e-12 * scale)
        scale = max(1.0, np.abs(want_grad).max())
        assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("hidden", [(8, 8), (64, 64), (100, 100, 100)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("k", [1, 2])
def test_stacked_pass_gives_the_reference_bits_at_the_profile_widths(hidden, activation, k):
    # the folded bias is the last term of each product, so at these widths
    # it is added last, as in the reference; single-row batches take numpy's
    # matrix-vector paths instead and may differ in a last bit
    widths = (1, *hidden, 1)
    rng = np.random.default_rng(len(hidden) * 10 + k)
    params = rng.normal(size=k * net_module._size(widths))
    stack = net_module._Stack(params, k, widths, activation, 1025)
    for xs, upstream, values, grad in stack_batches(stack, k, (1025, 999, 1000, 7, 1024), rng):
        want_values, want_grad = reference_stack_pass(params, k, widths, activation, xs, upstream)
        assert values.tobytes() == want_values.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


@given(st.floats(1e-300, 1.0, exclude_max=True), st.sampled_from([1.5, 2.0, 3.0, np.inf]))
@example(1e-300, 2.0)
@example(1e-200, 2.0)
@example(1e-300, 3.0)
def test_shortfall_density_norm_is_a_power_of_the_level(alpha, q):
    # the L^q norm of 1/alpha on (0, alpha], also where (1/alpha)**q overflows
    want = alpha ** (1.0 / q - 1.0)
    assert abs(distortion_density_norm(ExpectedShortfall(alpha), q) - want) <= 1e-12 * want


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


def row_major_pass(net, xs, upstream):
    """Values and the flat pullback of upstream, computed row-major:
    activations of shape (rows, width), each layer a @ W.T + b."""
    activate, derivative = {
        "linear": (lambda z: z, lambda a: 1.0),
        "relu": (lambda z: np.maximum(z, 0.0), lambda a: a > 0.0),
        "tanh": (np.tanh, lambda a: 1.0 - a * a),
    }[net.activation]
    layers = list(zip(net.weights, net.biases))
    acts = [xs[:, None]]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w.T + b
        acts.append(activate(z) if i < len(layers) - 1 else z)
    delta, grads = upstream[:, None], []
    for i in range(len(layers) - 1, -1, -1):
        grads[:0] = [(delta.T @ acts[i]).ravel(), delta.sum(axis=0)]
        if i:
            delta = (delta @ layers[i][0]) * derivative(acts[i])
    return acts[-1][:, 0], np.concatenate(grads)


@given(networks(), st.integers(1, 2049), st.integers(0, 2**16))
# 1-wide hidden layers: a one-column product inside, a one-row pullback
@example(init_mlp((1, 1, 5, 1), "tanh", RngSeed(0, 1)), 1025, 0)
@example(init_mlp((1, 7, 1, 1), "relu", RngSeed(0, 1)), 2049, 1)
def test_feature_major_passes_match_a_row_major_reference(net, rows, seed):
    rng = np.random.default_rng(seed)
    xs, upstream = rng.uniform(-3.0, 3.0, size=rows), rng.normal(size=rows)
    want_values, want_grad = row_major_pass(net, xs, upstream)
    values, pullback = value_and_grad(net, xs)
    grad = pullback(upstream)
    # sums over rows and layers may run in another order, so the tolerance
    # is relative to the largest entry
    scale = max(1.0, np.abs(want_values).max())
    assert np.allclose(values, want_values, rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(forward(net, xs), want_values, rtol=1e-12, atol=1e-12 * scale)
    scale = max(1.0, np.abs(want_grad).max())
    assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * scale)


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
