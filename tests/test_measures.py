"""Empirical risk measure evaluation, gradients, and the textual grammar."""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from infconv import (
    Combination,
    Distortion,
    EmpiricalMeasure,
    Entropic,
    ExpectedShortfall,
    Spectral,
    distortion_density_norm,
    empirical,
    es_spectral_density,
    eval_var,
    eval_with_grad,
    evaluate,
    parse_risk_spec,
    render_risk_spec,
)
from infconv.measures import _compile, _order_weights, sorted_risk
from references import es_reference, spectral_reference


def random_spec(rng, depth=0, parseable=False):
    """Random measure spec; depth caps mixture nesting."""
    if parseable:
        kinds = 4 if depth < 2 else 3
    else:
        kinds = 5 if depth < 2 else 4
    kind = int(rng.integers(0, kinds))
    if kind == 0:
        return Entropic(float(rng.uniform(0.3, 5.0)))
    if kind == 1:
        return ExpectedShortfall(float(rng.uniform(0.05, 0.95)))
    if kind == 2:
        k = int(rng.integers(1, 4))
        w = rng.uniform(0.1, 1.0, size=k)
        w = w / w.sum()
        comps = tuple((float(wi), float(rng.uniform(0.05, 0.95))) for wi in w)
        return Distortion(comps)
    if kind == 3 and not parseable:
        return es_spectral_density(float(rng.uniform(0.1, 0.9)))
    k = int(rng.integers(2, 4))
    w = rng.uniform(0.1, 1.0, size=k)
    w = w / w.sum()
    sub = [random_spec(rng, depth + 2, parseable) for _ in range(k)]
    return Combination(tuple((float(wi), s) for wi, s in zip(w, sub)))


def spaced_sample(rng, n, gap=1e-3):
    # strictly increasing values with a guaranteed minimum gap, then shuffled
    steps = rng.uniform(gap, 0.5, size=n)
    xs = np.cumsum(steps) - 0.5 * np.sum(steps)
    rng.shuffle(xs)
    return xs


# ---------------------------------------------------------------------------
# point values
# ---------------------------------------------------------------------------


def test_entropic_two_point_closed_form():
    m = empirical(np.array([-1.0, 1.0]))
    assert abs(evaluate(Entropic(1.0), m) - np.log(np.cosh(1.0))) < 1e-12


def test_entropic_matches_direct_formula():
    rng = np.random.default_rng(101)
    for _ in range(200):
        xs = rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 60)))
        beta = float(rng.uniform(0.5, 5.0))
        direct = beta * np.log(np.mean(np.exp(-xs / beta)))
        assert abs(evaluate(Entropic(beta), empirical(xs)) - direct) < 1e-12


def test_entropic_overflow_guarded():
    # a raw exp() would overflow long before exp(1e7)
    xs = np.array([-1e6, 0.0, 1.0, 2.0])
    v = evaluate(Entropic(0.1), empirical(xs))
    expected = 1e6 + 0.1 * np.log(1.0 / 4.0)
    assert np.isfinite(v)
    assert abs(v - expected) < 1e-6


@pytest.mark.parametrize("beta, xs, expected", [(1e-300, [-1e10, 1e10], 1e10), (1e-3, [-1e306, 1.0], 1e306)])
def test_entropic_exponents_that_overflow_count_as_zero(beta, xs, expected):
    # x / beta overflows for the larger sample; its term exp(-inf) is 0, so
    # the value is -min(xs) + beta * log(1/2), which rounds to -min(xs)
    m = empirical(np.array(xs))
    assert evaluate(Entropic(beta), m) == expected


def entropic_reference(xs, beta):
    """beta * log mean(exp(-x/beta)) at 60 digits, shifted by min(x) and taken
    through log1p and expm1, so that neither a mean next to 0 nor one next to
    1 loses digits."""
    with mpmath.workdps(60):
        b, low = mpmath.mpf(beta), mpmath.mpf(float(min(xs)))
        mean = mpmath.fsum(mpmath.expm1((low - mpmath.mpf(float(x))) / b) for x in xs) / len(xs)
        return float(b * mpmath.log1p(mean) - low)


@pytest.mark.parametrize("beta", [2.0, 1e6, 1e10, 1e14, 1e16, 1e300])
def test_entropic_keeps_its_digits_when_beta_dwarfs_the_range(beta):
    # log(mean(exp(-x/beta))) cancelled: 4.6e-9 off at beta = 1e6, 10% at
    # 1e14, and from 1e16 on it gave -min(x), the beta -> 0 limit
    m = empirical(np.random.default_rng(0).uniform(-1.0, 1.0, 200))
    want = entropic_reference(m.samples, beta)
    for got in (evaluate(Entropic(beta), m), eval_with_grad(Entropic(beta), m)[0]):
        assert abs(got - want) <= 1e-12 * abs(want)


@given(
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=50),
    st.floats(1.0, 4.0),
    st.floats(0.01, 0.5),
    st.sampled_from([-1.0, 1.0]),
    st.floats(0.0, 300.0),
)
@example([-1.0, 1.0], 1.0, 0.5, 1.0, 16.0)  # the log form gave -min(x) here
@example([1.0, 0.25], 1.0, 0.01, 1.0, 0.0)  # x / beta near 134, so the reference shifts too
def test_entropic_matches_a_60_digit_reference_for_any_large_beta(u, center, spread, sign, decades):
    # samples in sign * center * [1 - spread, 1 + spread] keep the value away
    # from 0, where any float result has unbounded relative error
    xs = np.sort(sign * center * (1.0 + spread * np.array(u)))
    assume(xs[-1] > xs[0])
    beta = (xs[-1] - xs[0]) * 10.0**decades
    want = entropic_reference(xs, beta)
    value, _ = sorted_risk(Entropic(beta), xs, grad=True)
    assert sorted_risk(Entropic(beta), xs) == value
    assert abs(value - want) <= 1e-12 * abs(want)


def test_var_picks_order_statistic():
    xs = np.arange(1, 101) / 100.0
    m = empirical(xs)
    for k in range(1, 100):
        assert eval_var(m, k / 100.0) == -xs[k - 1]
    # 0.07 * 100 = 7.000000000000001 in floats; the index nudge keeps k = 7
    assert eval_var(m, 0.07) == -0.07
    assert eval_var(m, 0.07 + 1e-6) == -0.08
    with pytest.raises(ValueError):
        eval_var(m, 1.0)
    with pytest.raises(ValueError):
        eval_var(m, 0.0)


def test_es_integer_tail():
    m = empirical(np.array([1.0, -1.0, 0.0]))
    # worst two of three: mean of {-1, 0} negated
    assert abs(evaluate(ExpectedShortfall(2.0 / 3.0), m) - 0.5) < 1e-12


def test_es_fractional_tail():
    m = empirical(np.array([0.4, -1.0, 0.2, -0.3]))
    # t = 0.625 * 4 = 2.5 -> two full samples plus half of the third
    expected = -(-1.0 + -0.3 + 0.5 * 0.2) / 2.5
    assert abs(evaluate(ExpectedShortfall(0.625), m) - expected) < 1e-12


def test_es_equals_tail_weight_dot():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 80))
        xs = rng.normal(size=n)
        alpha = float(rng.uniform(0.05, 0.99))
        w = _order_weights(ExpectedShortfall(alpha), n)
        assert w.shape == (n,)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0.0)
        direct = -float(np.sort(xs) @ w)
        assert abs(evaluate(ExpectedShortfall(alpha), empirical(xs)) - direct) < 1e-12


def test_es_at_a_level_of_k_over_n_weighs_exactly_k_ranks():
    # k/n times n may round past k, as 0.07 * 100 == 7.000000000000001 does
    for n in range(1, 120):
        for k in range(1, n):
            assert np.count_nonzero(_order_weights(ExpectedShortfall(k / n), n)) == k


def test_distortion_is_weighted_es():
    rng = np.random.default_rng(11)
    for _ in range(100):
        xs = rng.normal(size=int(rng.integers(2, 50)))
        m = empirical(xs)
        k = int(rng.integers(1, 4))
        w = rng.uniform(0.1, 1.0, size=k)
        w = w / w.sum()
        comps = tuple((float(wi), float(rng.uniform(0.05, 0.95))) for wi in w)
        direct = sum(wi * es_reference(xs, a) for wi, a in comps)
        assert abs(evaluate(Distortion(comps), m) - direct) < 1e-12


def test_spectral_step_density_matches_es():
    rng = np.random.default_rng(13)
    for _ in range(50):
        xs = rng.normal(size=int(rng.integers(3, 400)))
        alpha = float(rng.uniform(0.1, 0.9))
        sp = es_spectral_density(alpha)
        m = empirical(xs)
        assert evaluate(sp, m) == evaluate(ExpectedShortfall(alpha), m)
        assert abs(evaluate(sp, m) - es_reference(xs, alpha)) < 1e-12


def test_spectral_density_with_two_jumps_is_the_two_level_distortion():
    # 0.5 * es(0.2) + 0.5 * es(0.6) as a density with a jump at each level
    sp = Spectral([0.0, 0.2, 0.2, 0.6, 0.6, 1.0], [10 / 3, 10 / 3, 5 / 6, 5 / 6, 0.0, 0.0])
    rng = np.random.default_rng(14)
    for n in (1, 2, 5, 13, 40):
        xs = rng.normal(size=n)
        m = empirical(xs)
        assert abs(evaluate(sp, m) - spectral_reference(xs, sp)) < 1e-12
        assert abs(evaluate(sp, m) - evaluate(Distortion(((0.5, 0.2), (0.5, 0.6))), m)) < 1e-12


def test_es_spectral_density_is_es_at_every_level_or_refused():
    # the jump used to be a 1e-12-wide ramp, whose extra 0.5e-12/alpha of
    # mass failed the integral check below alpha = 5e-4; below the smallest
    # normal float ExpectedShortfall clamps its level, so only the
    # evaluations are compared there, and where 1/alpha or the trapezoid
    # overflows the level is refused (any warning fails the test)
    tiny = np.finfo(np.float64).tiny
    alphas = [*np.geomspace(5e-324, 0.5, 400), 5e-4, 4e-4, 1e-6, 5.6e-309, 8e-309, 1.1e-308,
              tiny, np.nextafter(1.0, 0.0)]
    refused = 0
    for alpha in map(float, alphas):
        try:
            sp = es_spectral_density(alpha)
        except ValueError:
            refused += 1
            assert alpha < tiny
            continue
        es = ExpectedShortfall(alpha)
        for n in (1, 7, 1000):
            xs = np.random.default_rng(n).normal(size=n)
            assert evaluate(sp, empirical(xs)) == evaluate(es, empirical(xs))
        if alpha >= tiny:
            for q in (1.0, 2.0, np.inf):
                assert distortion_density_norm(sp, q) == distortion_density_norm(es, q)
    assert 0 < refused < len(alphas)


def test_es_and_spectral_evaluations_read_the_compile_cache():
    m = empirical(np.random.default_rng(17).normal(size=1001))
    for leaf in (ExpectedShortfall(0.3), es_spectral_density(0.3)):
        first = evaluate(leaf, m)
        before = _compile.cache_info()
        assert evaluate(leaf, m) == first
        after = _compile.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        # the cached weights are the leaf's order weights, bit for bit
        assert first == float(-(_order_weights(leaf, m.size) @ m.samples))


def test_spectral_order_weights_normalized():
    rng = np.random.default_rng(17)
    for _ in range(50):
        sp = es_spectral_density(float(rng.uniform(0.1, 0.9)))
        n = int(rng.integers(1, 300))
        w = _order_weights(sp, n)
        assert w.shape == (n,)
        assert np.all(w >= -1e-15)
        assert abs(w.sum() - 1.0) < 1e-9


def test_combination_is_weighted_sum():
    rng = np.random.default_rng(19)
    for _ in range(100):
        xs = rng.normal(size=int(rng.integers(2, 40)))
        m = empirical(xs)
        spec = random_spec(rng)
        if not isinstance(spec, Combination):
            continue
        direct = sum(w * evaluate(s, m) for w, s in spec.terms)
        assert abs(evaluate(spec, m) - direct) < 1e-12


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_normalized_at_zero():
    rng = np.random.default_rng(23)
    m = empirical(np.zeros(17))
    for _ in range(50):
        assert abs(evaluate(random_spec(rng), m)) < 1e-12


def test_cash_additivity():
    rng = np.random.default_rng(29)
    for _ in range(200):
        xs = rng.normal(size=int(rng.integers(2, 60)))
        c = float(rng.uniform(-5.0, 5.0))
        spec = random_spec(rng)
        lhs = evaluate(spec, empirical(xs + c))
        rhs = evaluate(spec, empirical(xs)) - c
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(200):
        xs = rng.normal(size=int(rng.integers(2, 60)))
        ys = xs + rng.uniform(0.0, 2.0, size=xs.shape)
        spec = random_spec(rng)
        assert evaluate(spec, empirical(ys)) <= evaluate(spec, empirical(xs)) + 1e-12


def test_convexity_on_mixtures():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        xs = rng.normal(size=n)
        ys = rng.normal(size=n)
        lam = float(rng.uniform(0.0, 1.0))
        spec = random_spec(rng)
        mix = evaluate(spec, empirical(lam * xs + (1.0 - lam) * ys))
        bound = lam * evaluate(spec, empirical(xs)) + (1.0 - lam) * evaluate(spec, empirical(ys))
        assert mix <= bound + 1e-10


def test_law_invariance_under_permutation():
    rng = np.random.default_rng(41)
    for _ in range(100):
        xs = rng.normal(size=int(rng.integers(2, 60)))
        perm = rng.permutation(xs.size)
        spec = random_spec(rng)
        assert evaluate(spec, empirical(xs)) == evaluate(spec, empirical(xs[perm]))


def test_es_positive_homogeneity():
    rng = np.random.default_rng(43)
    for _ in range(100):
        xs = rng.normal(size=int(rng.integers(2, 60)))
        lam = float(rng.uniform(0.1, 4.0))
        alpha = float(rng.uniform(0.05, 0.95))
        lhs = evaluate(ExpectedShortfall(alpha), empirical(lam * xs))
        rhs = lam * evaluate(ExpectedShortfall(alpha), empirical(xs))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_grad_value_matches_evaluate():
    rng = np.random.default_rng(47)
    for _ in range(100):
        xs = rng.normal(size=int(rng.integers(2, 50)))
        spec = random_spec(rng)
        m = empirical(xs)
        value, grad = eval_with_grad(spec, m)
        assert value == evaluate(spec, m)
        assert grad.shape == xs.shape


def test_grad_sums_to_minus_one():
    # cash additivity forces the gradient mass to total -1
    rng = np.random.default_rng(53)
    for _ in range(200):
        xs = rng.normal(size=int(rng.integers(2, 50)))
        _, grad = eval_with_grad(random_spec(rng), empirical(xs))
        assert abs(grad.sum() + 1.0) < 1e-9


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(59)
    h = 1e-6
    for _ in range(60):
        xs = spaced_sample(rng, int(rng.integers(3, 14)))
        spec = random_spec(rng)
        _, grad = eval_with_grad(spec, empirical(xs))
        for i in range(xs.size):
            up = xs.copy()
            dn = xs.copy()
            up[i] += h
            dn[i] -= h
            fd = (evaluate(spec, empirical(up)) - evaluate(spec, empirical(dn))) / (2 * h)
            assert abs(grad[i] - fd) < 1e-5 * max(1.0, abs(fd))


def test_grad_follows_input_order():
    rng = np.random.default_rng(61)
    for _ in range(50):
        xs = spaced_sample(rng, 20)
        perm = rng.permutation(20)
        spec = random_spec(rng)
        _, g = eval_with_grad(spec, empirical(xs))
        _, gp = eval_with_grad(spec, empirical(xs[perm]))
        assert np.allclose(gp, g[perm], atol=1e-12)


# ---------------------------------------------------------------------------
# construction and grammar
# ---------------------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        Entropic(0.0)
    with pytest.raises(ValueError):
        Entropic(-1.0)
    with pytest.raises(ValueError):
        ExpectedShortfall(0.0)
    with pytest.raises(ValueError):
        ExpectedShortfall(1.5)
    with pytest.raises(ValueError):
        Distortion(((0.5, 0.8), (0.4, 0.7)))  # weights sum to 0.9
    with pytest.raises(ValueError):
        Distortion(())
    with pytest.raises(ValueError):
        Spectral(np.array([0.0, 0.5]), np.array([2.0, 2.0]))  # grid must end at 1
    with pytest.raises(ValueError):
        Spectral(np.array([0.0, 1.0]), np.array([0.5, 1.5]))  # increasing density
    with pytest.raises(ValueError, match="at most twice"):
        Spectral(np.array([0.0, 0.5, 0.5, 0.5, 1.0]), np.array([2.0, 2.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="non-increasing"):
        Spectral(np.array([0.0, 0.5, 0.5, 1.0]), np.array([1.0, 1.0, 3.0, 0.0]))  # upward jump
    with pytest.raises(ValueError):
        Combination(((1.0, "nope"),))


def test_measures_copy_the_callers_arrays_before_freezing():
    grid, values = np.array([0.0, 1.0]), np.array([1.0, 1.0])
    spectral = Spectral(grid=grid, values=values)
    samples, order = np.array([-1.0, 2.0]), np.array([1, 0])
    measure = EmpiricalMeasure(samples=samples, original_order=order)
    for arr in (grid, values, samples, order):
        assert arr.flags.writeable
    for arr in (spectral.grid, spectral.values, measure.samples, measure.original_order):
        assert not arr.flags.writeable
    grid[1] = 0.5
    samples[0] = 3.0
    assert spectral.grid[1] == 1.0 and measure.samples[0] == -1.0
    raw = np.array([2.0, -1.0])
    sorted_measure = empirical(raw)
    assert raw.flags.writeable
    assert not (sorted_measure.samples.flags.writeable or sorted_measure.original_order.flags.writeable)
    assert sorted_measure.original_order.dtype == np.int64


def test_combination_nesting_capped():
    spec = Entropic(1.0)
    for _ in range(3):
        spec = Combination(((1.0, spec),))
    with pytest.raises(ValueError):
        Combination(((1.0, spec),))


def test_parse_render_round_trip():
    rng = np.random.default_rng(67)
    for _ in range(200):
        spec = random_spec(rng, parseable=True)
        assert parse_risk_spec(render_risk_spec(spec)) == spec


def test_parse_accepts_flexible_forms():
    assert parse_risk_spec("ES( Alpha = 0.8 )") == ExpectedShortfall(0.8)
    assert parse_risk_spec("es(0.8)") == ExpectedShortfall(0.8)
    assert parse_risk_spec("Entropic(beta=2.5)") == Entropic(2.5)
    assert parse_risk_spec("entropic(2.5)") == Entropic(2.5)
    got = parse_risk_spec("distortion(0.5*es(0.8) + 0.5*es(alpha=0.7))")
    assert got == Distortion(((0.5, 0.8), (0.5, 0.7)))
    got = parse_risk_spec("mix(0.25*entropic(2) + 0.75*es(0.9))")
    assert got == Combination(((0.25, Entropic(2.0)), (0.75, ExpectedShortfall(0.9))))


def test_parse_rejects_malformed_specs():
    for text in (
        "es()",
        "es(alpha=2)",
        "gaussian(1.0)",
        "es(alpha=0.8) trailing",
        "mix(0.5*es(0.8))",  # weights must sum to one
        "distortion(1.0*entropic(1.0))",
        "es(alpha=0.8",
        "",
    ):
        with pytest.raises(ValueError):
            parse_risk_spec(text)


def test_parse_accepts_python_lexical_forms():
    assert parse_risk_spec("es((0.8))") == ExpectedShortfall(0.8)
    assert parse_risk_spec("entropic(beta=1_000.5,)") == Entropic(1000.5)
    assert parse_risk_spec("es(--0.8)") == ExpectedShortfall(0.8)
    got = parse_risk_spec("mix((0.25*entropic(2)) + 0.75*es(0.9),)")
    assert got == Combination(((0.25, Entropic(2.0)), (0.75, ExpectedShortfall(0.9))))


def test_parse_evaluates_nothing_and_bounds_nesting():
    deep = "mix(1*" * 1000 + "es(0.5)" + ")" * 1000
    for text in (
        "es(10**10**10)",
        "es(__import__('os'))",
        "es(True)",
        "es(0.8, alpha=0.8)",
        "es(0.8, 0.9)",
        "mix(0.5*es(0.8) - 0.5*es(0.7))",
        "os.es(0.8)",
        deep,
    ):
        with pytest.raises(ValueError):
            parse_risk_spec(text)
