"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "[criterion N] PASS/FAIL" verdict (also echoed in
the terminal summary).  Trained losses are evaluated on deterministic
quantile-stratified samples, so every number here is reproducible bit for bit.
"""

import numpy as np
import pytest
from scipy import optimize

from infconv import (
    Entropic,
    ExpectedShortfall,
    RngSeed,
    TrainConfig,
    Uniform,
    analytic_infconv,
    draw,
    empirical,
    evaluate,
    fit_tail_cut,
    metric_d_mu,
    pair_loss,
    parse_risk_spec,
    spectral_stability_check,
    stratified_sample,
    train_ensemble,
    wasserstein_p,
)
from infconv.cli import parse_experiment, run_experiment
from infconv.measures import es_spectral_density
from infconv.net import ACTIVATIONS, forward, init_mlp, value_and_grad
from infconv.oracle import brute_force_infconv

EVAL_POINTS = 200_001
UNIFORM = "uniform(-1.0,1.0)"
TRUNCNORMAL = "truncnormal(0.0,1.0,-3.0,3.0)"


@pytest.fixture
def criterion(request):
    def check(number, clauses):
        bad = [msg for ok, msg in clauses if not ok]
        line = f"[criterion {number}] {'FAIL' if bad else 'PASS'}"
        print(line, flush=True)
        request.config._criterion_lines.append(line)
        assert not bad, f"criterion {number}: " + "; ".join(bad)

    return check


def _desk_report(name, distribution, rho1, rho2, activation):
    text = (
        f"name = {name}\n"
        f"distribution = {distribution}\n"
        f"rho1 = {rho1}\n"
        f"rho2 = {rho2}\n"
        f"activation = {activation}\n"
    )
    report, _ = run_experiment(parse_experiment(text))
    return report


def _eval_loss(rho1, rho2, distribution, allocation):
    grid = stratified_sample(distribution, EVAL_POINTS)
    return pair_loss(rho1, rho2, grid, allocation.first(grid))


@pytest.fixture(scope="module")
def entropic_uniform_reports():
    return {
        act: _desk_report("ent-uniform", UNIFORM, "entropic(2)", "entropic(3)", act)
        for act in ("relu", "tanh", "linear")
    }


@pytest.fixture(scope="module")
def distortion_uniform_reports():
    rho1 = "distortion(0.5*es(0.8)+0.5*es(0.7))"
    rho2 = "distortion(0.7*es(0.9)+0.3*es(0.5))"
    return {
        act: _desk_report("dist-uniform", UNIFORM, rho1, rho2, act)
        for act in ("relu", "tanh", "linear")
    }


@pytest.fixture(scope="module")
def heterogeneous_trainings():
    dist = Uniform(-1.0, 1.0)
    rho1, rho2 = ExpectedShortfall(0.9), Entropic(0.3)
    xs = draw(dist, 20_000, RngSeed(0, 0))
    out = {}
    for act in ("relu", "tanh", "linear"):
        cfg = TrainConfig(activation=act, base_seed=0)
        result = train_ensemble(xs, rho1, rho2, cfg)
        out[act] = dict(
            allocation=result.allocation,
            eval_loss=_eval_loss(rho1, rho2, dist, result.allocation),
        )
    return dict(samples=xs, dist=dist, rho1=rho1, rho2=rho2, by_activation=out)


def _loss_optimal_tail_cut(rho1, rho2, dist):
    # threshold of the tail cut min(x - k, 0) with the least pooled risk
    grid = stratified_sample(dist, EVAL_POINTS)
    best = optimize.minimize_scalar(
        lambda k: pair_loss(rho1, rho2, grid, np.minimum(grid - k, 0.0)),
        bounds=(float(grid[0]), float(grid[-1])),
        method="bounded",
    )
    return float(best.x)


def _curve_slope(report):
    coeffs = np.polyfit(report.curve_x, report.curve_phi1_mean, 1)
    return float(coeffs[0])


# -------------------------------------------------------------------- criteria


def test_criterion_1_entropic_uniform(criterion, entropic_uniform_reports):
    quadrature = analytic_infconv(Entropic(2.0), Entropic(3.0), Uniform(-1.0, 1.0))
    clauses = []
    for act, report in entropic_uniform_reports.items():
        rel = abs(report.ensemble_eval_loss - quadrature) / abs(quadrature)
        clauses.append((rel <= 0.005, f"{act}: trained loss off quadrature by {rel:.3%}"))
        clauses.append(
            (report.relative_error <= 0.005,
             f"{act}: member relative error {report.relative_error:.3%}")
        )
    l2 = entropic_uniform_reports["linear"].l2_allocation_error
    clauses.append((l2 is not None and l2 <= 1e-3, f"linear L2 vs 0.4x is {l2}"))
    criterion(1, clauses)


def test_criterion_2_entropic_truncated_normal(criterion):
    report = _desk_report("ent-normal", TRUNCNORMAL, "entropic(2)", "entropic(3)", "linear")
    quadrature = report.analytic_infimum
    loss = report.ensemble_eval_loss
    rel_ref = abs(loss - 0.09656) / 0.09656
    rel_quad = abs(loss - quadrature) / abs(quadrature)
    criterion(2, [
        (rel_ref <= 0.02, f"off the reference value 0.09656 by {rel_ref:.3%}"),
        (rel_quad <= 0.005, f"off our quadrature by {rel_quad:.3%}"),
    ])


def test_criterion_3_es_uniform(criterion):
    report = _desk_report("es-uniform", UNIFORM, "es(0.8)", "es(0.7)", "linear")
    slope = _curve_slope(report)
    rel = abs(report.ensemble_eval_loss - 0.2) / 0.2
    criterion(3, [
        (abs(slope - 1.0) <= 0.05, f"linear slope {slope} not within 0.05 of 1"),
        (rel <= 0.01, f"trained loss off 0.2 by {rel:.3%}"),
    ])


def test_criterion_4_distortion_ordering(criterion, distortion_uniform_reports):
    losses = {act: r.ensemble_eval_loss for act, r in distortion_uniform_reports.items()}
    rel = abs(losses["relu"] - 0.2105) / 0.2105
    criterion(4, [
        (losses["relu"] <= losses["tanh"], f"relu {losses['relu']} above tanh {losses['tanh']}"),
        (losses["tanh"] < losses["linear"], f"tanh {losses['tanh']} not below linear"),
        (losses["linear"] - losses["relu"] >= 0.005,
         f"linear-relu gap {losses['linear'] - losses['relu']} below 0.005"),
        (rel <= 0.02, f"relu loss off 0.2105 by {rel:.3%}"),
    ])


def test_criterion_5_heterogeneous_shape(criterion, heterogeneous_trainings):
    by_act = heterogeneous_trainings["by_activation"]
    losses = {act: info["eval_loss"] for act, info in by_act.items()}
    lowest = losses["relu"] <= min(losses["tanh"], losses["linear"])

    # training pins the share only up to a cash constant c, so the reference
    # map is min(t - k, 0) + c with c the mean residual at the fitted k; the
    # threshold clause keeps a flat or corner share from passing on c alone
    xs = heterogeneous_trainings["samples"]
    first = by_act["relu"]["allocation"].first
    k = fit_tail_cut(xs, first(xs))
    c = float(np.mean(first(xs) - np.minimum(xs - k, 0.0)))
    closest = metric_d_mu(first, lambda t: np.minimum(t - k, 0.0) + c, empirical(xs))
    k_ref = _loss_optimal_tail_cut(
        heterogeneous_trainings["rho1"], heterogeneous_trainings["rho2"],
        heterogeneous_trainings["dist"],
    )
    fitted = f"k={k:.4f}, c={c:.4f}"
    criterion(5, [
        (lowest, f"relu loss {losses['relu']} is not the lowest of {losses}"),
        (closest <= 0.05,
         f"distance {closest:.4f} to the fitted tail-cut map ({fitted}) exceeds 0.05"),
        (abs(k - k_ref) <= 0.02,
         f"fitted threshold ({fitted}) is {abs(k - k_ref):.4f} from the "
         f"loss-optimal cut k_ref={k_ref:.4f}, above 0.02"),
    ])


def test_criterion_6_oracle_equivalence(criterion):
    xs = draw(Uniform(-1.0, 1.0), 200, RngSeed(0, 0))
    m = empirical(xs)
    cfg = TrainConfig(
        n_samples=200, batch_size=20, epochs=150, learning_rate=1e-3,
        ensemble_size=3, hidden_widths=(64, 64), activation="linear", base_seed=0,
    )
    clauses = []
    mean_slope = None
    for tag, rho1, rho2 in (
        ("entropic", Entropic(2.0), Entropic(3.0)),
        ("es", ExpectedShortfall(0.8), ExpectedShortfall(0.7)),
    ):
        best = brute_force_infconv(rho1, rho2, m, segments=8, levels=4)
        trained = train_ensemble(xs, rho1, rho2, cfg)
        nn = pair_loss(rho1, rho2, xs, trained.allocation.first(xs))
        rel = abs(nn - best.value) / abs(best.value)
        clauses.append((rel <= 0.01, f"{tag}: NN loss {nn} vs brute {best.value} ({rel:.3%})"))
        if tag == "entropic":
            mean_slope = float(best.slopes.mean())
    clauses.append(
        (abs(mean_slope - 0.4) <= 0.25, f"entropic mean argmin slope {mean_slope}")
    )
    criterion(6, clauses)


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


def _kink_free_inputs(net, rng, n):
    # keep every relu pre-activation away from its kink at each input point
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


def test_criterion_7_gradient_suite(criterion):
    rng = np.random.default_rng(7)
    worst = 0.0
    for act in ACTIVATIONS:
        for case in range(50):
            net = init_mlp((1, 10, 8, 1), act, RngSeed(1000 + case, 3))
            # jitter all parameters: generic weights and non-zero biases keep
            # whole layers from dying identically and exercise bias gradients
            net.params = net.params + rng.normal(scale=0.2, size=net.params.size)
            if act == "relu":
                xs = _kink_free_inputs(net, rng, 5)
            else:
                xs = rng.uniform(-2.0, 2.0, size=5)
            upstream = rng.normal(size=5)
            exact = value_and_grad(net, xs)[1](upstream)
            approx = _finite_difference_grads(net, xs, upstream)
            scale = max(np.abs(approx).max(), 1e-12)
            err = np.abs(exact - approx).max() / scale
            worst = max(worst, err)
    criterion(7, [(worst <= 1e-5, f"max relative gradient error {worst:.2e}")])


def _random_measure(rng, depth=0):
    kinds = 5 if depth < 2 else 4
    kind = int(rng.integers(0, kinds))
    if kind == 0:
        return Entropic(float(rng.uniform(0.3, 5.0)))
    if kind == 1:
        return ExpectedShortfall(float(rng.uniform(0.05, 0.95)))
    if kind == 2:
        count = int(rng.integers(2, 4))
        weights = rng.uniform(0.2, 1.0, size=count)
        weights /= weights.sum()
        levels = rng.uniform(0.05, 0.95, size=count)
        spec = "+".join(f"{float(w)!r}*es({float(a)!r})" for w, a in zip(weights, levels))
        return parse_risk_spec(f"distortion({spec})")
    if kind == 3:
        return es_spectral_density(float(rng.uniform(0.1, 0.9)))
    w = float(rng.uniform(0.2, 0.8))
    terms = (
        f"{w!r}*entropic({float(rng.uniform(0.5, 3.0))!r})"
        f"+{1.0 - w!r}*es({float(rng.uniform(0.1, 0.9))!r})"
    )
    return parse_risk_spec(f"mix({terms})")


def test_criterion_8_axiom_suite(criterion):
    rng = np.random.default_rng(8)
    cases = 1000
    failures = {name: 0 for name in (
        "cash", "monotonicity", "normalization", "law_invariance", "convexity",
        "es_homogeneity",
    )}
    for _ in range(cases):
        n = int(rng.integers(5, 60))
        xs = rng.normal(scale=rng.uniform(0.2, 3.0), size=n)

        spec = _random_measure(rng)
        c = float(rng.uniform(-4.0, 4.0))
        base = evaluate(spec, empirical(xs))
        if abs(evaluate(spec, empirical(xs + c)) - (base - c)) > 1e-9 * (1.0 + abs(c)):
            failures["cash"] += 1

        spec = _random_measure(rng)
        lift = rng.uniform(0.0, 2.0, size=n)
        if evaluate(spec, empirical(xs + lift)) > evaluate(spec, empirical(xs)) + 1e-12:
            failures["monotonicity"] += 1

        spec = _random_measure(rng)
        if abs(evaluate(spec, empirical(np.zeros(n)))) > 1e-12:
            failures["normalization"] += 1

        spec = _random_measure(rng)
        if evaluate(spec, empirical(rng.permutation(xs))) != evaluate(spec, empirical(xs)):
            failures["law_invariance"] += 1

        spec = _random_measure(rng)
        ys = rng.normal(scale=rng.uniform(0.2, 3.0), size=n)
        lam = float(rng.uniform(0.0, 1.0))
        mix = evaluate(spec, empirical(lam * xs + (1.0 - lam) * ys))
        split = lam * evaluate(spec, empirical(xs)) + (1.0 - lam) * evaluate(spec, empirical(ys))
        if mix > split + 1e-10:
            failures["convexity"] += 1

        alpha = float(rng.uniform(0.05, 0.95))
        lam = float(rng.uniform(0.1, 10.0))
        one = evaluate(ExpectedShortfall(alpha), empirical(lam * xs))
        other = lam * evaluate(ExpectedShortfall(alpha), empirical(xs))
        if abs(one - other) > 1e-12 * max(1.0, abs(other)):
            failures["es_homogeneity"] += 1

    criterion(8, [
        (count == 0, f"{name}: {count} failures out of {cases}")
        for name, count in failures.items()
    ])


def test_criterion_9_convergence_diagnostics(criterion):
    dist = Uniform(-1.0, 1.0)
    reference = empirical(stratified_sample(dist, EVAL_POINTS))
    medians = []
    for n in (100, 1000, 10_000):
        distances = [
            wasserstein_p(empirical(draw(dist, n, RngSeed(seed, 0))), reference, 1.0)
            for seed in range(20)
        ]
        medians.append(float(np.median(distances)))

    rho1, rho2 = Entropic(2.0), Entropic(3.0)
    allocations = {}
    samples = {}
    for n in (2500, 10_000, 40_000):
        cfg = TrainConfig(
            n_samples=n, batch_size=500, epochs=100, learning_rate=1e-4,
            ensemble_size=3, hidden_widths=(64, 64), activation="relu", base_seed=0,
        )
        samples[n] = draw(dist, n, RngSeed(0, 0))
        allocations[n] = train_ensemble(samples[n], rho1, rho2, cfg).allocation
    coarse = metric_d_mu(
        allocations[2500].first, allocations[10_000].first, empirical(samples[2500])
    )
    fine = metric_d_mu(
        allocations[10_000].first, allocations[40_000].first, empirical(samples[10_000])
    )
    criterion(9, [
        (medians[0] > medians[1] > medians[2], f"W1 medians not decreasing: {medians}"),
        (fine < coarse, f"allocation distance grew: {coarse} -> {fine}"),
    ])


def test_criterion_10_stability_inequality(criterion):
    rng = np.random.default_rng(10)
    dists = (Uniform(-1.0, 1.0), Uniform(-2.0, 1.0), Uniform(-0.5, 1.5))
    violations = 0
    for case in range(100):
        spec1 = _random_tail_measure(rng)
        spec2 = _random_tail_measure(rng)
        dist = dists[int(rng.integers(0, len(dists)))]
        na, nb = (int(rng.integers(200, 600)) for _ in range(2))
        sa, sb = int(rng.integers(0, 1000)), int(rng.integers(1000, 2000))
        ma = empirical(draw(dist, na, RngSeed(sa, 0)))
        mb = empirical(draw(dist, nb, RngSeed(sb, 0)))
        report = spectral_stability_check(spec1, spec2, ma, mb, p=2.0)
        if not report.holds:
            violations += 1
    criterion(10, [(violations == 0, f"{violations} stability violations out of 100")])


def _random_tail_measure(rng):
    if rng.integers(0, 2) == 0:
        return ExpectedShortfall(float(rng.uniform(0.1, 0.9)))
    count = int(rng.integers(2, 4))
    weights = rng.uniform(0.2, 1.0, size=count)
    weights /= weights.sum()
    levels = rng.uniform(0.1, 0.9, size=count)
    spec = "+".join(f"{float(w)!r}*es({float(a)!r})" for w, a in zip(weights, levels))
    return parse_risk_spec(f"distortion({spec})")
