"""The benchmark's three workloads: inputs from a seed, one job, output checks.

Each workload is set up once per process (inputs generated from the seed,
config parsed) and then runs the same job again and again.  The first job's
outputs are the reference that later jobs must reproduce exactly.  Every
call into infconv that belongs to the job goes through ``api``, so the
tracer can put a span around it; set-up and checks call infconv directly and
are never traced.

Inputs are made here with numpy from the benchmark seed, never by the
program: the program receives only the generated config file or sample.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

import infconv
from infconv import cli, oracle, sharing

DESK_EPOCHS = 14
DESK_REL_TOL = 0.05  # a desk run this short must still land within 5% of the closed form

NARROW_SAMPLES = 10_000
NARROW_BATCH = 1_000
NARROW_EPOCHS = 20
NARROW_LR = 1e-2
NARROW_MEMBERS = 3
NARROW_EVAL_POINTS = 20_001
NARROW_LEVELS = (0.8, 0.7)

ORACLE_SAMPLES = 2_000
ORACLE_SEGMENTS = 6  # build_knots inserts 0, giving 7 actual segments
ORACLE_LEVELS = 4  # 5**7 = 78,125 candidates per solve


def _philox(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def jittered_uniform(seed: int, stream: int, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw in each of n equal strata of [lo, hi], shuffled.

    A random sample of the law whose pooled risk barely moves with the seed,
    so the oracle's value measures the solver, not sampling noise.
    """
    gen = _philox(seed, stream)
    xs = lo + (hi - lo) * (np.arange(n) + gen.uniform(size=n)) / n
    return gen.permutation(xs)


def truncnormal_draws(seed: int, stream: int, n: int, lo: float, hi: float) -> np.ndarray:
    """n i.i.d. standard normals truncated to [lo, hi], by inverse CDF."""
    a, b = special.ndtr(lo), special.ndtr(hi)
    return special.ndtri(a + (b - a) * _philox(seed, stream).uniform(size=n))


@dataclass
class Output:
    """What one job produced, reduced to what the checks and metrics need."""

    pooled_risk: float  # the job's pooled-risk answer; lower is better
    risk_ratio: float  # answer over the closed-form value; 1 is optimal
    rel_error: float
    fingerprint: object  # must be identical for every job of a run
    detail: dict


class DeskEntropic:
    """``infconv run`` on the README config with trimmed epochs."""

    name = "desk_entropic"
    batch_size = 1_000
    min_jobs = 3  # jobs take about ten seconds; a median of three ignores one slow job

    def __init__(self, seed: int, workdir: Path):
        self.config = workdir / "desk_entropic.txt"
        self.out = workdir / "desk_entropic_out"
        self.config.write_text(
            "name = desk_entropic\n"
            "distribution = uniform(-1.0, 1.0)\n"
            "rho1 = entropic(beta=2.0)\n"
            "rho2 = entropic(beta=3.0)\n"
            "profile = desk\n"
            f"seed = {seed}\n"
            f"epochs = {DESK_EPOCHS}\n",
            encoding="utf-8",
        )
        train = cli.load_experiment(self.config).train
        self.expected_steps = train.ensemble_size * train.epochs * math.ceil(
            train.n_samples / train.batch_size
        )

    def job(self, api) -> Output:
        with contextlib.redirect_stdout(io.StringIO()):
            code = api(cli.main)(["run", str(self.config), "--out", str(self.out)])
        files = {
            name: (self.out / name).read_bytes()
            for name in ("report.json", "loss_history.csv", "allocation_curve.csv")
        }
        report = json.loads(files["report.json"])
        return Output(
            pooled_risk=report["eval_loss_mean"],
            risk_ratio=report["eval_loss_mean"] / report["analytic_infimum"],
            rel_error=report["relative_error"],
            fingerprint=(code, files),
            detail={"exit_code": code},
        )

    def check(self, out: Output, ref: Output) -> list[str]:
        problems = []
        if out.detail["exit_code"] != 0:
            problems.append(f"infconv run exited {out.detail['exit_code']}")
        if out.fingerprint != ref.fingerprint:
            problems.append("report files differ from the first job's bytes")
        if not out.rel_error <= DESK_REL_TOL:
            problems.append(f"relative error {out.rel_error} above {DESK_REL_TOL}")
        return problems


class NarrowSpectral:
    """Spectral ES pair on a truncated normal, through the API."""

    name = "narrow_spectral"
    batch_size = NARROW_BATCH
    # Jobs take about 1.4 s and swing by 10% within seconds as the host's
    # speed drifts, so a run times about 28 s of them.
    min_jobs = 20

    def __init__(self, seed: int, workdir: Path):
        self.dist = infconv.TruncNormal(0.0, 1.0, -3.0, 3.0)
        self.samples = truncnormal_draws(seed, 1, NARROW_SAMPLES, -3.0, 3.0)
        self.spec1, self.spec2 = (infconv.es_spectral_density(a) for a in NARROW_LEVELS)
        self.es1, self.es2 = (infconv.ExpectedShortfall(a) for a in NARROW_LEVELS)
        self.config = infconv.TrainConfig(
            n_samples=NARROW_SAMPLES, batch_size=NARROW_BATCH, epochs=NARROW_EPOCHS,
            learning_rate=NARROW_LR, ensemble_size=NARROW_MEMBERS, hidden_widths=(8, 8),
            activation="relu", base_seed=seed,
        )
        self.expected_steps = NARROW_MEMBERS * NARROW_EPOCHS * math.ceil(NARROW_SAMPLES / NARROW_BATCH)
        # Stratification error: the grid is within range/n of the law in
        # Wasserstein-1, and an ES at level a is 1/a-Lipschitz in that distance.
        self.tolerance = 6.0 / (NARROW_EVAL_POINTS * min(NARROW_LEVELS))

    def job(self, api) -> Output:
        result = api(sharing.train_ensemble)(self.samples, self.spec1, self.spec2, self.config)
        grid = api(infconv.stratified_sample)(self.dist, NARROW_EVAL_POINTS)
        first = result.allocation.first(grid)
        pooled = api(sharing.pair_loss)(self.spec1, self.spec2, grid, first)
        closed = api(infconv.analytic_infconv)(self.es1, self.es2, self.dist)
        return Output(
            pooled_risk=pooled,
            risk_ratio=pooled / closed,
            rel_error=abs(pooled - closed) / abs(closed),
            fingerprint=(pooled, closed, result.history.member_losses.tobytes()),
            detail={"closed": closed, "losses": result.history.member_losses},
        )

    def check(self, out: Output, ref: Output) -> list[str]:
        problems = []
        if not (np.all(np.isfinite(out.detail["losses"])) and math.isfinite(out.pooled_risk)):
            problems.append("non-finite training or pooled loss")
        if out.pooled_risk < out.detail["closed"] - self.tolerance:
            problems.append(
                f"pooled risk {out.pooled_risk} below the closed form {out.detail['closed']}"
                f" by more than {self.tolerance}"
            )
        if out.fingerprint != ref.fingerprint:
            problems.append("results differ from the first job's")
        return problems


class OracleGrid:
    """Grid oracle: a linear pair, an entropic pair and a stability check."""

    name = "oracle_grid"
    batch_size = 0
    min_jobs = 3

    def __init__(self, seed: int, workdir: Path):
        sample_a = jittered_uniform(seed, 2, ORACLE_SAMPLES, -1.0, 1.0)
        sample_b = jittered_uniform(seed, 3, ORACLE_SAMPLES, -1.0, 1.0)
        self.ma = infconv.empirical(sample_a)
        self.mb = infconv.empirical(sample_b)
        self.linear = (
            infconv.Distortion(((0.5, 0.8), (0.5, 0.7))),
            infconv.ExpectedShortfall(0.9),
        )
        self.entropic = (infconv.Entropic(2.0), infconv.Entropic(3.0))
        self.closed = infconv.analytic_infconv(*self.entropic, infconv.Uniform(-1.0, 1.0))
        merged = oracle.build_knots(np.concatenate([sample_a, sample_b]), ORACLE_SEGMENTS)
        self.stability_candidates = 2 * (ORACLE_LEVELS + 1) ** (merged.size - 1)
        self.expected_steps = 0

    def job(self, api) -> Output:
        solve = api(oracle.brute_force_infconv)
        lin = solve(*self.linear, self.ma, segments=ORACLE_SEGMENTS, levels=ORACLE_LEVELS)
        ent = solve(*self.entropic, self.ma, segments=ORACLE_SEGMENTS, levels=ORACLE_LEVELS)
        stab = api(sharing.spectral_stability_check)(
            *self.linear, self.ma, self.mb, p=2.0, segments=ORACLE_SEGMENTS, levels=ORACLE_LEVELS
        )
        return Output(
            pooled_risk=0.5 * (lin.value + ent.value),
            risk_ratio=ent.value / self.closed,
            rel_error=abs(ent.value - self.closed) / abs(self.closed),
            fingerprint=(
                lin.value, lin.slopes.tobytes(), ent.value, ent.slopes.tobytes(),
                stab.value_a, stab.value_b, stab.rhs,
            ),
            detail={
                "results": ((self.linear, lin), (self.entropic, ent)),
                "holds": stab.holds,
                "candidates": lin.evaluations + ent.evaluations + self.stability_candidates,
            },
        )

    def check(self, out: Output, ref: Output) -> list[str]:
        problems = []
        for (spec1, spec2), res in out.detail["results"]:
            for level in (0.0, 1.0):
                corner = oracle.oracle_objective(
                    spec1, spec2, self.ma, res.knots, np.full(res.slopes.size, level)
                )
                # the grid holds this candidate; allow only matrix-product rounding
                if res.value > corner + 1e-12 * max(1.0, abs(corner)):
                    problems.append(f"grid minimum {res.value} above the all-{level:g} slope value {corner}")
        if not out.detail["holds"]:
            problems.append("stability report does not hold")
        if out.fingerprint != ref.fingerprint:
            problems.append("results differ from the first cycle's")
        return problems


WORKLOADS = {w.name: w for w in (DeskEntropic, NarrowSpectral, OracleGrid)}
