"""Experiment runner: config parsing, orchestration, stable result files.

One experiment per flat key-value config file.  ``run`` draws data, trains
the ensemble, evaluates everything configured and writes ``report.json``,
``loss_history.csv`` and ``allocation_curve.csv``; ``oracle`` runs the
brute-force reference solver; ``compare`` aggregates report files into one
table.  All outputs are deterministic functions of (config, seeds): floats
are rendered with 9 significant digits, files are UTF-8 with fixed column
orders and a terminating newline.

Exit codes: 0 success, 2 config error, 3 training divergence, 4 oracle
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    CornerAllocation,
    ProportionalAllocation,
    analytic_allocation,
    analytic_infconv,
)
from .measures import (
    Combination,
    Distortion,
    RiskMeasure,
    empirical,
    parse_risk_spec,
    render_risk_spec,
)
from .oracle import BudgetError, brute_force_infconv
from .sampling import (
    Distribution,
    RngSeed,
    draw,
    parse_distribution,
    render_distribution,
    stratified_sample,
    support,
)
from .sharing import (
    EnsembleError,
    TrainConfig,
    pair_loss,
    train_ensemble,
)

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "ExperimentReport",
    "parse_experiment",
    "render_experiment",
    "load_experiment",
    "run_experiment",
    "write_report_files",
    "run_oracle",
    "compare_reports",
    "main",
]

_PROFILES = ("desk", "paper")
_CURVE_POINTS = 401
# Deterministic evaluation grids: reported losses and allocation errors are
# computed on quantile-stratified samples so they carry no Monte Carlo noise.
_EVAL_POINTS = 200_001
_L2_POINTS = 10_001


def _parse_int(value: str) -> int:
    return int(value, 10)


def _parse_widths(value: str) -> tuple[int, ...]:
    return tuple(int(part.strip(), 10) for part in value.split(","))


# How a training key is read and echoed, by the type of its TrainConfig default.
_CODECS = {
    int: (_parse_int, str),
    float: (float, repr),
    str: (str.lower, str),
    tuple: (_parse_widths, lambda widths: ",".join(str(w) for w in widths)),
}
# The training keys are TrainConfig's fields, in declaration order, which is
# also their order in a config; base_seed is the config's ``seed`` key.
_TRAIN_CODECS = {
    f.name: _CODECS[type(f.default)] for f in fields(TrainConfig) if f.name != "base_seed"
}
_KEYS = (
    "name",
    "distribution",
    "rho1",
    "rho2",
    "profile",
    "seed",
    *_TRAIN_CODECS,
    "oracle_segments",
    "oracle_levels",
    "out_dir",
)


class ConfigError(Exception):
    """Config file or report schema problem; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully resolved experiment: what to pool, how to train, where to write."""

    name: str
    distribution: Distribution
    rho1: RiskMeasure
    rho2: RiskMeasure
    profile: str
    train: TrainConfig
    oracle_segments: int | None
    oracle_levels: int | None
    out_dir: str


def _uses_distortion(spec: RiskMeasure) -> bool:
    if isinstance(spec, Distortion):
        return True
    if isinstance(spec, Combination):
        return any(_uses_distortion(term) for _, term in spec.terms)
    return False


def _profile_defaults(profile: str, rho1: RiskMeasure, rho2: RiskMeasure) -> TrainConfig:
    """The profile's training defaults: desk is TrainConfig's own defaults."""
    if profile == "desk":
        return TrainConfig()
    if profile == "paper":
        epochs = 200 if (_uses_distortion(rho1) or _uses_distortion(rho2)) else 300
        return TrainConfig(
            n_samples=100_000, epochs=epochs, learning_rate=1e-6,
            hidden_widths=(100, 100, 100), patience=1_000,
        )
    raise ConfigError(f"unknown profile {profile!r}, expected one of {_PROFILES}")


def _split_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        entries[key] = (value, lineno)
    return entries


def _parse_with(entries: dict[str, tuple[str, int]], key: str, parser, default):
    if key not in entries:
        return default
    value, lineno = entries[key]
    try:
        return parser(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from exc


def parse_experiment(text: str) -> ExperimentSpec:
    """Parse a flat key-value experiment config with line diagnostics."""
    return _resolve(_split_lines(text))


def _resolve(entries: dict[str, tuple[str, int]]) -> ExperimentSpec:
    """The experiment that split config entries describe; errors cite each
    entry's line."""
    for key in ("name", "distribution", "rho1", "rho2"):
        if key not in entries:
            raise ConfigError(f"missing required key {key!r}")

    name = entries["name"][0]
    distribution = _parse_with(entries, "distribution", parse_distribution, None)
    rho1 = _parse_with(entries, "rho1", parse_risk_spec, None)
    rho2 = _parse_with(entries, "rho2", parse_risk_spec, None)
    profile = _parse_with(entries, "profile", str.lower, "desk")
    if profile not in _PROFILES:
        raise ConfigError(f"field 'profile': expected one of {_PROFILES}, got {profile!r}")

    defaults = _profile_defaults(profile, rho1, rho2)
    seed = _parse_with(entries, "seed", _parse_int, 0)
    given = {
        key: _parse_with(entries, key, parse, None)
        for key, (parse, _) in _TRAIN_CODECS.items()
        if key in entries
    }
    try:
        RngSeed(seed, 0)
        train = replace(defaults, base_seed=seed, **given)
    except ValueError as exc:
        raise ConfigError(f"invalid training configuration: {exc}") from exc

    oracle_segments = _parse_with(entries, "oracle_segments", _parse_int, None)
    oracle_levels = _parse_with(entries, "oracle_levels", _parse_int, None)
    if (oracle_segments is None) != (oracle_levels is None):
        raise ConfigError("oracle_segments and oracle_levels must be set together")
    out_dir = entries.get("out_dir", (f"results/{name}", 0))[0]

    return ExperimentSpec(
        name=name, distribution=distribution, rho1=rho1, rho2=rho2, profile=profile,
        train=train, oracle_segments=oracle_segments, oracle_levels=oracle_levels,
        out_dir=out_dir,
    )


def _config_echo(spec: ExperimentSpec) -> dict[str, str]:
    """Canonical key -> value strings; also the render payload."""
    cfg = spec.train
    echo = {
        "name": spec.name,
        "distribution": render_distribution(spec.distribution),
        "rho1": render_risk_spec(spec.rho1),
        "rho2": render_risk_spec(spec.rho2),
        "profile": spec.profile,
        "seed": str(cfg.base_seed),
        **{key: render(getattr(cfg, key)) for key, (_, render) in _TRAIN_CODECS.items()},
    }
    if spec.oracle_segments is not None:
        echo["oracle_segments"] = str(spec.oracle_segments)
        echo["oracle_levels"] = str(spec.oracle_levels)
    echo["out_dir"] = spec.out_dir
    return echo


def render_experiment(spec: ExperimentSpec) -> str:
    """Canonical config text; parse_experiment(render_experiment(s)) == s."""
    lines = [f"{key} = {value}" for key, value in _config_echo(spec).items()]
    return "\n".join(lines) + "\n"


def load_experiment(
    path: str | Path,
    profile: str | None = None,
    seed: int | None = None,
    out: str | None = None,
) -> ExperimentSpec:
    """Read a config file, applying command-line overrides before resolution."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries = _split_lines(text)
    if profile is not None:
        entries["profile"] = (profile, 0)
    if seed is not None:
        entries["seed"] = (str(seed), 0)
    if out is not None:
        entries["out_dir"] = (out, 0)
    return _resolve(entries)


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Everything the run measured, reproducible from (config, seeds).

    ``final_*`` losses are evaluated on the full training sample; ``eval_*``
    losses on a deterministic quantile-stratified sample of the distribution,
    which removes Monte Carlo noise from the reported relative errors.
    """

    name: str
    version: str
    config: dict[str, str]
    final_loss_mean: float
    final_loss_std: float
    ensemble_final_loss: float
    eval_loss_mean: float
    eval_loss_std: float
    ensemble_eval_loss: float
    analytic_infimum: float | None
    relative_error: float | None
    relative_error_std: float | None
    l2_allocation_error: float | None
    allocation_cash_offset: float | None
    oracle_value: float | None
    oracle_slopes: list[float] | None
    oracle_evaluations: int | None
    curve_x: np.ndarray
    curve_phi1_mean: np.ndarray
    curve_phi1_std: np.ndarray
    curve_phi2_mean: np.ndarray
    curve_phi2_std: np.ndarray


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _round9(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _curve_columns(report: ExperimentReport) -> dict[str, np.ndarray]:
    """The curve_* fields, keyed by their allocation_curve column names."""
    return {
        f.name.removeprefix("curve_"): getattr(report, f.name)
        for f in fields(report)
        if f.name.startswith("curve_")
    }


def _training_sample(spec: ExperimentSpec) -> np.ndarray:
    """The stream-0 sample that training and the oracle share."""
    return draw(spec.distribution, spec.train.n_samples, RngSeed(spec.train.base_seed, 0))


def _solve_oracle(spec: ExperimentSpec, samples: np.ndarray):
    """Brute-force solve on samples at the configured grid resolution."""
    try:
        return brute_force_infconv(
            spec.rho1, spec.rho2, empirical(samples),
            segments=spec.oracle_segments, levels=spec.oracle_levels,
        )
    except ValueError as exc:
        raise ConfigError(f"grid oracle failed: {exc}") from exc


def _member_firsts(members, xs: np.ndarray) -> np.ndarray:
    """(members, n) first shares: one network pass per member over xs.

    Its mean over axis 0 is what EnsembleAllocation.first returns, bit for bit.
    """
    return np.stack([m.first(xs) for m in members])


def _l2_and_cash_offset(approx, exact, xs: np.ndarray) -> tuple[float, float]:
    """Mean squared difference of two first-share maps over xs once their
    mean difference c is taken out, and c.

    The pooled risk is flat along cash transfers, so training fixes the first
    share only up to a constant; c is that constant, not allocation error.
    """
    diff = approx.first(xs) - exact.first(xs)
    offset = float(np.mean(diff))
    return float(np.mean((diff - offset) ** 2)), offset


def run_experiment(spec: ExperimentSpec):
    """Draw data, train the ensemble, evaluate all metrics.

    Returns (report, history); writing files is a separate step.  The
    closed-form reference and the oracle come first: both are cheap, so a
    config they reject fails before any training.
    """
    samples = _training_sample(spec)
    try:
        analytic = analytic_infconv(spec.rho1, spec.rho2, spec.distribution)
    except ValueError as exc:
        raise ConfigError(f"closed-form reference failed: {exc}") from exc
    oracle = None if spec.oracle_segments is None else _solve_oracle(spec, samples)

    result = train_ensemble(samples, spec.rho1, spec.rho2, spec.train)
    members = result.allocation.members

    def losses(xs):
        """Each member's pooled risk on xs, and the ensemble's from the same passes."""
        firsts = _member_firsts(members, xs)
        member = np.array([pair_loss(spec.rho1, spec.rho2, xs, f) for f in firsts])
        return member, pair_loss(spec.rho1, spec.rho2, xs, firsts.mean(axis=0))

    final_losses, ensemble_final = losses(samples)
    eval_xs = stratified_sample(spec.distribution, _EVAL_POINTS)
    eval_losses, ensemble_eval = losses(eval_xs)

    relative_error = relative_error_std = None
    if analytic is not None:
        rel = np.abs(eval_losses - analytic) / abs(analytic)
        relative_error = float(rel.mean())
        relative_error_std = float(rel.std())

    descriptor = analytic_allocation(spec.rho1, spec.rho2)
    l2 = cash_offset = None
    if isinstance(descriptor, (ProportionalAllocation, CornerAllocation)):
        l2_xs = stratified_sample(spec.distribution, _L2_POINTS)
        l2, cash_offset = _l2_and_cash_offset(result.allocation, descriptor, l2_xs)

    lo, hi = support(spec.distribution)
    grid = np.linspace(lo, hi, _CURVE_POINTS)
    firsts = _member_firsts(members, grid)
    seconds = grid[None, :] - firsts

    report = ExperimentReport(
        name=spec.name,
        version=f"infconv-{__version__}",
        config=_config_echo(spec),
        final_loss_mean=float(final_losses.mean()),
        final_loss_std=float(final_losses.std()),
        ensemble_final_loss=float(ensemble_final),
        eval_loss_mean=float(eval_losses.mean()),
        eval_loss_std=float(eval_losses.std()),
        ensemble_eval_loss=float(ensemble_eval),
        analytic_infimum=analytic,
        relative_error=relative_error,
        relative_error_std=relative_error_std,
        l2_allocation_error=l2,
        allocation_cash_offset=cash_offset,
        oracle_value=None if oracle is None else oracle.value,
        oracle_slopes=None if oracle is None else [float(s) for s in oracle.slopes],
        oracle_evaluations=None if oracle is None else oracle.evaluations,
        curve_x=grid,
        curve_phi1_mean=firsts.mean(axis=0),
        curve_phi1_std=firsts.std(axis=0),
        curve_phi2_mean=seconds.mean(axis=0),
        curve_phi2_std=seconds.std(axis=0),
    )
    return report, result.history


def report_to_json(report: ExperimentReport) -> str:
    payload = {
        f.name: getattr(report, f.name) for f in fields(report) if not f.name.startswith("curve_")
    }
    payload["allocation_curve"] = {k: v.tolist() for k, v in _curve_columns(report).items()}
    return json.dumps(_round9(payload), indent=2) + "\n"


def write_report_files(spec: ExperimentSpec, report: ExperimentReport, history) -> list[Path]:
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    report_path = out / "report.json"
    report_path.write_text(report_to_json(report), encoding="utf-8")

    history_path = out / "loss_history.csv"
    rows = zip(history.mean_loss, history.std_loss, history.mean_lr)
    lines = ["epoch,mean_loss,std_loss,lr"]
    lines += [",".join([str(epoch), *map(_fmt, row)]) for epoch, row in enumerate(rows)]
    history_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    curve_path = out / "allocation_curve.csv"
    columns = _curve_columns(report)
    lines = [",".join(columns)]
    lines += [",".join(map(_fmt, row)) for row in zip(*columns.values())]
    curve_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    return [report_path, history_path, curve_path]


def run_oracle(spec: ExperimentSpec) -> Path:
    """Brute-force solve on the experiment's training sample; write oracle.json."""
    if spec.oracle_segments is None or spec.oracle_levels is None:
        raise ConfigError("oracle settings missing: set oracle_segments and oracle_levels")
    result = _solve_oracle(spec, _training_sample(spec))
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "value": result.value,
        "slopes": [float(s) for s in result.slopes],
        "knots": [float(k) for k in result.knots],
        "resolution": {"segments": int(result.knots.size - 1), "levels": result.levels},
        "evaluations": result.evaluations,
    }
    path = out / "oracle.json"
    path.write_text(json.dumps(_round9(payload), indent=2) + "\n", encoding="utf-8")
    slope_text = " ".join(_fmt(s) for s in result.slopes)
    print(f"minimum {_fmt(result.value)} at slopes [{slope_text}]")
    return path


def compare_reports(paths: list[str | Path]) -> str:
    """Aggregate report.json files into one CSV table.

    One row per report with the experiment name, activation, loss statistics
    and relative error (empty cell when absent); rows achieving the smallest
    mean loss within their experiment-name group carry a ``*`` marker.
    """
    if not paths:
        raise ConfigError("compare needs at least one report")
    rows = []
    for path in paths:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read report {path}: {exc}") from exc
        try:
            rel = data["relative_error"]
            rows.append(
                {
                    "name": data["name"],
                    "activation": data["config"]["activation"],
                    "mean_loss": float(data["final_loss_mean"]),
                    "std_loss": float(data["final_loss_std"]),
                    "rel_error": None if rel is None else float(rel),
                }
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"report {path} has an incompatible schema: {exc}") from exc

    group_min: dict[str, float] = {}
    for row in rows:
        prev = group_min.get(row["name"])
        if prev is None or row["mean_loss"] < prev:
            group_min[row["name"]] = row["mean_loss"]

    lines = ["name,activation,mean_loss,std_loss,rel_error,min_loss"]
    for row in rows:
        rel = "" if row["rel_error"] is None else _fmt(row["rel_error"])
        marker = "*" if row["mean_loss"] == group_min[row["name"]] else ""
        lines.append(
            f"{row['name']},{row['activation']},{_fmt(row['mean_loss'])},"
            f"{_fmt(row['std_loss'])},{rel},{marker}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _write_partial_history(spec: ExperimentSpec, exc: EnsembleError) -> None:
    try:
        out = Path(spec.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["member,epoch,loss"]
        for failure in exc.failures:
            for epoch, loss in enumerate(failure.history):
                lines.append(f"{failure.member},{epoch},{_fmt(loss)}")
        (out / "partial_history.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError:
        pass


def _cmd_run(args) -> int:
    spec = load_experiment(args.config, args.profile, args.seed, args.out)
    try:
        report, history = run_experiment(spec)
    except EnsembleError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        for failure in exc.failures:
            tail = ", ".join(_fmt(v) for v in failure.history[-5:])
            print(
                f"  member {failure.member} failed at epoch {failure.epoch}, "
                f"batch {failure.batch}: {failure.__cause__ or failure}; "
                f"last epoch losses: [{tail}]",
                file=sys.stderr,
            )
        _write_partial_history(spec, exc)
        return 3
    files = write_report_files(spec, report, history)
    print(f"{spec.name}: loss {_fmt(report.final_loss_mean)} +- {_fmt(report.final_loss_std)}")
    if report.relative_error is not None:
        print(f"relative error {_fmt(report.relative_error)}")
    if report.oracle_value is not None:
        print(f"oracle value {_fmt(report.oracle_value)}")
    for path in files:
        print(f"wrote {path}")
    return 0


def _cmd_oracle(args) -> int:
    spec = load_experiment(args.config, args.profile, args.seed, args.out)
    path = run_oracle(spec)
    print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    table = compare_reports(args.reports)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "compare.csv"
        path.write_text(table, encoding="utf-8")
        print(f"wrote {path}")
    else:
        sys.stdout.write(table)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infconv",
        description="Optimal risk sharing between two agents: train, solve, compare.",
    )
    parser.add_argument("--version", action="version", version=f"infconv-{__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--profile", choices=_PROFILES, default=None,
                       help="override the config's training profile")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--out", default=None, help="override the output directory")

    run_p = sub.add_parser("run", help="train an ensemble and write report files")
    run_p.add_argument("config", help="experiment config file")
    add_common(run_p)
    run_p.set_defaults(handler=_cmd_run)

    oracle_p = sub.add_parser("oracle", help="brute-force solve the configured instance")
    oracle_p.add_argument("config", help="experiment config file")
    add_common(oracle_p)
    oracle_p.set_defaults(handler=_cmd_oracle)

    cmp_p = sub.add_parser("compare", help="aggregate report.json files into a CSV table")
    cmp_p.add_argument("reports", nargs="+", help="report.json files")
    cmp_p.add_argument("--out", default=None, help="directory for compare.csv (default stdout)")
    cmp_p.set_defaults(handler=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
